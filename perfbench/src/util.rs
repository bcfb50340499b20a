//! Measurement plumbing shared by every workload: order statistics, the
//! FNV-1a64 output digest, process memory, the scratch directory and the
//! result the benchmark prints.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Linearly interpolated quantile `q` (in `[0, 1]`) of `values`.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (see [`quantile`]).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a64 digest of `bytes`, the same hash the repository uses for cache
/// keys and `.altr` checksums.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    alecto_types::fnv1a_64(alecto_types::FNV1A_OFFSET, bytes)
}

/// Peak resident set (`VmHWM`) of process `pid` (this process for `None`),
/// in MiB.
///
/// # Errors
///
/// Returns a message when `/proc` does not expose the value.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(|| "/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    let status = std::fs::read_to_string(&path).map_err(|err| format!("{path}: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// A scratch directory inside the benchmark's working directory, removed
/// with everything in it when dropped.
#[derive(Debug)]
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench_work/<label>-<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn create(label: &str) -> std::io::Result<Self> {
        let path = std::env::current_dir()?
            .join(".perfbench_work")
            .join(format!("{label}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory's absolute path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory named `name`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the directory cannot be created.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave the parent behind only when another run still uses it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One reported number. `base` says what it was measured over (cells,
/// records, demands, sweeps), and is printed beside it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub base: String,
}

/// Everything one run reports: its metrics plus the correctness tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form lines printed before the metrics (digests, attributions,
    /// caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        base: String,
    ) {
        self.metrics.push(Metric { name: name.into(), unit, value, base });
    }

    /// Records a correctness check: one attempted unit, failed when `ok` is
    /// false (the reason goes to stderr).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Folds a tally of checks made elsewhere (e.g. inside a cell executor).
    pub fn absorb(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// A count of checks made away from the [`Report`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}
