//! The cell executor the timed sweeps run under, installed with
//! `harness::with_cell_executor`. It substitutes seeded sources for the
//! registry sources a figure builder asks for, optionally memoizes cells in a
//! `harness::CellCache`, checks every report, and accumulates host time per
//! cell so the traced run can split a sweep into cell time and runner time.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alecto_types::TraceSource;
use cpu::SystemReport;
use harness::{run_cell, CellCache, CellExecutor, CellJob};

use crate::util::Tally;

/// Inputs every executor of one workload shares.
#[derive(Debug, Default)]
pub struct CellInputs {
    /// Seeded replacement for each registry source, by benchmark name.
    pub substitutes: HashMap<String, TraceSource>,
    /// Expected retired instructions per source fingerprint (the sum of
    /// `gap + 1` over the source's records).
    pub instructions: HashMap<u64, u64>,
}

/// Seeds, checks, optionally memoizes and (when traced) times every cell of
/// a sweep.
pub struct BenchExecutor {
    inputs: Arc<CellInputs>,
    cache: Option<Arc<CellCache>>,
    traced: bool,
    tally: Mutex<Tally>,
    cell_nanos: AtomicU64,
    cells: AtomicU64,
    records: AtomicU64,
}

impl BenchExecutor {
    /// An executor simulating every cell afresh; `traced` adds a host-time
    /// span around each cell.
    #[must_use]
    pub fn new(inputs: Arc<CellInputs>, traced: bool) -> Self {
        Self {
            inputs,
            cache: None,
            traced,
            tally: Mutex::new(Tally::default()),
            cell_nanos: AtomicU64::new(0),
            cells: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    /// An untraced executor serving cells from (and filling) `cache`.
    #[must_use]
    pub fn memoizing(inputs: Arc<CellInputs>, cache: Arc<CellCache>) -> Self {
        Self { cache: Some(cache), ..Self::new(inputs, false) }
    }

    /// Runs `f` (a figure builder or a runner call) with this executor
    /// installed for every cell it executes.
    pub fn scope<R>(self: &Arc<Self>, f: impl FnOnce() -> R) -> R {
        harness::with_cell_executor(Arc::clone(self) as Arc<dyn CellExecutor>, f)
    }

    /// Takes the host seconds spent inside cells, the cell count and the
    /// simulated record count accumulated since the last call.
    pub fn take_cell_time(&self) -> (f64, u64, u64) {
        let nanos = self.cell_nanos.swap(0, Ordering::Relaxed);
        let cells = self.cells.swap(0, Ordering::Relaxed);
        let records = self.records.swap(0, Ordering::Relaxed);
        (nanos as f64 * 1e-9, cells, records)
    }

    /// Takes the checks made since the last call.
    pub fn take_tally(&self) -> Tally {
        std::mem::take(&mut *self.tally.lock().expect("tally lock"))
    }

    fn record_check(&self, result: Result<(), String>) {
        let mut tally = self.tally.lock().expect("tally lock");
        tally.attempted += 1;
        if let Err(why) = result {
            tally.failed += 1;
            eprintln!("perfbench: check failed: {why}");
        }
    }
}

impl CellExecutor for BenchExecutor {
    fn execute(&self, cell: &CellJob<'_>) -> SystemReport {
        let sources: Vec<TraceSource> = cell
            .sources
            .iter()
            .map(|s| self.inputs.substitutes.get(s.name()).unwrap_or(s).clone())
            .collect();
        let job = CellJob { sources: &sources, ..*cell };
        let start = self.traced.then(Instant::now);
        let report = match &self.cache {
            Some(cache) => {
                let key = job.cache_key();
                cache.lookup(key).unwrap_or_else(|| {
                    let report = run_cell(&job);
                    cache.insert(key, report.clone());
                    report
                })
            }
            None => run_cell(&job),
        };
        if let Some(start) = start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.cell_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
        self.cells.fetch_add(1, Ordering::Relaxed);
        let records: usize =
            (0..job.config.cores).map(|core| sources[core % sources.len()].memory_accesses()).sum();
        self.records.fetch_add(records as u64, Ordering::Relaxed);
        self.record_check(check_report(&job, &report, &self.inputs.instructions));
        report
    }
}

/// The per-cell correctness gate: one core report per configured core, each
/// retiring exactly the instructions its trace carries, with
/// `ipc == instructions / cycles` inside `(0, commit width]`.
///
/// # Errors
///
/// Returns what was violated.
pub fn check_report(
    job: &CellJob<'_>,
    report: &SystemReport,
    expected: &HashMap<u64, u64>,
) -> Result<(), String> {
    let what = format!("{} on {}", job.algorithm.label(), job.sources[0].name());
    if report.cores.len() != job.config.cores {
        return Err(format!(
            "{what}: {} core reports for {} cores",
            report.cores.len(),
            job.config.cores
        ));
    }
    let width = f64::from(job.config.commit_width);
    for (i, core) in report.cores.iter().enumerate() {
        let source = &job.sources[i % job.sources.len()];
        let Some(&instructions) = expected.get(&source.fingerprint()) else {
            return Err(format!("{what}: no instruction count for source {}", source.name()));
        };
        if core.instructions != instructions {
            return Err(format!(
                "{what}: core {i} retired {} instructions, its trace carries {instructions}",
                core.instructions
            ));
        }
        #[allow(clippy::float_cmp)] // the report derives ipc from exactly these integers
        let exact = core.ipc == core.instructions as f64 / core.cycles as f64;
        if !exact || core.ipc <= 0.0 || core.ipc > width {
            return Err(format!(
                "{what}: core {i} ipc {} vs {}/{} cycles (commit width {width})",
                core.ipc, core.instructions, core.cycles
            ));
        }
    }
    Ok(())
}
