//! Content-addressed memoization of simulation cells.
//!
//! A [`CellCache`] stores finished [`SystemReport`]s keyed by
//! [`CellJob::cache_key`] — the canonical FNV-1a64 digest of everything that
//! determines a cell's result (algorithm, composite, full system
//! configuration, and each trace source's content fingerprint). Because the
//! workspace's determinism contract (see `docs/ARCHITECTURE.md`) guarantees
//! equal keys produce byte-identical reports, serving a cached report is
//! indistinguishable from re-simulating: the sweep server layers this cache
//! under the experiment engine via [`CellExecutor`] and repeated or
//! overlapping sweeps cost near zero. The CLI scopes a memory-only one in
//! for each run, so a cell that several figures share simulates once.
//!
//! Two tiers:
//!
//! - an in-memory [`LruTable`] bounded to a configurable number of entries
//!   (reports are a few KB each; the default capacity comfortably holds the
//!   full experiment suite);
//! - an optional on-disk tier (`--cache-dir`) that persists entries across
//!   restarts. Files are written with the temp-file + rename discipline (a
//!   crash never leaves a partial entry under its final name) and carry a
//!   self-checksum, so a corrupted or truncated entry is detected on load
//!   and transparently recomputed, never served.

#![deny(missing_docs)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use alecto_types::{fnv1a_64, LruTable, FNV1A_OFFSET};
use cpu::SystemReport;

use crate::runner::{run_cell, CellExecutor, CellJob};

/// First-line magic of an on-disk cell entry; the version suffix changes
/// whenever the entry layout or the report codec changes incompatibly, so a
/// new binary never misreads entries written by an old one (they miss and
/// are recomputed — the cache is only ever an optimisation).
pub const DISK_FORMAT_MAGIC: &str = "alecto-cell-v1";

/// A point-in-time snapshot of the cache counters, served by `/v1/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the in-memory tier.
    pub memory_hits: u64,
    /// Lookups answered from the disk tier (the entry is promoted to memory).
    pub disk_hits: u64,
    /// Lookups answered by simulating the cell from scratch.
    pub misses: u64,
    /// Entries evicted from the memory tier to respect the capacity bound.
    pub evictions: u64,
    /// Disk entries rejected as corrupt (checksum or decode failure).
    pub corrupt_entries: u64,
    /// Entries currently resident in the memory tier.
    pub resident: u64,
}

impl CacheCounters {
    /// Total lookups served from either tier.
    #[must_use]
    pub const fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }

    /// Fraction of lookups served from the cache (1.0 for an all-hit
    /// workload, 0.0 when the cache is empty or every key was new).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// A bounded, thread-safe, content-addressed cache of finished simulation
/// cells; see the [module docs](self) for the tiering and integrity story.
pub struct CellCache {
    /// The memory tier. Its O(capacity) key scans are noise next to a
    /// single cell simulation.
    memory: Mutex<LruTable<u64, SystemReport>>,
    dir: Option<PathBuf>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt_entries: AtomicU64,
}

impl std::fmt::Debug for CellCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CellCache")
            .field("capacity", &self.memory.lock().expect("cache lock").capacity())
            .field("dir", &self.dir)
            .field("counters", &self.counters())
            .finish()
    }
}

impl CellCache {
    /// Default memory-tier capacity: generously above the cell count of the
    /// full experiment suite, yet bounded (reports are a few KB, so this is
    /// tens of MB at worst).
    pub const DEFAULT_CAPACITY: usize = 4_096;

    /// Creates a memory-only cache holding at most `capacity` entries
    /// (`capacity` 0 is clamped to 1: a cache that can hold nothing would
    /// turn every lookup into a miss *and* an eviction).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            memory: Mutex::new(LruTable::new(capacity.max(1))),
            dir: None,
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            corrupt_entries: AtomicU64::new(0),
        }
    }

    /// Creates a cache whose entries also persist under `dir` (created if
    /// missing). The disk tier is unbounded — memory-tier eviction never
    /// deletes the file, so evicted entries are still disk hits later.
    ///
    /// # Errors
    ///
    /// Returns the error from creating `dir`.
    pub fn with_dir(capacity: usize, dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir: Some(dir), ..Self::new(capacity) })
    }

    /// The current counter values.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt_entries: self.corrupt_entries.load(Ordering::Relaxed),
            resident: self.memory.lock().expect("cache lock").len() as u64,
        }
    }

    /// Looks `key` up in the memory tier, falling back to the disk tier
    /// (promoting on success), and updates the hit/miss counters. `None`
    /// means the caller must simulate.
    #[must_use]
    pub fn lookup(&self, key: u64) -> Option<SystemReport> {
        let resident = self.memory.lock().expect("cache lock").touch(&key).cloned();
        if let Some(report) = resident {
            self.memory_hits.fetch_add(1, Ordering::Relaxed);
            return Some(report);
        }
        if let Some(report) = self.load_from_disk(key) {
            self.insert_memory(key, report.clone());
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some(report);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a freshly computed report under `key`: into the memory tier
    /// (evicting the least recently used entry when full) and, when a cache
    /// directory is configured, onto disk via temp-file + rename. Disk write
    /// failures are swallowed — the cache is an optimisation, not a
    /// correctness dependency — but leave the memory tier populated.
    pub fn insert(&self, key: u64, report: SystemReport) {
        if let Some(dir) = &self.dir {
            // Best effort: a full or read-only disk must not fail the sweep.
            let _ = write_entry(dir, key, &report);
        }
        self.insert_memory(key, report);
    }

    /// Memoized execution, the one path the CLI and the sweep server take:
    /// serves `cell` from the cache when its key is present, otherwise
    /// simulates it with [`run_cell`] and remembers the result. Returns the
    /// cell's key, its report and whether the cache held it. Concurrent misses
    /// on the same key may both simulate (the result is identical by
    /// construction; last insert wins) — the lock is never held across a
    /// simulation.
    #[must_use]
    pub fn get_or_run(&self, cell: &CellJob<'_>) -> (u64, SystemReport, bool) {
        let key = cell.cache_key();
        if let Some(report) = self.lookup(key) {
            return (key, report, true);
        }
        let report = run_cell(cell);
        self.insert(key, report.clone());
        (key, report, false)
    }

    fn insert_memory(&self, key: u64, report: SystemReport) {
        let mut memory = self.memory.lock().expect("cache lock");
        match memory.touch(&key) {
            // Concurrent misses on one key both simulate: the last insert wins.
            Some(resident) => *resident = report,
            None => {
                let (_, _, evicted) = memory.touch_or_insert_with(key, || report);
                if evicted.is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn load_from_disk(&self, key: u64) -> Option<SystemReport> {
        let dir = self.dir.as_ref()?;
        let path = entry_path(dir, key);
        let bytes = fs::read_to_string(&path).ok()?;
        match parse_entry(&bytes, key) {
            Ok(report) => Some(report),
            Err(_) => {
                // Detected corruption: count it, drop the bad file (best
                // effort) and let the caller recompute.
                self.corrupt_entries.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }
}

impl CellExecutor for CellCache {
    /// [`CellCache::get_or_run`]'s report.
    fn execute(&self, cell: &CellJob<'_>) -> SystemReport {
        self.get_or_run(cell).1
    }
}

/// The file a key persists under: 16 lowercase hex digits, `.cell` suffix.
fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.cell"))
}

/// Serialises a disk entry: a header line
/// `alecto-cell-v1 <key-hex> <body-fnv1a64-hex>` followed by the report
/// JSON. The checksum covers exactly the body bytes after the newline.
fn render_entry(key: u64, report: &SystemReport) -> String {
    let body = report_to_json(report);
    let checksum = fnv1a_64(FNV1A_OFFSET, body.as_bytes());
    format!("{DISK_FORMAT_MAGIC} {key:016x} {checksum:016x}\n{body}")
}

/// Writes an entry with the temp-file + rename discipline: the final name
/// only ever points at a fully written file.
fn write_entry(dir: &Path, key: u64, report: &SystemReport) -> io::Result<()> {
    let tmp = dir.join(format!(".{key:016x}.tmp.{}", std::process::id()));
    fs::write(&tmp, render_entry(key, report))?;
    let result = fs::rename(&tmp, entry_path(dir, key));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Parses and verifies a disk entry: magic, key echo, body checksum, then
/// the report itself. Any mismatch is corruption.
fn parse_entry(bytes: &str, expected_key: u64) -> Result<SystemReport, String> {
    let (header, body) = bytes.split_once('\n').ok_or("missing entry header")?;
    let mut parts = header.split(' ');
    if parts.next() != Some(DISK_FORMAT_MAGIC) {
        return Err(format!("bad magic in {header:?}"));
    }
    let key =
        parts.next().and_then(|h| u64::from_str_radix(h, 16).ok()).ok_or("unparsable entry key")?;
    if key != expected_key {
        return Err(format!("entry key {key:016x} does not match {expected_key:016x}"));
    }
    let checksum = parts
        .next()
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("unparsable entry checksum")?;
    if parts.next().is_some() {
        return Err("trailing header fields".to_string());
    }
    let actual = fnv1a_64(FNV1A_OFFSET, body.as_bytes());
    if actual != checksum {
        return Err(format!("body checksum {actual:016x} != header {checksum:016x}"));
    }
    report_from_json(body)
}

// --- SystemReport <-> JSON -------------------------------------------------
//
// A hand-rolled codec over `report::json` (no serde in the workspace). All
// counters are u64; they are emitted as plain JSON integers and parsed back
// through f64, which is exact up to 2^53 — far beyond any simulatable cycle
// count, and the entry checksum catches disagreement regardless. The one
// float (`ipc`) round-trips exactly because Rust's `{}` formatting emits the
// shortest representation that parses back to the same bits.

use crate::report::json::{self, JsonValue};

fn obj(pairs: &[(&str, String)]) -> String {
    let members: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}:{v}", json::string(k))).collect();
    format!("{{{}}}", members.join(","))
}

fn cache_stats_json(s: &memsys::CacheStats) -> String {
    obj(&[
        ("demand_hits", s.demand_hits.to_string()),
        ("demand_misses", s.demand_misses.to_string()),
        ("demand_mshr_merges", s.demand_mshr_merges.to_string()),
        ("prefetch_hits", s.prefetch_hits.to_string()),
        ("prefetch_fills", s.prefetch_fills.to_string()),
        ("evictions", s.evictions.to_string()),
        ("unused_prefetch_evictions", s.unused_prefetch_evictions.to_string()),
        ("useful_prefetch_hits", s.useful_prefetch_hits.to_string()),
        ("mshr_stall_cycles", s.mshr_stall_cycles.to_string()),
    ])
}

/// Serialises a [`SystemReport`] to a canonical single-line JSON object: the
/// disk-entry body. `tests/determinism.rs` hashes these exact bytes into its
/// pinned digests, so a format change moves those pins too. (The server's
/// `/v1/jobs` cell previews are built separately.)
#[must_use]
pub fn report_to_json(report: &SystemReport) -> String {
    let cores: Vec<String> = report
        .cores
        .iter()
        .map(|c| {
            let prefetchers: Vec<String> = c
                .prefetchers
                .iter()
                .map(|p| {
                    obj(&[
                        ("name", json::string(&p.name)),
                        ("lookups", p.stats.lookups.to_string()),
                        ("hits", p.stats.hits.to_string()),
                        ("misses", p.stats.misses.to_string()),
                        ("trainings", p.stats.trainings.to_string()),
                        ("evictions", p.stats.evictions.to_string()),
                        ("candidates_emitted", p.stats.candidates_emitted.to_string()),
                    ])
                })
                .collect();
            obj(&[
                ("workload", json::string(&c.workload)),
                ("selector", json::string(&c.selector)),
                ("instructions", c.instructions.to_string()),
                ("cycles", c.cycles.to_string()),
                ("ipc", json::number(c.ipc)),
                (
                    "timing",
                    obj(&[
                        ("demand_accesses", c.timing.demand_accesses.to_string()),
                        ("demand_latency_cycles", c.timing.demand_latency_cycles.to_string()),
                        ("mshr_stall_cycles", c.timing.mshr_stall_cycles.to_string()),
                        ("dram_queue_cycles", c.timing.dram_queue_cycles.to_string()),
                    ]),
                ),
                ("l1", cache_stats_json(&c.l1)),
                ("l2", cache_stats_json(&c.l2)),
                (
                    "quality",
                    obj(&[
                        ("covered_timely", c.quality.covered_timely.to_string()),
                        ("covered_untimely", c.quality.covered_untimely.to_string()),
                        ("uncovered", c.quality.uncovered.to_string()),
                        ("overpredicted", c.quality.overpredicted.to_string()),
                    ]),
                ),
                ("prefetchers", json::array(prefetchers)),
                ("training_occurrences", c.training_occurrences.to_string()),
                ("table_misses", c.table_misses.to_string()),
                ("prefetches_issued", c.prefetches_issued.to_string()),
                ("branch_mpki", c.branch_mpki.map_or_else(|| "null".to_string(), json::number)),
                ("rob_occupancy", c.rob_occupancy.map_or_else(|| "null".to_string(), json::number)),
            ])
        })
        .collect();
    obj(&[
        ("selector", json::string(&report.selector)),
        ("composite", json::string(&report.composite)),
        ("cores", json::array(cores)),
        ("l3", cache_stats_json(&report.l3)),
        (
            "dram",
            obj(&[
                ("accesses", report.dram.accesses.to_string()),
                ("row_hits", report.dram.row_hits.to_string()),
                ("row_misses", report.dram.row_misses.to_string()),
                ("queue_cycles", report.dram.queue_cycles.to_string()),
            ]),
        ),
        ("selector_storage_bits", report.selector_storage_bits.to_string()),
    ])
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    let n = v.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing {key}"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{key} is not a non-negative integer"));
    }
    Ok(n as u64)
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key).and_then(JsonValue::as_str).map(String::from).ok_or_else(|| format!("missing {key}"))
}

fn cache_stats_from(v: &JsonValue, key: &str) -> Result<memsys::CacheStats, String> {
    let v = v.get(key).ok_or_else(|| format!("missing {key}"))?;
    Ok(memsys::CacheStats {
        demand_hits: get_u64(v, "demand_hits")?,
        demand_misses: get_u64(v, "demand_misses")?,
        demand_mshr_merges: get_u64(v, "demand_mshr_merges")?,
        prefetch_hits: get_u64(v, "prefetch_hits")?,
        prefetch_fills: get_u64(v, "prefetch_fills")?,
        evictions: get_u64(v, "evictions")?,
        unused_prefetch_evictions: get_u64(v, "unused_prefetch_evictions")?,
        useful_prefetch_hits: get_u64(v, "useful_prefetch_hits")?,
        mshr_stall_cycles: get_u64(v, "mshr_stall_cycles")?,
    })
}

/// Parses a [`report_to_json`] document back into a [`SystemReport`].
///
/// # Errors
///
/// Returns a description of the first syntactic or structural problem; the
/// cache treats any error as a corrupt entry and recomputes.
pub fn report_from_json(body: &str) -> Result<SystemReport, String> {
    let doc = json::parse(body)?;
    let cores = doc
        .get("cores")
        .and_then(JsonValue::as_array)
        .ok_or("missing cores")?
        .iter()
        .map(|c| {
            let timing = c.get("timing").ok_or("missing timing")?;
            let quality = c.get("quality").ok_or("missing quality")?;
            let prefetchers = c
                .get("prefetchers")
                .and_then(JsonValue::as_array)
                .ok_or("missing prefetchers")?
                .iter()
                .map(|p| {
                    Ok(cpu::PrefetcherReport {
                        name: get_str(p, "name")?,
                        stats: prefetch::TableStats {
                            lookups: get_u64(p, "lookups")?,
                            hits: get_u64(p, "hits")?,
                            misses: get_u64(p, "misses")?,
                            trainings: get_u64(p, "trainings")?,
                            evictions: get_u64(p, "evictions")?,
                            candidates_emitted: get_u64(p, "candidates_emitted")?,
                        },
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(cpu::CoreReport {
                workload: get_str(c, "workload")?,
                selector: get_str(c, "selector")?,
                instructions: get_u64(c, "instructions")?,
                cycles: get_u64(c, "cycles")?,
                ipc: c.get("ipc").and_then(JsonValue::as_f64).ok_or("missing ipc")?,
                timing: memsys::TimingStats {
                    demand_accesses: get_u64(timing, "demand_accesses")?,
                    demand_latency_cycles: get_u64(timing, "demand_latency_cycles")?,
                    mshr_stall_cycles: get_u64(timing, "mshr_stall_cycles")?,
                    dram_queue_cycles: get_u64(timing, "dram_queue_cycles")?,
                },
                l1: cache_stats_from(c, "l1")?,
                l2: cache_stats_from(c, "l2")?,
                quality: memsys::PrefetchQuality {
                    covered_timely: get_u64(quality, "covered_timely")?,
                    covered_untimely: get_u64(quality, "covered_untimely")?,
                    uncovered: get_u64(quality, "uncovered")?,
                    overpredicted: get_u64(quality, "overpredicted")?,
                },
                prefetchers,
                training_occurrences: get_u64(c, "training_occurrences")?,
                table_misses: get_u64(c, "table_misses")?,
                prefetches_issued: get_u64(c, "prefetches_issued")?,
                // Optional so entries written before the pipeline metrics
                // existed still parse (they carried only Approx cells anyway).
                branch_mpki: c.get("branch_mpki").and_then(JsonValue::as_f64),
                rob_occupancy: c.get("rob_occupancy").and_then(JsonValue::as_f64),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let dram = doc.get("dram").ok_or("missing dram")?;
    Ok(SystemReport {
        selector: get_str(&doc, "selector")?,
        composite: get_str(&doc, "composite")?,
        cores,
        l3: cache_stats_from(&doc, "l3")?,
        dram: memsys::DramStats {
            accesses: get_u64(dram, "accesses")?,
            row_hits: get_u64(dram, "row_hits")?,
            row_misses: get_u64(dram, "row_misses")?,
            queue_cycles: get_u64(dram, "queue_cycles")?,
        },
        selector_storage_bits: get_u64(&doc, "selector_storage_bits")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu::{CompositeKind, SelectionAlgorithm};
    use machine::MachineSpec;

    fn tiny_cell_report(accesses: usize) -> (u64, SystemReport) {
        let sources = [traces::Suite::Spec06.source("lbm", accesses)];
        let config = MachineSpec::table1(1);
        let cell = CellJob {
            algorithm: SelectionAlgorithm::Alecto,
            composite: CompositeKind::GsCsPmp,
            config: &config,
            sources: &sources,
        };
        (cell.cache_key(), run_cell(&cell))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("alecto-cellcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn report_round_trips_through_json() {
        let (_, report) = tiny_cell_report(300);
        let json = report_to_json(&report);
        let back = report_from_json(&json).expect("round trip");
        assert_eq!(back, report);
        // Canonical form: re-encoding is byte-identical.
        assert_eq!(report_to_json(&back), json);
    }

    #[test]
    fn memory_tier_hits_and_misses() {
        let cache = CellCache::new(8);
        let (key, report) = tiny_cell_report(200);
        assert!(cache.lookup(key).is_none(), "cold cache must miss");
        cache.insert(key, report.clone());
        assert_eq!(cache.lookup(key).as_ref(), Some(&report));
        let c = cache.counters();
        assert_eq!((c.memory_hits, c.misses, c.resident), (1, 1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = CellCache::new(2);
        let (_, report) = tiny_cell_report(100);
        cache.insert(1, report.clone());
        cache.insert(2, report.clone());
        assert!(cache.lookup(1).is_some(), "touch 1 so 2 becomes the LRU entry");
        cache.insert(3, report);
        let c = cache.counters();
        assert_eq!((c.evictions, c.resident), (1, 2));
        assert!(cache.lookup(2).is_none(), "entry 2 was least recently used");
        assert!(cache.lookup(1).is_some() && cache.lookup(3).is_some());
    }

    #[test]
    fn executor_memoizes_identical_cells() {
        let cache = CellCache::new(8);
        let sources = [traces::Suite::Spec06.source("povray", 250)];
        let config = MachineSpec::table1(1);
        let cell = CellJob {
            algorithm: SelectionAlgorithm::Ipcp,
            composite: CompositeKind::GsCsPmp,
            config: &config,
            sources: &sources,
        };
        let (key, cold, hit) = cache.get_or_run(&cell);
        assert_eq!((key, hit), (cell.cache_key(), false));
        let warm = cache.execute(&cell);
        assert_eq!(cold, warm);
        assert!(cache.get_or_run(&cell).2, "a remembered cell is a hit");
        let c = cache.counters();
        assert_eq!((c.memory_hits, c.misses), (2, 1));
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = tmp_dir("persist");
        let (key, report) = tiny_cell_report(150);
        {
            let cache = CellCache::with_dir(8, &dir).expect("create cache dir");
            cache.insert(key, report.clone());
        }
        let cache = CellCache::with_dir(8, &dir).expect("reopen cache dir");
        assert_eq!(cache.lookup(key).as_ref(), Some(&report));
        let c = cache.counters();
        assert_eq!((c.disk_hits, c.memory_hits, c.misses), (1, 0, 0));
        // Promoted to memory: the second lookup no longer touches disk.
        assert!(cache.lookup(key).is_some());
        assert_eq!(cache.counters().memory_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_entries_are_rejected_not_served() {
        let dir = tmp_dir("corrupt");
        let (key, report) = tiny_cell_report(120);
        let cache = CellCache::with_dir(8, &dir).expect("create cache dir");
        cache.insert(key, report);
        let path = entry_path(&dir, key);

        // Flip one body byte: the checksum must catch it.
        let mut bytes = fs::read_to_string(&path).expect("entry readable");
        let flip = bytes.len() - 2;
        let original = bytes.as_bytes()[flip];
        bytes.replace_range(flip..=flip, if original == b'0' { "1" } else { "0" });
        fs::write(&path, &bytes).expect("rewrite entry");

        let reopened = CellCache::with_dir(8, &dir).expect("reopen cache dir");
        assert!(reopened.lookup(key).is_none(), "corrupt entry must read as a miss");
        let c = reopened.counters();
        assert_eq!((c.corrupt_entries, c.misses), (1, 1));
        assert!(!path.exists(), "corrupt entry is dropped so it cannot recur");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_misheadered_entries_are_corrupt() {
        let (key, report) = tiny_cell_report(110);
        let good = render_entry(key, &report);
        assert!(parse_entry(&good, key).is_ok());
        assert!(parse_entry(&good, key ^ 1).is_err(), "key echo must match");
        let truncated = &good[..good.len() / 2];
        assert!(parse_entry(truncated, key).is_err(), "truncated body fails the checksum");
        let wrong_magic = good.replacen(DISK_FORMAT_MAGIC, "alecto-cell-v0", 1);
        assert!(parse_entry(&wrong_magic, key).is_err(), "unknown versions never parse");
        assert!(parse_entry("", key).is_err());
    }
}
