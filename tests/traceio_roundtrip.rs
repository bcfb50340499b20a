//! Record/replay round trips through real `.altr` files: every registered
//! benchmark survives the disk round trip record-for-record, and — the
//! acceptance bar for the trace subsystem — replaying a recorded trace
//! through the full hierarchy × selector grid emits report cells
//! byte-identical to running the same benchmark from its generated
//! `TraceSource`, at every worker count.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use alecto_repro::prelude::*;
use alecto_repro::types::{MemoryRecord, TraceSource};
use harness::report::experiments_to_json;
use harness::RunScale;
use proptest::prelude::*;
use traces::Suite;

/// A collision-free scratch path that cleans up on drop.
struct ScratchFile(PathBuf);

impl ScratchFile {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        Self(
            std::env::temp_dir()
                .join(format!("alecto-roundtrip-{}-{tag}-{unique}.altr", std::process::id())),
        )
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn record(source: &TraceSource, tag: &str) -> (ScratchFile, TraceSource) {
    let scratch = ScratchFile::new(tag);
    let count = traceio::record_source(source, 0, &scratch.0).expect("record");
    assert_eq!(count as usize, source.memory_accesses());
    let replayed = traceio::file_source(&scratch.0, None).expect("open recorded trace");
    (scratch, replayed)
}

/// What one replay of `source` carries: its name, intensity flag and records.
fn replay(source: &TraceSource) -> (String, bool, Vec<MemoryRecord>) {
    (source.name().to_string(), source.memory_intensive(), source.records().collect())
}

/// Flattened registry: every (suite, benchmark) pair.
fn registry() -> Vec<(Suite, &'static str)> {
    Suite::ALL.iter().flat_map(|s| s.benchmarks().into_iter().map(move |b| (*s, b))).collect()
}

proptest! {
    // Disk round trip ≡ generation for a random registered benchmark ×
    // access budget: same name, same intensity flag, same records.
    #[test]
    fn every_registered_benchmark_survives_the_disk_round_trip(
        bench_idx in 0usize..75,
        accesses in 1usize..400,
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let source = suite.source(name, accesses);
        let (_scratch, replayed) = record(&source, "prop");
        prop_assert_eq!(replayed.name(), name);
        prop_assert_eq!(replayed.memory_accesses(), accesses);
        prop_assert_eq!(replay(&replayed), replay(&source));
    }
}

#[test]
fn every_registered_benchmark_round_trips_at_fixed_small_budgets() {
    // The proptest above samples; this sweep is exhaustive over the
    // registry at two budgets so a single broken generator cannot hide.
    for (suite, name) in registry() {
        for accesses in [1usize, 127] {
            let source = suite.source(name, accesses);
            let (_scratch, replayed) = record(&source, "sweep");
            assert_eq!(replay(&replayed), replay(&source), "{name}@{accesses}");
        }
    }
}

#[test]
fn replayed_grid_cells_are_byte_identical_across_sources_and_worker_counts() {
    // The acceptance bar: record → replay produces the same
    // alecto-bench-v2 report — byte for byte — as the generated-source run,
    // and neither depends on the worker count.
    let accesses = 600;
    let generated = traces::Suite::Spec06.source("mcf", accesses);
    let (_scratch, replayed) = record(&generated, "grid");

    let reports: Vec<String> = [(&generated, 1), (&generated, 4), (&replayed, 1), (&replayed, 3)]
        .into_iter()
        .map(|(source, jobs)| {
            let scale = RunScale::with_accesses(accesses, accesses).with_jobs(jobs);
            let experiment = harness::figures::replay(std::slice::from_ref(source), &scale);
            experiments_to_json(&[experiment])
        })
        .collect();
    for (i, report) in reports.iter().enumerate().skip(1) {
        assert_eq!(report, &reports[0], "report {i} diverged from the jobs=1 generated-source run");
    }
    // The report is not degenerate: it carries one cell per algorithm of
    // the main comparison, all with finite speedups.
    let parsed = harness::report::json::parse(&reports[0]).expect("well-formed report");
    let cells = parsed
        .get("experiments")
        .and_then(harness::report::json::JsonValue::as_array)
        .expect("experiments")[0]
        .get("cells")
        .and_then(harness::report::json::JsonValue::as_array)
        .expect("cells");
    assert_eq!(cells.len(), 5);
}

#[test]
fn file_scheme_sources_drop_into_multicore_runs() {
    // A recorded trace is a first-class TraceSource: once a `file:` spec is
    // resolved through the harness resolver, per-core address slicing and
    // System::run_sources work on it unchanged.
    let generated = traces::Suite::Parsec.source("canneal", 300);
    let (scratch, _) = record(&generated, "mc");
    let spec = format!("file:{}", scratch.0.display());
    let per_core: Vec<TraceSource> = (0..2)
        .map(|i| {
            harness::figures::resolve_trace_spec(&spec, Some(300))
                .expect("file scheme resolves")
                .0
                .with_addr_offset((i as u64) << 40)
        })
        .collect();
    let mut system = cpu::System::new(
        MachineSpec::table1(2),
        SelectionAlgorithm::Alecto,
        CompositeKind::GsCsPmp,
    );
    let report = system.run_sources(&per_core).expect("non-empty sources");
    assert_eq!(report.cores.len(), 2);
    assert!(report.cores.iter().all(|c| c.ipc > 0.0));

    // And the identical run from the generated source matches exactly.
    let gen_per_core: Vec<TraceSource> =
        (0..2).map(|i| generated.clone().with_addr_offset((i as u64) << 40)).collect();
    let mut system = cpu::System::new(
        MachineSpec::table1(2),
        SelectionAlgorithm::Alecto,
        CompositeKind::GsCsPmp,
    );
    assert_eq!(system.run_sources(&gen_per_core).expect("non-empty sources"), report);
}

#[test]
fn champsim_import_round_trips_through_the_simulator() {
    // An external text trace imports to .altr and then drives the same
    // simulation as the equivalent in-memory workload.
    let text = "# synthetic champsim-style dump\n\
                0x400, 0x10000, L, 3\n\
                0x400, 0x10040, L, 3\n\
                0x404  0x20000  S  1\n\
                1028,131072,w,0,1\n";
    let scratch = ScratchFile::new("import");
    let count =
        traceio::import_text(std::io::Cursor::new(text.as_bytes()), "external", true, &scratch.0)
            .expect("import");
    assert_eq!(count, 4);
    let replayed = traceio::file_source(&scratch.0, None).expect("open");
    let workload = replayed.collect();
    assert_eq!(workload.name, "external");
    assert_eq!(workload.records.len(), 4);
    assert_eq!(workload.records[0].pc.raw(), 0x400);
    assert_eq!(workload.records[2].addr.raw(), 0x20000);
    assert!(workload.records[3].dependent);
    let report = cpu::System::new(
        MachineSpec::table1(1),
        SelectionAlgorithm::Alecto,
        CompositeKind::GsCsPmp,
    )
    .run_sources(&[replayed])
    .expect("one source");
    assert!(report.cores[0].instructions > 0);
}
