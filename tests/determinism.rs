//! Determinism lock-in for the parallel experiment engine: the `SpeedupGrid`
//! a sweep produces must be *exactly* equal — cell by cell, report by
//! report — whether the cells run serially (`jobs = 1`), across a worker
//! pool, or twice in a row. This is the contract that lets `--jobs N` be a
//! pure wall-clock knob and lets CI compare `BENCH_*.json` files across
//! machines.

use alecto_repro::types::{
    fnv1a_64, Addr, MemoryRecord, Pc, SplitMix64, TraceSource, FNV1A_OFFSET,
};
use cpu::{CompositeKind, CoreModelKind, SelectionAlgorithm};
use harness::cellcache::report_to_json;
use harness::runner::{run_cell, run_multicore_mix, run_single_core_suite, CellJob};
use harness::SpeedupGrid;
use machine::MachineSpec;

fn quick_suite_with_model(jobs: usize, core_model: CoreModelKind) -> SpeedupGrid {
    let sources = vec![
        traces::Suite::Spec06.source("lbm", 800),
        traces::Suite::Spec06.source("mcf", 800),
        traces::Suite::Spec06.source("GemsFDTD", 800),
        traces::Suite::Spec17.source("povray_17", 800),
    ];
    run_single_core_suite(
        &sources,
        &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto],
        CompositeKind::GsCsPmp,
        &MachineSpec::table1(1).with_core_model(core_model),
        jobs,
    )
}

fn quick_suite(jobs: usize) -> SpeedupGrid {
    quick_suite_with_model(jobs, CoreModelKind::Approx)
}

fn canneal_mix(jobs: usize, core_model: CoreModelKind) -> SpeedupGrid {
    run_multicore_mix(
        "canneal-x4",
        &traces::parsec::per_core_sources("canneal", 500, 4),
        &[SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto],
        CompositeKind::GsCsPmp,
        &MachineSpec::table1(4).with_core_model(core_model),
        jobs,
    )
}

/// FNV-1a64 over the canonical JSON of every report in `grid`: each
/// benchmark's baseline, then its algorithms in run order.
fn grid_digest(grid: &SpeedupGrid) -> u64 {
    grid.benchmarks
        .iter()
        .flat_map(|b| std::iter::once(&b.baseline).chain(b.algorithms.iter().map(|a| &a.report)))
        .fold(FNV1A_OFFSET, |h, report| fnv1a_64(h, report_to_json(report).as_bytes()))
}

/// Asserts the single-core suite and the 4-core mix under `core_model` hash
/// to the pinned digests.
fn assert_digests(core_model: CoreModelKind, suite: u64, mix: u64) {
    let got = (
        grid_digest(&quick_suite_with_model(1, core_model)),
        grid_digest(&canneal_mix(1, core_model)),
    );
    assert_eq!(
        got,
        (suite, mix),
        "{core_model:?} reports moved: (suite, canneal-x4) digests are {:#018x}, {:#018x}",
        got.0,
        got.1
    );
}

fn assert_grids_identical(a: &SpeedupGrid, b: &SpeedupGrid) {
    // `assert_eq!` on the whole grid would suffice, but comparing cell by
    // cell first localises any regression to a benchmark × algorithm pair.
    assert_eq!(a.algorithm_labels, b.algorithm_labels);
    assert_eq!(a.benchmarks.len(), b.benchmarks.len());
    for (ba, bb) in a.benchmarks.iter().zip(&b.benchmarks) {
        assert_eq!(ba.benchmark, bb.benchmark);
        assert_eq!(ba.baseline, bb.baseline, "baseline of {} diverged", ba.benchmark);
        for (ra, rb) in ba.algorithms.iter().zip(&bb.algorithms) {
            assert_eq!(ra.algorithm, rb.algorithm);
            assert!(
                ra.speedup == rb.speedup,
                "{} × {}: {} vs {}",
                ba.benchmark,
                ra.algorithm,
                ra.speedup,
                rb.speedup
            );
            assert_eq!(ra.report, rb.report, "{} × {} report diverged", ba.benchmark, ra.algorithm);
        }
    }
    assert_eq!(a, b);
}

#[test]
fn serial_and_parallel_suites_are_cell_for_cell_identical() {
    let serial = quick_suite(1);
    let parallel = quick_suite(4);
    assert_grids_identical(&serial, &parallel);
}

#[test]
fn timing_fields_are_identical_across_worker_counts() {
    // The cycle-level timing model is pure bookkeeping over the same
    // deterministic access stream: total cycles, IPC and average
    // memory-access latency — the fields the alecto-bench-v2 report gates —
    // must be bit-identical at any worker count, not merely close.
    let serial = quick_suite(1);
    let parallel = quick_suite(4);
    let cells = |grid: &SpeedupGrid| harness::report::grid_cells(grid);
    let a = cells(&serial);
    let b = cells(&parallel);
    assert_eq!(a.len(), b.len());
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca, cb, "v2 cell diverged: {} × {}", ca.benchmark, ca.algorithm);
        assert!(ca.cycles > 0, "{} × {} simulated no cycles", ca.benchmark, ca.algorithm);
        assert!(ca.instructions > 0);
        assert!(
            ca.avg_mem_latency > 0.0 && ca.avg_mem_latency.is_finite(),
            "{} × {} has no memory-latency signal",
            ca.benchmark,
            ca.algorithm
        );
        assert!(ca.ipc > 0.0 && ca.ipc.is_finite());
    }
    // The per-core breakdown underneath agrees too, including the stall
    // attribution (MSHR vs DRAM admission queue).
    for (ba, bb) in serial.benchmarks.iter().zip(&parallel.benchmarks) {
        for (ra, rb) in ba.algorithms.iter().zip(&bb.algorithms) {
            for (ca, cb) in ra.report.cores.iter().zip(&rb.report.cores) {
                assert_eq!(ca.timing, cb.timing, "per-core timing breakdown diverged");
                assert_eq!(ca.cycles, cb.cycles);
            }
        }
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let first = quick_suite(4);
    let second = quick_suite(4);
    assert_grids_identical(&first, &second);
}

#[test]
fn out_of_order_suite_is_identical_at_any_jobs() {
    // The staged pipeline core must honour the same contract as the analytic
    // model: the worker count is a pure wall-clock knob. Sweep it against
    // the serial reference.
    let reference = quick_suite_with_model(1, CoreModelKind::OutOfOrder);
    for jobs in [2usize, 4] {
        let grid = quick_suite_with_model(jobs, CoreModelKind::OutOfOrder);
        assert_grids_identical(&reference, &grid);
    }
    // And the pipeline metrics it adds actually reach the v2 cells.
    for cell in harness::report::grid_cells(&reference) {
        assert!(cell.branch_mpki.is_some(), "{} lost branch MPKI", cell.benchmark);
        assert!(cell.rob_occupancy.is_some(), "{} lost ROB occupancy", cell.benchmark);
        assert!(cell.ipc > 0.0 && cell.ipc.is_finite());
    }
}

#[test]
fn multicore_mix_is_identical_across_worker_counts() {
    let mk = |jobs: usize| canneal_mix(jobs, CoreModelKind::Approx);
    assert_grids_identical(&mk(1), &mk(3));
}

// Digest pins: every report byte of both core models, single- and
// multi-core. `BENCH_quick.json` covers the out-of-order model only through a
// few single-core cells, so these pins are what hold a refactor of the core
// models to byte-identical output. Re-record them only for a change that is
// meant to move results.

#[test]
fn approx_report_digests_are_pinned() {
    assert_digests(CoreModelKind::Approx, 0x72a4_6ad9_bcd8_deb8, 0xa9dd_61a9_3479_4cb9);
}

#[test]
fn out_of_order_report_digests_are_pinned() {
    assert_digests(CoreModelKind::OutOfOrder, 0xfbac_1f8c_8a8c_c96c, 0x749c_f129_75ab_9d2d);
}

/// A seeded trace whose PC population overflows every PC-indexed table: 12
/// hot PCs take 60% of the 12,000 accesses (enough for Alecto's 100-demand
/// epochs), 60 warm PCs 25% and 300 cold PCs 15%. Each PC follows one
/// pattern in a region of its own: a stream, a constant stride, a repeating
/// delta chain or random lines.
fn pc_pressure_source() -> TraceSource {
    const HOT: u64 = 12;
    const WARM: u64 = 60;
    const COLD: u64 = 300;
    let pcs = (HOT + WARM + COLD) as usize;
    let mut rng = SplitMix64::new(0x9c_7e55);
    let mut lines: Vec<u64> = (1..=pcs as u64).map(|i| i << 16).collect();
    let mut steps = vec![0usize; pcs];
    let records = (0..12_000)
        .map(|_| {
            let tier = rng.below(100);
            let i = if tier < 60 {
                rng.below(HOT)
            } else if tier < 85 {
                HOT + rng.below(WARM)
            } else {
                HOT + WARM + rng.below(COLD)
            } as usize;
            let region = (i as u64 + 1) << 16;
            lines[i] = match i % 4 {
                0 => lines[i] + 1,
                1 => lines[i] + 2 + i as u64 % 5,
                2 => lines[i] + [1, 1, 1, 4][steps[i] % 4],
                _ => region + rng.below(4_096),
            };
            steps[i] += 1;
            let pc = Pc::new(0x40_0000 + 4 * i as u64);
            MemoryRecord::load(pc, Addr::new(lines[i] * 64), 3)
        })
        .collect();
    TraceSource::from_records("pc-pressure", true, records)
}

#[test]
fn eviction_order_under_pc_pressure_is_pinned() {
    // The registered traces carry 2-6 PCs each, so no other check fills a
    // 64-entry table. These cells evict from every prefetcher table and from
    // Alecto's Allocation and Sample Tables; DOL reaches the `probe` path.
    let sources = [pc_pressure_source()];
    let config = MachineSpec::table1(1);
    let mut digest = FNV1A_OFFSET;
    for composite in [CompositeKind::GsCsPmp, CompositeKind::GsBertiCplx] {
        for algorithm in [
            SelectionAlgorithm::Ipcp,
            SelectionAlgorithm::Dol,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::Alecto,
            SelectionAlgorithm::AlectoFixedDegree,
        ] {
            let report =
                run_cell(&CellJob { algorithm, composite, config: &config, sources: &sources });
            for p in &report.cores[0].prefetchers {
                assert!(
                    p.stats.evictions > 0,
                    "{} under {} evicted nothing",
                    p.name,
                    algorithm.label()
                );
            }
            digest = fnv1a_64(digest, report_to_json(&report).as_bytes());
        }
    }
    assert_eq!(
        digest, 0xf5ee_74ce_e90f_8ff3,
        "PC-pressure reports moved: digest is {digest:#018x}"
    );
}

/// A trace that sees the size of Alecto's PC table: 64 PCs, then 65, take
/// turns one access at a time for 300 rounds each, so every PC passes three
/// 100-demand epochs at a reuse distance of exactly 64, then 65, PCs. A
/// 64-entry LRU table keeps all 64 PCs and then thrashes on the 65; a table
/// one entry smaller or larger flips one of the two phases. Even PCs stream,
/// odd PCs hit random lines of a region of their own.
fn pc_rotation_source() -> TraceSource {
    let mut rng = SplitMix64::new(0x64_65);
    let mut lines: Vec<u64> = (1..=65u64).map(|i| i << 16).collect();
    let mut records = Vec::new();
    for pcs in [64u64, 65] {
        for _ in 0..300 {
            for i in 0..pcs {
                let line = &mut lines[i as usize];
                *line = if i % 2 == 0 { *line + 1 } else { ((i + 1) << 16) + rng.below(4_096) };
                records.push(MemoryRecord::load(
                    Pc::new(0x50_0000 + 4 * i),
                    Addr::new(*line * 64),
                    3,
                ));
            }
        }
    }
    TraceSource::from_records("pc-rotation", true, records)
}

#[test]
fn pc_table_size_is_pinned_by_a_pc_rotation() {
    let sources = [pc_rotation_source()];
    let config = MachineSpec::table1(1);
    let digest = [SelectionAlgorithm::Alecto, SelectionAlgorithm::AlectoFixedDegree]
        .into_iter()
        .fold(FNV1A_OFFSET, |h, algorithm| {
            let job = CellJob {
                algorithm,
                composite: CompositeKind::GsCsPmp,
                config: &config,
                sources: &sources,
            };
            fnv1a_64(h, report_to_json(&run_cell(&job)).as_bytes())
        });
    assert_eq!(
        digest, 0x0576_84c4_18f8_fc97,
        "PC-rotation reports moved: digest is {digest:#018x}"
    );
}

#[test]
fn determinism_holds_below_and_above_the_multicore_derivation_floor() {
    // `--accesses N` derives the multi-core per-core budget as
    // max(N / 3, 100): N = 90 floors at 100 (below the floor), N = 900
    // derives 300 (above it). Both regimes — including the tiny budget where
    // some cores exhaust their trace almost immediately — must stay
    // byte-identical across worker counts.
    for accesses in [90usize, 900] {
        let multicore = (accesses / 3).max(100);
        let mk = |jobs: usize| {
            run_multicore_mix(
                &format!("streamcluster-x4@{accesses}"),
                &traces::parsec::per_core_sources("streamcluster", multicore, 4),
                &[SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto],
                CompositeKind::GsCsPmp,
                &MachineSpec::table1(4),
                jobs,
            )
        };
        assert_grids_identical(&mk(1), &mk(4));
    }
}

#[test]
fn streamed_suite_matches_a_materialised_rerun() {
    // The streaming engine must reproduce what materialised records
    // produce: collect each source's records, wrap them back into a
    // (records-backed) source, and compare full grids.
    let names = ["lbm", "mcf"];
    let streamed: Vec<TraceSource> =
        names.iter().map(|n| traces::Suite::Spec06.source(n, 600)).collect();
    let collected: Vec<TraceSource> = streamed
        .iter()
        .map(|s| TraceSource::from_records(s.name(), s.memory_intensive(), s.records().collect()))
        .collect();
    let algorithms = [SelectionAlgorithm::Ipcp, SelectionAlgorithm::Alecto];
    let config = MachineSpec::table1(1);
    let a = run_single_core_suite(&streamed, &algorithms, CompositeKind::GsCsPmp, &config, 2);
    let b = run_single_core_suite(&collected, &algorithms, CompositeKind::GsCsPmp, &config, 2);
    assert_grids_identical(&a, &b);
}
