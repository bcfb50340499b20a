//! Cross-crate integration tests: exercise the full public API the way the
//! examples and the harness do — traces → system → selection → reports.

use alecto_repro::prelude::*;
use alecto_repro::types::TraceSource;

fn run_with(
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
    source: &TraceSource,
) -> cpu::SystemReport {
    cpu::System::new(MachineSpec::table1(1), algorithm, composite)
        .run_sources(std::slice::from_ref(source))
        .expect("one source")
}

fn run(algorithm: SelectionAlgorithm, source: &TraceSource) -> cpu::SystemReport {
    run_with(algorithm, CompositeKind::GsCsPmp, source)
}

/// Instructions a core retires replaying `source` in full.
fn instructions(source: &TraceSource) -> u64 {
    source.records().map(|r| r.instructions()).sum()
}

#[test]
fn every_selection_algorithm_completes_a_spec_workload() {
    let source = traces::Suite::Spec06.source("GemsFDTD", 3_000);
    for algorithm in [
        SelectionAlgorithm::NoPrefetching,
        SelectionAlgorithm::Ipcp,
        SelectionAlgorithm::Dol,
        SelectionAlgorithm::Bandit3,
        SelectionAlgorithm::Bandit6,
        SelectionAlgorithm::BanditExtended,
        SelectionAlgorithm::Alecto,
        SelectionAlgorithm::AlectoFixedDegree,
        SelectionAlgorithm::PpfAggressive,
        SelectionAlgorithm::PpfConservative,
        SelectionAlgorithm::Triangel,
    ] {
        let report = run(algorithm, &source);
        let core = &report.cores[0];
        assert!(core.ipc > 0.0 && core.ipc <= 4.0, "{algorithm:?}: IPC {} out of range", core.ipc);
        assert_eq!(core.instructions, instructions(&source), "{algorithm:?}");
    }
}

#[test]
fn prefetching_helps_a_prefetch_friendly_benchmark() {
    let source = traces::Suite::Spec06.source("leslie3d", 8_000);
    let base = run(SelectionAlgorithm::NoPrefetching, &source).cores[0].ipc;
    let alecto = run(SelectionAlgorithm::Alecto, &source).cores[0].ipc;
    assert!(
        alecto > base * 1.05,
        "Alecto should speed up a streaming benchmark (got {alecto:.3} vs baseline {base:.3})"
    );
}

#[test]
fn prefetching_is_harmless_on_a_compute_bound_benchmark() {
    let source = traces::Suite::Spec06.source("povray", 6_000);
    let base = run(SelectionAlgorithm::NoPrefetching, &source).cores[0].ipc;
    for algorithm in SelectionAlgorithm::main_comparison() {
        let ipc = run(algorithm, &source).cores[0].ipc;
        assert!(
            ipc > base * 0.93,
            "{algorithm:?} must not slow down a cache-resident benchmark ({ipc:.3} vs {base:.3})"
        );
    }
}

#[test]
fn alecto_reduces_prefetcher_table_pressure_versus_ipcp() {
    // The Fig. 1 / Fig. 18 claim at integration level: with dynamic demand
    // request allocation the same composite prefetcher is trained far less.
    let mut ipcp_trainings = 0u64;
    let mut alecto_trainings = 0u64;
    for name in ["GemsFDTD", "mcf", "omnetpp", "soplex"] {
        let source = traces::Suite::Spec06.source(name, 5_000);
        ipcp_trainings += run(SelectionAlgorithm::Ipcp, &source).cores[0].training_occurrences;
        alecto_trainings += run(SelectionAlgorithm::Alecto, &source).cores[0].training_occurrences;
    }
    assert!(
        (alecto_trainings as f64) < 0.8 * ipcp_trainings as f64,
        "Alecto should train the composite much less (alecto {alecto_trainings}, ipcp {ipcp_trainings})"
    );
}

#[test]
fn alecto_storage_matches_table3_and_beats_extended_bandit() {
    let alecto = cpu::build_selector(SelectionAlgorithm::Alecto, 3).unwrap();
    assert_eq!(alecto.storage_bits(), 5312 + 1792 * 3);
    let extended = cpu::build_selector(SelectionAlgorithm::BanditExtended, 3).unwrap();
    assert_eq!(extended.storage_bits(), 4 * 1024 * 8);
    assert!(extended.storage_bits() > 3 * alecto.storage_bits() / 2);
}

#[test]
fn eight_core_simulation_produces_consistent_reports() {
    let per_core = traces::parsec::per_core_sources("streamcluster", 1_200, 8);
    let mut system = cpu::System::new(
        MachineSpec::table1(8),
        SelectionAlgorithm::Alecto,
        CompositeKind::GsCsPmp,
    );
    let report = system.run_sources(&per_core).expect("eight sources");
    assert_eq!(report.cores.len(), 8);
    assert!(report.geomean_ipc().unwrap() > 0.0);
    assert!(report.dram.accesses > 0);
    // Every core retired its whole trace.
    for (core, source) in report.cores.iter().zip(&per_core) {
        assert_eq!(core.instructions, instructions(source));
    }
}

#[test]
fn harness_quick_experiments_render() {
    let scale = harness::RunScale::with_accesses(400, 200);
    let fig19 = harness::figures::fig19(&scale);
    assert!(fig19.render().contains("Alecto"));
    let table3 = harness::figures::table3();
    assert_eq!(table3.table.cell("3", "Total (bytes)"), Some("1336"));
}

#[test]
fn alternate_composite_works_end_to_end() {
    let source = traces::Suite::Spec17.source("roms_17", 4_000);
    let report = run_with(SelectionAlgorithm::Alecto, CompositeKind::GsBertiCplx, &source);
    assert_eq!(report.composite, "GS+Berti+CPLX");
    assert_eq!(report.cores[0].prefetchers.len(), 3);
    assert!(report.cores[0].prefetches_issued > 0);
}

#[test]
fn temporal_composite_trains_the_temporal_prefetcher() {
    let source = traces::Suite::Spec06.source("mcf", 6_000);
    let report = run_with(
        SelectionAlgorithm::Triangel,
        CompositeKind::GsCsPmpTemporal { metadata_bytes: 256 * 1024 },
        &source,
    );
    let tp = report.cores[0].prefetchers.iter().find(|p| p.name == "TP").expect("TP present");
    assert!(tp.stats.trainings > 0, "the temporal prefetcher must receive training");
}
