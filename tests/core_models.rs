//! Cross-model acceptance: the staged out-of-order pipeline must actually
//! buy something over the analytic approximation on the workloads the paper
//! cares about. Pointer-chasing benchmarks are the hard case — the chase
//! chain itself is irreducibly serial (each step issues at its producer's
//! fill, so both models walk the identical hierarchy recurrence), but every
//! access *around* the chain (noise loads, mark-bitmap writes, sweep
//! streams) overlaps inside the ROB/LSQ windows. With a prefetcher in front
//! (Alecto's selection turns it on) that overlap is real MLP the analytic
//! frontier clamp cannot express, so the pipeline model's IPC comes out
//! ahead across the family.

use cpu::{CompositeKind, CoreModelKind, SelectionAlgorithm};
use harness::runner::run_single_core_suite;
use harness::SpeedupGrid;
use machine::MachineSpec;

fn pointer_chase_suite(core_model: CoreModelKind) -> SpeedupGrid {
    let sources = traces::Suite::PointerChase.all_sources(2_500);
    run_single_core_suite(
        &sources,
        &[SelectionAlgorithm::Alecto],
        CompositeKind::GsCsPmp,
        &MachineSpec::table1(1).with_core_model(core_model),
        2,
    )
}

#[test]
fn out_of_order_core_beats_the_analytic_model_on_pointer_chases() {
    let approx = pointer_chase_suite(CoreModelKind::Approx);
    let ooo = pointer_chase_suite(CoreModelKind::OutOfOrder);
    let cells = |grid: &SpeedupGrid| harness::report::grid_cells(grid);
    let a = cells(&approx);
    let b = cells(&ooo);
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), traces::gc::BENCHMARKS.len());
    let mut log_ratio_sum = 0.0f64;
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca.benchmark, cb.benchmark);
        // Same deterministic access stream feeds both cores, so the
        // instruction counts agree; only the cycle accounting differs.
        assert_eq!(ca.instructions, cb.instructions, "{}: streams diverged", ca.benchmark);
        // The pipeline never loses to the analytic clamp. On a pure
        // DRAM-bound chain the two agree exactly (same serial recurrence
        // through the same hierarchy); everywhere else the pipeline's
        // overlapped misses pull cycles out of the total.
        assert!(
            cb.ipc >= ca.ipc,
            "{}: out-of-order IPC {} fell below the analytic model's {}",
            ca.benchmark,
            cb.ipc,
            ca.ipc
        );
        log_ratio_sum += (cb.ipc / ca.ipc).ln();
        // The pipeline metrics are the OoO model's own; the analytic model
        // reports null for both.
        assert!(ca.branch_mpki.is_none() && ca.rob_occupancy.is_none());
        assert!(cb.branch_mpki.is_some() && cb.rob_occupancy.is_some());
    }
    // Across the family the overlap is a strict win.
    let geomean_ratio = (log_ratio_sum / a.len() as f64).exp();
    assert!(
        geomean_ratio > 1.0,
        "out-of-order geomean IPC ratio {geomean_ratio} over the analytic model is not a win"
    );
}
