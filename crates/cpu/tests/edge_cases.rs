//! Degenerate-input edge cases both core timing models must survive: empty
//! traces, instruction gaps at the `u32` ceiling, and a single memory access
//! whose latency dwarfs a full ROB drain. The contract under test is the
//! same for every case — cycles stay finite and at least 1, the per-core
//! clock never runs backwards, and the two presets agree on the instruction
//! accounting.

use alecto_types::{Addr, MemoryRecord, Pc, TraceSource, Workload};
use cpu::{
    CompositeKind, Core, CoreModelKind, PrefetchController, SelectionAlgorithm, System,
    SystemConfig,
};
use memsys::{Hierarchy, HierarchyParams};

const BOTH: [CoreModelKind; 2] = [CoreModelKind::Approx, CoreModelKind::OutOfOrder];

/// Steps `records` through a fresh core of `kind`, asserting the clock is
/// monotone, and returns the final report.
fn run_checked(kind: CoreModelKind, records: &[MemoryRecord]) -> cpu::CoreReport {
    let config = SystemConfig::skylake_like(1).with_core_model(kind);
    let controller =
        PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
    let mut core = Core::new(0, &config, controller);
    let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
    let mut last = core.current_time();
    for r in records {
        core.step(r, &mut hier);
        let now = core.current_time();
        assert!(now.is_finite(), "{kind:?}: clock went non-finite");
        assert!(now >= last, "{kind:?}: clock ran backwards ({now} < {last})");
        last = now;
    }
    let report = core.report("edge", &hier);
    assert!(report.cycles >= 1, "{kind:?}: reports must cover at least one cycle");
    assert!(report.ipc.is_finite(), "{kind:?}: IPC went non-finite");
    report
}

#[test]
fn zero_record_source_per_core_still_reports() {
    // A source that yields nothing: every core runs an empty trace. The
    // system must produce a well-formed report (cycles clamp to 1, IPC 0)
    // rather than divide by zero or panic, under both presets.
    let empty = TraceSource::from_workload(Workload::new("empty", Vec::new(), false));
    for kind in BOTH {
        let config = SystemConfig::skylake_like(2).with_core_model(kind);
        let mut system = System::new(config, SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp);
        let report =
            system.run_sources(std::slice::from_ref(&empty)).expect("one source is enough");
        assert_eq!(report.cores.len(), 2);
        for core in &report.cores {
            assert_eq!(core.instructions, 0, "{kind:?}: no records means no instructions");
            assert!(core.cycles >= 1, "{kind:?}: cycles must stay positive");
            assert!(
                core.ipc.abs() < f64::EPSILON && core.ipc.is_finite(),
                "{kind:?}: empty trace must report IPC 0, got {}",
                core.ipc
            );
        }
    }
}

#[test]
fn gap_instructions_at_the_u32_ceiling_does_not_overflow() {
    // One record claiming u32::MAX non-memory instructions before its
    // access: the fetch/retire arithmetic must absorb ~4 billion
    // instructions without overflow in either model, and both must account
    // the identical instruction total.
    let records = [
        MemoryRecord::load(Pc::new(0x10), Addr::new(0x8000), u32::MAX),
        MemoryRecord::load(Pc::new(0x18), Addr::new(0x8040), 3),
    ];
    let expected = u64::from(u32::MAX) + 1 + 4;
    for kind in BOTH {
        let report = run_checked(kind, &records);
        assert_eq!(report.instructions, expected, "{kind:?}: instruction accounting diverged");
        // ~2^32 instructions through a ≤8-wide front end takes at least
        // 2^29 cycles; a finite-but-tiny cycle count would mean the gap
        // arithmetic silently wrapped.
        assert!(
            report.cycles > expected / 16,
            "{kind:?}: {} cycles cannot cover {expected} instructions",
            report.cycles
        );
        assert!(report.ipc > 0.0, "{kind:?}: IPC collapsed");
    }
}

#[test]
fn one_miss_longer_than_a_full_rob_drain_stays_finite_and_ordered() {
    // A burst of L1-resident hits, then a single cold DRAM miss with no gap:
    // the miss latency (hundreds of cycles) exceeds the time to drain the
    // entire ROB at commit width, so the window fills and retirement parks
    // behind the fill. Cycles must extend past the miss, stay finite, and
    // the hit-burst prefix must not be charged for it.
    let mut records = Vec::new();
    for i in 0..400u64 {
        // 8 hot lines, revisited: after the first touches these all hit.
        records.push(MemoryRecord::load(Pc::new(0x20), Addr::new(0x1000 + (i % 8) * 64), 0));
    }
    records.push(MemoryRecord::load(Pc::new(0x28), Addr::new(0xDEAD_0000), 0));
    for kind in BOTH {
        let prefix = run_checked(kind, &records[..400]);
        let full = run_checked(kind, &records);
        assert!(
            full.cycles > prefix.cycles,
            "{kind:?}: the cold miss must extend the run ({} vs {})",
            full.cycles,
            prefix.cycles
        );
        // The single miss costs DRAM latency, not a multiple of the whole
        // prefix: the total stays within an order of magnitude.
        assert!(
            full.cycles < prefix.cycles + 10_000,
            "{kind:?}: one miss exploded the cycle count ({} vs {})",
            full.cycles,
            prefix.cycles
        );
    }
}
