//! Per-record `step` cost of the two core timing models. The analytic
//! Approx model is the sweep default precisely because it is cheap; the
//! staged OutOfOrder pipeline buys fidelity with more bookkeeping (ROB
//! groups, LSQ scans, gshare lookups). These benches pin the price of that
//! trade on the two regimes that bracket it: a hit-heavy stream where the
//! step overhead *is* the simulation cost, and a miss-heavy stream where
//! hierarchy latency dominates and the models should converge.

use alecto_types::{Addr, MemoryRecord, Pc};
use cpu::{
    CompositeKind, Core, CoreModelKind, PrefetchController, SelectionAlgorithm, SystemConfig,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsys::{Hierarchy, HierarchyParams};

/// A stream that stays resident in the L1: 16 hot lines revisited forever.
fn hit_heavy(n: u64) -> Vec<MemoryRecord> {
    (0..n)
        .map(|i| MemoryRecord::load(Pc::new(0x40), Addr::new(0x1_0000 + (i % 16) * 64), 6))
        .collect()
}

/// A stream that misses everywhere: a large-stride walk over a DRAM-sized
/// footprint, spread across channels and banks.
fn miss_heavy(n: u64) -> Vec<MemoryRecord> {
    (0..n)
        .map(|i| MemoryRecord::load(Pc::new(0x48), Addr::new(((i * 7919) % 200_000) * 64), 6))
        .collect()
}

fn core_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_step");
    group.sample_size(10);
    for (regime, records) in [("hit_heavy", hit_heavy(4_000)), ("miss_heavy", miss_heavy(4_000))] {
        for kind in [CoreModelKind::Approx, CoreModelKind::OutOfOrder] {
            let label = match kind {
                CoreModelKind::Approx => format!("{regime}/approx"),
                CoreModelKind::OutOfOrder => format!("{regime}/ooo"),
            };
            group.bench_function(&label, |b| {
                let config = SystemConfig::skylake_like(1).with_core_model(kind);
                b.iter(|| {
                    let controller =
                        PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Alecto);
                    let mut core = Core::new(0, &config, controller);
                    let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
                    for r in &records {
                        core.step(r, &mut hier);
                    }
                    black_box(core.current_time())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, core_step);
criterion_main!(benches);
