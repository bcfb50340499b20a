//! Benchmarks of the cycle-level timing model: the overhead of the DRAM
//! admission queue on the hot demand path, and the full drive loop under the
//! latency-sensitive vs bandwidth-bound presets. The timing model is pure
//! bookkeeping — these benches exist to catch it growing a real cost.

use alecto_types::LineAddr;
use cpu::{CompositeKind, SelectionAlgorithm, System, SystemConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsys::{BandwidthQueue, Hierarchy, HierarchyParams, TimingParams};

fn bandwidth_queue_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("bandwidth_queue_admit");
    for (label, params) in [
        ("latency_sensitive", TimingParams::latency_sensitive()),
        ("balanced", TimingParams::balanced()),
        ("bandwidth_bound", TimingParams::bandwidth_bound()),
    ] {
        group.bench_function(label, |b| {
            let mut queue = BandwidthQueue::new(params);
            let mut now = 0u64;
            b.iter(|| {
                now += 3;
                black_box(queue.admit(now))
            });
        });
    }
    group.finish();
}

fn demand_access_with_timing(c: &mut Criterion) {
    let mut group = c.benchmark_group("demand_access_timing");
    for (label, params) in [
        ("balanced", TimingParams::balanced()),
        ("bandwidth_bound", TimingParams::bandwidth_bound()),
    ] {
        group.bench_function(label, |b| {
            let mut hier = Hierarchy::new(HierarchyParams {
                timing: params,
                ..HierarchyParams::skylake_like(1)
            });
            let mut line = 0u64;
            let mut cycle = 0u64;
            b.iter(|| {
                line = line.wrapping_add(1);
                cycle += 7;
                black_box(hier.demand_access(0, LineAddr::new(line % 100_000), cycle))
            });
        });
    }
    group.finish();
}

fn drive_loop_under_timing_presets(c: &mut Criterion) {
    let mut group = c.benchmark_group("drive_loop_timing");
    group.sample_size(10);
    for (label, params) in [
        ("latency_sensitive", TimingParams::latency_sensitive()),
        ("bandwidth_bound", TimingParams::bandwidth_bound()),
    ] {
        group.bench_function(label, |b| {
            let source = traces::db::source("seq-scan", 4_000);
            b.iter(|| {
                let mut config = SystemConfig::skylake_like(1);
                config.hierarchy.timing = params;
                let mut system =
                    System::new(config, SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp);
                let report =
                    system.run_sources(std::slice::from_ref(&source)).expect("non-empty sources");
                black_box(report.avg_mem_latency())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bandwidth_queue_admit,
    demand_access_with_timing,
    drive_loop_under_timing_presets
);
criterion_main!(benches);
