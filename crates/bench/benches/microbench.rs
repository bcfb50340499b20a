//! Micro-benchmarks of the building blocks: per-access cost of the selection
//! algorithms, the prefetchers and the memory hierarchy. These are ablation
//! benches for the design choices called out in DESIGN.md (cost of DDRA per
//! demand access, cost of the simulator substrate per simulated access).

use alecto_types::TraceSource;
use cpu::{CompositeKind, SelectionAlgorithm, System, SystemConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsys::{Hierarchy, HierarchyParams};
use prefetch::build_composite;

fn selector_per_access_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("selector_per_access");
    let workload = traces::spec06::source("GemsFDTD", 4_000).collect();
    for algorithm in [
        SelectionAlgorithm::Ipcp,
        SelectionAlgorithm::Dol,
        SelectionAlgorithm::Bandit6,
        SelectionAlgorithm::Alecto,
    ] {
        group.bench_function(algorithm.label(), |b| {
            let mut selector = cpu::build_selector(algorithm, 3).expect("selector");
            let prefetchers = build_composite(CompositeKind::GsCsPmp);
            let mut idx = 0usize;
            b.iter(|| {
                let record = &workload.records[idx % workload.records.len()];
                idx += 1;
                black_box(selector.allocate(&record.demand(), &prefetchers))
            });
        });
    }
    group.finish();
}

fn prefetcher_training_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefetcher_train");
    let workload = traces::spec06::source("soplex", 4_000).collect();
    for kind in [CompositeKind::GsCsPmp, CompositeKind::GsBertiCplx] {
        for mut pf in build_composite(kind) {
            let label = format!("{}_{}", kind.label(), pf.name());
            group.bench_function(label, |b| {
                let mut out = Vec::new();
                let mut idx = 0usize;
                b.iter(|| {
                    let record = &workload.records[idx % workload.records.len()];
                    idx += 1;
                    out.clear();
                    pf.train_and_predict(&record.demand(), 4, &mut out);
                    black_box(out.len())
                });
            });
        }
    }
    group.finish();
}

fn hierarchy_demand_access_cost(c: &mut Criterion) {
    c.bench_function("hierarchy_demand_access", |b| {
        let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
        let mut line = 0u64;
        let mut cycle = 0u64;
        b.iter(|| {
            line += 3;
            cycle += 10;
            black_box(hier.demand_access(0, alecto_types::LineAddr::new(line % 100_000), cycle))
        });
    });
}

fn full_system_simulation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("system_throughput");
    group.sample_size(10);
    // Materialised once, so the timing covers simulation, not generation.
    let source = TraceSource::from_workload(traces::spec06::source("GemsFDTD", 3_000).collect());
    for algorithm in [SelectionAlgorithm::NoPrefetching, SelectionAlgorithm::Alecto] {
        group.bench_function(algorithm.label(), |b| {
            b.iter(|| {
                let mut system =
                    System::new(SystemConfig::skylake_like(1), algorithm, CompositeKind::GsCsPmp);
                black_box(system.run_sources(std::slice::from_ref(&source)))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets =
        selector_per_access_cost,
        prefetcher_training_cost,
        hierarchy_demand_access_cost,
        full_system_simulation_throughput,
}
criterion_main!(micro);
