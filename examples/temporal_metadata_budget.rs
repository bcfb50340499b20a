//! The temporal-prefetching study of §VI-D / Fig. 14: how much metadata does a
//! temporal prefetcher need when its training stream is managed by Bandit
//! (no demand-request filtering) versus Alecto (dynamic demand request
//! allocation)?
//!
//! The example runs a pointer-chasing benchmark with an added temporal
//! prefetcher at several metadata budgets and prints the speedup each policy
//! obtains over the plain L1 composite.

use alecto_repro::prelude::*;
use alecto_repro::types::TraceSource;

fn run(algorithm: SelectionAlgorithm, composite: CompositeKind, source: &TraceSource) -> f64 {
    cpu::System::new(MachineSpec::table1(1), algorithm, composite)
        .run_sources(std::slice::from_ref(source))
        .expect("one source")
        .cores[0]
        .ipc
}

fn main() {
    let accesses: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(40_000);
    let source = traces::Suite::Spec06.source("mcf", accesses);
    println!("workload: mcf-like pointer chase, {accesses} accesses\n");

    // Reference: each policy scheduling only the L1 composite.
    let bandit_base = run(SelectionAlgorithm::Bandit6, CompositeKind::GsCsPmp, &source);
    let alecto_base = run(SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp, &source);

    println!("{:>12}  {:>18}  {:>18}", "metadata", "Bandit6 speedup", "Alecto speedup");
    for kb in [128u64, 256, 512, 1024] {
        let composite = CompositeKind::GsCsPmpTemporal { metadata_bytes: kb * 1024 };
        let bandit = run(SelectionAlgorithm::Bandit6, composite, &source) / bandit_base;
        let alecto = run(SelectionAlgorithm::Alecto, composite, &source) / alecto_base;
        println!("{:>10}KB  {:>18.3}  {:>18.3}", kb, bandit, alecto);
    }
    println!(
        "\nThe paper's Fig. 14 finding: with DDRA the temporal prefetcher reaches its\n\
         full benefit with a fraction of the metadata, because non-temporal PCs never\n\
         pollute the correlation table."
    );
}
