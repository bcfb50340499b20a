//! Quickstart: simulate one benchmark under the five prefetcher-selection
//! algorithms of the paper and print their speedups over no prefetching.
//!
//! The benchmark may come from any registered suite — the paper's four
//! (SPEC06/SPEC17/PARSEC/Ligra) or the production scenario families
//! (`linked-list`, `gc-mark`, … / `web-cache`, `kv-store`, … /
//! `seq-scan`, `hash-join`, …) — or be a recorded trace, `file:<path>`
//! (see `alecto-harness trace record`), replayed up to `accesses` records:
//!
//! ```text
//! cargo run --release --example quickstart [benchmark|file:PATH] [accesses]
//! cargo run --release --example quickstart web-cache 50000
//! cargo run --release --example quickstart hash-join
//! cargo run --release --example quickstart file:mcf.altr
//! ```

use alecto_repro::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let benchmark = args.first().map_or("GemsFDTD", String::as_str);
    let accesses: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(20_000);

    // Resolve the benchmark the way the CLI does: a registry name or a
    // verified `file:` trace.
    let (source, _) = harness::figures::resolve_trace_spec(benchmark, Some(accesses))
        .unwrap_or_else(|err| {
            eprintln!("error: {err}");
            eprintln!("registered benchmarks (or file:<PATH> for a recorded trace):");
            for suite in traces::Suite::ALL {
                eprintln!("  {:13} {}", suite.name(), suite.benchmarks().join(" "));
            }
            std::process::exit(2);
        });
    let suite = traces::Suite::of(benchmark).map_or("file", |suite| suite.name());
    println!("benchmark: {benchmark} (suite {suite}, {accesses} memory accesses)");
    let run = |algorithm| {
        cpu::System::new(SystemConfig::skylake_like(1), algorithm, CompositeKind::GsCsPmp)
            .run_sources(std::slice::from_ref(&source))
            .expect("one source")
    };

    // Baseline: prefetching disabled.
    let base_ipc = run(SelectionAlgorithm::NoPrefetching).cores[0].ipc;
    println!("no prefetching: IPC {base_ipc:.3}");

    for algorithm in SelectionAlgorithm::main_comparison() {
        let report = run(algorithm);
        let core = &report.cores[0];
        println!(
            "{:8}  IPC {:.3}  speedup {:.3}  accuracy {:.2}  coverage {:.2}  table misses {}",
            algorithm.label(),
            core.ipc,
            core.ipc / base_ipc,
            core.quality.accuracy(),
            core.quality.coverage(),
            core.table_misses,
        );
    }
}
