//! The motivating example of the paper's Fig. 2: `459.GemsFDTD` interleaves a
//! spatial-pattern PC with a streaming PC. A selection scheme that applies
//! one rule to all PCs routes both to the wrong prefetcher part of the time;
//! Alecto identifies the right prefetcher per PC and withholds the demand
//! requests from the others.
//!
//! This example inspects Alecto's Allocation Table states directly: it runs
//! the GemsFDTD-like trace through an [`alecto::AlectoSelector`] driving the
//! composite prefetcher and prints, for the busiest PCs, which prefetchers
//! ended up Aggressive (IA) and which were Blocked (IB).

use alecto::AlectoSelector;
use alecto_repro::prelude::*;
use prefetch::build_composite;
use selectors::Selector;

fn main() {
    let source = traces::Suite::Spec06.source("GemsFDTD", 30_000);
    let mut prefetchers = build_composite(CompositeKind::GsCsPmp);
    let names: Vec<&str> = prefetchers.iter().map(|p| p.name()).collect();
    let mut alecto = AlectoSelector::new(prefetchers.len());

    // Drive the selector + prefetchers directly (no timing model needed to
    // observe the allocation decisions).
    let mut scratch = Vec::new();
    for record in source.records() {
        let access = record.demand();
        let decision = alecto.allocate(&access, &prefetchers);
        let mut candidates = Vec::new();
        for (idx, allocation) in decision.per_prefetcher.iter().enumerate() {
            let Some(alloc) = allocation else { continue };
            scratch.clear();
            prefetchers[idx].train_and_predict(&access, alloc.total, &mut scratch);
            for &line in &scratch {
                candidates.push(alecto_repro::types::PrefetchRequest::new(
                    line,
                    access.pc,
                    alecto_repro::types::PrefetcherId(idx),
                ));
            }
        }
        let _ = alecto.select_requests(&access, candidates);
    }

    // Count accesses per PC so we report the dominant instructions.
    let mut per_pc: Vec<(u64, usize)> = Vec::new();
    for r in source.records() {
        match per_pc.iter_mut().find(|(pc, _)| *pc == r.pc.raw()) {
            Some((_, n)) => *n += 1,
            None => per_pc.push((r.pc.raw(), 1)),
        }
    }
    per_pc.sort_by_key(|(_, n)| std::cmp::Reverse(*n));

    println!("Alecto per-PC prefetcher identification on GemsFDTD-like trace");
    println!("(composite: {})\n", names.join(" + "));
    for (pc, n) in per_pc.iter().take(5) {
        let states = alecto.states_of(alecto_repro::types::Pc::new(*pc));
        print!("pc {pc:#8x} ({n:5} accesses): ");
        match states {
            Some(states) => {
                let described: Vec<String> =
                    states.iter().zip(&names).map(|(s, name)| format!("{name}={s:?}")).collect();
                println!("{}", described.join("  "));
            }
            None => println!("(evicted from the Allocation Table)"),
        }
    }
    let stats = alecto.stats();
    println!(
        "\n{} demand requests, {} withheld from at least one prefetcher, {} epoch transitions",
        stats.demands, stats.allocations_withheld, stats.epoch_transitions
    );
}
