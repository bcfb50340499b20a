//! Streaming ↔ eager equivalence: the lazy `TraceSource` path must
//! reproduce the eager reference — each benchmark's blend built in one pass
//! by `Blend::build` — record for record, for every benchmark registered in
//! the `Suite` registry, at every access budget and per-job seed. This is the
//! contract that lets the experiment engine stream 10-million-access traces
//! in O(1) memory without changing a single golden grid value.

use alecto_repro::types::{fnv1a_64, TraceSource, Workload, FNV1A_OFFSET};
use fuzz::Scenario;
use machine::MachineSpec;
use proptest::prelude::*;
use traces::Suite;

/// Flattened registry: every (suite, benchmark) pair.
fn registry() -> Vec<(Suite, &'static str)> {
    Suite::ALL.iter().flat_map(|s| s.benchmarks().into_iter().map(move |b| (*s, b))).collect()
}

/// The eager reference for `name`: its registry blend built in one pass.
/// `None` for Ligra, whose kernels come from a graph walk, not a blend.
fn eager_build(suite: Suite, name: &str, accesses: usize) -> Option<Workload> {
    let blend = match suite {
        Suite::Spec06 => traces::spec06::blend(name),
        Suite::Spec17 => traces::spec17::blend(name),
        Suite::Parsec => traces::parsec::blend(name),
        Suite::PointerChase => traces::gc::blend(name),
        Suite::WebServe => traces::web::blend(name),
        Suite::Database => traces::db::blend(name),
        Suite::Ligra => return None,
    };
    Some(blend.build(accesses))
}

/// Asserts that `source` streams its eager reference; for Ligra, which has
/// none, that two replays agree.
fn assert_streams_its_reference(suite: Suite, name: &str, source: &TraceSource) {
    let streamed = source.collect();
    match eager_build(suite, name, source.memory_accesses()) {
        Some(eager) => assert_eq!(streamed, eager, "suite {suite:?} benchmark {name}"),
        None => assert_eq!(streamed, source.collect(), "suite {suite:?} benchmark {name}"),
    }
}

proptest! {
    // Streamed records equal the eager reference for a random registered
    // benchmark × access budget.
    #[test]
    fn streamed_equals_collected_for_every_registered_benchmark(
        bench_idx in 0usize..70,
        accesses in 0usize..600,
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let streamed = suite.source(name, accesses);
        prop_assert_eq!(streamed.name(), name);
        prop_assert_eq!(streamed.memory_accesses(), accesses);
        assert_streams_its_reference(suite, name, &streamed);
    }

    // Per-job derived seeds stay position independent through the streaming
    // path: a blend variant seeded with `derive_seed(name, job)` replays
    // identically however many times and wherever it is instantiated.
    #[test]
    fn derived_seed_sources_replay_identically(
        job in 0u64..16,
        accesses in 1usize..400,
    ) {
        let blend = traces::Blend {
            stream: 0.4,
            chase: 0.3,
            noise: 0.3,
            seed: traces::derive_seed("prop-job", job),
            ..traces::Blend::new("prop-job")
        };
        let eager = blend.build(accesses);
        let source = blend.source(accesses);
        let a: Vec<_> = source.records().collect();
        let b: Vec<_> = source.records().collect();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a, eager.records);
    }

    // Record batches are a pure re-chunking of the per-record stream: for
    // any registered benchmark × seed-independent access budget × batch
    // size — degenerate 1, awkward prime 7, the block-sized default —
    // concatenating the batches reproduces the per-record stream exactly,
    // and every batch except the last is full.
    #[test]
    fn batched_streams_equal_per_record_streams_for_every_registered_benchmark(
        bench_idx in 0usize..70,
        accesses in 0usize..600,
        batch in prop_oneof![Just(1usize), Just(7), Just(4096)],
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let source = suite.source(name, accesses);
        let per_record: Vec<_> = source.records().collect();
        let batches: Vec<Vec<_>> = source.record_batches(batch).collect();
        for (i, b) in batches.iter().enumerate() {
            prop_assert!(!b.is_empty(), "batch {i} of {name} is empty");
            if i + 1 < batches.len() {
                prop_assert!(b.len() == batch, "non-final batch {} of {} short", i, name);
            }
        }
        let flattened: Vec<_> = batches.into_iter().flatten().collect();
        prop_assert_eq!(flattened, per_record);
    }

    // Address-offset derivation (the multi-core slicing) commutes with
    // collection.
    #[test]
    fn offset_sources_commute_with_collection(
        core in 0usize..8,
        accesses in 1usize..300,
    ) {
        let offset = (core as u64) << 40;
        let base = traces::spec06::source("mcf", accesses);
        let shifted = traces::spec06::source("mcf", accesses).with_addr_offset(offset);
        for (s, b) in shifted.records().zip(base.records()) {
            prop_assert_eq!(s.addr.raw(), b.addr.raw() + offset);
            prop_assert_eq!(s.pc, b.pc);
            prop_assert_eq!(s.kind, b.kind);
        }
    }
}

/// The whole registry, exhaustively, at one representative budget — the
/// proptest above samples pairs; this pins every benchmark at least once.
#[test]
fn every_registered_benchmark_streams_exactly_its_collected_records() {
    for (suite, name) in registry() {
        // Odd budget: mid-batch cuts.
        assert_streams_its_reference(suite, name, &suite.source(name, 257));
    }
}

/// Workload-backed sources round-trip losslessly.
#[test]
fn workload_bridge_round_trips() {
    let w = traces::web::source("kv-store", 123).collect();
    let s = TraceSource::from_workload(w.clone());
    assert_eq!(s.collect(), w);
}

/// Folds `source`'s fingerprint and every record it streams into `digest`.
fn fold_source(digest: u64, source: &TraceSource) -> u64 {
    source.records().fold(fnv1a_64(digest, &source.fingerprint().to_le_bytes()), |h, r| {
        let h = fnv1a_64(h, &r.pc.raw().to_le_bytes());
        let h = fnv1a_64(h, &r.addr.raw().to_le_bytes());
        let h = fnv1a_64(h, &r.gap_instructions.to_le_bytes());
        fnv1a_64(h, &[u8::from(r.kind.is_load()), u8::from(r.dependent)])
    })
}

/// Every registered trace, pinned: the fingerprint and records of each of
/// the 75 benchmarks at 2,000 accesses, then of the first 16 seed-42 fuzz
/// scenarios. 14 blend-backed benchmarks reach no committed baseline, and
/// the tests above compare each blend only with itself, so this digest is
/// what sees a changed weight, working set or component. It moves only with
/// a change that means to change a workload (see tests/fixtures/README.md).
#[test]
fn every_registered_trace_is_pinned() {
    let reg = registry();
    assert_eq!(reg.len(), 75);
    let mut digest = reg
        .iter()
        .fold(FNV1A_OFFSET, |h, (suite, name)| fold_source(h, &suite.source(name, 2_000)));
    let spec = MachineSpec::table1(1);
    for index in 0..16 {
        digest = fold_source(digest, &Scenario::generate(42, index, 2_000, &spec).source());
    }
    assert_eq!(digest, 0xc30d_03da_6d49_2156, "registered traces moved: digest is {digest:#018x}");
}
