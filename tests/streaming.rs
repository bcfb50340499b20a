//! Streamed traces, for every benchmark registered in the `Suite` registry:
//! replays are restartable and identical at every access budget and per-job
//! seed, batching only re-chunks the per-record stream, address offsets
//! commute with replay, and `every_registered_trace_is_pinned` digests the
//! records and fingerprint of every registered trace. Together these are
//! the contract that lets the experiment engine stream 10-million-access
//! traces in O(1) memory without changing a single golden grid value.

use alecto_repro::types::{fnv1a_64, MemoryRecord, TraceSource, FNV1A_OFFSET};
use fuzz::Scenario;
use machine::MachineSpec;
use proptest::prelude::*;
use traces::Suite;

/// Flattened registry: every (suite, benchmark) pair.
fn registry() -> Vec<(Suite, &'static str)> {
    Suite::ALL.iter().flat_map(|s| s.benchmarks().into_iter().map(move |b| (*s, b))).collect()
}

/// One replay of `source`.
fn replay(source: &TraceSource) -> Vec<MemoryRecord> {
    source.records().collect()
}

proptest! {
    // A random registered benchmark × access budget streams exactly its
    // budget, under its own name, and every replay collects the same records.
    #[test]
    fn streamed_equals_collected_for_every_registered_benchmark(
        bench_idx in 0usize..75,
        accesses in 0usize..600,
    ) {
        let reg = registry();
        let (suite, name) = reg[bench_idx % reg.len()];
        let streamed = suite.source(name, accesses);
        prop_assert_eq!(streamed.name(), name);
        prop_assert_eq!(streamed.memory_accesses(), accesses);
        let collected = replay(&streamed);
        prop_assert_eq!(collected.len(), accesses);
        prop_assert_eq!(replay(&streamed), collected);
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
        let source = blend.source(accesses);
        let a = replay(&source);
        prop_assert_eq!(&a, &replay(&source));
        prop_assert_eq!(a, replay(&blend.source(accesses)));
    }

    // Record batches are a pure re-chunking of the per-record stream: for
    // any registered benchmark × seed-independent access budget × batch
    // size — degenerate 1, awkward prime 7, the block-sized default —
    // concatenating the batches reproduces the per-record stream exactly,
    // and every batch except the last is full.
    #[test]
    fn batched_streams_equal_per_record_streams_for_every_registered_benchmark(
        bench_idx in 0usize..75,
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
        let base = Suite::Spec06.source("mcf", accesses);
        let shifted = Suite::Spec06.source("mcf", accesses).with_addr_offset(offset);
        for (s, b) in shifted.records().zip(base.records()) {
            prop_assert_eq!(s.addr.raw(), b.addr.raw() + offset);
            prop_assert_eq!(s.pc, b.pc);
            prop_assert_eq!(s.kind, b.kind);
        }
    }
}

/// The whole registry, exhaustively, at one representative budget — the
/// proptests above sample pairs; this checks every benchmark at least once,
/// per record and batched at the degenerate, awkward-prime and block-sized
/// batch sizes.
#[test]
fn every_registered_benchmark_streams_exactly_its_collected_records() {
    for (suite, name) in registry() {
        // Odd budget: mid-batch cuts.
        let source = suite.source(name, 257);
        let per_record = replay(&source);
        assert_eq!(per_record.len(), 257, "{name}");
        assert_eq!(replay(&source), per_record, "{name} replays identically");
        for batch in [1, 7, 4096] {
            let batched: Vec<_> = source.record_batches(batch).flatten().collect();
            assert_eq!(batched, per_record, "{name} in batches of {batch}");
        }
    }
}

/// Record-backed sources round-trip losslessly.
#[test]
fn workload_bridge_round_trips() {
    let generated = Suite::WebServe.source("kv-store", 123);
    let records = replay(&generated);
    let s = TraceSource::from_records("kv-store", generated.memory_intensive(), records.clone());
    assert_eq!(replay(&s), records);
    assert_eq!((s.name(), s.memory_intensive()), ("kv-store", generated.memory_intensive()));
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
/// the tests above compare each trace only with itself, so this digest is
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
