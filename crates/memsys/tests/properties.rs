//! Property tests over the memory-system invariants the parallel experiment
//! engine leans on: the MSHR file must bound outstanding misses, merge
//! duplicate lines and behave exactly like the ordered-map file it replaced,
//! and the cache must honour hit-after-fill and the eviction invariants,
//! under *arbitrary* access sequences — not just the hand-picked ones of the
//! unit tests.

use std::collections::BTreeMap;

use alecto_types::{LineAddr, PrefetcherId, CACHE_LINE_BYTES};
use memsys::{Cache, CacheParams, Cycle, MshrEntry, MshrFile};
use proptest::prelude::*;

/// Reference model: the MSHR file as an ordered map keyed by line, retiring
/// with a full `retain` on every call. [`MshrFile`] must match it return
/// value for return value.
struct MapMshr {
    capacity: usize,
    entries: BTreeMap<LineAddr, MshrEntry>,
}

impl MapMshr {
    fn new(capacity: usize) -> Self {
        Self { capacity, entries: BTreeMap::new() }
    }

    fn retire(&mut self, now: Cycle) {
        self.entries.retain(|_, e| e.completion > now);
    }

    fn occupancy(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.entries.len()
    }

    fn has_free(&mut self, now: Cycle) -> bool {
        self.occupancy(now) < self.capacity
    }

    fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<MshrEntry> {
        self.retire(now);
        self.entries.get(&line).copied()
    }

    fn merge_demand(&mut self, line: LineAddr, now: Cycle) -> Option<MshrEntry> {
        self.retire(now);
        let entry = self.entries.get_mut(&line)?;
        let before = *entry;
        entry.demand_merged = true;
        Some(before)
    }

    fn earliest_completion(&self) -> Option<Cycle> {
        self.entries.values().map(|e| e.completion).min()
    }

    fn completion_of(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.entries.get(&line).map(|e| e.completion).filter(|&c| c > now)
    }

    fn allocate(
        &mut self,
        line: LineAddr,
        completion: Cycle,
        prefetch_issuer: Option<PrefetcherId>,
        now: Cycle,
    ) -> Cycle {
        self.retire(now);
        let mut stall = 0;
        if self.entries.len() >= self.capacity {
            let prefetch_victim = if prefetch_issuer.is_none() {
                self.entries
                    .values()
                    .filter(|e| e.prefetch_issuer.is_some() && !e.demand_merged)
                    .max_by_key(|e| (e.completion, e.line))
                    .map(|e| e.line)
            } else {
                None
            };
            if let Some(victim) = prefetch_victim {
                self.entries.remove(&victim);
            } else {
                if let Some(earliest) = self.earliest_completion() {
                    stall = earliest.saturating_sub(now);
                    self.retire(earliest);
                }
                if self.entries.len() >= self.capacity {
                    if let Some((&victim, _)) =
                        self.entries.iter().min_by_key(|(_, e)| (e.completion, e.line))
                    {
                        self.entries.remove(&victim);
                    }
                }
            }
        }
        let entry = MshrEntry {
            line,
            completion: completion + stall,
            prefetch_issuer,
            demand_merged: false,
        };
        self.entries.insert(line, entry);
        stall
    }
}

/// One step of the differential test. Completions land on a 16-cycle grid
/// so that entries allocated at different times often tie.
#[derive(Debug, Clone, Copy)]
enum DiffOp {
    Advance(u64),
    Lookup(u64),
    Merge(u64),
    Allocate { line: u64, slots: u64, prefetch: bool },
    Occupancy,
    HasFree,
    CompletionOf(u64),
}

fn allocate_op() -> impl Strategy<Value = DiffOp> {
    (0u64..96, 1u64..8, any::<bool>()).prop_map(|(line, slots, prefetch)| DiffOp::Allocate {
        line,
        slots,
        prefetch,
    })
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        (0u64..24).prop_map(DiffOp::Advance),
        (0u64..96).prop_map(DiffOp::Lookup),
        (0u64..96).prop_map(DiffOp::Merge),
        allocate_op(),
        allocate_op(),
        Just(DiffOp::Occupancy),
        Just(DiffOp::HasFree),
        (0u64..96).prop_map(DiffOp::CompletionOf),
    ]
}

/// One random MSHR operation: allocate (demand or prefetch) or a lookup.
#[derive(Debug, Clone, Copy)]
enum MshrOp {
    Allocate { line: u64, latency: u64, prefetch: bool },
    Lookup { line: u64 },
}

fn mshr_op() -> impl Strategy<Value = MshrOp> {
    prop_oneof![
        (0u64..32, 1u64..400, any::<bool>())
            .prop_map(|(line, latency, prefetch)| MshrOp::Allocate { line, latency, prefetch }),
        (0u64..32).prop_map(|line| MshrOp::Lookup { line }),
    ]
}

proptest! {
    #[test]
    fn mshr_occupancy_never_exceeds_capacity(
        capacity in 1usize..16,
        ops in proptest::collection::vec(mshr_op(), 1..120),
    ) {
        let mut mshr = MshrFile::new(capacity);
        let mut now = 0;
        for op in ops {
            now += 3;
            match op {
                MshrOp::Allocate { line, latency, prefetch } => {
                    let line = LineAddr::new(line);
                    // Callers merge via lookup before allocating, as the
                    // hierarchy does.
                    if mshr.lookup(line, now).is_none() {
                        let issuer = prefetch.then_some(PrefetcherId(0));
                        mshr.allocate(line, now + latency, issuer, now);
                    }
                }
                MshrOp::Lookup { line } => {
                    let _ = mshr.lookup(LineAddr::new(line), now);
                }
            }
            prop_assert!(
                mshr.occupancy(now) <= capacity,
                "occupancy {} over capacity {capacity}",
                mshr.occupancy(now),
            );
        }
    }

    #[test]
    fn mshr_file_matches_the_ordered_map_reference(
        capacity in 1usize..65,
        ops in proptest::collection::vec(diff_op(), 1..400),
    ) {
        let mut flat = MshrFile::new(capacity);
        let mut reference = MapMshr::new(capacity);
        let mut now: Cycle = 0;
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                DiffOp::Advance(dt) => now += dt,
                DiffOp::Lookup(line) => {
                    let line = LineAddr::new(line);
                    prop_assert_eq!(flat.lookup(line, now), reference.lookup(line, now));
                }
                DiffOp::Merge(line) => {
                    let line = LineAddr::new(line);
                    let merged = flat.merge_demand(line, now);
                    prop_assert_eq!(merged, reference.merge_demand(line, now));
                }
                DiffOp::Allocate { line, slots, prefetch } => {
                    let line = LineAddr::new(line);
                    let completion = (now / 16 + slots) * 16;
                    let issuer = prefetch.then_some(PrefetcherId(0));
                    let stall = flat.allocate(line, completion, issuer, now);
                    let expected = reference.allocate(line, completion, issuer, now);
                    prop_assert!(stall == expected, "step {step}: stall {stall} != {expected}");
                }
                DiffOp::Occupancy => {
                    prop_assert_eq!(flat.occupancy(now), reference.occupancy(now));
                }
                DiffOp::HasFree => prop_assert_eq!(flat.has_free(now), reference.has_free(now)),
                DiffOp::CompletionOf(line) => {
                    let line = LineAddr::new(line);
                    let completion = flat.completion_of(line, now);
                    prop_assert_eq!(completion, reference.completion_of(line, now));
                }
            }
            // Both files must hold the same entries after every step: the
            // non-retiring probes see stale entries too.
            prop_assert_eq!(flat.earliest_completion(), reference.earliest_completion());
            for line in (0..96).map(LineAddr::new) {
                prop_assert_eq!(flat.completion_of(line, 0), reference.completion_of(line, 0));
            }
        }
    }

    #[test]
    fn mshr_merges_duplicate_lines(
        capacity in 1usize..16,
        line in 0u64..1_000,
        latency in 2u64..500,
    ) {
        let mut mshr = MshrFile::new(capacity);
        let line = LineAddr::new(line);
        prop_assert!(mshr.lookup(line, 0).is_none());
        mshr.allocate(line, latency, Some(PrefetcherId(1)), 0);
        // While in flight, a second request to the same line must find the
        // existing entry (and may merge into it) instead of re-allocating.
        let in_flight = mshr.lookup(line, latency - 1);
        prop_assert!(in_flight.is_some());
        let entry = in_flight.expect("checked above");
        prop_assert_eq!(entry.line, line);
        prop_assert_eq!(mshr.merge_demand(line, latency - 1), Some(entry));
        prop_assert!(mshr.lookup(line, latency - 1).is_some_and(|e| e.demand_merged));
        prop_assert_eq!(mshr.occupancy(latency - 1), 1);
        // After completion the entry retires and the line misses again.
        prop_assert!(mshr.lookup(line, latency).is_none());
    }

    #[test]
    fn cache_hits_after_fill_until_evicted(
        ways in 1usize..8,
        sets_log2 in 0u32..4,
        fills in proptest::collection::vec(0u64..64, 1..80),
        probe in 0u64..64,
    ) {
        let sets = 1usize << sets_log2;
        let mut cache = Cache::new(CacheParams {
            size_bytes: (ways * sets) as u64 * CACHE_LINE_BYTES,
            ways,
            latency: 4,
            miss_latency: 1,
            mshrs: 4,
        });
        let mut resident: Vec<u64> = Vec::new();
        for line in fills {
            let evicted = cache.fill(LineAddr::new(line), None, None, false);
            if !resident.contains(&line) {
                resident.push(line);
            }
            if let Some(victim) = evicted {
                prop_assert!(
                    !cache.contains(victim.line),
                    "evicted line {victim:?} still resident",
                );
                resident.retain(|&l| l != victim.line.raw());
            }
            // Hit-after-fill: the just-filled line is always resident.
            prop_assert!(cache.contains(LineAddr::new(line)));
            prop_assert!(cache.demand_lookup(LineAddr::new(line), false).is_some());
            // Eviction invariant: occupancy is bounded by the geometry and
            // matches the model of resident lines exactly.
            prop_assert!(cache.occupancy() <= ways * sets);
            prop_assert_eq!(cache.occupancy(), resident.len());
        }
        // The cache agrees with the reference model on arbitrary probes.
        prop_assert_eq!(cache.contains(LineAddr::new(probe)), resident.contains(&probe));
    }

    #[test]
    fn cache_never_duplicates_a_line(
        fills in proptest::collection::vec(0u64..16, 1..60),
    ) {
        let mut cache = Cache::new(CacheParams {
            size_bytes: 4 * CACHE_LINE_BYTES,
            ways: 2,
            latency: 1,
            miss_latency: 1,
            mshrs: 2,
        });
        for line in fills {
            cache.fill(LineAddr::new(line), None, None, false);
            let mut seen: Vec<u64> = cache.resident_lines().map(|m| m.line.raw()).collect();
            let before = seen.len();
            seen.sort_unstable();
            seen.dedup();
            prop_assert!(before == seen.len(), "duplicate resident lines");
        }
    }
}
