//! Pointer-chasing workloads: linked-list traversal, garbage collection and
//! ordered-index walks — the scenario family where almost every access is a
//! serially dependent load and only temporal (address-correlating)
//! prefetchers can help. Registered as [`crate::Suite::PointerChase`].
//!
//! These stand in for managed-runtime behaviour (tracing GC marks the live
//! object graph; sweeps stream the heap linearly) and for classic
//! list/skiplist index structures, rounding out the SPEC/PARSEC/Ligra mix
//! with the workloads that stress Alecto's demand request allocation the
//! hardest.

use alecto_types::TraceSource;

use crate::blend::Blend;

/// The pointer-chasing benchmarks of the family.
pub const BENCHMARKS: [&str; 4] = ["linked-list", "gc-mark", "gc-sweep", "skiplist"];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    assert!(BENCHMARKS.contains(&name), "unknown pointer-chase benchmark: {name}");
    let base = Blend::new(name);
    match name {
        // A cold, DRAM-sized list walk: nearly pure dependent loads.
        "linked-list" => Blend {
            memory_intensive: true,
            chase: 0.85,
            noise: 0.1,
            resident: 0.05,
            gap: 6,
            chase_nodes: 60_000,
            ..base
        },
        // Tracing GC mark phase: pointer graph traversal plus mark-bitmap
        // writes (spatial) and allocation-site noise.
        "gc-mark" => Blend {
            memory_intensive: true,
            chase: 0.5,
            spatial: 0.2,
            noise: 0.25,
            resident: 0.05,
            gap: 8,
            chase_nodes: 40_000,
            ..base
        },
        // Sweep phase: the heap is walked linearly, free lists are threaded
        // through it (recurring chase over a smaller set).
        "gc-sweep" => Blend {
            memory_intensive: true,
            stream: 0.5,
            spatial: 0.2,
            chase: 0.2,
            resident: 0.1,
            gap: 10,
            chase_nodes: 8_000,
            ..base
        },
        // Skiplist search: short dependent descents with hot upper levels.
        "skiplist" => Blend {
            chase: 0.45,
            resident: 0.3,
            stride: 0.15,
            noise: 0.1,
            gap: 14,
            chase_nodes: 12_000,
            ..base
        },
        _ => unreachable!("benchmark {name} is listed but has no blend"),
    }
}

/// A lazy [`TraceSource`] of the named pointer-chasing workload: `accesses`
/// records generated on demand in O(1) memory.
///
/// # Panics
///
/// Panics if `name` is unknown.
#[must_use]
pub fn source(name: &str, accesses: usize) -> TraceSource {
    blend(name).source(accesses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_blends() {
        for name in BENCHMARKS {
            let w = blend(name).build(120);
            assert_eq!(w.memory_accesses(), 120);
            assert_eq!(source(name, 120).collect(), w);
        }
    }

    #[test]
    fn chasing_dominates_the_list_walk() {
        let w = source("linked-list", 2_000).collect();
        let dependent = w.records.iter().filter(|r| r.dependent).count();
        assert!(dependent > 1_400, "most accesses should be dependent loads, got {dependent}");
        assert!(w.memory_intensive);
    }

    #[test]
    #[should_panic(expected = "unknown pointer-chase benchmark")]
    fn unknown_name_panics() {
        let _ = source("btree", 10);
    }
}
