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

use crate::blend::{lookup, Benchmark, Blend};

/// The pointer-chasing benchmarks of the family.
pub const BENCHMARKS: [Benchmark; 4] = [
    // A cold, DRAM-sized list walk: nearly pure dependent loads.
    ("linked-list", true, |b| Blend {
        chase: 0.85,
        noise: 0.1,
        resident: 0.05,
        gap: 6,
        chase_nodes: 60_000,
        ..b
    }),
    // Tracing GC mark phase: pointer graph traversal plus mark-bitmap
    // writes (spatial) and allocation-site noise.
    ("gc-mark", true, |b| Blend {
        chase: 0.5,
        spatial: 0.2,
        noise: 0.25,
        resident: 0.05,
        gap: 8,
        chase_nodes: 40_000,
        ..b
    }),
    // Sweep phase: the heap is walked linearly, free lists are threaded
    // through it (recurring chase over a smaller set).
    ("gc-sweep", true, |b| Blend {
        stream: 0.5,
        spatial: 0.2,
        chase: 0.2,
        resident: 0.1,
        gap: 10,
        chase_nodes: 8_000,
        ..b
    }),
    // Skiplist search: short dependent descents with hot upper levels.
    ("skiplist", false, |b| Blend {
        chase: 0.45,
        resident: 0.3,
        stride: 0.15,
        noise: 0.1,
        gap: 14,
        chase_nodes: 12_000,
        ..b
    }),
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    lookup(&BENCHMARKS, name).unwrap_or_else(|| panic!("unknown pointer-chase benchmark: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_blends() {
        for (name, ..) in BENCHMARKS {
            assert_eq!(blend(name).source(120).records().count(), 120);
        }
    }

    #[test]
    fn chasing_dominates_the_list_walk() {
        let s = blend("linked-list").source(2_000);
        let dependent = s.records().filter(|r| r.dependent).count();
        assert!(dependent > 1_400, "most accesses should be dependent loads, got {dependent}");
        assert!(s.memory_intensive());
    }

    #[test]
    #[should_panic(expected = "unknown pointer-chase benchmark")]
    fn unknown_name_panics() {
        let _ = blend("btree");
    }
}
