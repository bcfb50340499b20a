//! PARSEC 3.0-like multi-threaded workloads (Fig. 17, eight-core runs).
//!
//! PARSEC regions of interest are parallel loops; for the trace-driven model
//! each core receives its own copy of the benchmark's blend, offset into a
//! private address-space slice, which is what [`per_core_sources`] provides.

use alecto_types::TraceSource;

use crate::blend::{lookup, Benchmark, Blend};

/// The PARSEC benchmarks used in the multi-core evaluation.
pub const BENCHMARKS: [Benchmark; 9] = [
    ("blackscholes", false, |b| Blend { stream: 0.5, resident: 0.5, gap: 24, ..b }),
    ("bodytrack", false, |b| Blend { stride: 0.4, resident: 0.4, noise: 0.2, gap: 20, ..b }),
    ("canneal", true, |b| Blend {
        chase: 0.55,
        noise: 0.35,
        resident: 0.1,
        gap: 8,
        chase_nodes: 30_000,
        ..b
    }),
    ("dedup", true, |b| Blend { spatial: 0.35, noise: 0.4, stride: 0.25, gap: 12, ..b }),
    ("fluidanimate", true, |b| Blend { stream: 0.45, spatial: 0.35, resident: 0.2, gap: 12, ..b }),
    ("freqmine", false, |b| Blend {
        chase: 0.35,
        resident: 0.4,
        noise: 0.25,
        gap: 18,
        chase_nodes: 10_000,
        ..b
    }),
    ("streamcluster", true, |b| Blend { stream: 0.75, noise: 0.15, resident: 0.1, gap: 7, ..b }),
    ("swaptions", false, |b| Blend { resident: 0.8, stride: 0.2, gap: 45, ..b }),
    ("vips", false, |b| Blend { stream: 0.5, stride: 0.3, resident: 0.2, gap: 16, ..b }),
];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    lookup(&BENCHMARKS, name).unwrap_or_else(|| panic!("unknown PARSEC benchmark: {name}"))
}

/// `cores` lazy per-thread sources of the named workload, each shifted into
/// a disjoint slice of the address space (threads share code but mostly work
/// on private data partitions in these benchmarks' regions of interest).
/// Records are generated on demand instead of materialising
/// `cores × accesses` records.
///
/// Each thread's trace is generated from [`crate::derive_seed`]`(name, core)`
/// — a pure function of the benchmark name and core index — so the threads'
/// access interleavings are decorrelated (as real sibling threads are) while
/// generation stays position-independent: any core's trace can be
/// regenerated in isolation, in any order, on any worker thread.
///
/// A zero `accesses` budget is valid and yields empty (but well-formed)
/// traces — callers must not assume every core has at least one record.
///
/// # Panics
///
/// Panics if `name` is unknown.
#[must_use]
pub fn per_core_sources(name: &str, accesses: usize, cores: usize) -> Vec<TraceSource> {
    let blueprint = blend(name);
    (0..cores)
        .map(|core| {
            let mut per_core = blueprint.clone();
            per_core.seed = crate::derive_seed(name, core as u64);
            per_core
                .source(accesses)
                .with_name(format!("{name}#t{core}"))
                .with_addr_offset((core as u64) << 38)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, MemoryRecord};

    /// One replay of each per-core source's records.
    fn collect_per_core(name: &str, accesses: usize, cores: usize) -> Vec<Vec<MemoryRecord>> {
        per_core_sources(name, accesses, cores).iter().map(|s| s.records().collect()).collect()
    }

    #[test]
    fn all_benchmarks_have_blends() {
        for (name, ..) in BENCHMARKS {
            assert_eq!(blend(name).source(100).records().count(), 100);
        }
    }

    #[test]
    fn per_core_sources_are_disjoint() {
        let per_core = collect_per_core("canneal", 200, 4);
        assert_eq!(per_core.len(), 4);
        // Guarded aggregation: an empty per-core trace (tiny access budgets)
        // must fail the test with a message, not panic inside max()/min().
        let a_max = per_core[0].iter().map(|r| r.addr.raw()).max();
        let b_min = per_core[1].iter().map(|r| r.addr.raw()).min();
        match (a_max, b_min) {
            (Some(a), Some(b)) => assert!(b > a, "core address slices must not overlap"),
            _ => panic!("a 200-access budget must give every core records"),
        }
        assert!(per_core_sources("canneal", 200, 4)[0].memory_intensive());
    }

    #[test]
    fn zero_access_budgets_degrade_gracefully() {
        // A tiny or zero --accesses budget must not panic anywhere in the
        // per-core pipeline: cores simply receive empty (or short) traces.
        for accesses in [0usize, 1, 2] {
            let per_core = per_core_sources("canneal", accesses, 3);
            assert_eq!(per_core.len(), 3);
            for (core, s) in per_core.iter().enumerate() {
                assert_eq!(s.memory_accesses(), accesses, "core {core}");
                assert_eq!(s.records().count(), accesses, "core {core}");
            }
        }
    }

    #[test]
    fn per_core_sources_stream_what_workloads_collect() {
        // Each per-core source replays the blend of its thread seed, shifted
        // into the thread's address slice.
        for (core, s) in per_core_sources("dedup", 150, 2).iter().enumerate() {
            let mut thread = blend("dedup");
            thread.seed = crate::derive_seed("dedup", core as u64);
            let offset = (core as u64) << 38;
            let expected: Vec<MemoryRecord> = thread
                .source(150)
                .records()
                .map(|r| MemoryRecord { addr: Addr::new(r.addr.raw() + offset), ..r })
                .collect();
            assert_eq!(s.records().collect::<Vec<_>>(), expected, "core {core}");
            assert_eq!(s.name(), format!("dedup#t{core}"));
        }
    }

    #[test]
    fn per_core_threads_are_decorrelated_but_position_independent() {
        let per_core = collect_per_core("canneal", 300, 3);
        // Core 0 is the canonical (job 0) trace, unshifted.
        assert_eq!(per_core[0], blend("canneal").source(300).records().collect::<Vec<_>>());
        // Sibling threads draw different interleavings from derived seeds.
        let strip = |records: &[MemoryRecord], core: u64| -> Vec<u64> {
            records.iter().map(|r| r.addr.raw() - (core << 38)).collect()
        };
        assert_ne!(strip(&per_core[1], 1), strip(&per_core[2], 2));
        // Regenerating the same core in isolation reproduces it exactly.
        assert_eq!(collect_per_core("canneal", 300, 2)[1], per_core[1]);
    }

    #[test]
    #[should_panic(expected = "unknown PARSEC benchmark")]
    fn unknown_name_panics() {
        let _ = blend("raytrace");
    }
}
