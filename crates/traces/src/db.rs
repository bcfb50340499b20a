//! Database scan/join workloads: sequential table scans, hash-join probes
//! and index-nested-loop joins — the analytical-query memory behaviour of a
//! column/row store. Registered as [`crate::Suite::Database`].
//!
//! Scans are the friendliest possible pattern (pure streams the GS prefetcher
//! eats), probes are the hardest (random hits over a DRAM-sized build side),
//! and index joins sit in between (dependent B-tree descents with hot inner
//! pages), so the family spans the whole selection difficulty range inside
//! single queries.

use alecto_types::TraceSource;

use crate::blend::Blend;

/// The database benchmarks of the family.
pub const BENCHMARKS: [&str; 4] = ["seq-scan", "hash-join", "index-join", "agg-groupby"];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    assert!(BENCHMARKS.contains(&name), "unknown database benchmark: {name}");
    let base = Blend::new(name);
    match name {
        // Full table scan with predicate evaluation: streaming columns plus a
        // fixed per-page tuple footprint.
        "seq-scan" => Blend {
            memory_intensive: true,
            stream: 0.6,
            spatial: 0.25,
            resident: 0.15,
            gap: 9,
            ..base
        },
        // Hash join: stream the probe input, hit the build-side hash table at
        // effectively random buckets.
        "hash-join" => Blend {
            memory_intensive: true,
            stream: 0.3,
            noise: 0.45,
            resident: 0.15,
            stride: 0.1,
            gap: 10,
            ..base
        },
        // Index nested-loop join: dependent B-tree descents with a skewed,
        // cache-warm set of inner pages.
        "index-join" => Blend {
            memory_intensive: true,
            chase: 0.4,
            zipf: 0.25,
            stream: 0.2,
            resident: 0.15,
            gap: 12,
            chase_nodes: 16_000,
            zipf_objects: 32 * 1024,
            zipf_theta: 0.9,
            ..base
        },
        // Aggregation with GROUP BY: scan plus strided accumulator updates
        // over a mid-sized group table.
        "agg-groupby" => {
            Blend { stream: 0.4, stride: 0.25, resident: 0.25, noise: 0.1, gap: 15, ..base }
        }
        _ => unreachable!("benchmark {name} is listed but has no blend"),
    }
}

/// A lazy [`TraceSource`] of the named database workload: `accesses`
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
    use alecto_types::Workload;

    #[test]
    fn all_benchmarks_have_blends() {
        for name in BENCHMARKS {
            let w = blend(name).build(130);
            assert_eq!(w.memory_accesses(), 130);
            assert_eq!(source(name, 130).collect(), w);
        }
    }

    #[test]
    fn scan_streams_while_join_probes() {
        // The scan's dominant pattern is sequential; the hash join's is not:
        // count how many consecutive-record line deltas are exactly +1.
        let sequential = |w: &Workload| {
            w.records
                .windows(2)
                .filter(|p| p[1].addr.line().delta_from(p[0].addr.line()) == 1)
                .count()
        };
        let scan = source("seq-scan", 2_000).collect();
        let join = source("hash-join", 2_000).collect();
        assert!(
            sequential(&scan) > 2 * sequential(&join),
            "a table scan must look far more sequential than a hash-join probe stream"
        );
    }

    #[test]
    #[should_panic(expected = "unknown database benchmark")]
    fn unknown_name_panics() {
        let _ = source("sort-merge", 10);
    }
}
