//! Database scan/join workloads: sequential table scans, hash-join probes
//! and index-nested-loop joins — the analytical-query memory behaviour of a
//! column/row store. Registered as [`crate::Suite::Database`].
//!
//! Scans are the friendliest possible pattern (pure streams the GS prefetcher
//! eats), probes are the hardest (random hits over a DRAM-sized build side),
//! and index joins sit in between (dependent B-tree descents with hot inner
//! pages), so the family spans the whole selection difficulty range inside
//! single queries.

use crate::blend::{lookup, Benchmark, Blend};

/// The database benchmarks of the family.
pub const BENCHMARKS: [Benchmark; 4] = [
    // Full table scan with predicate evaluation: streaming columns plus a
    // fixed per-page tuple footprint.
    ("seq-scan", true, |b| Blend { stream: 0.6, spatial: 0.25, resident: 0.15, gap: 9, ..b }),
    // Hash join: stream the probe input, hit the build-side hash table at
    // effectively random buckets.
    ("hash-join", true, |b| Blend {
        stream: 0.3,
        noise: 0.45,
        resident: 0.15,
        stride: 0.1,
        gap: 10,
        ..b
    }),
    // Index nested-loop join: dependent B-tree descents with a skewed,
    // cache-warm set of inner pages.
    ("index-join", true, |b| Blend {
        chase: 0.4,
        zipf: 0.25,
        stream: 0.2,
        resident: 0.15,
        gap: 12,
        chase_nodes: 16_000,
        zipf_objects: 32 * 1024,
        zipf_theta: 0.9,
        ..b
    }),
    // Aggregation with GROUP BY: scan plus strided accumulator updates
    // over a mid-sized group table.
    ("agg-groupby", false, |b| Blend {
        stream: 0.4,
        stride: 0.25,
        resident: 0.25,
        noise: 0.1,
        gap: 15,
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
    lookup(&BENCHMARKS, name).unwrap_or_else(|| panic!("unknown database benchmark: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::MemoryRecord;

    #[test]
    fn all_benchmarks_have_blends() {
        for (name, ..) in BENCHMARKS {
            assert_eq!(blend(name).source(130).records().count(), 130);
        }
    }

    #[test]
    fn scan_streams_while_join_probes() {
        // The scan's dominant pattern is sequential; the hash join's is not:
        // count how many consecutive-record line deltas are exactly +1.
        let sequential = |name| {
            let records: Vec<MemoryRecord> = blend(name).source(2_000).records().collect();
            records
                .windows(2)
                .filter(|p| p[1].addr.line().delta_from(p[0].addr.line()) == 1)
                .count()
        };
        assert!(
            sequential("seq-scan") > 2 * sequential("hash-join"),
            "a table scan must look far more sequential than a hash-join probe stream"
        );
    }

    #[test]
    #[should_panic(expected = "unknown database benchmark")]
    fn unknown_name_panics() {
        let _ = blend("sort-merge");
    }
}
