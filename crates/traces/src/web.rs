//! Zipfian web-serving workloads: power-law object popularity, the request
//! mix of content caches, key-value stores and session-heavy API servers.
//! Registered as [`crate::Suite::WebServe`].
//!
//! The defining property is a *hot set* that becomes cache resident plus an
//! unpredictable long tail — high recurrence without spatial structure, which
//! separates selection schemes that can keep the tail out of the prefetcher
//! tables from those that let it thrash them.

use crate::blend::{lookup, Benchmark, Blend};

/// The web-serving benchmarks of the family.
pub const BENCHMARKS: [Benchmark; 3] = [
    // CDN-style content cache: strongly skewed object popularity with a
    // streaming component (log append / object body reads).
    ("web-cache", true, |b| Blend {
        zipf: 0.65,
        stream: 0.2,
        resident: 0.15,
        gap: 9,
        zipf_objects: 256 * 1024,
        zipf_theta: 0.99,
        ..b
    }),
    // Key-value store under YCSB-like load: a larger, flatter key space
    // and index descents (chase) for misses in the hot set.
    ("kv-store", true, |b| Blend {
        zipf: 0.5,
        chase: 0.25,
        noise: 0.15,
        resident: 0.1,
        gap: 11,
        zipf_objects: 512 * 1024,
        zipf_theta: 0.8,
        chase_nodes: 20_000,
        ..b
    }),
    // API server with per-session state: hot session table plus template
    // rendering (resident) and body streaming.
    ("api-session", false, |b| Blend {
        zipf: 0.4,
        resident: 0.35,
        stream: 0.15,
        noise: 0.1,
        gap: 22,
        zipf_objects: 64 * 1024,
        zipf_theta: 1.1,
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
    lookup(&BENCHMARKS, name).unwrap_or_else(|| panic!("unknown web-serving benchmark: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Pc;

    #[test]
    fn all_benchmarks_have_blends() {
        for (name, ..) in BENCHMARKS {
            assert_eq!(blend(name).source(150).records().count(), 150);
        }
    }

    #[test]
    fn zipf_requests_dominate_the_cache_mix() {
        let records: Vec<_> = blend("web-cache").source(3_000).records().collect();
        let zipf_pc = records.iter().filter(|r| r.pc == Pc::new(0x4_8000)).count();
        assert!(zipf_pc > 1_500, "object requests should dominate, got {zipf_pc}");
        // Power-law reuse: far fewer distinct lines than accesses.
        let distinct: std::collections::HashSet<u64> =
            records.iter().filter(|r| r.pc == Pc::new(0x4_8000)).map(|r| r.addr.raw()).collect();
        assert!(distinct.len() < zipf_pc, "hot objects must recur");
    }

    #[test]
    #[should_panic(expected = "unknown web-serving benchmark")]
    fn unknown_name_panics() {
        let _ = blend("memcached");
    }
}
