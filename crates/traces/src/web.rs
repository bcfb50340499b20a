//! Zipfian web-serving workloads: power-law object popularity, the request
//! mix of content caches, key-value stores and session-heavy API servers.
//! Registered as [`crate::Suite::WebServe`].
//!
//! The defining property is a *hot set* that becomes cache resident plus an
//! unpredictable long tail — high recurrence without spatial structure, which
//! separates selection schemes that can keep the tail out of the prefetcher
//! tables from those that let it thrash them.

use alecto_types::TraceSource;

use crate::blend::Blend;

/// The web-serving benchmarks of the family.
pub const BENCHMARKS: [&str; 3] = ["web-cache", "kv-store", "api-session"];

/// Builds the blend describing `name`.
///
/// # Panics
///
/// Panics if `name` is not in [`BENCHMARKS`].
#[must_use]
pub fn blend(name: &str) -> Blend {
    assert!(BENCHMARKS.contains(&name), "unknown web-serving benchmark: {name}");
    let base = Blend::new(name);
    match name {
        // CDN-style content cache: strongly skewed object popularity with a
        // streaming component (log append / object body reads).
        "web-cache" => Blend {
            memory_intensive: true,
            zipf: 0.65,
            stream: 0.2,
            resident: 0.15,
            gap: 9,
            zipf_objects: 256 * 1024,
            zipf_theta: 0.99,
            ..base
        },
        // Key-value store under YCSB-like load: a larger, flatter key space
        // and index descents (chase) for misses in the hot set.
        "kv-store" => Blend {
            memory_intensive: true,
            zipf: 0.5,
            chase: 0.25,
            noise: 0.15,
            resident: 0.1,
            gap: 11,
            zipf_objects: 512 * 1024,
            zipf_theta: 0.8,
            chase_nodes: 20_000,
            ..base
        },
        // API server with per-session state: hot session table plus template
        // rendering (resident) and body streaming.
        "api-session" => Blend {
            zipf: 0.4,
            resident: 0.35,
            stream: 0.15,
            noise: 0.1,
            gap: 22,
            zipf_objects: 64 * 1024,
            zipf_theta: 1.1,
            ..base
        },
        _ => unreachable!("benchmark {name} is listed but has no blend"),
    }
}

/// A lazy [`TraceSource`] of the named web-serving workload: `accesses`
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
    use alecto_types::Pc;

    #[test]
    fn all_benchmarks_have_blends() {
        for name in BENCHMARKS {
            let w = blend(name).build(150);
            assert_eq!(w.memory_accesses(), 150);
            assert_eq!(source(name, 150).collect(), w);
        }
    }

    #[test]
    fn zipf_requests_dominate_the_cache_mix() {
        let w = source("web-cache", 3_000).collect();
        let zipf_pc = w.records.iter().filter(|r| r.pc == Pc::new(0x4_8000)).count();
        assert!(zipf_pc > 1_500, "object requests should dominate, got {zipf_pc}");
        // Power-law reuse: far fewer distinct lines than accesses.
        let distinct: std::collections::HashSet<u64> =
            w.records.iter().filter(|r| r.pc == Pc::new(0x4_8000)).map(|r| r.addr.raw()).collect();
        assert!(distinct.len() < zipf_pc, "hot objects must recur");
    }

    #[test]
    #[should_panic(expected = "unknown web-serving benchmark")]
    fn unknown_name_panics() {
        let _ = source("memcached", 10);
    }
}
