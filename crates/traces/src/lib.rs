//! Synthetic workload generators standing in for the paper's SPEC CPU2006,
//! SPEC CPU2017, PARSEC and Ligra traces.
//!
//! The real evaluation uses simpoint checkpoints of the actual benchmarks,
//! which are not available here. Each benchmark name is therefore mapped to a
//! deterministic, parameterised *mixture of access-pattern primitives*
//! (streams, strides, spatial footprints, delta chains, pointer chases,
//! random noise) whose blend and memory intensity follow the benchmark's
//! published characterisation — e.g. `459.GemsFDTD` interleaves a spatial PC
//! with a stream PC exactly as the paper's Fig. 2 shows, `mcf`/`omnetpp` are
//! pointer-chasing and irregular, `lbm`/`libquantum` are streaming, and the
//! "memory intensive" subset of Figs. 8/9 gets small instruction gaps and
//! DRAM-sized footprints. What the substitution preserves is the property the
//! selection algorithms act on: *which prefetcher suits which PC*.
//!
//! Each suite module holds one `BENCHMARKS` table with one row per
//! benchmark, in registry order. A blend-backed suite's row is a
//! [`Benchmark`]: the name, whether the paper lists the benchmark as memory
//! intensive, and the fields its [`Blend`] sets over [`Blend::new`]'s
//! defaults. Ligra's row is a [`ligra::Kernel`] (name, per-edge gap,
//! frontier ratio). A new benchmark is one row in its suite's table.
//!
//! A trace is always a lazy [`TraceSource`]: [`Suite::source`] names one
//! registered benchmark and [`Suite::all_sources`] a whole suite, in table
//! order.
//!
//! # Example
//!
//! ```
//! let source = traces::Suite::Spec06.source("GemsFDTD", 5_000);
//! assert!(source.memory_intensive());
//! assert_eq!(source.records().count(), 5_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blend;
pub mod db;
pub mod gc;
pub mod ligra;
pub mod parsec;
pub mod patterns;
pub mod spec06;
pub mod spec17;
pub mod web;

pub use blend::{derive_seed, Benchmark, Blend};
pub use patterns::{
    delta_chain, interleave_weighted, looping_stream, phase_shift, pointer_chase, random_noise,
    set_aliasing, spatial_pages, stream, strided, zipfian,
};

use alecto_types::TraceSource;

/// A suite module's `blend`: the named benchmark's blend, built from its
/// table row.
type BlendLookup = fn(&str) -> Blend;

/// The registered benchmark suites: the four the paper evaluates and the
/// three production-scenario families (pointer chasing, Zipfian web serving,
/// database scan/join) the stress sweeps exercise. Recorded `.altr` traces
/// (`file:<path>` specs) are resolved by the harness, not by this registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006 (single-core, Fig. 8).
    Spec06,
    /// SPEC CPU2017 (single-core, Fig. 9).
    Spec17,
    /// PARSEC 3.0 (eight-core, Fig. 17).
    Parsec,
    /// Ligra graph workloads (eight-core, Fig. 17).
    Ligra,
    /// Linked-list / GC pointer chasing ([`gc`]).
    PointerChase,
    /// Zipfian web serving ([`web`]).
    WebServe,
    /// Database scan/join ([`db`]).
    Database,
}

impl Suite {
    /// Every suite, in registry order.
    pub const ALL: [Suite; 7] = [
        Suite::Spec06,
        Suite::Spec17,
        Suite::Parsec,
        Suite::Ligra,
        Suite::PointerChase,
        Suite::WebServe,
        Suite::Database,
    ];

    /// Stable registry name of the suite.
    #[must_use]
    pub const fn name(&self) -> &'static str {
        match self {
            Suite::Spec06 => "spec06",
            Suite::Spec17 => "spec17",
            Suite::Parsec => "parsec",
            Suite::Ligra => "ligra",
            Suite::PointerChase => "pointer-chase",
            Suite::WebServe => "web-serve",
            Suite::Database => "database",
        }
    }

    /// Finds the suite that registers `benchmark`, if any (benchmark names
    /// are unique across suites).
    #[must_use]
    pub fn of(benchmark: &str) -> Option<Suite> {
        Suite::ALL.into_iter().find(|s| s.benchmarks().contains(&benchmark))
    }

    /// A blend-backed suite's benchmark table and its `blend` lookup (which
    /// panics with the suite's own unknown-benchmark message); `None` for
    /// Ligra, whose kernels are a graph walk, not a blend.
    fn table(self) -> Option<(&'static [Benchmark], BlendLookup)> {
        Some(match self {
            Suite::Spec06 => (&spec06::BENCHMARKS, spec06::blend),
            Suite::Spec17 => (&spec17::BENCHMARKS, spec17::blend),
            Suite::Parsec => (&parsec::BENCHMARKS, parsec::blend),
            Suite::PointerChase => (&gc::BENCHMARKS, gc::blend),
            Suite::WebServe => (&web::BENCHMARKS, web::blend),
            Suite::Database => (&db::BENCHMARKS, db::blend),
            Suite::Ligra => return None,
        })
    }

    /// Names of all benchmarks in the suite, in table order.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<&'static str> {
        match self.table() {
            Some((table, _)) => table.iter().map(|row| row.0).collect(),
            None => ligra::BENCHMARKS.iter().map(|kernel| kernel.0).collect(),
        }
    }

    /// The blend the named benchmark's source streams, or `None` for Ligra,
    /// whose kernels are a graph walk, not a blend.
    ///
    /// # Panics
    ///
    /// Panics if a blend-backed suite has no benchmark `name`.
    #[must_use]
    pub fn blend(&self, name: &str) -> Option<Blend> {
        self.table().map(|(_, blend)| blend(name))
    }

    /// A lazy [`TraceSource`] of the named benchmark: `accesses` records
    /// generated on demand in O(1) memory.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark name is not part of the suite.
    #[must_use]
    pub fn source(&self, name: &str, accesses: usize) -> TraceSource {
        match self.blend(name) {
            Some(blend) => blend.source(accesses),
            None => ligra::source(name, accesses),
        }
    }

    /// Lazy sources for every benchmark of the suite.
    #[must_use]
    pub fn all_sources(&self, accesses: usize) -> Vec<TraceSource> {
        self.benchmarks().iter().map(|b| self.source(b, accesses)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_enumerate_benchmarks() {
        assert_eq!(Suite::Spec06.benchmarks().len(), 29);
        assert_eq!(Suite::Spec17.benchmarks().len(), 21);
        assert!(Suite::Parsec.benchmarks().len() >= 8);
        assert!(Suite::Ligra.benchmarks().len() >= 4);
        assert!(Suite::PointerChase.benchmarks().len() >= 4);
        assert!(Suite::WebServe.benchmarks().len() >= 3);
        assert!(Suite::Database.benchmarks().len() >= 4);
        assert_eq!(Suite::ALL.len(), 7);
    }

    #[test]
    fn every_benchmark_generates_a_trace() {
        for suite in Suite::ALL {
            for name in suite.benchmarks() {
                let records: Vec<_> = suite.source(name, 500).records().collect();
                assert_eq!(records.len(), 500, "{name}");
                assert!(records.iter().map(|r| r.instructions()).sum::<u64>() >= 500, "{name}");
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for suite in Suite::ALL {
            for name in suite.benchmarks() {
                assert!(seen.insert(name), "benchmark name {name} registered twice");
                assert_eq!(Suite::of(name), Some(suite), "{name}");
            }
        }
        assert_eq!(Suite::of("not-a-benchmark"), None);
        assert_eq!(Suite::WebServe.name(), "web-serve");
    }

    #[test]
    fn sources_match_workloads_across_the_registry() {
        for suite in Suite::ALL {
            let name = suite.benchmarks()[0];
            let s = suite.source(name, 200);
            let replay: Vec<_> = s.records().collect();
            assert_eq!(replay, s.records().collect::<Vec<_>>(), "{name} replays identically");
            if let Some(blend) = suite.blend(name) {
                assert_eq!(s.fingerprint(), blend.source(200).fingerprint(), "{name}");
            }
        }
        assert_eq!(Suite::Database.all_sources(10).len(), Suite::Database.benchmarks().len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<_> = Suite::Spec06.source("mcf", 1_000).records().collect();
        let b: Vec<_> = Suite::Spec06.source("mcf", 1_000).records().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn all_sources_helper() {
        let all = Suite::Ligra.all_sources(100);
        assert_eq!(all.len(), Suite::Ligra.benchmarks().len());
        assert!(all.iter().all(|s| s.memory_accesses() == 100));
    }
}
