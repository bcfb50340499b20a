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
//! # Example
//!
//! ```
//! let source = traces::spec06::source("GemsFDTD", 5_000);
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

pub use blend::{derive_seed, Blend};
pub use patterns::{
    delta_chain, interleave_weighted, interleave_weighted_iter, looping_stream, phase_shift,
    pointer_chase, random_noise, set_aliasing, spatial_pages, stream, strided, zipfian,
};

use alecto_types::TraceSource;

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

    /// Names of all benchmarks in the suite.
    #[must_use]
    pub fn benchmarks(&self) -> Vec<&'static str> {
        match self {
            Suite::Spec06 => spec06::BENCHMARKS.iter().map(|b| b.name).collect(),
            Suite::Spec17 => spec17::BENCHMARKS.iter().map(|b| b.name).collect(),
            Suite::Parsec => parsec::BENCHMARKS.to_vec(),
            Suite::Ligra => ligra::BENCHMARKS.to_vec(),
            Suite::PointerChase => gc::BENCHMARKS.to_vec(),
            Suite::WebServe => web::BENCHMARKS.to_vec(),
            Suite::Database => db::BENCHMARKS.to_vec(),
        }
    }

    /// A lazy [`TraceSource`] of the named benchmark: `accesses` records
    /// generated on demand in O(1) memory.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark name is not part of the suite.
    #[must_use]
    pub fn source(&self, name: &str, accesses: usize) -> TraceSource {
        match self {
            Suite::Spec06 => spec06::source(name, accesses),
            Suite::Spec17 => spec17::source(name, accesses),
            Suite::Parsec => parsec::source(name, accesses),
            Suite::Ligra => ligra::source(name, accesses),
            Suite::PointerChase => gc::source(name, accesses),
            Suite::WebServe => web::source(name, accesses),
            Suite::Database => db::source(name, accesses),
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
                let w = suite.source(name, 500).collect();
                assert_eq!(w.memory_accesses(), 500, "{name}");
                assert!(w.instructions() >= 500, "{name}");
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

    /// The eager reference of a blend-backed suite's benchmark; `None` for
    /// Ligra, whose kernels are generated by a graph walk, not a blend.
    fn eager_blend(suite: Suite, name: &str) -> Option<Blend> {
        match suite {
            Suite::Spec06 => Some(spec06::blend(name)),
            Suite::Spec17 => Some(spec17::blend(name)),
            Suite::Parsec => Some(parsec::blend(name)),
            Suite::PointerChase => Some(gc::blend(name)),
            Suite::WebServe => Some(web::blend(name)),
            Suite::Database => Some(db::blend(name)),
            Suite::Ligra => None,
        }
    }

    #[test]
    fn sources_match_workloads_across_the_registry() {
        for suite in Suite::ALL {
            let name = suite.benchmarks()[0];
            let s = suite.source(name, 200);
            match eager_blend(suite, name) {
                Some(blend) => assert_eq!(s.collect(), blend.build(200), "{name}"),
                None => assert_eq!(s.collect(), s.collect(), "{name} replays identically"),
            }
        }
        assert_eq!(Suite::Database.all_sources(10).len(), Suite::Database.benchmarks().len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Suite::Spec06.source("mcf", 1_000).collect();
        let b = Suite::Spec06.source("mcf", 1_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn all_sources_helper() {
        let all = Suite::Ligra.all_sources(100);
        assert_eq!(all.len(), Suite::Ligra.benchmarks().len());
        assert!(all.iter().all(|s| s.memory_accesses() == 100));
    }
}
