//! Seeded workload inputs. Every generated trace is the registry blend of its
//! benchmark with the generation seed replaced by
//! `traces::derive_seed(name, seed)`, so `--seed 0` reproduces the registry
//! traces exactly and any other seed gives a fresh trace of the same shape.

use std::path::Path;

use alecto_types::TraceSource;
use traces::{Blend, Suite};

/// The registry blend of `name` re-seeded for benchmark seed `seed`.
///
/// # Errors
///
/// Returns a message for names outside the blend-backed suites.
pub fn seeded_blend(name: &str, seed: u64) -> Result<Blend, String> {
    let mut blend = match Suite::of(name) {
        Some(Suite::Spec06) => traces::spec06::blend(name),
        Some(Suite::Spec17) => traces::spec17::blend(name),
        Some(Suite::Parsec) => traces::parsec::blend(name),
        Some(Suite::PointerChase) => traces::gc::blend(name),
        Some(Suite::WebServe) => traces::web::blend(name),
        Some(Suite::Database) => traces::db::blend(name),
        _ => return Err(format!("{name:?} has no seedable blend")),
    };
    blend.seed = traces::derive_seed(name, seed);
    Ok(blend)
}

/// A lazy source of `accesses` records of `name` at benchmark seed `seed`.
///
/// # Errors
///
/// Returns a message for names outside the blend-backed suites.
pub fn seeded_source(name: &str, seed: u64, accesses: usize) -> Result<TraceSource, String> {
    Ok(seeded_blend(name, seed)?.source(accesses))
}

/// Instructions a core retires replaying `source`: the sum of `gap + 1` over
/// its records — what every cell report must show.
#[must_use]
pub fn instructions(source: &TraceSource) -> u64 {
    source.records().map(|r| r.instructions()).sum()
}

/// Records `source` to an `.altr` file stamped with its generation seed.
///
/// # Errors
///
/// Returns a message naming the file on I/O failure.
pub fn record(source: &TraceSource, name: &str, seed: u64, path: &Path) -> Result<(), String> {
    traceio::record_source(source, traces::derive_seed(name, seed), path)
        .map(drop)
        .map_err(|err| format!("recording {}: {err}", path.display()))
}

/// Opens a recorded `.altr` file as a source (the `traceio::file_source`
/// path the `file:` scheme uses).
///
/// # Errors
///
/// Returns a message naming the file when it cannot be opened.
pub fn open(path: &Path) -> Result<TraceSource, String> {
    traceio::file_source(path, None).map_err(|err| format!("opening {}: {err}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_registry_traces() {
        for suite in [
            Suite::Spec06,
            Suite::Spec17,
            Suite::Parsec,
            Suite::PointerChase,
            Suite::WebServe,
            Suite::Database,
        ] {
            for name in suite.benchmarks() {
                let seeded = seeded_source(name, 0, 400).expect("blend-backed suite");
                let registry = suite.source(name, 400);
                assert_eq!(seeded.fingerprint(), registry.fingerprint(), "{name}");
                assert_eq!(seeded.collect(), registry.collect(), "{name}");
            }
        }
    }

    #[test]
    fn other_seeds_give_other_traces_of_the_same_length() {
        let zero = seeded_source("mcf", 0, 400).unwrap();
        let one = seeded_source("mcf", 1, 400).unwrap();
        assert_ne!(zero.fingerprint(), one.fingerprint());
        assert_ne!(zero.collect().records, one.collect().records);
        assert_eq!(one.collect().records.len(), 400);
        assert_eq!(one.collect(), seeded_source("mcf", 1, 400).unwrap().collect());
    }

    #[test]
    fn unseedable_names_are_rejected() {
        assert!(seeded_source("BFS", 1, 10).is_err());
        assert!(seeded_source("no-such-benchmark", 1, 10).is_err());
    }
}
