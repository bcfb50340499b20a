//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section on top of the simulator substrate.
//!
//! The crate exposes one function per experiment (`figures::fig8`,
//! `figures::fig13`, `figures::table3`, ...), all returning an
//! [`report::Experiment`] — a titled text table plus the raw numbers — so the
//! same code backs the `alecto-harness` CLI, the sweep server and the
//! integration tests.
//!
//! # Module map
//!
//! * [`figures`] — the experiment definitions themselves, listed once in
//!   [`figures::EXPERIMENTS`], the (id, builder) table that
//!   [`figures::builder`] resolves CLI and server experiment ids against,
//!   plus [`figures::resolve_trace_spec`], the one resolver of trace specs
//!   (benchmark names and verified `file:<path>` traces).
//! * [`runner`] — the parallel cell engine: [`CellJob`] (one benchmark ×
//!   algorithm simulation with a content-addressed [`CellJob::cache_key`]),
//!   the work-stealing fan-out, the scoped [`CellExecutor`] hook
//!   ([`with_cell_executor`]) and the [`RunScale`] the CLI and server share.
//! * [`report`] — text-table rendering, the alecto-bench-v2 JSON emitter
//!   ([`experiments_to_json`]) and the strict serde-free parser
//!   (`report::json`).
//! * [`cellcache`] — the two-tier (LRU memory + checksummed disk)
//!   content-addressed memoization of cell results.
//!   [`CellCache::get_or_run`] is the one memoizing path: the CLI takes it
//!   with one memory-only cache per run, the sweep server with its shared
//!   cache.
//! * [`server`] — `alecto-harness serve`: the sweep HTTP API over a
//!   persistent worker pool with the cell cache scoped in; the wire
//!   protocol is specified in `docs/PROTOCOL.md`.
//! * [`energy`] — the per-access energy model behind the `hierarchy_nj`
//!   and `prefetcher_nj` report fields: five constants and
//!   [`energy::evaluate`].
//!
//! Everything rests on the determinism contract (`docs/ARCHITECTURE.md`):
//! equal cell inputs produce byte-identical reports at any worker count,
//! which is what makes `--jobs` a pure wall-clock knob, recorded-trace
//! replays `cmp`-clean, and cached cells indistinguishable from fresh
//! simulations.
//!
//! # Example
//!
//! ```no_run
//! // Full-size experiments take minutes in debug builds; see the `quick`
//! // preset used by the integration tests for a smaller configuration.
//! let exp = harness::figures::fig8(&harness::RunScale::default());
//! println!("{}", exp.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellcache;
pub mod energy;
pub mod figures;
pub mod report;
pub mod runner;
pub mod server;

pub use cellcache::{CacheCounters, CellCache};
pub use energy::HierarchyEnergy;
pub use report::{experiments_to_json, Experiment, GridCell, Table, JSON_SCHEMA};
pub use runner::{run_cell, with_cell_executor, CellExecutor, CellJob, RunScale, SpeedupGrid};
pub use server::{Server, ServerConfig};

#[cfg(test)]
mod tests {
    use super::figures::resolve_trace_spec;

    #[test]
    fn file_scheme_resolves_and_replays_recorded_traces() {
        let path =
            std::env::temp_dir().join(format!("harness-file-scheme-{}.altr", std::process::id()));
        let source = traces::Suite::Spec06.source("mcf", 120);
        let seed = traces::derive_seed("mcf", 0);
        traceio::record_source(&source, seed, &path).expect("record");
        let spec = format!("file:{}", path.display());

        // The spec resolves to the recorded trace and its recorded seed.
        let (replayed, replayed_seed) = resolve_trace_spec(&spec, Some(120)).expect("resolves");
        assert_eq!(replayed_seed, seed);

        // Replay is record-identical to the generator, keeps the recorded
        // name and intensity, and honours the access cap.
        let records = |s: &alecto_types::TraceSource| s.records().collect::<Vec<_>>();
        assert_eq!(replayed.name(), source.name());
        assert_eq!(replayed.memory_intensive(), source.memory_intensive());
        assert_eq!(records(&replayed), records(&source));
        let (capped, _) = resolve_trace_spec(&spec, Some(10)).expect("resolves");
        assert_eq!(capped.memory_accesses(), 10);
        assert_eq!(records(&capped), records(&traces::Suite::Spec06.source("mcf", 10)));
        std::fs::remove_file(&path).expect("cleanup");
    }
}
