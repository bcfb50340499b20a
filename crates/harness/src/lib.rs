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
//! * [`figures`] — the experiment definitions themselves, plus
//!   [`figures::builder`] mapping CLI/server experiment ids to builders.
//! * [`runner`] — the parallel cell engine: [`CellJob`] (one benchmark ×
//!   algorithm simulation with a content-addressed [`CellJob::cache_key`]),
//!   the work-stealing fan-out, the scoped [`CellExecutor`] hook
//!   ([`with_cell_executor`]) and the [`RunScale`] the CLI and server share.
//! * [`report`] — text-table rendering, the alecto-bench-v2 JSON emitter
//!   ([`experiments_to_json`]) and the strict serde-free parser
//!   (`report::json`).
//! * [`compare`] — the perf-regression gate over two JSON reports.
//! * [`cellcache`] — the two-tier (LRU memory + checksummed disk)
//!   content-addressed memoization of cell results.
//! * [`server`] — `alecto-harness serve`: the sweep HTTP API over a
//!   persistent worker pool with the cell cache scoped in; the wire
//!   protocol is specified in `docs/PROTOCOL.md`.
//! * [`energy`] — the per-access energy model behind the `hierarchy_nj`
//!   report fields.
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
pub mod compare;
pub mod energy;
pub mod figures;
pub mod report;
pub mod runner;
pub mod server;

pub use cellcache::{CacheCounters, CellCache};
pub use compare::{compare_reports, Comparison, DEFAULT_TOLERANCE_PCT};
pub use energy::{EnergyModel, HierarchyEnergy};
pub use report::{
    experiments_to_json, Experiment, GridCell, Table, JSON_SCHEMA, JSON_SCHEMA_PREFIX,
};
pub use runner::{run_cell, with_cell_executor, CellExecutor, CellJob, RunScale, SpeedupGrid};
pub use server::{Server, ServerConfig};
