//! # Alecto reproduction — umbrella crate
//!
//! This crate re-exports the whole workspace so that the root-level
//! `examples/` and `tests/` directories can exercise the full public API in
//! one place. Downstream users typically depend on the individual member
//! crates instead:
//!
//! * [`alecto`] — the paper's contribution: the Allocation/Sample/Sandbox
//!   tables and the [`alecto::AlectoSelector`] implementing dynamic demand
//!   request allocation.
//! * [`prefetch`] — the six hardware prefetchers being scheduled.
//! * [`selectors`] — the baseline selection algorithms (IPCP, DOL, Bandit,
//!   PPF) the paper compares against.
//! * [`memsys`] / [`cpu`] — the cache/DRAM/core simulator substrate.
//! * [`machine`] — declarative `alecto-machine-v1` machine descriptions
//!   and the built-in registry behind `--machine`.
//! * [`traces`] — synthetic SPEC/PARSEC/Ligra-like workload generators.
//! * [`traceio`] — the `.altr` binary trace record/replay format and the
//!   ChampSim-style external trace importer.
//! * [`fuzz`] — the adversarial scenario fuzzer: seeded blend composition,
//!   pathology oracles, shrinking, and persisted `.altr` repros.
//! * [`harness`] — the experiment runner that regenerates every figure and
//!   table of the paper's evaluation.
//!
//! ```
//! use alecto_repro::prelude::*;
//!
//! let source = traces::Suite::Spec06.source("lbm", 50_000);
//! let machine = MachineSpec::table1(1);
//! let mut sim = cpu::System::new(machine, SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp);
//! let report = sim.run_sources(&[source]).unwrap();
//! assert!(report.cores[0].ipc > 0.0);
//! ```

pub use alecto;
pub use alecto_types as types;
pub use cpu;
pub use fuzz;
pub use harness;
pub use machine;
pub use memsys;
pub use prefetch;
pub use selectors;
pub use traceio;
pub use traces;

/// Convenience re-exports used by the examples and integration tests.
pub mod prelude {
    pub use crate::{
        alecto, cpu, fuzz, harness, machine, memsys, prefetch, selectors, traceio, traces, types,
    };
    pub use cpu::{CompositeKind, SelectionAlgorithm};
    pub use machine::MachineSpec;
}
