//! The CPU-side simulator: the trace-driven [`Core`], the L1D prefetch
//! controller that wires a composite prefetcher and a selection algorithm
//! together, and the multi-core [`System`] that steps one core per trace.
//!
//! A [`Core`] runs the per-demand path (demand access, prefetch selection and
//! issue, usefulness feedback, reward epochs) once for both timing presets;
//! the machine's [`core_model`](machine::MachineSpec::core_model) picks
//! whether its issue and retire timing comes from the analytic Approx
//! pipeline or the staged out-of-order one ([`ooo`]).
//!
//! This is the substrate on which every experiment of the paper runs. A
//! [`System`] simulates one [`machine::MachineSpec`] (Table I is
//! [`machine::MachineSpec::table1`]), given a [`SelectionAlgorithm`] and a
//! [`prefetch::CompositeKind`], fed one workload trace per core, and
//! produces a [`SystemReport`] with IPC, prefetch-quality, table-miss and
//! energy-proxy statistics.
//!
//! # Example
//!
//! ```
//! use cpu::{System, SelectionAlgorithm, CompositeKind};
//! use alecto_types::{TraceSource, MemoryRecord, Pc, Addr};
//! use machine::MachineSpec;
//!
//! // A small streaming workload, generated lazily.
//! let source = TraceSource::new("stream", true, 2_000, || {
//!     Box::new((0..).map(|i| MemoryRecord::load(Pc::new(0x400), Addr::new(0x10_0000 + i * 64), 6)))
//! });
//!
//! let machine = MachineSpec::table1(1);
//! let mut sim = System::new(machine, SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp);
//! let report = sim.run_sources(&[source]).unwrap();
//! assert!(report.cores[0].ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod controller;
pub mod core_model;
pub mod lsq;
pub mod metrics;
pub mod ooo;
pub mod rob;
pub mod selection;
pub mod system;

pub use controller::PrefetchController;
pub use core_model::Core;
pub use metrics::{CoreReport, PrefetcherReport, SystemReport};
pub use prefetch::CompositeKind;
pub use selection::{build_selector, SelectionAlgorithm};
pub use system::{RunError, System, DEFAULT_BATCH_RECORDS};

pub use machine::CoreModelKind;

/// The machine a [`System`] simulates, under the name the `perfbench`
/// host-time benchmark imports. Workspace code writes
/// [`machine::MachineSpec`].
pub type SystemConfig = machine::MachineSpec;
