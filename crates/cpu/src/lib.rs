//! The CPU-side simulator: a trace-driven out-of-order core timing model, the
//! L1D prefetch controller that wires a composite prefetcher and a selection
//! algorithm together, and the multi-core [`System`] driver.
//!
//! This is the substrate on which every experiment of the paper runs. A
//! [`System`] is configured like Table I ([`SystemConfig::skylake_like`]),
//! given a [`SelectionAlgorithm`] and a [`prefetch::CompositeKind`], fed one
//! workload trace per core, and produces a [`SystemReport`] with IPC,
//! prefetch-quality, table-miss and energy-proxy statistics.
//!
//! # Example
//!
//! ```
//! use cpu::{System, SystemConfig, SelectionAlgorithm, CompositeKind};
//! use alecto_types::{TraceSource, MemoryRecord, Pc, Addr};
//!
//! // A small streaming workload, generated lazily.
//! let source = TraceSource::new("stream", true, 2_000, || {
//!     Box::new((0..).map(|i| MemoryRecord::load(Pc::new(0x400), Addr::new(0x10_0000 + i * 64), 6)))
//! });
//!
//! let config = SystemConfig::skylake_like(1);
//! let mut sim = System::new(config, SelectionAlgorithm::Alecto, CompositeKind::GsCsPmp);
//! let report = sim.run_sources(&[source]).unwrap();
//! assert!(report.cores[0].ipc > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod config;
pub mod controller;
pub mod core_model;
pub mod core_timing;
pub mod lsq;
pub mod metrics;
pub mod ooo;
pub mod rob;
pub mod selection;
pub mod system;

pub use config::{composite_from_stack, CoreModelKind, SystemConfig};
pub use controller::PrefetchController;
pub use core_model::CoreModel;
pub use core_timing::{CoreEngine, CoreTiming};
pub use metrics::{CoreReport, PrefetcherReport, SystemReport};
pub use ooo::OooCore;
pub use prefetch::CompositeKind;
pub use selection::{build_selector, SelectionAlgorithm};
pub use system::{RunError, System, DEFAULT_BATCH_RECORDS};
