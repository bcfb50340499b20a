//! Cycle-approximate memory-system model: set-associative caches with LRU
//! replacement and MSHRs, a banked/channelled DRAM model, and a three-level
//! hierarchy (private L1D and L2, shared L3) matching Table I of the paper.
//!
//! The hierarchy is driven by the [`cpu`] crate one demand access or prefetch
//! request at a time, with an explicit cycle timestamp. It is *functional +
//! timing*: lookups update real tag arrays, while latency is computed from
//! per-level round-trip latencies, MSHR occupancy and DRAM bank/bus timing.
//!
//! # Example
//!
//! ```
//! use memsys::{Hierarchy, HierarchyParams};
//! use alecto_types::LineAddr;
//!
//! let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
//! let line = LineAddr::new(0x1000);
//! let done = hier.demand_access(0, line, 0, false); // cold miss goes to DRAM
//! assert_eq!(hier.dram_stats().accesses, 1);
//! hier.demand_access(0, line, done + 1, false);
//! assert_eq!(hier.l1_stats(0).demand_hits, 1);
//! ```
//!
//! [`cpu`]: https://docs.rs/cpu

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod mshr;
pub mod stats;
pub mod timing;

pub use cache::{Cache, LineMeta};
pub use config::{CacheParams, DramKind, DramParams, HierarchyParams};
pub use dram::DramModel;
pub use dram::DramStats;
pub use hierarchy::Hierarchy;
pub use mshr::{MshrEntry, MshrFile};
pub use stats::{CacheStats, Cycle, PrefetchQuality};
pub use timing::{BandwidthQueue, TimingParams, TimingStats};
