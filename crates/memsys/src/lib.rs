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
//! use alecto_types::{LineAddr, Pc, PrefetcherId};
//!
//! let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
//! let r = hier.demand_access(0, LineAddr::new(0x1000), 0);
//! assert!(r.latency > 0);               // cold miss goes to DRAM
//! let r2 = hier.demand_access(0, LineAddr::new(0x1000), r.completion_cycle + 1);
//! assert_eq!(r2.hit_level, Some(memsys::Level::L1));
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

pub use cache::{Cache, EvictionInfo, LineMeta};
pub use config::{CacheParams, DramKind, DramParams, HierarchyParams, Level};
pub use dram::DramModel;
pub use dram::DramStats;
pub use hierarchy::{CoverageEvent, DemandResult, Hierarchy, PrefetchIssueResult};
pub use mshr::{MshrEntry, MshrFile};
pub use stats::{CacheStats, Cycle, PrefetchQuality};
pub use timing::{BandwidthQueue, TimingParams, TimingStats};
