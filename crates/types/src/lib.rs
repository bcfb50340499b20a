//! Common types shared across the Alecto reproduction workspace.
//!
//! This crate deliberately contains only small, dependency-free building
//! blocks: strongly typed addresses, demand/prefetch request and prefetch
//! outcome descriptors, saturating counters, the folded-XOR PC hash used by
//! the Sandbox Table, the geometric mean used when aggregating results, and
//! the ordered worker pool that spreads independent items across threads.
//!
//! # Example
//!
//! ```
//! use alecto_types::{Addr, LineAddr, DemandAccess, AccessKind, Pc};
//!
//! let access = DemandAccess::new(Pc::new(0x30b00), Addr::new(0x7fff_0040), AccessKind::Load);
//! assert_eq!(access.line(), LineAddr::new(0x7fff_0040 >> 6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod counter;
pub mod hash;
pub mod pool;
pub mod request;
pub mod stats;
pub mod trace;

pub use addr::{
    Addr, LineAddr, PageAddr, Pc, CACHE_LINE_BYTES, LINES_PER_PAGE, LINE_OFFSET_BITS, PAGE_BYTES,
    PAGE_OFFSET_BITS,
};
pub use counter::{RatioCounter, SaturatingCounter};
pub use hash::{fnv1a_64, fold_pc, FNV1A_OFFSET};
pub use pool::{par_map, worker_count};
pub use request::{
    AccessKind, DemandAccess, FillLevel, PrefetchOutcome, PrefetchRequest, PrefetcherId,
};
pub use stats::geomean;
pub use trace::{BoxedRecordIter, MemoryRecord, RecordBatches, TraceSource, Workload};
