//! Common types shared across the Alecto reproduction workspace.
//!
//! This crate deliberately contains only small, dependency-free building
//! blocks: strongly typed addresses, demand/prefetch request and prefetch
//! outcome descriptors, saturating counters, the folded-XOR PC hash used by
//! the Sandbox Table, the seeded generator behind every random draw, the
//! [`LruTable`] behind every small least-recently-used table, the geometric
//! mean used when aggregating results, and the ordered worker pool that
//! spreads independent items across threads.
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
pub mod lru;
pub mod pool;
pub mod request;
pub mod rng;
pub mod stats;
pub mod trace;

pub use addr::{
    Addr, LineAddr, PageAddr, Pc, CACHE_LINE_BYTES, LINES_PER_PAGE, LINE_OFFSET_BITS, PAGE_BYTES,
    PAGE_OFFSET_BITS,
};
pub use counter::{RatioCounter, SaturatingCounter};
pub use hash::{fnv1a_64, fold_pc, FNV1A_OFFSET};
pub use lru::LruTable;
pub use pool::{par_map, worker_count};
pub use request::{
    AccessKind, DemandAccess, FillLevel, PrefetchOutcome, PrefetchRequest, PrefetcherId,
};
pub use rng::SplitMix64;
pub use stats::geomean;
pub use trace::{BoxedRecordIter, MemoryRecord, RecordBatches, TraceSource, Workload};

#[cfg(test)]
mod tests {
    //! The seeded generator as callers reach it through the crate root,
    //! drawing the way the trace generators, the Bandit selector and the
    //! fuzzer do.

    use super::SplitMix64;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000), b.below(1_000));
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
            assert_eq!(a.chance(0.5), b.chance(0.5));
        }
        // A clone continues the stream it was taken from.
        let mut c = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), c.next_u64());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        // An offset range `lo..hi` is drawn as `lo + below(hi - lo)`.
        let mut rng = SplitMix64::new(7);
        for _ in 0..1_000 {
            let v = 10 + rng.below(10);
            assert!((10..20).contains(&v));
            let w = -5 + rng.below(11) as i64;
            assert!((-5..=5).contains(&w));
            assert!(rng.below(3) < 3);
            assert!(rng.below(u64::MAX) < u64::MAX);
        }
    }

    #[test]
    fn f64_is_a_probability() {
        let mut rng = SplitMix64::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let p = rng.unit();
            assert!((0.0..1.0).contains(&p));
            sum += p;
        }
        let mean = sum / 10_000.0;
        assert!((0.45..0.55).contains(&mean), "mean of unit() draws was {mean}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(!rng.chance(-1.0));
            assert!(rng.chance(1.0));
            assert!(rng.chance(2.0));
        }
    }
}
