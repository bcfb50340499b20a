//! Hardware prefetcher implementations scheduled by the selection algorithms.
//!
//! The composite prefetchers evaluated in the paper are built from:
//!
//! * [`StreamPrefetcher`] — the GS (global stream) component of IPCP,
//! * [`StridePrefetcher`] — the CS (constant stride) component of IPCP,
//! * [`PmpPrefetcher`] — the PMP spatial bit-pattern prefetcher,
//! * [`BertiPrefetcher`] — the Berti local-delta prefetcher,
//! * [`CplxPrefetcher`] — the CPLX complex-stride component of IPCP,
//! * [`TemporalPrefetcher`] — a Triangel-style on-chip temporal (Markov) prefetcher.
//!
//! All of them implement the [`Prefetcher`] trait: they are *trained* with a
//! demand access plus a prefetch degree and respond with candidate cache
//! lines. Which demand accesses reach which prefetcher — and with what degree
//! — is exactly the decision the paper's selection algorithms make.
//!
//! The paper fixes every table (Table II), so each prefetcher's sizes and
//! thresholds are private constants and `default_config()` is its one
//! constructor. Only the temporal prefetcher takes a size,
//! [`TemporalPrefetcher::new`]'s metadata budget, which Fig. 14 sweeps.
//!
//! # Example
//!
//! ```
//! use prefetch::{Prefetcher, StridePrefetcher};
//! use alecto_types::{DemandAccess, Pc, Addr};
//!
//! let mut pf = StridePrefetcher::default_config();
//! let mut out = Vec::new();
//! for i in 0..4u64 {
//!     out.clear();
//!     let access = DemandAccess::load(Pc::new(0x400), Addr::new(0x1_0000 + i * 256));
//!     pf.train_and_predict(&access, 2, &mut out);
//! }
//! assert!(!out.is_empty(), "a constant 256 B stride should be predicted");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod berti;
pub mod composite;
pub mod cplx;
pub mod pmp;
pub mod stream;
pub mod stride;
pub mod temporal;
pub mod traits;

pub use berti::BertiPrefetcher;
pub use composite::{build_composite, CompositeKind, MAX_COMPOSITE_PREFETCHERS};
pub use cplx::CplxPrefetcher;
pub use pmp::PmpPrefetcher;
pub use stream::StreamPrefetcher;
pub use stride::StridePrefetcher;
pub use temporal::TemporalPrefetcher;
pub use traits::{Prefetcher, PrefetcherKind, TableStats};
