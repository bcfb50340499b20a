//! Prefetcher *selection* algorithms: the baselines the paper compares
//! Alecto against, plus shared infrastructure (the [`Selector`] trait and the
//! plain prefetch filter every baseline configuration is given per §V-B).
//!
//! * [`IpcpSelector`] — static output prioritisation (Fig. 3b),
//! * [`DolSelector`] — static sequential demand-request passing (Fig. 3a),
//! * [`BanditSelector`] — the Micro-Armed-Bandit RL scheme controlling
//!   per-prefetcher degree (Fig. 3c), including the extended-arm variant of
//!   §VI-H,
//! * [`PpfFilterSelector`] — IPCP plus a perceptron-based prefetch filter
//!   (the §VII-C comparison),
//! * [`TriangelFilterSelector`] — Triangel-style training filtering for the
//!   temporal-prefetching configuration of Fig. 13.
//!
//! The Alecto selector itself lives in the `alecto` crate; it implements the
//! same [`Selector`] trait so the CPU model can schedule any of them
//! interchangeably.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandit;
pub mod dol;
pub mod filter;
pub mod ipcp;
pub mod ppf;
pub mod traits;
pub mod triangel;

pub use bandit::{BanditConfig, BanditSelector};
pub use dol::DolSelector;
pub use filter::PrefetchFilter;
pub use ipcp::IpcpSelector;
pub use ppf::{PpfConfig, PpfFilterSelector};
pub use traits::{AllocationDecision, Allocations, DegreeAllocation, Selector};
pub use triangel::TriangelFilterSelector;
