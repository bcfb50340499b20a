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
//!
//! §V-B evaluates each baseline at one setting, so their tunables are
//! constants: IPCP, DOL, PPF and Triangel's non-temporal prefetchers share
//! [`ipcp::BASELINE_DEGREE`], and the [`PrefetchFilter`] has one size.
//! Selectors carry no name; `cpu::SelectionAlgorithm::label()` names them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandit;
pub mod dol;
pub mod filter;
pub mod ipcp;
pub mod ppf;
pub mod traits;
pub mod triangel;

pub use bandit::BanditSelector;
pub use dol::DolSelector;
pub use filter::PrefetchFilter;
pub use ipcp::IpcpSelector;
pub use ppf::PpfFilterSelector;
pub use traits::{AllocationDecision, Allocations, DegreeAllocation, Selector};
pub use triangel::TriangelFilterSelector;
