//! # Alecto — prefetcher selection with dynamic demand request allocation
//!
//! This crate implements the paper's contribution: a prefetcher-selection
//! framework that, instead of merely throttling prefetcher *outputs*, decides
//! per memory-access instruction (per PC) **which prefetchers are allowed to
//! train** on each demand request and with what prefetching degree
//! ("dynamic demand request allocation", DDRA).
//!
//! Alecto consists of three small SRAM structures (Fig. 4):
//!
//! * the [`AllocationTable`] — per-PC, per-prefetcher state machine
//!   (UI / IA_m / IB_n, Fig. 5) driving allocation and degree,
//! * the [`SampleTable`] — per-PC issued/confirmed counters, the epoch
//!   (demand) counter and the deadlock (dead) counter,
//! * the [`SandboxTable`] — recently issued prefetches, used both to confirm
//!   prefetch usefulness and as the prefetch filter of step ⑥.
//!
//! The two PC-indexed tables are fully associative with LRU replacement:
//! each is an [`alecto_types::LruTable`], the table the prefetchers' own
//! metadata tables are built on. The Sandbox Table is direct-mapped.
//!
//! [`AlectoSelector`] ties the three together and implements the
//! [`selectors::Selector`] trait, so the CPU model can schedule it exactly
//! like the IPCP/DOL/Bandit baselines. Its parameters are the paper's, as
//! constants in [`config`]; the only setting is the §VII-A ablation,
//! [`AlectoSelector::fixed_degree`] (Alecto_fix).
//!
//! # Example
//!
//! ```
//! use alecto::AlectoSelector;
//! use selectors::Selector;
//! use prefetch::{build_composite, CompositeKind};
//! use alecto_types::{DemandAccess, Pc, Addr};
//!
//! let mut alecto = AlectoSelector::new(3);
//! let prefetchers = build_composite(CompositeKind::GsCsPmp);
//! let decision = alecto.allocate(&DemandAccess::load(Pc::new(0x40), Addr::new(0x1000)), &prefetchers);
//! // A never-seen PC starts with every prefetcher Un-Identified: all train
//! // with the conservative degree c = 3.
//! assert_eq!(decision.allocated_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation_table;
pub mod config;
pub mod sample_table;
pub mod sandbox_table;
pub mod selector;
pub mod state;
pub mod storage;

pub use allocation_table::AllocationTable;
pub use sample_table::SampleTable;
pub use sandbox_table::SandboxTable;
pub use selector::AlectoSelector;
pub use state::{PrefetcherState, StateTransitionInput};
pub use storage::{storage_breakdown, StorageBreakdown};
