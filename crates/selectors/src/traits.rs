//! The [`Selector`] trait: the interface between the L1D prefetch controller
//! and a prefetcher-selection algorithm.
//!
//! The controller drives a selector through three hooks per demand access:
//!
//! 1. [`Selector::allocate`] — *before* training, decide which prefetchers may
//!    see the request and with what degree (this is where Alecto's dynamic
//!    demand request allocation happens, and where the baselines simply say
//!    "everyone trains"),
//! 2. [`Selector::select_requests`] — *after* the allowed prefetchers emitted
//!    candidates, decide which prefetch requests are actually sent to the
//!    prefetch queue (static output priority for IPCP, filtering for PPF and
//!    for Alecto's Sandbox Table),
//! 3. [`Selector::on_prefetch_outcome`] / [`Selector::on_epoch`] — learn from
//!    prefetch usefulness feedback and periodic performance rewards.

use alecto_types::{DemandAccess, PrefetchOutcome, PrefetchRequest};
use prefetch::{Prefetcher, MAX_COMPOSITE_PREFETCHERS};

/// Degree granted to one prefetcher for one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeAllocation {
    /// Total number of candidate lines the prefetcher may emit.
    pub total: u32,
    /// How many of those lines should be filled into the L1 (the rest go to
    /// the L2, as Alecto does for its aggressive extra lines, §IV-B).
    pub l1_portion: u32,
}

impl DegreeAllocation {
    /// All lines fill the L1 (what the baselines do).
    #[must_use]
    pub const fn l1(total: u32) -> Self {
        Self { total, l1_portion: total }
    }

    /// Split allocation: `l1` lines into L1 and `l2` additional lines into L2.
    #[must_use]
    pub const fn split(l1: u32, l2: u32) -> Self {
        Self { total: l1 + l2, l1_portion: l1 }
    }
}

/// One optional [`DegreeAllocation`] per prefetcher of a composite, stored
/// inline (at most [`MAX_COMPOSITE_PREFETCHERS`]) and used as a slice of the
/// composite's length through `Deref`.
#[derive(Debug, Clone, Copy)]
pub struct Allocations {
    slots: [Option<DegreeAllocation>; MAX_COMPOSITE_PREFETCHERS],
    len: usize,
}

impl Allocations {
    /// `prefetchers` copies of `allocation`.
    ///
    /// # Panics
    ///
    /// Panics if `prefetchers` exceeds [`MAX_COMPOSITE_PREFETCHERS`].
    #[must_use]
    pub fn filled(prefetchers: usize, allocation: Option<DegreeAllocation>) -> Self {
        assert!(
            prefetchers <= MAX_COMPOSITE_PREFETCHERS,
            "{prefetchers} prefetchers exceed the largest composite \
             (MAX_COMPOSITE_PREFETCHERS = {MAX_COMPOSITE_PREFETCHERS})"
        );
        Self { slots: [allocation; MAX_COMPOSITE_PREFETCHERS], len: prefetchers }
    }
}

impl std::ops::Deref for Allocations {
    type Target = [Option<DegreeAllocation>];

    fn deref(&self) -> &Self::Target {
        &self.slots[..self.len]
    }
}

impl std::ops::DerefMut for Allocations {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.slots[..self.len]
    }
}

impl PartialEq for Allocations {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Allocations {}

/// Per-prefetcher training/degree decision for one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocationDecision {
    /// Indexed by prefetcher position in the composite; `None` means the
    /// prefetcher must not observe (train on) this demand request.
    pub per_prefetcher: Allocations,
}

impl AllocationDecision {
    /// Every prefetcher trains with the same L1-filling degree.
    #[must_use]
    pub fn all(prefetchers: usize, degree: u32) -> Self {
        Self {
            per_prefetcher: Allocations::filled(prefetchers, Some(DegreeAllocation::l1(degree))),
        }
    }

    /// Nobody trains (prefetching disabled for this access).
    #[must_use]
    pub fn none(prefetchers: usize) -> Self {
        Self { per_prefetcher: Allocations::filled(prefetchers, None) }
    }

    /// Number of prefetchers that were allocated the request.
    #[must_use]
    pub fn allocated_count(&self) -> usize {
        self.per_prefetcher.iter().filter(|d| d.is_some()).count()
    }
}

/// A prefetcher selection algorithm.
///
/// `Send` is a supertrait so systems holding a boxed selector can be built
/// and executed on worker threads of the parallel experiment engine.
pub trait Selector: Send {
    /// Display name used in harness output (e.g. `"Bandit6"`).
    fn name(&self) -> &'static str;

    /// Decides which prefetchers may train on `access` and with what degree.
    /// `prefetchers` allows read-only probing (DOL's coordinator).
    fn allocate(
        &mut self,
        access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision;

    /// Post-processes the candidate prefetch requests produced by the allowed
    /// prefetchers and returns the ones to issue, most important first.
    ///
    /// Implementations filter `candidates` in place and hand the same buffer
    /// back, so a caller that reuses it never allocates per demand.
    fn select_requests(
        &mut self,
        access: &DemandAccess,
        candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest>;

    /// Learns from the usefulness of a previously issued prefetch.
    fn on_prefetch_outcome(&mut self, outcome: &PrefetchOutcome) {
        let _ = outcome;
    }

    /// Periodic reward delivery: `committed_instructions` retired over the
    /// last `cycles` cycles (the Bandit reward signal).
    fn on_epoch(&mut self, committed_instructions: u64, cycles: u64) {
        let _ = (committed_instructions, cycles);
    }

    /// Whether the CPU model should interpose the shared [`crate::PrefetchFilter`]
    /// between this selector and the prefetch queue. Alecto's Sandbox Table
    /// already performs duplicate filtering, so it opts out.
    fn needs_external_filter(&self) -> bool {
        true
    }

    /// Storage overhead of the selection hardware in bits (Table III and the
    /// Bandit arm-count analysis of §VI-H).
    fn storage_bits(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_allocation_helpers() {
        let a = DegreeAllocation::l1(3);
        assert_eq!(a.total, 3);
        assert_eq!(a.l1_portion, 3);
        let b = DegreeAllocation::split(3, 4);
        assert_eq!(b.total, 7);
        assert_eq!(b.l1_portion, 3);
    }

    #[test]
    fn allocation_decision_helpers() {
        let all = AllocationDecision::all(3, 2);
        assert_eq!(all.allocated_count(), 3);
        assert!(all.per_prefetcher.iter().all(|d| d == &Some(DegreeAllocation::l1(2))));
        let none = AllocationDecision::none(3);
        assert_eq!(none.allocated_count(), 0);
        // The inline storage reads as a slice of exactly the composite's
        // length, and equality ignores the unused slots.
        assert_eq!(none.per_prefetcher.len(), 3);
        let mut one = AllocationDecision::none(MAX_COMPOSITE_PREFETCHERS);
        one.per_prefetcher[0] = Some(DegreeAllocation::l1(1));
        assert_eq!(one.allocated_count(), 1);
        assert_ne!(one, AllocationDecision::none(MAX_COMPOSITE_PREFETCHERS));
        let mut short = AllocationDecision::all(2, 5);
        short.per_prefetcher.fill(None);
        assert_eq!(short, AllocationDecision::none(2));
        assert_ne!(short, AllocationDecision::none(3));
    }

    #[test]
    #[should_panic(expected = "MAX_COMPOSITE_PREFETCHERS = 4")]
    fn allocations_beyond_the_largest_composite_panic() {
        let _ = AllocationDecision::all(MAX_COMPOSITE_PREFETCHERS + 1, 2);
    }
}
