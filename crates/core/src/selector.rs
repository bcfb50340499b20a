//! [`AlectoSelector`]: the complete Alecto framework wired together as a
//! [`selectors::Selector`], following the process of §III-C:
//!
//! 1. the demand request (PC + address) is presented to the Allocation Table
//!    (step ①) and to the Sandbox Table (step ④),
//! 2. the Allocation Table emits an identifier describing which prefetchers
//!    may train and with what degree (step ②),
//! 3. the selected prefetchers' issued requests update the Sandbox and Sample
//!    Tables (step ③/⑤),
//! 4. the Sandbox Table filters duplicate prefetch requests before they reach
//!    the prefetch queue (step ⑥).

use alecto_types::{DemandAccess, FillLevel, PrefetchRequest};
use prefetch::{Prefetcher, MAX_COMPOSITE_PREFETCHERS};
use selectors::{AllocationDecision, Allocations, DegreeAllocation, Selector};

use crate::config::{CONSERVATIVE_DEGREE, FIXED_IA_DEGREE};
use crate::pc_table::{DemandEvent, PcTable};
use crate::sandbox_table::SandboxTable;
use crate::state::PrefetcherState;
use crate::storage::storage_breakdown;

/// Runtime counters exposed for analysis and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlectoStats {
    /// Epoch-boundary state transitions executed.
    pub epoch_transitions: u64,
    /// Dead-counter deadlock resets executed.
    pub deadlock_resets: u64,
    /// Demand requests withheld from at least one prefetcher (the essence of
    /// dynamic demand request allocation).
    pub allocations_withheld: u64,
    /// Total demand requests observed.
    pub demands: u64,
}

/// The Alecto prefetcher-selection framework.
#[derive(Debug, Clone)]
pub struct AlectoSelector {
    /// Alecto_fix (§VII-A): IA prefetchers issue [`FIXED_IA_DEGREE`] L1
    /// lines instead of the state-dependent `c + m + 1` split.
    fixed_degree: bool,
    prefetcher_count: usize,
    /// The Allocation and Sample Tables, one entry per PC.
    table: PcTable,
    sandbox: SandboxTable,
    stats: AlectoStats,
}

impl AlectoSelector {
    /// Creates full Alecto for a composite of `prefetcher_count` prefetchers.
    ///
    /// # Panics
    ///
    /// Panics if `prefetcher_count` is zero or above
    /// [`MAX_COMPOSITE_PREFETCHERS`].
    #[must_use]
    pub fn new(prefetcher_count: usize) -> Self {
        Self::with_mode(prefetcher_count, false)
    }

    /// Creates Alecto_fix, the ablation of §VII-A: a prefetcher in any IA
    /// state issues [`FIXED_IA_DEGREE`] prefetches into the L1, isolating the
    /// benefit of demand request allocation from dynamic degree adjustment.
    ///
    /// # Panics
    ///
    /// As [`AlectoSelector::new`].
    #[must_use]
    pub fn fixed_degree(prefetcher_count: usize) -> Self {
        Self::with_mode(prefetcher_count, true)
    }

    fn with_mode(prefetcher_count: usize, fixed_degree: bool) -> Self {
        assert!(prefetcher_count > 0, "Alecto needs at least one prefetcher to schedule");
        assert!(
            prefetcher_count <= MAX_COMPOSITE_PREFETCHERS,
            "Alecto schedules at most MAX_COMPOSITE_PREFETCHERS = {MAX_COMPOSITE_PREFETCHERS} \
             prefetchers (the largest composite), got {prefetcher_count}"
        );
        Self {
            fixed_degree,
            table: PcTable::new(),
            sandbox: SandboxTable::new(prefetcher_count),
            prefetcher_count,
            stats: AlectoStats::default(),
        }
    }

    /// Runtime statistics.
    #[must_use]
    pub const fn stats(&self) -> &AlectoStats {
        &self.stats
    }

    /// The current state of every prefetcher for `pc`, if tracked.
    #[must_use]
    pub fn states_of(&self, pc: alecto_types::Pc) -> Option<&[PrefetcherState]> {
        self.table.get(pc).map(|entry| &entry.states[..self.prefetcher_count])
    }

    /// PCs evicted so far from the Allocation and Sample Tables, which hold
    /// the same PCs and so evict together (capacity pressure).
    #[must_use]
    pub const fn evictions(&self) -> u64 {
        self.table.evictions()
    }
}

/// The degree a prefetcher in `state` is allocated (`None`: it must not train).
fn decision_for_state(fixed_degree: bool, state: PrefetcherState) -> Option<DegreeAllocation> {
    match state {
        PrefetcherState::Unidentified => Some(DegreeAllocation::l1(CONSERVATIVE_DEGREE)),
        PrefetcherState::Aggressive(_) if fixed_degree => {
            Some(DegreeAllocation::l1(FIXED_IA_DEGREE))
        }
        PrefetcherState::Aggressive(m) => Some(DegreeAllocation::split(CONSERVATIVE_DEGREE, m + 1)),
        PrefetcherState::Blocked(_) => None,
    }
}

impl Selector for AlectoSelector {
    fn allocate(
        &mut self,
        access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision {
        assert_eq!(
            prefetchers.len(),
            self.prefetcher_count,
            "Alecto was configured for {} prefetchers but the composite has {}",
            self.prefetcher_count,
            prefetchers.len()
        );
        self.stats.demands += 1;

        // Step ④/⑤: confirm earlier prefetches that this demand request hits.
        // One touch of the PC's entry serves the rest of the demand.
        let mut confirmed = self.sandbox.confirm_demand(access.line(), access.pc);
        let entry = self.table.touch(access.pc);
        while confirmed != 0 {
            entry.record_confirmed(confirmed.trailing_zeros() as usize);
            confirmed &= confirmed - 1;
        }

        // Step ①: per-PC demand counting, epoch transitions, deadlock resets.
        match entry.record_demand(prefetchers) {
            DemandEvent::EpochTransition => self.stats.epoch_transitions += 1,
            DemandEvent::DeadlockReset => self.stats.deadlock_resets += 1,
            DemandEvent::None => {}
        }

        // Step ②: build the identifier from the per-prefetcher states.
        let mut per_prefetcher = Allocations::filled(self.prefetcher_count, None);
        for (slot, &state) in per_prefetcher.iter_mut().zip(&entry.states) {
            *slot = decision_for_state(self.fixed_degree, state);
        }
        if per_prefetcher.iter().any(Option::is_none) {
            self.stats.allocations_withheld += 1;
        }
        AllocationDecision { per_prefetcher }
    }

    fn select_requests(
        &mut self,
        access: &DemandAccess,
        mut candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest> {
        // Step ③ + ⑥: the Sandbox Table drops duplicates and records the
        // rest; the Sample Table's Issued counters count the requests that
        // actually reach the prefetch queue (a request whose line is already
        // pending is not a new issue, though its issuer is still remembered in
        // the sandbox entry so a later demand hit can confirm it).
        let mut issued_per_prefetcher = [0u32; MAX_COMPOSITE_PREFETCHERS];
        candidates.retain_mut(|req| {
            let issuer = req.issuer.index();
            if self.sandbox.filter_and_record(req.line, issuer, req.trigger_pc) {
                return false;
            }
            // §IV-B: the first c (surviving) lines of a prefetcher fill the
            // cache the prefetchers reside in; the extra lines granted by
            // the IA_m state fill the next-level cache.
            let fill = if self.fixed_degree || issued_per_prefetcher[issuer] < CONSERVATIVE_DEGREE {
                FillLevel::L1
            } else {
                FillLevel::L2
            };
            issued_per_prefetcher[issuer] += 1;
            *req = req.with_fill_level(fill);
            true
        });
        // One touch of the PC's entry records the issues and the Dead
        // Counter: did this prediction produce any prefetch?
        self.table.touch(access.pc).record_prediction(&issued_per_prefetcher);
        candidates
    }

    fn needs_external_filter(&self) -> bool {
        // The Sandbox Table already is the prefetch filter (step ⑥).
        false
    }

    fn storage_bits(&self) -> u64 {
        storage_breakdown(self.prefetcher_count).total_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DEAD_THRESHOLD, EPOCH_DEMANDS};
    use alecto_types::{Addr, LineAddr, Pc, PrefetcherId};
    use prefetch::{build_composite, CompositeKind};

    fn access(pc: u64, line: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(pc), Addr::new(line * 64))
    }

    fn req(issuer: usize, pc: u64, line: u64) -> PrefetchRequest {
        PrefetchRequest::new(LineAddr::new(line), Pc::new(pc), PrefetcherId(issuer))
    }

    /// Runs one epoch of demand accesses for `pc` where prefetcher `good`
    /// always issues prefetches that are later confirmed and prefetcher `bad`
    /// issues prefetches that never are.
    fn run_epoch(
        alecto: &mut AlectoSelector,
        prefetchers: &[Box<dyn Prefetcher>],
        pc: u64,
        good: usize,
        bad: usize,
    ) {
        for i in 0..u64::from(EPOCH_DEMANDS) {
            let a = access(pc, 1_000 + i);
            let _ = alecto.allocate(&a, prefetchers);
            // The good prefetcher prefetches exactly the next line the PC will
            // touch; the bad prefetcher prefetches garbage far away.
            let requests = vec![req(good, pc, 1_000 + i + 1), req(bad, pc, 900_000 + i * 17)];
            let _ = alecto.select_requests(&a, requests);
        }
    }

    #[test]
    fn fresh_pc_gets_conservative_allocation_for_everyone() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let d = alecto.allocate(&access(0x40, 10), &prefetchers);
        assert_eq!(d.allocated_count(), 3);
        for a in d.per_prefetcher.iter().flatten() {
            assert_eq!(a.total, 3);
            assert_eq!(a.l1_portion, 3);
        }
    }

    #[test]
    fn accurate_prefetcher_promoted_and_inaccurate_blocked_after_an_epoch() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        run_epoch(&mut alecto, &prefetchers, 0x80, 1, 2);
        // One more access so the post-epoch states are visible in a decision.
        let d = alecto.allocate(&access(0x80, 50_000), &prefetchers);
        let states = alecto.states_of(Pc::new(0x80)).unwrap();
        assert!(states[1].is_aggressive(), "the confirmed prefetcher should be IA: {states:?}");
        assert!(states[2].is_blocked(), "the useless prefetcher should be IB: {states:?}");
        assert!(d.per_prefetcher[2].is_none(), "blocked prefetchers receive no demand requests");
        assert!(alecto.stats().epoch_transitions >= 1);
        assert!(alecto.stats().allocations_withheld >= 1);
    }

    #[test]
    fn aggressive_prefetcher_gets_split_degree() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        // Two epochs of perfect behaviour for prefetcher 0 → IA_1.
        run_epoch(&mut alecto, &prefetchers, 0x84, 0, 2);
        run_epoch(&mut alecto, &prefetchers, 0x84, 0, 2);
        let d = alecto.allocate(&access(0x84, 123_456), &prefetchers);
        let alloc = d.per_prefetcher[0].expect("IA prefetcher is allocated");
        assert_eq!(alloc.l1_portion, CONSERVATIVE_DEGREE, "c lines go to the L1");
        assert!(
            alloc.total > CONSERVATIVE_DEGREE,
            "the m+1 extra lines go to the next level: {alloc:?}"
        );
    }

    #[test]
    fn fixed_degree_ablation_uses_flat_degree() {
        let mut alecto = AlectoSelector::fixed_degree(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        run_epoch(&mut alecto, &prefetchers, 0x88, 0, 2);
        let d = alecto.allocate(&access(0x88, 77_000), &prefetchers);
        let alloc = d.per_prefetcher[0].expect("IA prefetcher is allocated");
        assert_eq!(alloc.total, 6);
        assert_eq!(alloc.l1_portion, 6);
    }

    #[test]
    fn sandbox_filters_duplicate_requests() {
        let mut alecto = AlectoSelector::new(3);
        let a = access(0x8c, 10);
        let out = alecto.select_requests(&a, vec![req(0, 0x8c, 500), req(1, 0x8c, 500)]);
        assert_eq!(out.len(), 1, "the second request to the same line is a duplicate");
        let out = alecto.select_requests(&a, vec![req(2, 0x8c, 500)]);
        assert!(out.is_empty(), "later duplicates are also dropped");
        assert!(!alecto.needs_external_filter());

        // Filtering happens in place: survivors keep candidate order, and
        // each prefetcher's first c survivors fill the L1, the rest the L2.
        let mut alecto = AlectoSelector::new(3);
        assert_eq!(CONSERVATIVE_DEGREE, 3);
        let candidates = vec![
            req(1, 0x8c, 600),
            req(0, 0x8c, 600),
            req(0, 0x8c, 700),
            req(1, 0x8c, 601),
            req(1, 0x8c, 602),
            req(1, 0x8c, 603),
            req(0, 0x8c, 701),
        ];
        let buffer = candidates.as_ptr();
        let out = alecto.select_requests(&a, candidates);
        assert_eq!(out.as_ptr(), buffer, "the candidate buffer is handed back");
        assert_eq!(
            out,
            [
                req(1, 0x8c, 600),
                req(0, 0x8c, 700),
                req(1, 0x8c, 601),
                req(1, 0x8c, 602),
                req(1, 0x8c, 603).with_fill_level(FillLevel::L2),
                req(0, 0x8c, 701),
            ]
        );
    }

    #[test]
    fn fill_split_follows_the_mode_and_storage_does_not() {
        // Seven distinct lines from one prefetcher: all survive the sandbox.
        let a = access(0x98, 10);
        let fills = |alecto: &mut AlectoSelector| -> Vec<FillLevel> {
            let candidates = (0..7).map(|i| req(1, 0x98, 800 + i)).collect();
            alecto.select_requests(&a, candidates).iter().map(|r| r.fill_level).collect()
        };
        let mut fixed = AlectoSelector::fixed_degree(3);
        assert_eq!(fills(&mut fixed), [FillLevel::L1; 7], "Alecto_fix fills the L1 only");
        let mut full = AlectoSelector::new(3);
        assert_eq!(
            fills(&mut full),
            [[FillLevel::L1; 3].as_slice(), &[FillLevel::L2; 4]].concat(),
            "full Alecto sends the lines after the first c = 3 to the L2"
        );
        assert_eq!(fixed.storage_bits(), full.storage_bits());
    }

    #[test]
    #[should_panic(expected = "at most MAX_COMPOSITE_PREFETCHERS = 4 prefetchers")]
    fn more_prefetchers_than_the_largest_composite_panic() {
        let _ = AlectoSelector::new(MAX_COMPOSITE_PREFETCHERS + 1);
    }

    #[test]
    fn deadlock_reset_returns_states_to_ui() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        // Promote prefetcher 0 first.
        run_epoch(&mut alecto, &prefetchers, 0x90, 0, 2);
        assert!(alecto.states_of(Pc::new(0x90)).unwrap()[0].is_aggressive());
        // Now the PC keeps accessing but no prefetcher ever emits anything:
        // the dead counter climbs until the states reset.
        for i in 0..u64::from(DEAD_THRESHOLD + 5) {
            let a = access(0x90, 200_000 + i);
            let _ = alecto.allocate(&a, &prefetchers);
            let _ = alecto.select_requests(&a, Vec::new());
        }
        assert!(alecto.stats().deadlock_resets >= 1);
        let states = alecto.states_of(Pc::new(0x90)).unwrap();
        assert!(states.iter().all(|s| *s == PrefetcherState::Unidentified));
    }

    #[test]
    fn temporal_prefetcher_demoted_when_non_temporal_equally_good() {
        let mut alecto = AlectoSelector::new(4);
        let prefetchers =
            build_composite(CompositeKind::GsCsPmpTemporal { metadata_bytes: 64 * 1024 });
        // Both prefetcher 1 (stride, non-temporal) and 3 (temporal) are always
        // confirmed; prefetcher 2 is useless.
        for i in 0..u64::from(EPOCH_DEMANDS) {
            let a = access(0x94, 3_000 + i);
            let _ = alecto.allocate(&a, &prefetchers);
            let requests = vec![
                req(1, 0x94, 3_000 + i + 1),
                req(3, 0x94, 3_000 + i + 2),
                req(2, 0x94, 700_000 + i),
            ];
            let _ = alecto.select_requests(&a, requests);
        }
        let _ = alecto.allocate(&access(0x94, 999_999), &prefetchers);
        let states = alecto.states_of(Pc::new(0x94)).unwrap();
        assert!(states[1].is_aggressive(), "non-temporal winner: {states:?}");
        assert!(
            states[3].is_blocked(),
            "temporal prefetcher should be demoted in favour of the non-temporal one: {states:?}"
        );
    }

    #[test]
    fn evicted_pc_loses_states_and_counters_together() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let a = 0x9c;
        run_epoch(&mut alecto, &prefetchers, a, 1, 2);
        assert!(alecto.states_of(Pc::new(a)).unwrap()[1].is_aggressive());
        assert_eq!(alecto.stats().epoch_transitions, 1);
        // One demand from each of 64 other PCs fills the table and evicts A.
        for pc in 0..64u64 {
            let other = access(0x1_0000 + pc, 60_000 + pc);
            let _ = alecto.allocate(&other, &prefetchers);
            let _ = alecto.select_requests(&other, vec![req(0, 0x1_0000 + pc, 70_000 + pc)]);
        }
        assert_eq!(alecto.states_of(Pc::new(a)), None, "A is evicted");
        // A returns as a fresh PC: every prefetcher trains at degree c, and
        // its new epoch ends after exactly EPOCH_DEMANDS more demands.
        for i in 1..=u64::from(EPOCH_DEMANDS) {
            let d = alecto.allocate(&access(a, 80_000 + i), &prefetchers);
            if i == 1 {
                assert_eq!(d.allocated_count(), 3);
                for alloc in d.per_prefetcher.iter().flatten() {
                    assert_eq!((alloc.total, alloc.l1_portion), (3, 3));
                }
            }
            let expected = if i < u64::from(EPOCH_DEMANDS) { 1 } else { 2 };
            assert_eq!(alecto.stats().epoch_transitions, expected, "demand {i} after the return");
            let _ = alecto.select_requests(&access(a, 80_000 + i), Vec::new());
        }
        // The two lines A's last pre-eviction demand issued left with it, so
        // the new epoch measured nothing and blocked no prefetcher.
        let states = alecto.states_of(Pc::new(a)).unwrap();
        assert_eq!(states, [PrefetcherState::Unidentified; 3], "no counter survived the eviction");
    }

    #[test]
    fn evictions_count_pcs_pushed_out_of_the_pc_table() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        for pc in 0..70 {
            let _ = alecto.allocate(&access(pc, pc), &prefetchers);
        }
        assert_eq!(alecto.evictions(), 6, "64 entries hold 70 PCs with 6 evictions");
    }

    #[test]
    fn storage_matches_table3() {
        let alecto = AlectoSelector::new(3);
        assert_eq!(alecto.storage_bits(), 5312 + 1792 * 3);
    }

    #[test]
    #[should_panic(expected = "configured for 3 prefetchers")]
    fn mismatched_composite_size_panics() {
        let mut alecto = AlectoSelector::new(3);
        let prefetchers = build_composite(CompositeKind::PmpOnly);
        let _ = alecto.allocate(&access(1, 1), &prefetchers);
    }
}
