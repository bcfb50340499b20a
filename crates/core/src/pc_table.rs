//! The PC table: Fig. 4's Allocation Table and Sample Table, held as one
//! PC-indexed table.
//!
//! Both tables are indexed by the demand's PC and hold 64 entries each
//! (Table III), and every demand touches both with its own PC, so they always
//! hold the same PCs in the same recency order. The model therefore keeps one
//! [`LruTable`] of [`ALLOCATION_ENTRIES`] entries, and a [`PcEntry`] is a PC's
//! row in both tables: the Allocation Table's per-prefetcher states, and the
//! Sample Table's issued and confirmed counters, Demand Counter and Dead
//! Counter. An eviction drops a PC's states and its counters together, as the
//! two tables do, and a demand finds both with one lookup.
//! [`storage_breakdown`](crate::storage_breakdown) still charges the two
//! tables of Table III.

use alecto_types::{LruTable, Pc, RatioCounter};
use prefetch::{Prefetcher, MAX_COMPOSITE_PREFETCHERS};

use crate::config::{ALLOCATION_ENTRIES, DEAD_THRESHOLD, EPOCH_DEMANDS, PROFICIENCY_BOUNDARY};
use crate::state::{transition, PrefetcherState, StateTransitionInput};

/// A PC's row in the Allocation Table and in the Sample Table. Each array
/// holds one slot per composite member; only the first `n` are live, where
/// `n` is the composite's size.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PcEntry {
    /// Allocation Table: each prefetcher's state (Fig. 5).
    pub(crate) states: [PrefetcherState; MAX_COMPOSITE_PREFETCHERS],
    /// Sample Table: each prefetcher's IssuedByP_i and ConfirmedP_i over the
    /// current epoch.
    samples: [RatioCounter; MAX_COMPOSITE_PREFETCHERS],
    /// Sample Table: the PC's demands in the current epoch.
    demand_counter: u32,
    /// Sample Table: predictions that produced no prefetch, less those that
    /// did.
    dead_counter: u32,
}

/// A PC's entry on insertion: every prefetcher UI, every counter zero.
const FRESH: PcEntry = PcEntry {
    states: [PrefetcherState::Unidentified; MAX_COMPOSITE_PREFETCHERS],
    samples: [RatioCounter::new(); MAX_COMPOSITE_PREFETCHERS],
    demand_counter: 0,
    dead_counter: 0,
};

/// What a demand triggered in its PC's entry besides being counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DemandEvent {
    /// No threshold was reached.
    None,
    /// The epoch ended and [`PcEntry::epoch_transition`] ran.
    EpochTransition,
    /// The Dead Counter had reached [`DEAD_THRESHOLD`]: every state went back
    /// to UI.
    DeadlockReset,
}

impl PcEntry {
    /// Step ⑤: a demand of the PC confirmed a prefetch of `prefetcher`.
    pub(crate) fn record_confirmed(&mut self, prefetcher: usize) {
        self.samples[prefetcher].record_confirmed();
    }

    /// Step ①: counts one demand of the PC and applies what it triggers. A
    /// Dead Counter at [`DEAD_THRESHOLD`] is cleared and returns every state
    /// to UI (§IV-C); otherwise the [`EPOCH_DEMANDS`]-th demand of the epoch
    /// runs [`Self::epoch_transition`], which only then reads which of
    /// `prefetchers` are temporal.
    pub(crate) fn record_demand(&mut self, prefetchers: &[Box<dyn Prefetcher>]) -> DemandEvent {
        self.demand_counter += 1;
        if self.dead_counter >= DEAD_THRESHOLD {
            self.dead_counter = 0;
            self.states = FRESH.states;
            return DemandEvent::DeadlockReset;
        }
        if self.demand_counter < EPOCH_DEMANDS {
            return DemandEvent::None;
        }
        let mut is_temporal = [false; MAX_COMPOSITE_PREFETCHERS];
        for (flag, prefetcher) in is_temporal.iter_mut().zip(prefetchers) {
            *flag = prefetcher.kind().is_temporal();
        }
        self.epoch_transition(&is_temporal[..prefetchers.len()]);
        DemandEvent::EpochTransition
    }

    /// Step ③, after one prediction of the PC: `issued[i]` prefetches of
    /// prefetcher `i` reached the prefetch queue and count toward its
    /// IssuedByP_i. The Dead Counter decays when any prefetch was issued and
    /// climbs when none was.
    pub(crate) fn record_prediction(&mut self, issued: &[u32]) {
        for (sample, &count) in self.samples.iter_mut().zip(issued) {
            sample.record_issued(count);
        }
        if issued.iter().any(|&count| count > 0) {
            self.dead_counter = self.dead_counter.saturating_sub(1);
        } else {
            self.dead_counter += 1;
        }
    }

    /// Applies one epoch-boundary transition (events ①–④ of Fig. 5) to the
    /// first `is_temporal.len()` prefetchers, from each one's accuracy over
    /// the epoch, then starts the next epoch: the issued and confirmed
    /// counters and the Demand Counter clear, and the Dead Counter survives
    /// (§IV-C).
    pub(crate) fn epoch_transition(&mut self, is_temporal: &[bool]) {
        let samples = &self.samples;
        let states = &mut self.states[..is_temporal.len()];

        // Which prefetchers qualify for promotion this epoch?
        let mut promotable = [false; MAX_COMPOSITE_PREFETCHERS];
        for (p, (s, sample)) in promotable.iter_mut().zip(states.iter().zip(samples)) {
            *p = *s == PrefetcherState::Unidentified
                && sample.accuracy().is_some_and(|a| a >= PROFICIENCY_BOUNDARY);
        }
        let non_temporal_promotable = promotable.iter().zip(is_temporal).any(|(&p, &t)| p && !t);
        let any_promotable = promotable.iter().any(|&p| p);

        for (j, (s, sample)) in states.iter_mut().zip(samples).enumerate() {
            let input = StateTransitionInput {
                accuracy: sample.accuracy(),
                another_promoted: any_promotable && !promotable[j],
                temporal_demotion: promotable[j] && is_temporal[j] && non_temporal_promotable,
            };
            *s = transition(*s, input);
        }

        // Event ②/③ follow-up: if no prefetcher remains aggressive, thawed
        // (IB_0) prefetchers are reconsidered, i.e. moved back to UI.
        if !states.iter().any(PrefetcherState::is_aggressive) {
            for s in states.iter_mut() {
                if *s == PrefetcherState::Blocked(0) {
                    *s = PrefetcherState::Unidentified;
                }
            }
        }

        self.samples = FRESH.samples;
        self.demand_counter = 0;
    }
}

/// The PC-indexed table: [`ALLOCATION_ENTRIES`] [`PcEntry`]s with LRU
/// replacement.
#[derive(Debug, Clone)]
pub(crate) struct PcTable {
    entries: LruTable<Pc, PcEntry>,
    evictions: u64,
}

impl PcTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self { entries: LruTable::new(ALLOCATION_ENTRIES), evictions: 0 }
    }

    /// The entry of `pc`, touched; a PC the table does not hold is inserted
    /// fresh, in place of the least recently touched PC once the table is
    /// full.
    pub(crate) fn touch(&mut self, pc: Pc) -> &mut PcEntry {
        let (entry, _, evicted) = self.entries.touch_or_insert_with(pc, || FRESH);
        self.evictions += u64::from(evicted.is_some());
        entry
    }

    /// The entry of `pc`, if held, leaving recency alone.
    pub(crate) fn get(&self, pc: Pc) -> Option<&PcEntry> {
        self.entries.get(&pc)
    }

    /// Entries evicted so far (capacity pressure).
    pub(crate) const fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BLOCKED_EPOCHS, MAX_AGGRESSIVE};
    use prefetch::{build_composite, CompositeKind};

    /// Records one epoch's samples into `e`: prefetcher `i` issued
    /// `counts[i].0` lines, of which `counts[i].1` were confirmed.
    fn sample(e: &mut PcEntry, counts: &[(u32, u32)]) {
        let issued: Vec<u32> = counts.iter().map(|&(n, _)| n).collect();
        e.record_prediction(&issued);
        for (i, &(_, confirmed)) in counts.iter().enumerate() {
            for _ in 0..confirmed {
                e.record_confirmed(i);
            }
        }
    }

    /// A fresh entry holding one epoch's `counts` (see [`sample`]).
    fn sampled(counts: &[(u32, u32)]) -> PcEntry {
        let mut e = FRESH;
        sample(&mut e, counts);
        e
    }

    #[test]
    fn new_pc_starts_all_unidentified() {
        let mut t = PcTable::new();
        let states = &t.touch(Pc::new(0x40)).states;
        assert_eq!(states, &[PrefetcherState::Unidentified; MAX_COMPOSITE_PREFETCHERS]);
    }

    #[test]
    fn promotion_blocks_the_losers() {
        let mut e = sampled(&[(10, 9), (10, 3), (10, 5)]);
        e.epoch_transition(&[false, false, false]);
        let states = &e.states;
        assert_eq!(states[0], PrefetcherState::Aggressive(0));
        assert_eq!(states[1], PrefetcherState::Blocked(0));
        assert_eq!(states[2], PrefetcherState::Blocked(0));
    }

    #[test]
    fn temporal_prefetcher_loses_ties_to_non_temporal() {
        let mut e = sampled(&[(10, 9), (20, 19)]);
        e.epoch_transition(&[false, true]);
        let states = &e.states;
        assert_eq!(states[0], PrefetcherState::Aggressive(0));
        assert_eq!(states[1], PrefetcherState::Blocked(0), "temporal prefetcher should be demoted");
    }

    #[test]
    fn temporal_prefetcher_promotes_when_alone() {
        let mut e = sampled(&[(10, 2), (20, 19)]);
        e.epoch_transition(&[false, true]);
        assert_eq!(e.states[1], PrefetcherState::Aggressive(0));
    }

    #[test]
    fn deficient_prefetcher_blocked_for_n_epochs_then_reconsidered() {
        // Epoch 1: prefetcher 0 below DB → IB_-N; prefetcher 1 middling → UI.
        let mut e = sampled(&[(10, 0), (10, 3)]);
        e.epoch_transition(&[false, false]);
        assert_eq!(e.states[0], PrefetcherState::Blocked(BLOCKED_EPOCHS));
        // Thaw for N epochs with no other activity.
        for _ in 0..BLOCKED_EPOCHS {
            e.epoch_transition(&[false, false]);
        }
        // Having reached IB_0 with no aggressive prefetcher, it is reconsidered.
        assert_eq!(e.states[0], PrefetcherState::Unidentified);
    }

    #[test]
    fn blocked_prefetcher_stays_blocked_while_another_is_aggressive() {
        // Prefetcher 0 promoted, prefetcher 1 blocked.
        let mut e = sampled(&[(10, 9), (10, 2)]);
        e.epoch_transition(&[false, false]);
        // Many epochs with prefetcher 0 staying accurate.
        for _ in 0..12 {
            sample(&mut e, &[(10, 9), (0, 0)]);
            e.epoch_transition(&[false, false]);
        }
        let s = &e.states;
        assert!(s[0].is_aggressive());
        assert_eq!(
            s[1],
            PrefetcherState::Blocked(0),
            "IB_0 is held while another prefetcher is IA"
        );
    }

    #[test]
    fn reset_to_unidentified_clears_states() {
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let mut e = sampled(&[(10, 9), (10, 0), (10, 0)]);
        e.epoch_transition(&[false; 3]);
        assert_ne!(e.states, FRESH.states);
        // A PC stuck without prefetches saturates its Dead Counter.
        for _ in 0..DEAD_THRESHOLD {
            e.record_prediction(&[]);
        }
        assert_eq!(e.record_demand(&prefetchers), DemandEvent::DeadlockReset);
        assert_eq!(e.states, [PrefetcherState::Unidentified; MAX_COMPOSITE_PREFETCHERS]);
    }

    /// A table that has seen PCs 0..70, each with prefetcher 0 at IA_1, four
    /// lines issued and one demand counted, so the six oldest were evicted.
    fn overfilled() -> PcTable {
        let prefetchers = build_composite(CompositeKind::PmpOnly);
        let mut t = PcTable::new();
        for pc in 0..70u64 {
            let e = t.touch(Pc::new(pc));
            e.states[0] = PrefetcherState::Aggressive(1);
            e.record_prediction(&[4]);
            assert_eq!(e.record_demand(&prefetchers), DemandEvent::None);
        }
        assert_eq!(ALLOCATION_ENTRIES, 64);
        t
    }

    #[test]
    fn capacity_eviction_forgets_oldest_pc() {
        let mut t = overfilled();
        assert_eq!(t.evictions(), 6);
        for pc in 0..70u64 {
            assert_eq!(t.get(Pc::new(pc)).is_some(), pc >= 6, "only the six oldest PCs go: {pc}");
        }
        let kept = t.get(Pc::new(6)).expect("the seventh is kept");
        assert_eq!(kept.states[0], PrefetcherState::Aggressive(1));
        // An evicted PC lost its states: it returns all UI.
        assert_eq!(t.touch(Pc::new(0)).states[0], PrefetcherState::Unidentified);
    }

    #[test]
    fn capacity_eviction_counts() {
        let mut t = overfilled();
        assert_eq!(t.evictions(), 6);
        let kept = t.get(Pc::new(6)).expect("the seventh is kept");
        assert_eq!((kept.samples[0].issued(), kept.demand_counter), (4, 1));
        // An evicted PC lost its counters with its states: it returns with
        // nothing issued and no demand counted, and its return evicts again.
        let back = t.touch(Pc::new(5));
        assert_eq!(back.states[0], PrefetcherState::Unidentified);
        assert_eq!((back.samples[0].issued(), back.demand_counter), (0, 0));
        assert_eq!(t.evictions(), 7);
    }

    #[test]
    fn aggressive_climb_through_epochs() {
        let mut e = FRESH;
        for _ in 0..8 {
            sample(&mut e, &[(20, 19)]);
            e.epoch_transition(&[false]);
        }
        assert_eq!(e.states[0], PrefetcherState::Aggressive(MAX_AGGRESSIVE));
    }

    #[test]
    fn epoch_boundary_after_100_demands() {
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let mut e = sampled(&[(4, 2)]);
        for i in 1..100 {
            assert_eq!(e.record_demand(&prefetchers), DemandEvent::None, "demand {i}");
        }
        assert_eq!(e.demand_counter, 99);
        assert_eq!(e.record_demand(&prefetchers), DemandEvent::EpochTransition);
        assert_eq!(e.demand_counter, 0, "the transition starts the next epoch");
        assert_eq!(e.samples[0].accuracy(), None);
    }

    #[test]
    fn accuracy_tracks_issued_and_confirmed() {
        let mut t = PcTable::new();
        let e = t.touch(Pc::new(0x44));
        sample(e, &[(4, 2), (10, 0)]);
        assert_eq!(e.samples[0].accuracy(), Some(0.5));
        assert_eq!(e.samples[1].accuracy(), Some(0.0));
        // A new PC has no accuracy yet.
        let fresh = t.touch(Pc::new(0x9999));
        assert!(fresh.samples.iter().all(|s| s.accuracy().is_none()));
    }

    #[test]
    fn epoch_reset_clears_ratio_but_not_dead_counter() {
        let mut e = sampled(&[(8, 0)]);
        for _ in 0..5 {
            e.record_prediction(&[0]);
        }
        e.epoch_transition(&[false]);
        assert_eq!(e.samples[0].accuracy(), None);
        assert_eq!(e.dead_counter, 5, "the Dead Counter is not reset with the epoch");
    }

    #[test]
    fn dead_counter_saturation_triggers_reset_event() {
        let prefetchers = build_composite(CompositeKind::PmpOnly);
        let mut e = FRESH;
        for _ in 0..DEAD_THRESHOLD {
            e.record_prediction(&[0]);
        }
        // The next demand observes the saturated counter.
        assert_eq!(e.record_demand(&prefetchers), DemandEvent::DeadlockReset);
        assert_eq!(e.dead_counter, 0, "the reset event clears the dead counter");
    }

    #[test]
    fn successful_predictions_decay_dead_counter() {
        let mut e = FRESH;
        for _ in 0..10 {
            e.record_prediction(&[0]);
        }
        for _ in 0..4 {
            e.record_prediction(&[1]);
        }
        assert_eq!(e.dead_counter, 6);
    }

    #[test]
    fn zero_count_issue_is_a_noop() {
        let mut e = FRESH;
        e.record_prediction(&[0]);
        assert_eq!(e.samples[0].accuracy(), None);
    }
}
