//! The Allocation Table (Fig. 4): a 64-entry, PC-indexed table storing the
//! state of every prefetcher for every tracked memory-access instruction.
//!
//! The table is the decision point of dynamic demand request allocation: a
//! lookup with the demand request's PC yields the per-prefetcher states, from
//! which the identifier (which prefetchers may train and with what degree) is
//! derived. Like the prefetchers' PC-indexed tables, it is an [`LruTable`].

use alecto_types::{LruTable, Pc};
use prefetch::MAX_COMPOSITE_PREFETCHERS;

use crate::config::{ALLOCATION_ENTRIES, PROFICIENCY_BOUNDARY};
use crate::state::{transition, PrefetcherState, StateTransitionInput};

/// One entry's prefetcher states; the first `prefetchers` are live.
type States = [PrefetcherState; MAX_COMPOSITE_PREFETCHERS];

const ALL_UNIDENTIFIED: States = [PrefetcherState::Unidentified; MAX_COMPOSITE_PREFETCHERS];

/// The PC-indexed Allocation Table.
#[derive(Debug, Clone)]
pub struct AllocationTable {
    entries: LruTable<Pc, States>,
    prefetchers: usize,
    evictions: u64,
}

impl AllocationTable {
    /// Creates an allocation table of [`ALLOCATION_ENTRIES`] entries for
    /// `prefetchers` prefetchers.
    ///
    /// # Panics
    ///
    /// Panics if `prefetchers` is zero or above [`MAX_COMPOSITE_PREFETCHERS`].
    #[must_use]
    pub fn new(prefetchers: usize) -> Self {
        assert!(prefetchers > 0, "allocation table needs at least one prefetcher");
        assert!(
            prefetchers <= MAX_COMPOSITE_PREFETCHERS,
            "allocation table holds at most {MAX_COMPOSITE_PREFETCHERS} prefetchers per entry"
        );
        Self { entries: LruTable::new(ALLOCATION_ENTRIES), prefetchers, evictions: 0 }
    }

    /// Number of prefetchers tracked per entry.
    #[must_use]
    pub const fn prefetchers(&self) -> usize {
        self.prefetchers
    }

    /// Number of entries evicted so far (capacity pressure indicator).
    #[must_use]
    pub const fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Returns the states of `pc`, allocating a fresh all-UI entry if the PC
    /// has not been seen (or has been evicted since).
    pub fn lookup_or_insert(&mut self, pc: Pc) -> &[PrefetcherState] {
        let (states, _, evicted) = self.entries.touch_or_insert_with(pc, || ALL_UNIDENTIFIED);
        self.evictions += u64::from(evicted.is_some());
        &states[..self.prefetchers]
    }

    /// Returns the states of `pc` without allocating, if present.
    #[must_use]
    pub fn get(&self, pc: Pc) -> Option<&[PrefetcherState]> {
        self.entries.get(&pc).map(|states| &states[..self.prefetchers])
    }

    /// Resets every prefetcher of `pc` back to UI (the dead-counter recovery
    /// path of §IV-C). Does nothing if the PC is not tracked.
    pub fn reset_to_unidentified(&mut self, pc: Pc) {
        if let Some(states) = self.entries.get_mut(&pc) {
            *states = ALL_UNIDENTIFIED;
        }
    }

    /// Applies one epoch-boundary transition for `pc` given each prefetcher's
    /// measured accuracy and whether it is a temporal prefetcher.
    ///
    /// Returns the new states (empty if the PC is untracked).
    pub fn epoch_transition(
        &mut self,
        pc: Pc,
        accuracies: &[Option<f64>],
        is_temporal: &[bool],
    ) -> &[PrefetcherState] {
        let Some(states) = self.entries.get_mut(&pc) else {
            return &[];
        };
        let states = &mut states[..self.prefetchers];
        assert_eq!(accuracies.len(), states.len(), "one accuracy per prefetcher");
        assert_eq!(is_temporal.len(), states.len(), "one temporal flag per prefetcher");

        // Which prefetchers qualify for promotion this epoch?
        let mut promotable = [false; MAX_COMPOSITE_PREFETCHERS];
        for (p, (s, acc)) in promotable.iter_mut().zip(states.iter().zip(accuracies)) {
            *p = *s == PrefetcherState::Unidentified
                && acc.is_some_and(|a| a >= PROFICIENCY_BOUNDARY);
        }
        let non_temporal_promotable = promotable.iter().zip(is_temporal).any(|(&p, &t)| p && !t);
        let any_promotable = promotable.iter().any(|&p| p);

        for (j, s) in states.iter_mut().enumerate() {
            let input = StateTransitionInput {
                accuracy: accuracies[j],
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
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BLOCKED_EPOCHS, MAX_AGGRESSIVE};

    #[test]
    fn new_pc_starts_all_unidentified() {
        let mut t = AllocationTable::new(3);
        let states = t.lookup_or_insert(Pc::new(0x40));
        assert_eq!(states, &[PrefetcherState::Unidentified; 3]);
        assert_eq!(t.prefetchers(), 3);
    }

    #[test]
    fn promotion_blocks_the_losers() {
        let mut t = AllocationTable::new(3);
        t.lookup_or_insert(Pc::new(0x40));
        let states = t.epoch_transition(
            Pc::new(0x40),
            &[Some(0.9), Some(0.3), Some(0.5)],
            &[false, false, false],
        );
        assert_eq!(states[0], PrefetcherState::Aggressive(0));
        assert_eq!(states[1], PrefetcherState::Blocked(0));
        assert_eq!(states[2], PrefetcherState::Blocked(0));
    }

    #[test]
    fn temporal_prefetcher_loses_ties_to_non_temporal() {
        let mut t = AllocationTable::new(2);
        t.lookup_or_insert(Pc::new(0x44));
        let states = t.epoch_transition(Pc::new(0x44), &[Some(0.9), Some(0.95)], &[false, true]);
        assert_eq!(states[0], PrefetcherState::Aggressive(0));
        assert_eq!(states[1], PrefetcherState::Blocked(0), "temporal prefetcher should be demoted");
    }

    #[test]
    fn temporal_prefetcher_promotes_when_alone() {
        let mut t = AllocationTable::new(2);
        t.lookup_or_insert(Pc::new(0x48));
        let states = t.epoch_transition(Pc::new(0x48), &[Some(0.2), Some(0.95)], &[false, true]);
        assert_eq!(states[1], PrefetcherState::Aggressive(0));
    }

    #[test]
    fn deficient_prefetcher_blocked_for_n_epochs_then_reconsidered() {
        let mut t = AllocationTable::new(2);
        t.lookup_or_insert(Pc::new(0x4c));
        // Epoch 1: prefetcher 0 below DB → IB_-N; prefetcher 1 middling → UI.
        let s = t.epoch_transition(Pc::new(0x4c), &[Some(0.0), Some(0.3)], &[false, false]);
        assert_eq!(s[0], PrefetcherState::Blocked(BLOCKED_EPOCHS));
        // Thaw for N epochs with no other activity.
        for _ in 0..BLOCKED_EPOCHS {
            t.epoch_transition(Pc::new(0x4c), &[None, None], &[false, false]);
        }
        // Having reached IB_0 with no aggressive prefetcher, it is reconsidered.
        let s = t.get(Pc::new(0x4c)).unwrap();
        assert_eq!(s[0], PrefetcherState::Unidentified);
    }

    #[test]
    fn blocked_prefetcher_stays_blocked_while_another_is_aggressive() {
        let mut t = AllocationTable::new(2);
        t.lookup_or_insert(Pc::new(0x50));
        // Prefetcher 0 promoted, prefetcher 1 blocked.
        t.epoch_transition(Pc::new(0x50), &[Some(0.9), Some(0.2)], &[false, false]);
        // Many epochs with prefetcher 0 staying accurate.
        for _ in 0..12 {
            t.epoch_transition(Pc::new(0x50), &[Some(0.9), None], &[false, false]);
        }
        let s = t.get(Pc::new(0x50)).unwrap();
        assert!(s[0].is_aggressive());
        assert_eq!(
            s[1],
            PrefetcherState::Blocked(0),
            "IB_0 is held while another prefetcher is IA"
        );
    }

    #[test]
    fn reset_to_unidentified_clears_states() {
        let mut t = AllocationTable::new(3);
        t.lookup_or_insert(Pc::new(0x54));
        t.epoch_transition(Pc::new(0x54), &[Some(0.9), Some(0.0), Some(0.0)], &[false; 3]);
        t.reset_to_unidentified(Pc::new(0x54));
        assert_eq!(t.get(Pc::new(0x54)).unwrap(), &[PrefetcherState::Unidentified; 3]);
        // Resetting an unknown PC is a no-op.
        t.reset_to_unidentified(Pc::new(0xdead));
    }

    #[test]
    fn capacity_eviction_forgets_oldest_pc() {
        let mut t = AllocationTable::new(1);
        for pc in 0..70u64 {
            t.lookup_or_insert(Pc::new(pc));
        }
        assert_eq!(ALLOCATION_ENTRIES, 64);
        assert_eq!(t.evictions(), 6);
        for pc in 0..70u64 {
            assert_eq!(t.get(Pc::new(pc)).is_some(), pc >= 6, "only the six oldest PCs go: {pc}");
        }
    }

    #[test]
    fn untracked_pc_transition_is_empty() {
        let mut t = AllocationTable::new(2);
        let s = t.epoch_transition(Pc::new(0x99), &[None, None], &[false, false]);
        assert!(s.is_empty());
    }

    #[test]
    fn aggressive_climb_through_epochs() {
        let mut t = AllocationTable::new(1);
        t.lookup_or_insert(Pc::new(0x58));
        for _ in 0..8 {
            t.epoch_transition(Pc::new(0x58), &[Some(0.95)], &[false]);
        }
        assert_eq!(t.get(Pc::new(0x58)).unwrap()[0], PrefetcherState::Aggressive(MAX_AGGRESSIVE));
    }
}
