//! The Sample Table (Fig. 4): per-PC runtime metrics feeding the Allocation
//! Table's state transitions.
//!
//! Each entry tracks, for its PC: the number of prefetches issued by each
//! prefetcher ("IssuedByP_i"), how many of them were confirmed by later demand
//! requests ("ConfirmedP_i"), the Demand Counter that defines the per-PC epoch
//! (threshold [`EPOCH_DEMANDS`]), and the Dead Counter that detects PCs stuck
//! in an IA state without producing prefetches (threshold [`DEAD_THRESHOLD`]).
//!
//! The table is an [`LruTable`]: every update for a PC touches its entry,
//! allocating one if needed.

use alecto_types::{LruTable, Pc, RatioCounter};
use prefetch::MAX_COMPOSITE_PREFETCHERS;

use crate::config::{DEAD_THRESHOLD, EPOCH_DEMANDS, SAMPLE_ENTRIES};

#[derive(Debug, Clone, Copy)]
struct SampleEntry {
    /// The first `prefetchers` counters are live.
    per_prefetcher: [RatioCounter; MAX_COMPOSITE_PREFETCHERS],
    demand_counter: u32,
    dead_counter: u32,
}

/// What the Sample Table asks the selector to do after recording a demand
/// access for a PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleEvent {
    /// Keep going; no threshold reached.
    None,
    /// The Demand Counter reached the epoch length: run an Allocation Table
    /// state transition with the accuracies included here (indexed per
    /// prefetcher; `None` means the prefetcher issued nothing this epoch).
    EpochBoundary,
    /// The Dead Counter saturated: reset the PC's states back to UI.
    DeadlockReset,
}

/// The PC-indexed Sample Table.
#[derive(Debug, Clone)]
pub struct SampleTable {
    entries: LruTable<Pc, SampleEntry>,
    prefetchers: usize,
    evictions: u64,
}

impl SampleTable {
    /// Creates a sample table of [`SAMPLE_ENTRIES`] entries for
    /// `prefetchers` prefetchers.
    ///
    /// # Panics
    ///
    /// Panics if `prefetchers` is zero or above [`MAX_COMPOSITE_PREFETCHERS`].
    #[must_use]
    pub fn new(prefetchers: usize) -> Self {
        assert!(prefetchers > 0, "sample table needs at least one prefetcher");
        assert!(
            prefetchers <= MAX_COMPOSITE_PREFETCHERS,
            "sample table holds at most {MAX_COMPOSITE_PREFETCHERS} prefetchers per entry"
        );
        Self { entries: LruTable::new(SAMPLE_ENTRIES), prefetchers, evictions: 0 }
    }

    /// Number of entries evicted due to capacity pressure.
    #[must_use]
    pub const fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The entry of `pc`, touched, and allocated if `pc` is not tracked.
    fn touch(&mut self, pc: Pc) -> &mut SampleEntry {
        let (entry, _, evicted) = self.entries.touch_or_insert_with(pc, || SampleEntry {
            per_prefetcher: [RatioCounter::new(); MAX_COMPOSITE_PREFETCHERS],
            demand_counter: 0,
            dead_counter: 0,
        });
        self.evictions += u64::from(evicted.is_some());
        entry
    }

    /// Records one demand access from `pc` and returns what (if anything) the
    /// selector must do in response.
    pub fn record_demand(&mut self, pc: Pc) -> SampleEvent {
        let entry = self.touch(pc);
        entry.demand_counter += 1;
        if entry.dead_counter >= DEAD_THRESHOLD {
            entry.dead_counter = 0;
            return SampleEvent::DeadlockReset;
        }
        if entry.demand_counter >= EPOCH_DEMANDS {
            return SampleEvent::EpochBoundary;
        }
        SampleEvent::None
    }

    /// Records `count` prefetch requests issued by prefetcher `prefetcher` on
    /// behalf of `pc`.
    pub fn record_issued(&mut self, pc: Pc, prefetcher: usize, count: u32) {
        if count == 0 {
            return;
        }
        self.touch(pc).per_prefetcher[prefetcher].record_issued(count);
    }

    /// Records that a previously issued prefetch of prefetcher `prefetcher`
    /// was confirmed by a demand request from `pc`.
    pub fn record_confirmed(&mut self, pc: Pc, prefetcher: usize) {
        self.touch(pc).per_prefetcher[prefetcher].record_confirmed();
    }

    /// Bumps the Dead Counter (no prefetch was generated for a prediction) or
    /// decays it (a prefetch was generated).
    pub fn record_prediction_outcome(&mut self, pc: Pc, generated_prefetch: bool) {
        let entry = self.touch(pc);
        if generated_prefetch {
            entry.dead_counter = entry.dead_counter.saturating_sub(1);
        } else {
            entry.dead_counter += 1;
        }
    }

    /// Per-prefetcher accuracies of `pc` for the current epoch (`None` for
    /// prefetchers that issued nothing).
    #[must_use]
    pub fn accuracies(&self, pc: Pc) -> Vec<Option<f64>> {
        match self.entries.get(&pc) {
            Some(e) => {
                e.per_prefetcher[..self.prefetchers].iter().map(RatioCounter::accuracy).collect()
            }
            None => vec![None; self.prefetchers],
        }
    }

    /// Clears the per-epoch counters of `pc` (issued/confirmed and the Demand
    /// Counter). The Dead Counter intentionally survives (§IV-C).
    pub fn reset_epoch(&mut self, pc: Pc) {
        if let Some(entry) = self.entries.get_mut(&pc) {
            entry.per_prefetcher = [RatioCounter::new(); MAX_COMPOSITE_PREFETCHERS];
            entry.demand_counter = 0;
        }
    }

    /// Current Dead Counter of `pc` (testing/diagnostics).
    #[must_use]
    pub fn dead_counter(&self, pc: Pc) -> u32 {
        self.entries.get(&pc).map_or(0, |e| e.dead_counter)
    }

    /// Current Demand Counter of `pc` (testing/diagnostics).
    #[must_use]
    pub fn demand_counter(&self, pc: Pc) -> u32 {
        self.entries.get(&pc).map_or(0, |e| e.demand_counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_boundary_after_100_demands() {
        let mut t = SampleTable::new(3);
        let pc = Pc::new(0x40);
        for i in 1..100 {
            assert_eq!(t.record_demand(pc), SampleEvent::None, "demand {i}");
        }
        assert_eq!(t.record_demand(pc), SampleEvent::EpochBoundary);
        assert_eq!(t.demand_counter(pc), 100);
        t.reset_epoch(pc);
        assert_eq!(t.demand_counter(pc), 0);
    }

    #[test]
    fn accuracy_tracks_issued_and_confirmed() {
        let mut t = SampleTable::new(2);
        let pc = Pc::new(0x44);
        t.record_issued(pc, 0, 4);
        t.record_confirmed(pc, 0);
        t.record_confirmed(pc, 0);
        t.record_issued(pc, 1, 10);
        let acc = t.accuracies(pc);
        assert_eq!(acc[0], Some(0.5));
        assert_eq!(acc[1], Some(0.0));
        // Unknown PC yields all-None.
        assert_eq!(t.accuracies(Pc::new(0x9999)), vec![None, None]);
    }

    #[test]
    fn epoch_reset_clears_ratio_but_not_dead_counter() {
        let mut t = SampleTable::new(1);
        let pc = Pc::new(0x48);
        t.record_issued(pc, 0, 8);
        for _ in 0..5 {
            t.record_prediction_outcome(pc, false);
        }
        t.reset_epoch(pc);
        assert_eq!(t.accuracies(pc)[0], None);
        assert_eq!(t.dead_counter(pc), 5, "the Dead Counter is not reset with the epoch");
    }

    #[test]
    fn dead_counter_saturation_triggers_reset_event() {
        let mut t = SampleTable::new(1);
        let pc = Pc::new(0x4c);
        for _ in 0..DEAD_THRESHOLD {
            t.record_prediction_outcome(pc, false);
        }
        // The next demand observes the saturated counter.
        assert_eq!(t.record_demand(pc), SampleEvent::DeadlockReset);
        assert_eq!(t.dead_counter(pc), 0, "the reset event clears the dead counter");
    }

    #[test]
    fn successful_predictions_decay_dead_counter() {
        let mut t = SampleTable::new(1);
        let pc = Pc::new(0x50);
        for _ in 0..10 {
            t.record_prediction_outcome(pc, false);
        }
        for _ in 0..4 {
            t.record_prediction_outcome(pc, true);
        }
        assert_eq!(t.dead_counter(pc), 6);
    }

    #[test]
    fn zero_count_issue_is_a_noop() {
        let mut t = SampleTable::new(1);
        let pc = Pc::new(0x54);
        t.record_issued(pc, 0, 0);
        assert_eq!(t.accuracies(pc)[0], None);
    }

    #[test]
    fn capacity_eviction_counts() {
        let mut t = SampleTable::new(1);
        for pc in 0..70u64 {
            t.record_demand(Pc::new(pc));
        }
        assert_eq!(SAMPLE_ENTRIES, 64);
        assert_eq!(t.evictions(), 6);
        assert_eq!(t.demand_counter(Pc::new(5)), 0, "the six oldest PCs are gone");
        assert_eq!(t.demand_counter(Pc::new(6)), 1, "the seventh is kept");
    }
}
