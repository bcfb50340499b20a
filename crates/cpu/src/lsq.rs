//! Load/store queue of the out-of-order core.
//!
//! Loads issue to the memory hierarchy as soon as their queue entry
//! allocates, so outstanding misses overlap up to the LQ size (and, inside
//! `memsys`, up to the MSHR limits) — this is where the model earns its
//! memory-level parallelism. A full queue stalls allocation until the
//! earliest-completing outstanding access returns; for loads that wake-up
//! time is re-queried live from the hierarchy's per-access completion probe
//! ([`memsys::Hierarchy::outstanding_completion`]) with the completion
//! recorded at issue as the fallback once the fill has left the MSHRs.

use std::collections::VecDeque;

use alecto_types::LineAddr;
use memsys::Hierarchy;

/// An outstanding load: the line it fetches and the completion recorded when
/// the access issued.
#[derive(Debug, Clone, Copy)]
struct LoadEntry {
    line: LineAddr,
    completion: u64,
}

/// Fixed-capacity load and store queues, integer cycles.
#[derive(Debug)]
pub struct LoadStoreQueue {
    load_capacity: usize,
    store_capacity: usize,
    loads: VecDeque<LoadEntry>,
    stores: VecDeque<u64>,
}

impl LoadStoreQueue {
    /// Creates queues of `load_capacity` / `store_capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn new(load_capacity: usize, store_capacity: usize) -> Self {
        assert!(load_capacity > 0, "load queue needs at least one entry");
        assert!(store_capacity > 0, "store queue needs at least one entry");
        Self {
            load_capacity,
            store_capacity,
            loads: VecDeque::with_capacity(load_capacity.min(128)),
            stores: VecDeque::with_capacity(store_capacity.min(128)),
        }
    }

    /// Earliest cycle `>= now` at which a load-queue entry is free.
    ///
    /// Completed entries free their slots first; while the queue is still
    /// full, allocation waits for the earliest-completing outstanding load,
    /// asking the hierarchy's completion probe for the access's live
    /// completion (fills still in an MSHR) and falling back to the completion
    /// recorded at issue.
    pub fn load_slot_ready(&mut self, now: u64, hierarchy: &Hierarchy, core: usize) -> u64 {
        let mut now = now;
        self.loads.retain(|e| e.completion > now);
        while self.loads.len() >= self.load_capacity {
            let (idx, earliest) = self
                .loads
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let live =
                        hierarchy.outstanding_completion(core, e.line, now).unwrap_or(e.completion);
                    (i, live)
                })
                .fold((0, u64::MAX), |best, (i, c)| if c < best.1 { (i, c) } else { best });
            now = now.max(earliest);
            self.loads.remove(idx);
        }
        now
    }

    /// Earliest cycle `>= now` at which a store-queue entry is free. Stores
    /// drain post-commit; only the structural limit stalls allocation.
    pub fn store_slot_ready(&mut self, now: u64) -> u64 {
        let mut now = now;
        self.stores.retain(|&c| c > now);
        while self.stores.len() >= self.store_capacity {
            let (idx, earliest) = self
                .stores
                .iter()
                .copied()
                .enumerate()
                .fold((0, u64::MAX), |best, (i, c)| if c < best.1 { (i, c) } else { best });
            now = now.max(earliest);
            self.stores.remove(idx);
        }
        now
    }

    /// Records an issued load fetching `line`, completing at `completion`.
    pub fn push_load(&mut self, line: LineAddr, completion: u64) {
        self.loads.push_back(LoadEntry { line, completion });
    }

    /// Records an issued store completing at `completion`.
    pub fn push_store(&mut self, completion: u64) {
        self.stores.push_back(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsys::HierarchyParams;

    fn empty_hierarchy() -> Hierarchy {
        Hierarchy::new(HierarchyParams::skylake_like(1))
    }

    #[test]
    fn free_slots_do_not_stall() {
        let hier = empty_hierarchy();
        let mut lsq = LoadStoreQueue::new(2, 2);
        assert_eq!(lsq.load_slot_ready(10, &hier, 0), 10);
        lsq.push_load(LineAddr::new(1), 50);
        assert_eq!(lsq.load_slot_ready(10, &hier, 0), 10);
        assert_eq!(lsq.loads.len(), 1);
    }

    #[test]
    fn full_load_queue_waits_for_the_earliest_completion() {
        let hier = empty_hierarchy();
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.push_load(LineAddr::new(1), 200);
        lsq.push_load(LineAddr::new(2), 90);
        // Queue full at cycle 10: the entry completing at 90 frees first,
        // even though it was allocated last.
        assert_eq!(lsq.load_slot_ready(10, &hier, 0), 90);
        assert_eq!(lsq.loads.len(), 1);
    }

    #[test]
    fn completed_loads_free_their_slots_first() {
        let hier = empty_hierarchy();
        let mut lsq = LoadStoreQueue::new(2, 2);
        lsq.push_load(LineAddr::new(1), 20);
        lsq.push_load(LineAddr::new(2), 30);
        // By cycle 40 both completed: no stall, queue empty.
        assert_eq!(lsq.load_slot_ready(40, &hier, 0), 40);
        assert_eq!(lsq.loads.len(), 0);
    }

    #[test]
    fn live_probe_overrides_the_recorded_completion() {
        let mut hier = empty_hierarchy();
        // A real outstanding miss in the hierarchy for line 0x100...
        let done = hier.demand_access(0, LineAddr::new(0x100), 0, false);
        let live = hier
            .outstanding_completion(0, LineAddr::new(0x100), 1)
            .expect("the miss is outstanding in an MSHR");
        assert!(live <= done, "the MSHR fill precedes end-to-end completion");
        let mut lsq = LoadStoreQueue::new(1, 1);
        // ...recorded in the LSQ with a (stale) pessimistic completion. The
        // probe's live answer wins.
        lsq.push_load(LineAddr::new(0x100), done + 1_000);
        assert_eq!(lsq.load_slot_ready(1, &hier, 0), live);
    }

    #[test]
    fn store_queue_stalls_independently() {
        let mut lsq = LoadStoreQueue::new(1, 1);
        lsq.push_store(70);
        assert_eq!(lsq.store_slot_ready(5), 70);
        assert_eq!(lsq.stores.len(), 0);
        lsq.push_store(80);
        assert_eq!(lsq.store_slot_ready(90), 90);
    }
}
