//! Miss Status Holding Registers: track outstanding misses per cache so that
//! (a) repeated misses to the same line merge instead of re-fetching, and
//! (b) the number of outstanding misses — and therefore the exploitable
//! memory-level parallelism — is bounded, as in Table I (16/32/64 MSHRs).

use alecto_types::{LineAddr, PrefetcherId};

use crate::stats::Cycle;

/// One outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MshrEntry {
    /// Line being fetched.
    pub line: LineAddr,
    /// Cycle at which the fill completes and the entry retires.
    pub completion: Cycle,
    /// Whether the entry was allocated by a prefetch (and by whom).
    pub prefetch_issuer: Option<PrefetcherId>,
    /// Whether a demand access has already merged into this entry.
    pub demand_merged: bool,
}

/// A fixed-capacity file of outstanding misses.
///
/// Entries live in a flat vector allocated once at the file's capacity and
/// scanned linearly: 16–64 entries are cheaper to scan than to keep in an
/// ordered map. Two invariants keep every outcome independent of where an
/// entry happens to sit in that vector:
///
/// * **Unique tie-breaks.** A line has at most one entry, so every victim
///   choice under a structural hazard ranks entries by the unique key
///   `(completion, line)`, never by storage position.
/// * **Watermark.** `watermark` is a lower bound on every entry's
///   completion (`Cycle::MAX` when empty), so retiring at `now < watermark`
///   can remove nothing and is skipped. Only this type writes `completion`
///   (callers see copies of entries), so no caller can break the bound.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<MshrEntry>,
    watermark: Cycle,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        Self { capacity, entries: Vec::with_capacity(capacity), watermark: Cycle::MAX }
    }

    /// Maximum number of outstanding misses.
    #[must_use]
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently outstanding misses (after retiring entries whose
    /// completion is `<= now`).
    pub fn occupancy(&mut self, now: Cycle) -> usize {
        self.retire(now);
        self.entries.len()
    }

    /// Removes entries that completed at or before `now`.
    #[inline]
    pub fn retire(&mut self, now: Cycle) {
        if now < self.watermark {
            return;
        }
        let mut earliest = Cycle::MAX;
        self.entries.retain(|e| {
            let in_flight = e.completion > now;
            if in_flight {
                earliest = earliest.min(e.completion);
            }
            in_flight
        });
        self.watermark = earliest;
    }

    fn position(&self, line: LineAddr) -> Option<usize> {
        self.entries.iter().position(|e| e.line == line)
    }

    /// Looks up an in-flight miss for `line`, retiring stale entries first.
    pub fn lookup(&mut self, line: LineAddr, now: Cycle) -> Option<MshrEntry> {
        self.retire(now);
        self.position(line).map(|i| self.entries[i])
    }

    /// Merges a demand access into the in-flight miss for `line`, retiring
    /// stale entries first. Returns the entry as it stood *before* the merge
    /// (so `demand_merged == false` marks the first demand to merge), or
    /// `None` when `line` is not in flight.
    pub fn merge_demand(&mut self, line: LineAddr, now: Cycle) -> Option<MshrEntry> {
        self.retire(now);
        let i = self.position(line)?;
        let before = self.entries[i];
        self.entries[i].demand_merged = true;
        Some(before)
    }

    /// Returns the earliest completion time among outstanding entries, if any.
    #[must_use]
    pub fn earliest_completion(&self) -> Option<Cycle> {
        self.entries.iter().map(|e| e.completion).min()
    }

    /// Non-mutating completion probe: the cycle at which the outstanding miss
    /// for `line` completes, if one is still in flight at `now`.
    ///
    /// Unlike [`MshrFile::lookup`] this does not retire stale entries, so
    /// timing models can ask "when does this particular access come back?"
    /// without perturbing the file.
    #[must_use]
    pub fn completion_of(&self, line: LineAddr, now: Cycle) -> Option<Cycle> {
        self.position(line).map(|i| self.entries[i].completion).filter(|&c| c > now)
    }

    /// Allocates an entry for `line`.
    ///
    /// If the file is full, demand allocations first displace an outstanding
    /// *prefetch* entry (demands have priority over best-effort prefetches in
    /// real MSHR designs); only when every entry belongs to a demand does the
    /// new request stall until the earliest outstanding miss retires. The
    /// returned value is the number of cycles the requester had to stall.
    ///
    /// Callers check that `line` is not already in flight (via
    /// [`MshrFile::lookup`]) first; if it is, the new entry replaces the old
    /// one, so a line never holds two entries.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        completion: Cycle,
        prefetch_issuer: Option<PrefetcherId>,
        now: Cycle,
    ) -> Cycle {
        self.retire(now);
        let mut stall = 0;
        if self.entries.len() >= self.capacity {
            // Demand priority: displace the prefetch entry that would complete
            // last (it has received the least DRAM service so far).
            let prefetch_victim = if prefetch_issuer.is_none() {
                self.entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.prefetch_issuer.is_some() && !e.demand_merged)
                    .max_by_key(|(_, e)| (e.completion, e.line))
                    .map(|(i, _)| i)
            } else {
                None
            };
            if let Some(victim) = prefetch_victim {
                self.entries.swap_remove(victim);
            } else {
                // Structural hazard: wait for the earliest outstanding miss.
                // Retiring at its completion frees at least its own slot
                // (and every slot tied with it).
                let earliest = self.earliest_completion().expect("a full file is not empty");
                stall = earliest - now;
                self.retire(earliest);
            }
        }
        let entry = MshrEntry {
            line,
            completion: completion + stall,
            prefetch_issuer,
            demand_merged: false,
        };
        match self.position(line) {
            Some(i) => self.entries[i] = entry,
            None => self.entries.push(entry),
        }
        self.watermark = self.watermark.min(entry.completion);
        stall
    }

    /// True if the file currently has a free entry at `now`.
    pub fn has_free(&mut self, now: Cycle) -> bool {
        self.occupancy(now) < self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The file's structural invariants: within capacity, one entry per
    /// line, and the watermark a lower bound on every completion.
    fn assert_invariants(m: &MshrFile) {
        assert!(m.entries.len() <= m.capacity, "over capacity: {m:?}");
        for (i, e) in m.entries.iter().enumerate() {
            assert!(m.watermark <= e.completion, "watermark above {e:?}: {m:?}");
            assert!(m.entries[i + 1..].iter().all(|o| o.line != e.line), "duplicate {e:?}: {m:?}");
        }
    }

    #[test]
    fn allocate_and_lookup() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.capacity(), 2);
        let stall = m.allocate(LineAddr::new(1), 100, None, 0);
        assert_eq!(stall, 0);
        assert!(m.lookup(LineAddr::new(1), 10).is_some());
        assert!(m.lookup(LineAddr::new(2), 10).is_none());
        // After completion the entry retires.
        assert!(m.lookup(LineAddr::new(1), 100).is_none());
        assert_eq!(m.watermark, Cycle::MAX, "an empty file has no lower bound to honour");
    }

    #[test]
    fn completion_probe_is_non_mutating() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(7), 120, None, 0);
        // In flight: the probe reports the completion cycle without retiring.
        assert_eq!(m.completion_of(LineAddr::new(7), 10), Some(120));
        assert_eq!(m.completion_of(LineAddr::new(8), 10), None);
        // At or past completion the access is no longer outstanding.
        assert_eq!(m.completion_of(LineAddr::new(7), 120), None);
        // ...but the probe did not remove the (stale) entry itself.
        assert_eq!(m.entries.len(), 1);
    }

    #[test]
    fn merge_flag_is_writable() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(5), 50, Some(PrefetcherId(1)), 0);
        // The merge reports the entry as it was: issued by a prefetch, and
        // this is the first demand to merge into it.
        let before = m.merge_demand(LineAddr::new(5), 1).unwrap();
        assert_eq!(before.prefetch_issuer, Some(PrefetcherId(1)));
        assert!(!before.demand_merged);
        assert!(m.lookup(LineAddr::new(5), 2).unwrap().demand_merged);
        // A second merge sees the first one; completion is never touched.
        let again = m.merge_demand(LineAddr::new(5), 3).unwrap();
        assert!(again.demand_merged);
        assert_eq!(again.completion, 50);
        assert!(m.merge_demand(LineAddr::new(6), 3).is_none());
        assert!(m.merge_demand(LineAddr::new(5), 50).is_none(), "retired at completion");
        assert_invariants(&m);
    }

    #[test]
    fn full_file_stalls() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(1), 100, None, 0);
        m.allocate(LineAddr::new(2), 200, None, 0);
        assert!(!m.has_free(0));
        // Third allocation at cycle 10 must wait for the earliest (100).
        let stall = m.allocate(LineAddr::new(3), 300, None, 10);
        assert_eq!(stall, 90);
        assert!(m.lookup(LineAddr::new(3), 150).is_some());
        // The stall retired line 1 early, at cycle 100; the bound follows.
        assert_eq!(m.watermark, 200);
        assert_invariants(&m);
        // Entries tied at the earliest completion all retire together.
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(4), 100, None, 0);
        m.allocate(LineAddr::new(3), 100, None, 0);
        assert_eq!(m.allocate(LineAddr::new(9), 150, None, 10), 90);
        assert_eq!(m.occupancy(10), 1);
        assert_eq!(m.watermark, 240);
        assert_invariants(&m);
    }

    #[test]
    fn demand_displaces_the_latest_unmerged_prefetch() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 300, None, 0);
        m.allocate(LineAddr::new(2), 200, Some(PrefetcherId(0)), 0);
        m.allocate(LineAddr::new(6), 200, Some(PrefetcherId(0)), 0);
        m.allocate(LineAddr::new(3), 400, Some(PrefetcherId(0)), 0);
        // Line 3 completes last but a demand already merged into it, so the
        // victim is the larger (completion, line) of the two tied at 200.
        m.merge_demand(LineAddr::new(3), 5).unwrap();
        assert_eq!(m.allocate(LineAddr::new(4), 250, None, 10), 0, "no stall: a prefetch yields");
        assert_eq!(m.lookup(LineAddr::new(6), 10), None);
        assert!(m.lookup(LineAddr::new(2), 10).is_some());
        // Displacing the earliest entry leaves the watermark a strict lower
        // bound (the earliest completion is now 250).
        assert_eq!(m.allocate(LineAddr::new(5), 260, None, 10), 0);
        assert_eq!(m.lookup(LineAddr::new(2), 10), None);
        assert_eq!((m.watermark, m.earliest_completion()), (200, Some(250)));
        assert_invariants(&m);
        // A prefetch never displaces anything: in a full file it stalls.
        assert_eq!(m.allocate(LineAddr::new(7), 500, Some(PrefetcherId(1)), 10), 240);
        assert_eq!(m.watermark, 260, "the stall's retire pass restores the exact bound");
        assert_invariants(&m);
        assert_eq!(m.occupancy(260), 3);
        assert_eq!(m.watermark, 300);
    }

    #[test]
    fn reallocating_an_in_flight_line_replaces_its_entry() {
        let mut m = MshrFile::new(2);
        m.allocate(LineAddr::new(1), 500, Some(PrefetcherId(2)), 0);
        m.merge_demand(LineAddr::new(1), 1).unwrap();
        // Re-allocating with an earlier completion replaces the entry (and
        // its flags) instead of adding a second one, and lowers the bound.
        assert_eq!(m.allocate(LineAddr::new(1), 80, None, 2), 0);
        assert_eq!(m.occupancy(2), 1);
        assert_eq!(
            m.lookup(LineAddr::new(1), 2),
            Some(MshrEntry {
                line: LineAddr::new(1),
                completion: 80,
                prefetch_issuer: None,
                demand_merged: false
            })
        );
        assert_eq!(m.watermark, 80);
        assert_invariants(&m);
        // Re-allocating into a full file still runs the hazard path first,
        // then replaces: the line keeps a single entry.
        m.allocate(LineAddr::new(2), 90, None, 2);
        assert_eq!(m.allocate(LineAddr::new(2), 95, None, 3), 77);
        assert_eq!(m.occupancy(80), 1);
        assert_eq!(m.completion_of(LineAddr::new(2), 80), Some(172));
        assert_invariants(&m);
    }

    #[test]
    fn occupancy_retires_completed() {
        let mut m = MshrFile::new(4);
        m.allocate(LineAddr::new(1), 10, None, 0);
        m.allocate(LineAddr::new(2), 20, None, 0);
        assert_eq!(m.occupancy(5), 2);
        assert_eq!(m.occupancy(15), 1);
        assert_eq!(m.watermark, 20, "retiring recomputes the bound exactly");
        assert_eq!(m.occupancy(25), 0);
        assert!(m.has_free(0));
        assert_invariants(&m);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
