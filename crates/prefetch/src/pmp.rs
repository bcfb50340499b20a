//! PMP — a spatial bit-pattern prefetcher (Table II: 16-entry Accumulation
//! Table, 64-entry Pattern History Table).
//!
//! PMP learns, per trigger PC, which cache lines of a 4 KiB page tend to be
//! touched relative to the trigger access, by merging per-page footprints
//! into counter-based patterns. On the trigger access to a new page it
//! replays the learned pattern, prefetching the most likely offsets. PMP is
//! the aggressive spatial component of the paper's default composite
//! (GS + CS + PMP).

use alecto_types::{fold_pc, DemandAccess, LineAddr, LruTable, PageAddr, Pc, LINES_PER_PAGE};

use crate::traits::{Prefetcher, PrefetcherKind, TableStats};

const OFFSETS: usize = LINES_PER_PAGE as usize;
/// Accumulation Table entries (Table II: 16).
const ACCUMULATION_ENTRIES: usize = 16;
/// Pattern History Table entries (Table II: 64).
const PHT_ENTRIES: usize = 64;
/// Counter value required for an offset to be prefetched.
const COUNTER_THRESHOLD: u8 = 2;
/// Saturation value of the per-offset counters.
const COUNTER_MAX: u8 = 3;

#[derive(Debug, Clone)]
struct AccumulationEntry {
    trigger_offset: u64,
    trigger_pc: Pc,
    footprint: u64,
}

/// The PMP spatial prefetcher.
#[derive(Debug, Clone)]
pub struct PmpPrefetcher {
    /// The Accumulation Table, keyed by page.
    accumulation: LruTable<PageAddr, AccumulationEntry>,
    /// The Pattern History Table: per-offset counters keyed by signature.
    pht: LruTable<u32, [u8; OFFSETS]>,
    stats: TableStats,
}

impl PmpPrefetcher {
    /// Creates a PMP prefetcher with the Table II configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            accumulation: LruTable::new(ACCUMULATION_ENTRIES),
            pht: LruTable::new(PHT_ENTRIES),
            stats: TableStats::default(),
        }
    }

    /// Signature used to index the PHT: the folded PC of the trigger access.
    /// Footprints are rotated so the trigger offset becomes position 0, which
    /// is what makes the learned pattern position-independent within a page
    /// (the "merging similar patterns" idea of PMP).
    fn signature(pc: Pc) -> u32 {
        fold_pc(pc, 10)
    }

    fn merge_into_pht(&mut self, entry: &AccumulationEntry) {
        let signature = Self::signature(entry.trigger_pc);
        self.stats.trainings += 1;
        // Rotate the footprint so that the trigger offset becomes position 0;
        // patterns become position-independent within the page.
        let rotate = entry.trigger_offset;
        let (counters, _, evicted) = self.pht.touch_or_insert_with(signature, || [0; OFFSETS]);
        self.stats.evictions += u64::from(evicted.is_some());
        for bit in 0..OFFSETS as u64 {
            let rotated = ((bit + OFFSETS as u64 - rotate) % OFFSETS as u64) as usize;
            if entry.footprint & (1 << bit) != 0 {
                counters[rotated] = (counters[rotated] + 1).min(COUNTER_MAX);
            } else {
                counters[rotated] = counters[rotated].saturating_sub(1);
            }
        }
    }

    fn predict(
        &mut self,
        pc: Pc,
        page: PageAddr,
        trigger_offset: u64,
        degree: u32,
        out: &mut Vec<LineAddr>,
    ) {
        let signature = Self::signature(pc);
        self.stats.lookups += 1;
        let Some(counters) = self.pht.get(&signature) else {
            self.stats.misses += 1;
            return;
        };
        self.stats.hits += 1;
        // Emit offsets above threshold, strongest and nearest first: one pass
        // per counter value from the saturation value down, each in offset
        // order (position 0 is the trigger itself).
        let mut budget = degree as usize;
        for value in (COUNTER_THRESHOLD..=COUNTER_MAX).rev() {
            for rel in (1..OFFSETS).filter(|&rel| counters[rel] == value) {
                if budget == 0 {
                    return;
                }
                budget -= 1;
                let offset = (trigger_offset + rel as u64) % OFFSETS as u64;
                out.push(page.line(offset));
                self.stats.candidates_emitted += 1;
            }
        }
    }
}

impl Prefetcher for PmpPrefetcher {
    fn name(&self) -> &'static str {
        "PMP"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Spatial
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        let page = line.page();
        let offset = line.index_in_page();
        let (entry, hit, evicted) =
            self.accumulation.touch_or_insert_with(page, || AccumulationEntry {
                trigger_offset: offset,
                trigger_pc: access.pc,
                footprint: 1 << offset,
            });
        if hit {
            entry.footprint |= 1 << offset;
            return;
        }

        // New page: the displaced accumulation entry's footprint is learned,
        // then the PHT predicts for the new page.
        if let Some((_, old)) = evicted {
            self.merge_into_pht(&old);
        }
        if degree > 0 {
            self.predict(access.pc, page, offset, degree, out);
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        let line = access.line();
        let page = line.page();
        if self.accumulation.get(&page).is_some() {
            return true;
        }
        let signature = Self::signature(access.pc);
        self.pht.get(&signature).is_some_and(|counters| {
            counters.iter().filter(|&&c| c >= COUNTER_THRESHOLD).count() > 1
        })
    }

    fn table_stats(&self) -> &TableStats {
        &self.stats
    }

    fn storage_bits(&self) -> u64 {
        // Accumulation entry: page tag 36 b + footprint 64 b + trigger offset 6 b
        // + PC hash 10 b + LRU 4 b. PHT entry: signature 10 b + 64×2 b counters + LRU 6 b.
        (ACCUMULATION_ENTRIES as u64) * (36 + 64 + 6 + 10 + 4)
            + (PHT_ENTRIES as u64) * (10 + 2 * OFFSETS as u64 + 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Addr;

    fn access(pc: u64, addr: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(pc), Addr::new(addr))
    }

    /// Touch the given offsets (in lines) of page `page_no` under `pc`.
    fn touch_page(
        pf: &mut PmpPrefetcher,
        pc: u64,
        page_no: u64,
        offsets: &[u64],
        degree: u32,
    ) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for &o in offsets {
            let addr = page_no * 4096 + o * 64;
            pf.train_and_predict(&access(pc, addr), degree, &mut out);
        }
        out
    }

    #[test]
    fn repeated_footprint_is_replayed_on_new_page() {
        let mut pf = PmpPrefetcher::default_config();
        // Train the same footprint {0,1,2,3} over many pages so the victim
        // merge path runs and counters saturate.
        for page in 0..40u64 {
            touch_page(&mut pf, 0x700, page, &[0, 1, 2, 3], 0);
        }
        // Trigger access to a brand-new page: expect offsets 1..3 predicted.
        let out = touch_page(&mut pf, 0x700, 1000, &[0], 8);
        let page = PageAddr::new(1000);
        assert!(out.contains(&page.line(1)));
        assert!(out.contains(&page.line(2)));
        assert!(out.contains(&page.line(3)));
    }

    #[test]
    fn degree_limits_emitted_candidates() {
        let mut pf = PmpPrefetcher::default_config();
        for page in 0..40u64 {
            touch_page(&mut pf, 0x700, page, &[0, 1, 2, 3, 4, 5, 6, 7], 0);
        }
        let out = touch_page(&mut pf, 0x700, 2000, &[0], 3);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn candidates_come_strongest_then_nearest_first() {
        let mut pf = PmpPrefetcher::default_config();
        let pc = Pc::new(0x714);
        let mut counters = [0; OFFSETS];
        for (rel, c) in [(9, 2), (4, 3), (1, 2), (7, 3), (0, 3), (12, 1)] {
            counters[rel] = c;
        }
        let signature = PmpPrefetcher::signature(pc);
        pf.pht.touch_or_insert_with(signature, || counters);
        // Relative offsets 4 and 7 (counter 3), then 1 and 9 (counter 2),
        // rotated from the trigger at 60; 12 is below threshold and 0 is the
        // trigger itself.
        let page = PageAddr::new(9);
        let mut out = Vec::new();
        pf.predict(pc, page, 60, 8, &mut out);
        assert_eq!(out, [page.line(0), page.line(3), page.line(61), page.line(5)]);
        out.clear();
        pf.predict(pc, page, 60, 3, &mut out);
        assert_eq!(out, [page.line(0), page.line(3), page.line(61)]);
        assert_eq!(pf.table_stats().candidates_emitted, 7);
    }

    #[test]
    fn pattern_is_position_independent() {
        let mut pf = PmpPrefetcher::default_config();
        // Train footprints anchored at offset 10: {10, 12, 14}.
        for page in 0..40u64 {
            touch_page(&mut pf, 0x704, page, &[10, 12, 14], 0);
        }
        // Trigger at offset 20 in a new page: the +2/+4 pattern should follow.
        let out = touch_page(&mut pf, 0x704, 3000, &[20], 4);
        let page = PageAddr::new(3000);
        assert!(out.contains(&page.line(22)));
        assert!(out.contains(&page.line(24)));
    }

    #[test]
    fn unknown_signature_misses_in_pht() {
        let mut pf = PmpPrefetcher::default_config();
        let out = touch_page(&mut pf, 0x708, 1, &[0], 4);
        assert!(out.is_empty());
        assert_eq!(pf.table_stats().misses, 1);
    }

    #[test]
    fn noisy_offsets_decay_out_of_pattern() {
        let mut pf = PmpPrefetcher::default_config();
        // One early page includes a noisy offset 30; later pages do not.
        touch_page(&mut pf, 0x70c, 0, &[0, 1, 30], 0);
        for page in 1..40u64 {
            touch_page(&mut pf, 0x70c, page, &[0, 1], 0);
        }
        let out = touch_page(&mut pf, 0x70c, 5000, &[0], 8);
        let page = PageAddr::new(5000);
        assert!(out.contains(&page.line(1)));
        assert!(!out.contains(&page.line(30)), "noisy offset should have decayed");
    }

    #[test]
    fn stats_and_storage() {
        let mut pf = PmpPrefetcher::default_config();
        touch_page(&mut pf, 0x710, 0, &[0, 1], 2);
        assert!(pf.storage_bits() > 0);
        assert_eq!(pf.name(), "PMP");
        assert_eq!(pf.kind(), PrefetcherKind::Spatial);
    }
}
