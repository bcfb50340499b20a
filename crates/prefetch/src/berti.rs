//! Berti — an accurate local-delta prefetcher (used in the alternate
//! composite of Fig. 11).
//!
//! Berti keeps, per memory-access instruction, a short history of recently
//! accessed lines and a small table of candidate deltas with confidence
//! counters. A delta gains confidence whenever the current access equals an
//! earlier access plus that delta ("the delta would have been a timely and
//! accurate prefetch"). Only high-confidence deltas are used, which is what
//! makes Berti conservative and accurate compared to PMP/CPLX (§VI-B).

use alecto_types::{DemandAccess, LineAddr, LruTable, Pc};

use crate::traits::{Prefetcher, PrefetcherKind, TableStats};

const HISTORY_LEN: usize = 8;
const DELTAS_PER_PC: usize = 8;
/// Per-PC entries.
const ENTRIES: usize = 64;
/// Confidence required before a delta is used for prefetching.
const CONFIDENCE_THRESHOLD: u8 = 4;
/// Saturation value of delta confidence counters.
const CONFIDENCE_MAX: u8 = 15;

#[derive(Debug, Clone, Copy, Default)]
struct DeltaEntry {
    delta: i64,
    confidence: u8,
}

#[derive(Debug, Clone)]
struct BertiEntry {
    history: Vec<LineAddr>,
    deltas: [DeltaEntry; DELTAS_PER_PC],
}

/// The Berti local-delta prefetcher.
#[derive(Debug, Clone)]
pub struct BertiPrefetcher {
    table: LruTable<Pc, BertiEntry>,
    stats: TableStats,
}

impl BertiPrefetcher {
    /// Creates a Berti prefetcher with the default configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self { table: LruTable::new(ENTRIES), stats: TableStats::default() }
    }
}

impl Prefetcher for BertiPrefetcher {
    fn name(&self) -> &'static str {
        "Berti"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Spatial
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        self.stats.lookups += 1;
        self.stats.trainings += 1;
        let (entry, hit, evicted) = self.table.touch_or_insert_with(access.pc, || BertiEntry {
            history: Vec::with_capacity(HISTORY_LEN),
            deltas: [DeltaEntry::default(); DELTAS_PER_PC],
        });
        self.stats.evictions += u64::from(evicted.is_some());
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);

        // Reward every delta that would have predicted this access from an
        // earlier history entry (older entries imply better timeliness and
        // are rewarded slightly more).
        for (age, &past) in entry.history.iter().rev().enumerate() {
            let delta = line.delta_from(past);
            if delta == 0 {
                continue;
            }
            let reward: u8 = if age >= 2 { 2 } else { 1 };
            if let Some(d) = entry.deltas.iter_mut().find(|d| d.confidence > 0 && d.delta == delta)
            {
                d.confidence = (d.confidence + reward).min(CONFIDENCE_MAX);
            } else if let Some(free) = entry.deltas.iter_mut().min_by_key(|d| d.confidence) {
                if free.confidence == 0 {
                    *free = DeltaEntry { delta, confidence: reward };
                } else {
                    // Gentle replacement pressure on the weakest delta.
                    free.confidence -= 1;
                }
            }
        }

        entry.history.push(line);
        if entry.history.len() > HISTORY_LEN {
            entry.history.remove(0);
        }

        if degree == 0 {
            return;
        }
        let mut best: Vec<DeltaEntry> = entry
            .deltas
            .iter()
            .copied()
            .filter(|d| d.confidence >= CONFIDENCE_THRESHOLD && d.delta != 0)
            .collect();
        best.sort_by(|a, b| {
            b.confidence.cmp(&a.confidence).then(a.delta.abs().cmp(&b.delta.abs()))
        });
        for d in best.into_iter().take(degree as usize) {
            out.push(line.offset(d.delta));
            self.stats.candidates_emitted += 1;
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        self.table
            .get(&access.pc)
            .is_some_and(|e| e.deltas.iter().any(|d| d.confidence >= CONFIDENCE_THRESHOLD))
    }

    fn table_stats(&self) -> &TableStats {
        &self.stats
    }

    fn storage_bits(&self) -> u64 {
        // Per entry: tag 16 b + 8 history lines × 58 b + 8 deltas × (12 + 4) b + LRU 6 b.
        (ENTRIES as u64) * (16 + (HISTORY_LEN as u64) * 58 + (DELTAS_PER_PC as u64) * 16 + 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Addr;

    fn access(pc: u64, addr: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(pc), Addr::new(addr))
    }

    #[test]
    fn constant_delta_learned_and_predicted() {
        let mut pf = BertiPrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..12u64 {
            out.clear();
            pf.train_and_predict(&access(0x900, 0x10_0000 + i * 64), 2, &mut out);
        }
        // A +1-line walk: every learned delta is a small positive multiple of
        // the stride (Berti prefers the farther, more timely deltas).
        let last = Addr::new(0x10_0000 + 11 * 64).line();
        assert_eq!(out.len(), 2);
        for line in &out {
            let delta = line.delta_from(last);
            assert!(
                (1..=8).contains(&delta),
                "predicted delta {delta} should be ahead of the walk"
            );
        }
    }

    #[test]
    fn multi_line_delta_learned() {
        let mut pf = BertiPrefetcher::default_config();
        let mut out = Vec::new();
        // Stride of 5 lines.
        for i in 0..12u64 {
            out.clear();
            pf.train_and_predict(&access(0x904, 0x20_0000 + i * 5 * 64), 1, &mut out);
        }
        let last = Addr::new(0x20_0000 + 11 * 5 * 64).line();
        assert_eq!(out.len(), 1);
        let delta = out[0].delta_from(last);
        assert!(
            delta > 0 && delta % 5 == 0,
            "prediction must follow the 5-line stride, got {delta}"
        );
    }

    #[test]
    fn irregular_pattern_stays_quiet() {
        let mut pf = BertiPrefetcher::default_config();
        let mut out = Vec::new();
        let addrs =
            [0x1000u64, 0x9_0000, 0x3_3000, 0x70_0400, 0x12_1000, 0x5000, 0x44_0000, 0x2_0000];
        for &a in &addrs {
            out.clear();
            pf.train_and_predict(&access(0x908, a), 2, &mut out);
        }
        assert!(out.is_empty(), "no repeated delta means no prefetch: {out:?}");
    }

    #[test]
    fn degree_zero_only_trains() {
        let mut pf = BertiPrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..12u64 {
            pf.train_and_predict(&access(0x90c, 0x30_0000 + i * 64), 0, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(pf.table_stats().trainings, 12);
        // Once allowed to emit, the learned delta appears immediately.
        pf.train_and_predict(&access(0x90c, 0x30_0000 + 12 * 64), 1, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut pf = BertiPrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..12u64 {
            out.clear();
            pf.train_and_predict(&access(0x910, 0x40_0000 + i * 64), 1, &mut out);
            pf.train_and_predict(&access(0x914, 0x80_0000 + i * 3 * 64), 1, &mut out);
        }
        // The +3-line PC predicts a multiple of 3 lines, uncontaminated by the
        // +1-line PC trained in the same table.
        out.clear();
        pf.train_and_predict(&access(0x914, 0x80_0000 + 12 * 3 * 64), 1, &mut out);
        let last = Addr::new(0x80_0000 + 12 * 3 * 64).line();
        assert_eq!(out.len(), 1);
        let delta = out[0].delta_from(last);
        assert!(delta > 0 && delta % 3 == 0, "delta {delta} should be a positive multiple of 3");
    }

    #[test]
    fn eviction_and_storage_accounting() {
        // 70 PCs through the 64-entry table: the last 6 each evict one.
        let mut pf = BertiPrefetcher::default_config();
        let mut out = Vec::new();
        for pc in 0..70u64 {
            pf.train_and_predict(&access(pc, pc * 0x1000), 1, &mut out);
        }
        assert_eq!(pf.table_stats().evictions, 6);
        assert!(pf.storage_bits() > 0);
        assert_eq!(pf.name(), "Berti");
    }
}
