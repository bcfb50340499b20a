//! A Triangel-style on-chip temporal prefetcher.
//!
//! Temporal prefetchers record *address correlation*: "the last time line A
//! was accessed, line B was accessed next", in a large on-chip metadata (Markov)
//! table. They are the only prefetchers able to cover pointer-chasing and
//! other irregular-but-recurring access sequences, at the cost of metadata
//! storage that is orders of magnitude larger than the other prefetchers
//! (Fig. 14 sweeps 128 KB–1 MB).
//!
//! §IV-F of the paper argues that the *training stream* of a temporal
//! prefetcher should be filtered aggressively: non-temporal PCs, PCs already
//! handled by cheaper prefetchers, and rarely recurring PCs only waste the
//! metadata table. The experiments around Fig. 13/14 measure exactly that, so
//! this implementation exposes its metadata-table hit/miss/eviction counts.

use std::collections::BTreeMap;

use alecto_types::{DemandAccess, LineAddr};

use crate::traits::{Prefetcher, PrefetcherKind, TableStats};

/// Bytes of metadata per correlation entry (tag + successor pointer), used to
/// convert a byte budget into an entry count the way the paper talks about
/// "a 1 MB metadata table".
pub const BYTES_PER_ENTRY: u64 = 8;

/// Maximum prefetch degree (§V-C fixes it to 1); requests beyond it are not
/// emitted even if the selection grants more.
const MAX_DEGREE: u32 = 1;

/// The temporal (address-correlating) prefetcher.
#[derive(Debug, Clone)]
pub struct TemporalPrefetcher {
    /// Metadata table capacity in bytes (Fig. 14: 128 KB – 1 MB).
    metadata_bytes: u64,
    /// line -> (successor line, write stamp) correlation table. Unlike the
    /// other prefetchers' tables it is no [`alecto_types::LruTable`]: with
    /// 16,384–131,072 entries keyed by line (Fig. 14's budgets), every
    /// training step needs an indexed lookup, not a key scan. Ordered so
    /// that iteration is deterministic across runs and threads.
    table: BTreeMap<LineAddr, (LineAddr, u64)>,
    /// write stamp -> line: the recency index eviction pops the least
    /// recently written entry from, so a full table evicts in O(log n).
    /// Holds exactly one stamp per `table` entry.
    by_stamp: BTreeMap<u64, LineAddr>,
    /// Stamp of the latest write, bumped on every insert and update.
    write_clock: u64,
    last_line: Option<LineAddr>,
    stats: TableStats,
}

impl TemporalPrefetcher {
    /// Creates a temporal prefetcher with a `metadata_bytes` metadata table
    /// (§V-C: 1 MB; Fig. 14 sweeps the budget).
    #[must_use]
    pub fn new(metadata_bytes: u64) -> Self {
        Self {
            metadata_bytes,
            table: BTreeMap::new(),
            by_stamp: BTreeMap::new(),
            write_clock: 0,
            last_line: None,
            stats: TableStats::default(),
        }
    }

    /// Number of correlation entries the byte budget affords.
    const fn capacity_entries(&self) -> usize {
        (self.metadata_bytes / BYTES_PER_ENTRY) as usize
    }

    /// Number of currently valid correlation entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    fn evict_if_full(&mut self) {
        let capacity = self.capacity_entries().max(1);
        if self.table.len() < capacity {
            return;
        }
        // Drop the least recently *written* correlation: an update re-stamps
        // its entry, so this is not FIFO over insertions. A full Triangel
        // implementation uses set-associative metadata with usefulness-aware
        // replacement; this is sufficient to expose the capacity pressure the
        // paper's Fig. 14 measures. Stamps are unique, so the least one names
        // exactly one victim.
        if let Some((_, victim)) = self.by_stamp.pop_first() {
            self.table.remove(&victim);
            self.stats.evictions += 1;
        }
    }
}

impl Prefetcher for TemporalPrefetcher {
    fn name(&self) -> &'static str {
        "TP"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Temporal
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        self.stats.trainings += 1;

        // Train: record predecessor -> current correlation.
        if let Some(prev) = self.last_line {
            if prev != line {
                self.write_clock += 1;
                if let Some(slot) = self.table.get_mut(&prev) {
                    self.by_stamp.remove(&slot.1);
                    *slot = (line, self.write_clock);
                } else {
                    self.evict_if_full();
                    self.table.insert(prev, (line, self.write_clock));
                }
                self.by_stamp.insert(self.write_clock, prev);
            }
        }
        self.last_line = Some(line);

        // Predict: chase successors starting from the current line.
        let degree = degree.min(MAX_DEGREE);
        if degree == 0 {
            return;
        }
        let mut cursor = line;
        for _ in 0..degree {
            self.stats.lookups += 1;
            match self.table.get(&cursor) {
                Some(&(next, _)) => {
                    self.stats.hits += 1;
                    if next == line || out.contains(&next) {
                        break;
                    }
                    out.push(next);
                    self.stats.candidates_emitted += 1;
                    cursor = next;
                }
                None => {
                    self.stats.misses += 1;
                    break;
                }
            }
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        self.table.contains_key(&access.line())
    }

    fn table_stats(&self) -> &TableStats {
        &self.stats
    }

    fn storage_bits(&self) -> u64 {
        self.metadata_bytes * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, Pc, SplitMix64};

    fn access(addr_line: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(0xb00), Addr::new(addr_line * 64))
    }

    /// A pointer-chasing style recurring sequence of line numbers.
    fn chase_sequence() -> Vec<u64> {
        vec![100, 5_000, 230, 77_000, 41, 9_999, 1_234, 88]
    }

    #[test]
    fn recurring_sequence_is_predicted_on_second_pass() {
        let mut pf = TemporalPrefetcher::new(1024 * 1024);
        let seq = chase_sequence();
        let mut out = Vec::new();
        // First pass trains, second pass should predict each successor.
        for &l in &seq {
            pf.train_and_predict(&access(l), 1, &mut out);
        }
        let mut predicted = 0;
        for (i, &l) in seq.iter().enumerate() {
            out.clear();
            pf.train_and_predict(&access(l), 1, &mut out);
            if i + 1 < seq.len() && out.contains(&LineAddr::new(seq[i + 1])) {
                predicted += 1;
            }
        }
        assert!(predicted >= seq.len() - 2, "most successors should be predicted, got {predicted}");
    }

    #[test]
    fn degree_capped_at_max_degree() {
        let mut pf = TemporalPrefetcher::new(1024 * 1024);
        let seq = chase_sequence();
        let mut out = Vec::new();
        for _ in 0..2 {
            for &l in &seq {
                pf.train_and_predict(&access(l), 4, &mut out);
            }
        }
        out.clear();
        pf.train_and_predict(&access(seq[0]), 4, &mut out);
        assert!(out.len() <= 1, "paper fixes temporal degree to 1, got {}", out.len());
    }

    #[test]
    fn capacity_pressure_causes_evictions_and_misses() {
        let mut pf = TemporalPrefetcher::new(1024); // 128 entries
        let mut out = Vec::new();
        // A recurring sequence longer than the table.
        let seq: Vec<u64> = (0..500).map(|i| (i * 7919) % 100_000).collect();
        for _ in 0..3 {
            for &l in &seq {
                pf.train_and_predict(&access(l), 1, &mut out);
            }
        }
        assert!(pf.table_stats().evictions > 0);
        assert!(pf.occupancy() <= 128);
        assert!(pf.table_stats().misses > 0, "a thrashing table must miss");
    }

    #[test]
    fn eviction_drops_the_least_recently_written_entry() {
        // A naive model of the policy: every write stamps its key, and an
        // insert into a full table first drops the key with the least stamp.
        let mut rng = SplitMix64::new(0x7e3);
        let mut pf = TemporalPrefetcher::new(16 * BYTES_PER_ENTRY);
        let mut model: BTreeMap<LineAddr, u64> = BTreeMap::new();
        let (mut prev, mut out) = (None, Vec::new());
        for t in 1..=5_000u64 {
            let line = LineAddr::new(rng.below(40));
            pf.train_and_predict(&access(line.raw()), 0, &mut out);
            if let Some(p) = prev.filter(|&p| p != line) {
                if !model.contains_key(&p) && model.len() == 16 {
                    let (&victim, _) = model.iter().min_by_key(|(_, &s)| s).expect("full");
                    model.remove(&victim);
                }
                model.insert(p, t);
            }
            prev = Some(line);
            assert!(pf.table.keys().eq(model.keys()), "step {t}");
            assert_eq!(pf.by_stamp.len(), pf.table.len(), "step {t}");
        }
        assert!(pf.table_stats().evictions > 1_000, "the table must churn");
    }

    #[test]
    fn larger_metadata_covers_longer_reuse() {
        let seq: Vec<u64> = (0..2_000).map(|i| (i * 104_729) % 1_000_000).collect();
        let run = |bytes: u64| {
            let mut pf = TemporalPrefetcher::new(bytes);
            let mut out = Vec::new();
            // Two passes: first trains, second measures hits.
            for &l in &seq {
                pf.train_and_predict(&access(l), 0, &mut out);
            }
            let mut hits = 0;
            for &l in &seq {
                out.clear();
                pf.train_and_predict(&access(l), 1, &mut out);
                if !out.is_empty() {
                    hits += 1;
                }
            }
            hits
        };
        let small_hits = run(4 * 1024); // 512 entries << 2000-line working set
        let big_hits = run(64 * 1024); // 8192 entries, fits easily
        assert!(
            big_hits > small_hits,
            "bigger metadata must cover more ({big_hits} vs {small_hits})"
        );
    }

    #[test]
    fn non_recurring_stream_gains_nothing() {
        let mut pf = TemporalPrefetcher::new(1024 * 1024);
        let mut out = Vec::new();
        for l in 0..1_000u64 {
            pf.train_and_predict(&access(l * 3 + 7_000_000), 1, &mut out);
        }
        // Successor of a never-repeated line cannot be predicted at first sight.
        assert!(out.is_empty());
    }

    #[test]
    fn metadata_storage_matches_budget() {
        let pf = TemporalPrefetcher::new(256 * 1024);
        assert_eq!(pf.storage_bits(), 256 * 1024 * 8);
        assert_eq!(pf.capacity_entries(), 32 * 1024);
        assert!(pf.kind().is_temporal());
        assert_eq!(pf.kind(), PrefetcherKind::Temporal);
        assert_eq!(pf.name(), "TP");
    }
}
