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

/// Configuration of the temporal prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalConfig {
    /// Metadata table capacity in bytes (Fig. 14: 128 KB – 1 MB).
    pub metadata_bytes: u64,
    /// Maximum prefetch degree (the paper fixes it to 1 in §V-C); requests
    /// beyond this are not emitted even if the selection grants more.
    pub max_degree: u32,
}

impl Default for TemporalConfig {
    fn default() -> Self {
        Self { metadata_bytes: 1024 * 1024, max_degree: 1 }
    }
}

impl TemporalConfig {
    /// Number of correlation entries the byte budget affords.
    #[must_use]
    pub const fn capacity_entries(&self) -> usize {
        (self.metadata_bytes / BYTES_PER_ENTRY) as usize
    }
}

/// The temporal (address-correlating) prefetcher.
#[derive(Debug, Clone)]
pub struct TemporalPrefetcher {
    config: TemporalConfig,
    /// line -> (successor line, write stamp) correlation table. Unlike the
    /// other prefetchers' tables it is no [`alecto_types::LruTable`]: with
    /// 16,384–131,072 entries keyed by line (Fig. 14's budgets), every
    /// training step needs an indexed lookup, not a key scan. Ordered so
    /// that iteration is deterministic across runs and threads.
    table: BTreeMap<LineAddr, (LineAddr, u64)>,
    /// Stamp of the latest write, bumped on every insert and update.
    write_clock: u64,
    last_line: Option<LineAddr>,
    stats: TableStats,
}

impl TemporalPrefetcher {
    /// Creates a temporal prefetcher with the given configuration.
    #[must_use]
    pub fn new(config: TemporalConfig) -> Self {
        Self {
            table: BTreeMap::new(),
            config,
            write_clock: 0,
            last_line: None,
            stats: TableStats::default(),
        }
    }

    /// Creates a temporal prefetcher with a 1 MB metadata table (§V-C).
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(TemporalConfig::default())
    }

    /// Configuration in use.
    #[must_use]
    pub const fn config(&self) -> &TemporalConfig {
        &self.config
    }

    /// Number of currently valid correlation entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.table.len()
    }

    fn evict_if_full(&mut self) {
        let capacity = self.config.capacity_entries().max(1);
        if self.table.len() < capacity {
            return;
        }
        // Drop the least recently *written* correlation: an update re-stamps
        // its entry, so this is not FIFO over insertions. A full Triangel
        // implementation uses set-associative metadata with usefulness-aware
        // replacement; this is sufficient to expose the capacity pressure the
        // paper's Fig. 14 measures.
        if let Some((&victim, _)) = self.table.iter().min_by_key(|(_, (_, order))| *order) {
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
                    *slot = (line, self.write_clock);
                } else {
                    self.evict_if_full();
                    self.table.insert(prev, (line, self.write_clock));
                }
            }
        }
        self.last_line = Some(line);

        // Predict: chase successors starting from the current line.
        let degree = degree.min(self.config.max_degree);
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
        self.config.metadata_bytes * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, Pc};

    fn access(addr_line: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(0xb00), Addr::new(addr_line * 64))
    }

    /// A pointer-chasing style recurring sequence of line numbers.
    fn chase_sequence() -> Vec<u64> {
        vec![100, 5_000, 230, 77_000, 41, 9_999, 1_234, 88]
    }

    #[test]
    fn recurring_sequence_is_predicted_on_second_pass() {
        let mut pf = TemporalPrefetcher::default_config();
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
        let mut pf = TemporalPrefetcher::default_config();
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
        let small = TemporalConfig { metadata_bytes: 1024, max_degree: 1 }; // 128 entries
        let mut pf = TemporalPrefetcher::new(small);
        let mut out = Vec::new();
        // A recurring sequence longer than the table.
        let seq: Vec<u64> = (0..500).map(|i| (i * 7919) % 100_000).collect();
        for _ in 0..3 {
            for &l in &seq {
                pf.train_and_predict(&access(l), 1, &mut out);
            }
        }
        assert!(pf.table_stats().evictions > 0);
        assert!(pf.occupancy() <= small.capacity_entries());
        assert!(pf.table_stats().misses > 0, "a thrashing table must miss");
    }

    #[test]
    fn larger_metadata_covers_longer_reuse() {
        let seq: Vec<u64> = (0..2_000).map(|i| (i * 104_729) % 1_000_000).collect();
        let run = |bytes: u64| {
            let mut pf =
                TemporalPrefetcher::new(TemporalConfig { metadata_bytes: bytes, max_degree: 1 });
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
        let mut pf = TemporalPrefetcher::default_config();
        let mut out = Vec::new();
        for l in 0..1_000u64 {
            pf.train_and_predict(&access(l * 3 + 7_000_000), 1, &mut out);
        }
        // Successor of a never-repeated line cannot be predicted at first sight.
        assert!(out.is_empty());
    }

    #[test]
    fn metadata_storage_matches_budget() {
        let pf =
            TemporalPrefetcher::new(TemporalConfig { metadata_bytes: 256 * 1024, max_degree: 1 });
        assert_eq!(pf.storage_bits(), 256 * 1024 * 8);
        assert_eq!(pf.config().capacity_entries(), 32 * 1024);
        assert!(pf.is_temporal());
        assert_eq!(pf.kind(), PrefetcherKind::Temporal);
        assert_eq!(pf.name(), "TP");
    }
}
