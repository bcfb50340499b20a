//! CS — the constant-stride component of IPCP (Table II: 64-entry IP table).
//!
//! Each memory-access instruction (PC) owns one entry tracking its last
//! accessed line, the last observed stride and a two-bit confidence counter.
//! Once the same stride repeats, the prefetcher issues `degree` prefetches
//! along that stride.

use alecto_types::{DemandAccess, LineAddr, LruTable, Pc, SaturatingCounter};

use crate::traits::{Prefetcher, PrefetcherKind, TableStats};

/// IP-table entries (Table II: 64).
const ENTRIES: usize = 64;
/// Confidence needed before prefetching (2 of a 2-bit counter).
const CONFIDENCE_THRESHOLD: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_line: LineAddr,
    stride: i64,
    confidence: SaturatingCounter,
}

/// The CS constant-stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: LruTable<Pc, StrideEntry>,
    stats: TableStats,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the Table II configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self { table: LruTable::new(ENTRIES), stats: TableStats::default() }
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "CS"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Stride
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        self.stats.lookups += 1;
        self.stats.trainings += 1;
        let (entry, hit, evicted) = self.table.touch_or_insert_with(access.pc, || StrideEntry {
            last_line: line,
            stride: 0,
            confidence: SaturatingCounter::with_bits(2),
        });
        self.stats.evictions += u64::from(evicted.is_some());
        if !hit {
            self.stats.misses += 1;
            return;
        }
        self.stats.hits += 1;
        let new_stride = line.delta_from(entry.last_line);
        if new_stride == 0 {
            // Same-line re-reference carries no stride information.
            return;
        }
        if new_stride == entry.stride {
            entry.confidence.increment();
        } else {
            entry.stride = new_stride;
            entry.confidence.reset();
            entry.confidence.increment();
        }
        entry.last_line = line;
        if entry.confidence.value() >= CONFIDENCE_THRESHOLD && entry.stride != 0 {
            let stride = entry.stride;
            for i in 1..=i64::from(degree) {
                out.push(line.offset(stride * i));
            }
            self.stats.candidates_emitted += u64::from(degree);
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        self.table.get(&access.pc).is_some_and(|e| e.confidence.value() >= CONFIDENCE_THRESHOLD)
    }

    fn table_stats(&self) -> &TableStats {
        &self.stats
    }

    fn storage_bits(&self) -> u64 {
        // Per entry: tag (16 b folded PC), last line (58 b), stride (12 b),
        // confidence (2 b), LRU (6 b) — the same ballpark as IPCP's CS.
        (ENTRIES as u64) * (16 + 58 + 12 + 2 + 6)
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
    fn constant_stride_is_learned() {
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..4u64 {
            out.clear();
            pf.train_and_predict(&access(0x10, 0x1000 + i * 128), 3, &mut out);
        }
        // 128 B stride = 2 lines; expect next lines at +2, +4, +6 lines.
        let base = Addr::new(0x1000 + 3 * 128).line();
        assert_eq!(out, vec![base.offset(2), base.offset(4), base.offset(6)]);
    }

    #[test]
    fn negative_stride_supported() {
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        for i in (0..5u64).rev() {
            out.clear();
            pf.train_and_predict(&access(0x20, 0x8000 + i * 64), 2, &mut out);
        }
        let base = Addr::new(0x8000).line();
        assert_eq!(out, vec![base.offset(-1), base.offset(-2)]);
    }

    #[test]
    fn changing_stride_resets_confidence() {
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        // Establish stride of 1 line.
        for i in 0..3u64 {
            pf.train_and_predict(&access(0x30, 0x1000 + i * 64), 2, &mut out);
        }
        out.clear();
        // Break the pattern: big jump. Confidence resets, no prefetch.
        pf.train_and_predict(&access(0x30, 0x9000), 2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn degree_zero_trains_without_output() {
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..5u64 {
            pf.train_and_predict(&access(0x40, 0x1000 + i * 64), 0, &mut out);
        }
        assert!(out.is_empty());
        assert_eq!(pf.table_stats().trainings, 5);
    }

    #[test]
    fn table_miss_counted_for_new_pcs() {
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        for pc in 0..10u64 {
            pf.train_and_predict(&access(pc, pc * 0x100), 2, &mut out);
        }
        assert_eq!(pf.table_stats().misses, 10);
        assert_eq!(pf.table_stats().hits, 0);
    }

    #[test]
    fn capacity_evictions_happen() {
        // 72 PCs through the 64-entry table: the last 8 each evict one.
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        for pc in 0..72u64 {
            pf.train_and_predict(&access(pc, 0x1000), 1, &mut out);
        }
        assert_eq!(pf.table_stats().evictions, 8);
    }

    #[test]
    fn same_line_rereference_is_ignored() {
        let mut pf = StridePrefetcher::default_config();
        let mut out = Vec::new();
        for _ in 0..6 {
            pf.train_and_predict(&access(0x50, 0x2000), 4, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn storage_is_positive_and_scales() {
        // 94 bits per entry, times the 64 entries of Table II.
        let pf = StridePrefetcher::default_config();
        assert_eq!(pf.storage_bits(), 64 * 94);
        assert_eq!(pf.kind(), PrefetcherKind::Stride);
        assert_eq!(pf.name(), "CS");
        assert!(!pf.is_temporal());
    }
}
