//! GS — the global-stream component of IPCP (Table II: 64-entry IP table plus
//! an 8-entry Region Stream Table).
//!
//! A PC is classified as a stream PC when its accesses walk a region densely
//! and monotonically. The Region Stream Table (RST) tracks recently touched
//! 2 KiB regions and their access density/direction; the IP table remembers
//! whether a PC has been observed following such a stream. Stream PCs
//! prefetch the next `degree` sequential lines in the stream direction.

use alecto_types::{DemandAccess, LineAddr, LruTable, Pc, SaturatingCounter};

use crate::traits::{Prefetcher, PrefetcherKind, TableStats};

/// Lines per tracked region (2 KiB regions of 64 B lines).
const REGION_LINES: u64 = 32;
/// IP-table entries (Table II: 64).
const IP_ENTRIES: usize = 64;
/// Region Stream Table entries (Table II: 8).
const RST_ENTRIES: usize = 8;
/// Touched lines within a region before it is declared a stream.
const DENSITY_THRESHOLD: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct IpEntry {
    last_line: LineAddr,
    direction_up: bool,
    confidence: SaturatingCounter,
}

#[derive(Debug, Clone, Copy)]
struct RegionEntry {
    touched: u32,
    last_index: u64,
    ascending: SaturatingCounter,
    descending: SaturatingCounter,
}

/// The GS global-stream prefetcher.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    ip_table: LruTable<Pc, IpEntry>,
    /// The Region Stream Table, keyed by region number.
    rst: LruTable<u64, RegionEntry>,
    stats: TableStats,
}

impl StreamPrefetcher {
    /// Creates a stream prefetcher with the Table II configuration.
    #[must_use]
    pub fn default_config() -> Self {
        Self {
            ip_table: LruTable::new(IP_ENTRIES),
            rst: LruTable::new(RST_ENTRIES),
            stats: TableStats::default(),
        }
    }

    fn region_of(line: LineAddr) -> (u64, u64) {
        (line.raw() / REGION_LINES, line.raw() % REGION_LINES)
    }

    /// Updates the RST and reports whether the region currently looks like a
    /// dense stream and in which direction.
    fn update_region(&mut self, line: LineAddr) -> Option<bool> {
        let (region, index) = Self::region_of(line);
        // A displaced region entry is not counted as an eviction.
        let (e, hit, _) = self.rst.touch_or_insert_with(region, || RegionEntry {
            touched: 1,
            last_index: index,
            ascending: SaturatingCounter::with_bits(3),
            descending: SaturatingCounter::with_bits(3),
        });
        if !hit {
            return None;
        }
        e.touched = e.touched.saturating_add(1);
        if index > e.last_index {
            e.ascending.increment();
            e.descending.decrement();
        } else if index < e.last_index {
            e.descending.increment();
            e.ascending.decrement();
        }
        e.last_index = index;
        if e.touched >= DENSITY_THRESHOLD {
            return Some(e.ascending.value() >= e.descending.value());
        }
        None
    }
}

impl Prefetcher for StreamPrefetcher {
    fn name(&self) -> &'static str {
        "GS"
    }

    fn kind(&self) -> PrefetcherKind {
        PrefetcherKind::Stream
    }

    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>) {
        let line = access.line();
        let stream_direction = self.update_region(line);
        self.stats.lookups += 1;
        self.stats.trainings += 1;
        let (entry, hit, evicted) = self.ip_table.touch_or_insert_with(access.pc, || IpEntry {
            last_line: line,
            direction_up: true,
            confidence: SaturatingCounter::with_bits(2),
        });
        self.stats.evictions += u64::from(evicted.is_some());
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        let delta = line.delta_from(entry.last_line);
        entry.last_line = line;

        match stream_direction {
            Some(up) => {
                // Region confirms a dense stream; align the PC with it.
                if entry.direction_up == up && delta != 0 {
                    entry.confidence.increment();
                } else {
                    entry.direction_up = up;
                    entry.confidence.reset();
                    entry.confidence.increment();
                }
            }
            None => {
                // Monotonic single-PC streaming also builds confidence slowly.
                if (delta > 0 && entry.direction_up) || (delta < 0 && !entry.direction_up) {
                    entry.confidence.increment();
                } else if delta != 0 {
                    entry.direction_up = delta > 0;
                    entry.confidence.reset();
                }
            }
        }

        if entry.confidence.value() >= 2 {
            let step: i64 = if entry.direction_up { 1 } else { -1 };
            for i in 1..=i64::from(degree) {
                out.push(line.offset(step * i));
            }
            self.stats.candidates_emitted += u64::from(degree);
        }
    }

    fn probe(&self, access: &DemandAccess) -> bool {
        let pc_confident = self.ip_table.get(&access.pc).is_some_and(|e| e.confidence.value() >= 2);
        let (region, _) = Self::region_of(access.line());
        let region_dense = self.rst.get(&region).is_some_and(|e| e.touched >= DENSITY_THRESHOLD);
        pc_confident || region_dense
    }

    fn table_stats(&self) -> &TableStats {
        &self.stats
    }

    fn storage_bits(&self) -> u64 {
        // IP entry: tag 16 b + last line 58 b + dir 1 b + conf 2 b + LRU 6 b.
        // RST entry: region tag 48 b + touched 6 b + last index 5 b + 2×3 b + LRU 3 b.
        (IP_ENTRIES as u64) * (16 + 58 + 1 + 2 + 6) + (RST_ENTRIES as u64) * (48 + 6 + 5 + 6 + 3)
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
    fn ascending_stream_prefetches_next_lines() {
        let mut pf = StreamPrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..8u64 {
            out.clear();
            pf.train_and_predict(&access(0x100, 0x40_0000 + i * 64), 3, &mut out);
        }
        let last = Addr::new(0x40_0000 + 7 * 64).line();
        assert_eq!(out, vec![last.offset(1), last.offset(2), last.offset(3)]);
    }

    #[test]
    fn descending_stream_prefetches_previous_lines() {
        let mut pf = StreamPrefetcher::default_config();
        let mut out = Vec::new();
        for i in (0..8u64).rev() {
            out.clear();
            pf.train_and_predict(&access(0x104, 0x40_0000 + i * 64), 2, &mut out);
        }
        let last = Addr::new(0x40_0000).line();
        assert_eq!(out, vec![last.offset(-1), last.offset(-2)]);
    }

    #[test]
    fn random_accesses_do_not_stream() {
        let mut pf = StreamPrefetcher::default_config();
        let mut out = Vec::new();
        let addrs = [0x1000u64, 0x80_0000, 0x3000, 0xff_0000, 0x5000, 0x9_0000];
        for &a in &addrs {
            out.clear();
            pf.train_and_predict(&access(0x108, a), 2, &mut out);
        }
        assert!(out.is_empty(), "non-streaming accesses should not trigger GS");
    }

    #[test]
    fn two_pcs_in_same_region_share_stream_detection() {
        let mut pf = StreamPrefetcher::default_config();
        let mut out = Vec::new();
        // PC A walks the region; PC B touches it afterwards and should be
        // recognised quickly thanks to the RST density information.
        for i in 0..6u64 {
            pf.train_and_predict(&access(0x200, 0x10_0000 + i * 64), 2, &mut out);
        }
        out.clear();
        pf.train_and_predict(&access(0x204, 0x10_0000 + 6 * 64), 2, &mut out);
        out.clear();
        pf.train_and_predict(&access(0x204, 0x10_0000 + 7 * 64), 2, &mut out);
        assert!(!out.is_empty(), "second PC should piggy-back on the detected stream");
    }

    #[test]
    fn stats_account_lookups_and_misses() {
        let mut pf = StreamPrefetcher::default_config();
        let mut out = Vec::new();
        for i in 0..5u64 {
            pf.train_and_predict(&access(0x300 + i, 0x1000 * i), 1, &mut out);
        }
        let s = pf.table_stats();
        assert_eq!(s.lookups, 5);
        assert_eq!(s.misses, 5);
    }

    #[test]
    fn storage_positive() {
        let pf = StreamPrefetcher::default_config();
        assert!(pf.storage_bits() > 0);
        assert_eq!(pf.name(), "GS");
        assert_eq!(pf.kind(), PrefetcherKind::Stream);
    }
}
