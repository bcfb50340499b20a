//! Set-associative cache with LRU replacement and per-line prefetch metadata.
//!
//! Each line remembers whether it was filled by a prefetch and, if so, by
//! which prefetcher and under which trigger PC. That metadata feeds both the
//! coverage/overprediction accounting of Fig. 10 and the usefulness feedback
//! consumed by PPF and by Alecto's Sandbox/Sample tables.
//!
//! # Hot-path layout
//!
//! Every simulated memory access performs at least one tag search, so the
//! array is stored as flat per-set *hot blocks*: a packed `u64` tag lane
//! followed by a packed LRU-stamp lane (`[tags × ways | stamps × ways]`,
//! one or two cache lines per lane at Table I associativities). The tag
//! search is a branchless masked compare over the tag lane, the LRU victim
//! search a register-held minimum over the stamp lane, and the dirty /
//! prefetched-unused flags ride in the tag words' free high bits — so a
//! demand access touches nothing but its set's hot block. The prefetch
//! attribution (issuer, trigger PC) lives in a separate cold array that is
//! written by prefetch fills and read only while a way's prefetched-unused
//! bit is set. Only a prefetch fill sets that bit, so the cold array is
//! allocated by a cache's first prefetch fill, not at construction: the L3,
//! which no prefetch fills, and every cache of a NoPrefetch run never hold
//! it (16 host bytes per simulated line instead of 48). Apart from that one
//! allocation, nothing on the lookup/fill path allocates. The replacement
//! and eviction semantics are bit-for-bit those of the original
//! `Vec<Vec<LineMeta>>` implementation (LRU stamps are unique, so victim
//! choice never depends on storage order); the determinism suite and the
//! golden-JSON test pin this down.

use alecto_types::{LineAddr, Pc, PrefetcherId};

use crate::config::CacheParams;
use crate::stats::CacheStats;

/// Sentinel tag word for an empty way. Real tag words always have a line
/// field below [`TAG_LINE_MASK`] (line addresses are byte addresses shifted
/// right by 6, so they use at most 58 bits), hence can never equal this.
const NO_TAG: u64 = u64::MAX;

/// Tag-word bit: the line is dirty.
const TAG_DIRTY: u64 = 1 << 62;
/// Tag-word bit: the line was prefetched and not yet demand-referenced.
const TAG_PREFETCHED_UNUSED: u64 = 1 << 63;
/// Low 62 bits of a tag word: the line address. The two flag bits ride in
/// the tag's free high bits so the demand path reads and writes a single
/// word per way — the cold issuer/trigger array is only consulted when the
/// prefetched-unused bit is actually set.
const TAG_LINE_MASK: u64 = (1 << 62) - 1;

/// Metadata stored alongside every resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineMeta {
    /// Line (tag + index combined; the model stores full line addresses).
    pub line: LineAddr,
    /// Dirty bit (stores mark lines dirty; only used for statistics).
    pub dirty: bool,
    /// Set when the line was filled by a prefetch and has not yet been
    /// referenced by a demand access.
    pub prefetched_unused: bool,
    /// Which prefetcher brought the line in (if any).
    pub prefetch_issuer: Option<PrefetcherId>,
    /// PC of the demand access that triggered the prefetch (if any).
    pub trigger_pc: Option<Pc>,
}

/// Cold per-way state: the prefetch attribution. Written only by prefetch
/// fills and read only while a way's [`TAG_PREFETCHED_UNUSED`] bit is set,
/// so purely demand-driven traffic never touches this array — the access
/// path stays inside the per-set hot block — and a cache that no prefetch
/// fills never allocates it.
#[derive(Debug, Clone, Copy)]
struct ColdMeta {
    /// Which prefetcher brought the line in.
    issuer: Option<PrefetcherId>,
    /// PC of the demand access that triggered the prefetch.
    trigger: Option<Pc>,
}

impl ColdMeta {
    const EMPTY: ColdMeta = ColdMeta { issuer: None, trigger: None };
}

/// A single set-associative cache array (flat tag/metadata arrays, see the
/// module docs for the layout rationale).
///
/// The hot state lives in one flat `u64` array laid out as per-set blocks of
/// `[tags × ways | stamps × ways]`: for an 8-way set that is two cache lines
/// holding everything the tag search *and* the LRU victim search need, and
/// both searches are branchless full-set scans the compiler can vectorise.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    num_sets: usize,
    ways: usize,
    /// Per-set hot blocks: `[tags × ways | stamps × ways]`, `2 × ways` words
    /// per set. A tag is [`NO_TAG`] when the way is empty; stamps grow with
    /// recency.
    hot: Box<[u64]>,
    /// Cold per-way metadata, indexed `set × ways + way`. Empty until the
    /// first prefetch fill, which sizes it to `num_sets × ways`.
    cold: Vec<ColdMeta>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid — in particular if it does not
    /// yield a power-of-two number of sets, which the index mask
    /// (`line & (num_sets - 1)`) silently requires (see
    /// [`CacheParams::validate`]).
    #[must_use]
    pub fn new(params: CacheParams) -> Self {
        let num_sets = params.num_sets();
        let ways = params.ways;
        let mut hot = vec![0u64; 2 * num_sets * ways].into_boxed_slice();
        for set in 0..num_sets {
            let block = set * 2 * ways;
            hot[block..block + ways].fill(NO_TAG);
        }
        Self {
            params,
            num_sets,
            ways,
            hot,
            cold: Vec::new(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Start of the hot block (`[tags | stamps]`) of `line`'s set.
    fn hot_block(&self, line: LineAddr) -> usize {
        self.set_index(line) * 2 * self.ways
    }

    /// Index into the cold array for `way` of the set whose hot block starts
    /// at `block` (`block / 2` recovers `set × ways`).
    const fn cold_index(block: usize, way: usize) -> usize {
        block / 2 + way
    }

    /// Branchless scan of the tag lane of the set at `block`: returns the
    /// way whose line field matches, with its tag word. All `ways` tags are
    /// compared without an early exit — the packed lane is one or two cache
    /// lines, and trading the data-dependent exit branch (a guaranteed
    /// misprediction source per hit) for straight-line compares makes this
    /// loop, the single hottest code in the simulator, measurably faster.
    ///
    /// The compares run four ways wide over the packed lane, folding each
    /// way's verdict into one match-bitmask word (the shape the compiler
    /// lowers to a SIMD compare + movemask); the lowest set bit is the
    /// answer, preserving the lowest-way-wins tie-break of the old reverse
    /// scan (lines are unique per set, so ties cannot happen anyway). An
    /// empty way's masked line field is `TAG_LINE_MASK` itself, which no
    /// real (< 2^58) line can equal.
    fn find_way(&self, block: usize, line: u64) -> Option<(usize, u64)> {
        let set = &self.hot[block..block + self.ways];
        let mut mask = 0u64;
        let mut chunks = set.chunks_exact(4);
        let mut base = 0u32;
        for chunk in &mut chunks {
            mask |= u64::from(chunk[0] & TAG_LINE_MASK == line) << base;
            mask |= u64::from(chunk[1] & TAG_LINE_MASK == line) << (base + 1);
            mask |= u64::from(chunk[2] & TAG_LINE_MASK == line) << (base + 2);
            mask |= u64::from(chunk[3] & TAG_LINE_MASK == line) << (base + 3);
            base += 4;
        }
        for (i, &t) in chunks.remainder().iter().enumerate() {
            mask |= u64::from(t & TAG_LINE_MASK == line) << (base + i as u32);
        }
        if mask == 0 {
            None
        } else {
            let way = mask.trailing_zeros() as usize;
            Some((way, set[way]))
        }
    }

    /// Reconstructs the metadata view of `way` in the set at `block`. The
    /// cold attribution is read only when the way's prefetched-unused bit is
    /// set — for every other line the issuer/trigger are reported as `None`
    /// (no consumer reads them outside that bit, see the hierarchy).
    fn meta_at(&self, block: usize, way: usize) -> LineMeta {
        let t = self.hot[block + way];
        let prefetched_unused = t & TAG_PREFETCHED_UNUSED != 0;
        let (prefetch_issuer, trigger_pc) = if prefetched_unused {
            let m = self.cold[Self::cold_index(block, way)];
            (m.issuer, m.trigger)
        } else {
            (None, None)
        };
        LineMeta {
            line: LineAddr::new(t & TAG_LINE_MASK),
            dirty: t & TAG_DIRTY != 0,
            prefetched_unused,
            prefetch_issuer,
            trigger_pc,
        }
    }

    /// Configuration this cache was built with.
    #[must_use]
    pub const fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accumulated statistics.
    #[must_use]
    pub const fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the statistics (used by the hierarchy to attribute
    /// MSHR merges and stalls, which the cache array itself does not see).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Number of sets.
    #[must_use]
    pub const fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Round-trip latency of this level in cycles.
    #[must_use]
    pub const fn latency(&self) -> u64 {
        self.params.latency
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() as usize) & (self.num_sets - 1)
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Probes for `line` without updating replacement state or statistics.
    #[must_use]
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        let block = self.hot_block(line);
        self.find_way(block, line.raw()).is_some()
    }

    /// Demand lookup. On a hit, updates LRU state, clears the
    /// "prefetched-unused" bit, and returns the pre-access metadata so the
    /// caller can attribute prefetch usefulness.
    #[inline]
    pub fn demand_lookup(&mut self, line: LineAddr, is_store: bool) -> Option<LineMeta> {
        // The stamp advances on misses too, exactly like the original
        // implementation — LRU recency is global, not per-hit.
        let stamp = self.next_stamp();
        let block = self.hot_block(line);
        let Some((way, t)) = self.find_way(block, line.raw()) else {
            self.stats.demand_misses += 1;
            return None;
        };
        let before = self.meta_at(block, way);
        self.hot[block + self.ways + way] = stamp;
        // Write the tag word back only when a flag actually changes — the
        // common load-hit leaves it untouched.
        if is_store && t & TAG_DIRTY == 0 {
            self.hot[block + way] = (t | TAG_DIRTY) & !TAG_PREFETCHED_UNUSED;
        } else if before.prefetched_unused {
            self.hot[block + way] = t & !TAG_PREFETCHED_UNUSED;
        }
        if before.prefetched_unused {
            self.stats.useful_prefetch_hits += 1;
        }
        self.stats.demand_hits += 1;
        Some(before)
    }

    /// Prefetch lookup: returns `true` (and counts a redundant prefetch) if
    /// the line is already resident. Does not touch LRU state — a prefetch
    /// probe should not rejuvenate a line.
    #[inline]
    pub fn prefetch_probe(&mut self, line: LineAddr) -> bool {
        if self.contains(line) {
            self.stats.prefetch_hits += 1;
            true
        } else {
            false
        }
    }

    /// Fills `line` into the cache, evicting the LRU way if the set is full.
    /// Returns the victim's metadata, if one was evicted.
    #[inline]
    pub fn fill(
        &mut self,
        line: LineAddr,
        prefetch_issuer: Option<PrefetcherId>,
        trigger_pc: Option<Pc>,
        dirty: bool,
    ) -> Option<LineMeta> {
        let stamp = self.next_stamp();
        let block = self.hot_block(line);
        // One fused pass over the hot block gathers everything a fill can
        // need: the matching way, the first empty way, and the LRU victim
        // (smallest stamp; `<=` under the reverse scan keeps the earliest
        // way, matching the original `min_by_key` over push order — ties are
        // impossible anyway since stamps are unique).
        let ways = self.ways;
        let (tags, stamps) = self.hot[block..block + 2 * ways].split_at(ways);
        let mut matching = usize::MAX;
        let mut empty = usize::MAX;
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for way in (0..ways).rev() {
            let t = tags[way];
            if t & TAG_LINE_MASK == line.raw() {
                matching = way;
            }
            if t == NO_TAG {
                empty = way;
            }
            let s = stamps[way];
            if s <= best {
                best = s;
                victim = way;
            }
        }
        // Refill of an already-resident line just refreshes metadata.
        if matching != usize::MAX {
            self.hot[block + ways + matching] = stamp;
            if dirty {
                self.hot[block + matching] |= TAG_DIRTY;
            }
            return None;
        }
        if prefetch_issuer.is_some() {
            self.stats.prefetch_fills += 1;
        }
        // Fill an empty way if one exists (equivalent to the old Vec push —
        // the Vec never held holes, so "any empty way" is "set not full").
        if empty != usize::MAX {
            self.write_way(block, empty, line, prefetch_issuer, trigger_pc, dirty, stamp);
            return None;
        }
        let evicted = self.meta_at(block, victim);
        self.stats.evictions += 1;
        if evicted.prefetched_unused {
            self.stats.unused_prefetch_evictions += 1;
        }
        self.write_way(block, victim, line, prefetch_issuer, trigger_pc, dirty, stamp);
        Some(evicted)
    }

    /// Overwrites `way` of the set at `block` with a freshly filled line.
    #[allow(clippy::too_many_arguments)]
    fn write_way(
        &mut self,
        block: usize,
        way: usize,
        line: LineAddr,
        prefetch_issuer: Option<PrefetcherId>,
        trigger_pc: Option<Pc>,
        dirty: bool,
        stamp: u64,
    ) {
        // The two flag bits ride in the tag word; a line overflowing into
        // them would silently corrupt the array, so reject it loudly (real
        // lines are byte addresses >> 6 and use at most 58 bits).
        assert!(line.raw() <= TAG_LINE_MASK >> 4, "line address exceeds the 58-bit tag field");
        let mut t = line.raw();
        if dirty {
            t |= TAG_DIRTY;
        }
        if prefetch_issuer.is_some() {
            t |= TAG_PREFETCHED_UNUSED;
            // Cold attribution is only ever read under the prefetched-unused
            // bit, so demand fills skip this write entirely.
            if self.cold.is_empty() {
                self.cold.resize(self.num_sets * self.ways, ColdMeta::EMPTY);
            }
            self.cold[Self::cold_index(block, way)] =
                ColdMeta { issuer: prefetch_issuer, trigger: trigger_pc };
        }
        self.hot[block + way] = t;
        self.hot[block + self.ways + way] = stamp;
    }

    /// Whether the prefetch attribution array has been allocated.
    #[cfg(test)]
    pub(crate) fn holds_attribution(&self) -> bool {
        !self.cold.is_empty()
    }

    /// Number of resident lines (for tests and occupancy reporting).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        (0..self.num_sets)
            .map(|set| {
                let block = set * 2 * self.ways;
                self.hot[block..block + self.ways].iter().filter(|&&t| t != NO_TAG).count()
            })
            .sum()
    }

    /// Iterates over all resident line metadata (read-only snapshot values).
    pub fn resident_lines(&self) -> impl Iterator<Item = LineMeta> + '_ {
        (0..self.num_sets).flat_map(move |set| {
            let block = set * 2 * self.ways;
            (0..self.ways)
                .filter(move |&w| self.hot[block + w] != NO_TAG)
                .map(move |w| self.meta_at(block, w))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(ways: usize, sets: usize) -> Cache {
        Cache::new(CacheParams {
            size_bytes: (ways * sets) as u64 * alecto_types::CACHE_LINE_BYTES,
            ways,
            latency: 4,
            miss_latency: 1,
            mshrs: 4,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny_cache(2, 2);
        assert!(c.demand_lookup(LineAddr::new(0), false).is_none());
        c.fill(LineAddr::new(0), None, None, false);
        assert!(c.demand_lookup(LineAddr::new(0), false).is_some());
        assert_eq!(c.stats().demand_hits, 1);
        assert_eq!(c.stats().demand_misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny_cache(2, 1);
        c.fill(LineAddr::new(0), None, None, false);
        c.fill(LineAddr::new(1), None, None, false);
        // Touch line 0 so line 1 becomes LRU.
        c.demand_lookup(LineAddr::new(0), false);
        let evicted = c.fill(LineAddr::new(2), None, None, false).expect("eviction");
        assert_eq!(evicted.line, LineAddr::new(1));
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(2)));
    }

    #[test]
    fn prefetched_unused_tracking() {
        let mut c = tiny_cache(1, 1);
        c.fill(LineAddr::new(3), Some(PrefetcherId(0)), Some(Pc::new(0x10)), false);
        // Evicting it before use counts as an unused prefetch eviction.
        let ev = c.fill(LineAddr::new(4), None, None, false).unwrap();
        assert!(ev.prefetched_unused);
        assert_eq!(ev.prefetch_issuer, Some(PrefetcherId(0)));
        assert_eq!(ev.trigger_pc, Some(Pc::new(0x10)));
        assert_eq!(c.stats().unused_prefetch_evictions, 1);
    }

    #[test]
    fn demand_hit_clears_prefetched_bit() {
        let mut c = tiny_cache(2, 1);
        c.fill(LineAddr::new(3), Some(PrefetcherId(1)), Some(Pc::new(0x20)), false);
        let before = c.demand_lookup(LineAddr::new(3), false).unwrap();
        assert!(before.prefetched_unused);
        assert_eq!(c.stats().useful_prefetch_hits, 1);
        // Second access: bit already cleared.
        let again = c.demand_lookup(LineAddr::new(3), false).unwrap();
        assert!(!again.prefetched_unused);
        assert_eq!(c.stats().useful_prefetch_hits, 1);
    }

    #[test]
    fn attribution_array_is_allocated_by_the_first_prefetch_fill() {
        let mut c = tiny_cache(2, 2);
        // Demand fills, hits and evictions leave it unallocated, and so does
        // a prefetch refill of a resident line, which sets no bit.
        for i in 0..8 {
            c.fill(LineAddr::new(i), None, None, i % 3 == 0);
            c.demand_lookup(LineAddr::new(i), i % 2 == 0);
        }
        c.fill(LineAddr::new(7), Some(PrefetcherId(1)), Some(Pc::new(0x70)), false);
        assert_eq!(c.stats().evictions, 4);
        assert!(!c.holds_attribution());
        // The first attributed fill sizes it to every way of every set.
        c.fill(LineAddr::new(8), Some(PrefetcherId(2)), Some(Pc::new(0x80)), false);
        assert_eq!(c.cold.len(), 4);
        let hit = c.demand_lookup(LineAddr::new(8), false).expect("prefetched line hits");
        assert_eq!(
            (hit.prefetch_issuer, hit.trigger_pc),
            (Some(PrefetcherId(2)), Some(Pc::new(0x80)))
        );
        // Set 0 now holds 8 and the unused prefetch 10; touching 8 makes 10
        // the victim of the next fill.
        c.fill(LineAddr::new(10), Some(PrefetcherId(3)), Some(Pc::new(0x90)), false);
        c.demand_lookup(LineAddr::new(8), false);
        let ev = c.fill(LineAddr::new(12), None, None, false).expect("full set evicts");
        assert_eq!((ev.line, ev.prefetched_unused), (LineAddr::new(10), true));
        assert_eq!(
            (ev.prefetch_issuer, ev.trigger_pc),
            (Some(PrefetcherId(3)), Some(Pc::new(0x90)))
        );
    }

    #[test]
    fn prefetch_probe_counts_redundant() {
        let mut c = tiny_cache(2, 1);
        c.fill(LineAddr::new(9), None, None, false);
        assert!(c.prefetch_probe(LineAddr::new(9)));
        assert!(!c.prefetch_probe(LineAddr::new(10)));
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn store_marks_dirty() {
        let mut c = tiny_cache(2, 1);
        c.fill(LineAddr::new(7), None, None, false);
        c.demand_lookup(LineAddr::new(7), true);
        let meta = c.resident_lines().find(|m| m.line == LineAddr::new(7)).unwrap();
        assert!(meta.dirty);
    }

    #[test]
    fn refill_does_not_duplicate() {
        let mut c = tiny_cache(2, 1);
        c.fill(LineAddr::new(1), None, None, false);
        c.fill(LineAddr::new(1), None, None, true);
        assert_eq!(c.occupancy(), 1);
        assert!(c.resident_lines().next().unwrap().dirty);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = tiny_cache(4, 4);
        for i in 0..10 {
            c.fill(LineAddr::new(i), None, None, false);
        }
        assert_eq!(c.occupancy(), 10);
    }

    #[test]
    fn wide_scan_finds_every_way_at_odd_associativities() {
        // Exercise the chunked compare's remainder path (ways % 4 != 0) and
        // the lowest-way-wins selection at every resident position.
        for ways in [1usize, 2, 3, 4, 5, 7, 8, 12, 16] {
            let mut c = tiny_cache(ways, 1);
            for i in 0..ways as u64 {
                c.fill(LineAddr::new(i + 1), None, None, false);
            }
            for i in 0..ways as u64 {
                assert!(c.contains(LineAddr::new(i + 1)), "{ways} ways, line {i}");
            }
            assert!(!c.contains(LineAddr::new(ways as u64 + 1)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_geometry_is_rejected() {
        let _ = Cache::new(CacheParams {
            size_bytes: 3 * alecto_types::CACHE_LINE_BYTES,
            ways: 1,
            latency: 1,
            miss_latency: 1,
            mshrs: 1,
        });
    }

    #[test]
    fn eviction_order_is_stamp_based_not_storage_based() {
        // Touch lines so that the LRU line sits in the last way and then in
        // a middle one; the victim must be the least recently *stamped* line
        // wherever it is stored.
        let mut c = tiny_cache(3, 1);
        for i in 0..3 {
            c.fill(LineAddr::new(i), None, None, false);
        }
        c.demand_lookup(LineAddr::new(0), false);
        c.demand_lookup(LineAddr::new(1), false); // 2 (last way) is now LRU
        let ev = c.fill(LineAddr::new(9), None, None, false).expect("full set evicts");
        assert_eq!(ev.line, LineAddr::new(2));
        c.demand_lookup(LineAddr::new(0), false); // 1 (middle way) is now LRU
        let ev = c.fill(LineAddr::new(10), None, None, false).expect("full set evicts");
        assert_eq!(ev.line, LineAddr::new(1));
    }
}
