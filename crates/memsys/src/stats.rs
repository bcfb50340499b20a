//! Per-cache statistics and the prefetch-quality breakdown of Fig. 10.

/// Simulated core clock cycle.
pub type Cycle = u64;

/// Hit/miss/fill statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Demand accesses that merged with an in-flight miss (MSHR hit).
    pub demand_mshr_merges: u64,
    /// Prefetch lookups that already hit (dropped as redundant).
    pub prefetch_hits: u64,
    /// Prefetch fills performed.
    pub prefetch_fills: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Prefetched lines evicted without ever being demanded (cache pollution).
    pub unused_prefetch_evictions: u64,
    /// Demand hits on lines that were brought in by a prefetch.
    pub useful_prefetch_hits: u64,
    /// Cycles a request had to wait because every MSHR was busy.
    pub mshr_stall_cycles: u64,
}

impl CacheStats {
    /// Total demand accesses observed.
    #[must_use]
    pub const fn demand_accesses(&self) -> u64 {
        self.demand_hits + self.demand_misses + self.demand_mshr_merges
    }
}

/// The four-way breakdown of Fig. 10: covered misses with timely prefetches,
/// covered misses with untimely prefetches, uncovered misses, and
/// overpredicted (useless) prefetches. All counts are normalised against the
/// no-prefetching miss count by the harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchQuality {
    /// Would-be misses eliminated by a prefetch that completed in time.
    pub covered_timely: u64,
    /// Would-be misses that found their line still in flight (partial hit).
    pub covered_untimely: u64,
    /// Demand misses not covered by any prefetch.
    pub uncovered: u64,
    /// Prefetched lines that were evicted without use.
    pub overpredicted: u64,
}

impl PrefetchQuality {
    /// Prefetch accuracy: useful prefetches / issued prefetches, where useful
    /// = covered (timely or untimely) and issued = useful + overpredicted.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        let useful = self.covered_timely + self.covered_untimely;
        let issued = useful + self.overpredicted;
        if issued == 0 {
            0.0
        } else {
            useful as f64 / issued as f64
        }
    }

    /// Prefetch coverage: covered / (covered + uncovered).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let covered = self.covered_timely + self.covered_untimely;
        let base = covered + self.uncovered;
        if base == 0 {
            0.0
        } else {
            covered as f64 / base as f64
        }
    }

    /// Timeliness: fraction of covered misses whose prefetch completed in time.
    #[must_use]
    pub fn timeliness(&self) -> f64 {
        let covered = self.covered_timely + self.covered_untimely;
        if covered == 0 {
            0.0
        } else {
            self.covered_timely as f64 / covered as f64
        }
    }

    /// Merges another quality record into this one (used when aggregating
    /// across cores or benchmarks).
    pub fn merge(&mut self, other: &PrefetchQuality) {
        self.covered_timely += other.covered_timely;
        self.covered_untimely += other.covered_untimely;
        self.uncovered += other.uncovered;
        self.overpredicted += other.overpredicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.demand_accesses(), 0);
        s.demand_hits = 75;
        s.demand_misses = 25;
        assert_eq!(s.demand_accesses(), 100);
    }

    #[test]
    fn quality_metrics() {
        let q = PrefetchQuality {
            covered_timely: 60,
            covered_untimely: 20,
            uncovered: 20,
            overpredicted: 20,
        };
        assert!((q.accuracy() - 0.8).abs() < 1e-12);
        assert!((q.coverage() - 0.8).abs() < 1e-12);
        assert!((q.timeliness() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn quality_metrics_empty() {
        let q = PrefetchQuality::default();
        assert_eq!(q.accuracy(), 0.0);
        assert_eq!(q.coverage(), 0.0);
        assert_eq!(q.timeliness(), 0.0);
    }

    #[test]
    fn quality_merge() {
        let mut a = PrefetchQuality {
            covered_timely: 1,
            covered_untimely: 2,
            uncovered: 3,
            overpredicted: 4,
        };
        let b = PrefetchQuality {
            covered_timely: 10,
            covered_untimely: 20,
            uncovered: 30,
            overpredicted: 40,
        };
        a.merge(&b);
        assert_eq!(a.covered_timely, 11);
        assert_eq!(a.covered_untimely, 22);
        assert_eq!(a.uncovered, 33);
        assert_eq!(a.overpredicted, 44);
    }
}
