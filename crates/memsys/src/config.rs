//! Memory-system configuration mirroring Table I of the paper.

/// Parameters of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways).
    pub ways: usize,
    /// Round-trip load-to-use latency of a *hit* at this level, in core
    /// cycles.
    pub latency: u64,
    /// Extra tag-check cycles a request pays at this level when it *misses*
    /// and has to be forwarded outward (the lookup is not free: the request
    /// occupies the tag pipeline before the miss is known).
    pub miss_latency: u64,
    /// Number of MSHRs (maximum outstanding misses).
    pub mshrs: usize,
}

impl CacheParams {
    /// Checks that the geometry is simulable, in particular that it yields a
    /// **power-of-two** number of sets: the set index is computed as
    /// `line & (num_sets - 1)`, and with a non-power-of-two count that mask
    /// would silently alias most sets away (e.g. 3 sets would only ever use
    /// sets 0–1 … and the "missing" capacity would distort every miss-rate
    /// figure). Configurations that fail this check must be rejected, not
    /// rounded, so sweep scripts cannot quietly simulate a different cache
    /// than they asked for. The associativity is bounded at 64 ways, the
    /// width of the `u64` match mask the cache's tag scan folds one bit per
    /// way into.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 {
            return Err("cache must have at least one way".to_string());
        }
        if self.ways > 64 {
            return Err(format!(
                "associativity {} exceeds the 64-way limit of the tag scan's match mask",
                self.ways
            ));
        }
        let lines = self.size_bytes / alecto_types::CACHE_LINE_BYTES;
        let sets = lines as usize / self.ways;
        if sets == 0 {
            return Err("cache must have at least one set".to_string());
        }
        if !sets.is_power_of_two() {
            return Err(format!(
                "number of sets must be a power of two, got {sets} \
                 ({} B / 64 B lines / {} ways): the set-index mask would alias sets",
                self.size_bytes, self.ways
            ));
        }
        Ok(())
    }

    /// Number of sets implied by size, 64 B lines and associativity.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not yield a power-of-two, non-zero
    /// number of sets (see [`CacheParams::validate`]).
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.validate().unwrap_or_else(|e| panic!("{e}"));
        (self.size_bytes / alecto_types::CACHE_LINE_BYTES) as usize / self.ways
    }

    /// Table I: 32 KB, 8-way L1 data cache, 4-cycle round trip, 16 MSHRs.
    /// A miss costs one extra tag-check cycle before escalating.
    #[must_use]
    pub const fn l1d_default() -> Self {
        Self { size_bytes: 32 * 1024, ways: 8, latency: 4, miss_latency: 1, mshrs: 16 }
    }

    /// Table I: 256 KB, 8-way L2, 15-cycle round trip, 32 MSHRs, 2-cycle
    /// miss escalation.
    #[must_use]
    pub const fn l2_default() -> Self {
        Self { size_bytes: 256 * 1024, ways: 8, latency: 15, miss_latency: 2, mshrs: 32 }
    }

    /// Table I: 2 MB per core, 16-way shared L3, 35-cycle round trip,
    /// 64 MSHRs per LLC bank (one bank per core in this model), 4-cycle miss
    /// escalation before the request heads off-chip.
    #[must_use]
    pub fn l3_default(cores: usize) -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024 * cores as u64,
            ways: 16,
            latency: 35,
            miss_latency: 4,
            mshrs: 64 * cores,
        }
    }
}

/// Supported DRAM device generations (Fig. 16 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// DDR3-1600: 1600 MT/s, 12.8 GB/s per channel.
    Ddr3_1600,
    /// DDR4-2400: 2400 MT/s, 19.2 GB/s per channel (Table I default).
    Ddr4_2400,
}

/// DRAM organisation and timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramParams {
    /// Device generation, which sets the per-channel bandwidth.
    pub kind: DramKind,
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank (Table I: 8).
    pub banks_per_rank: usize,
    /// Core clock frequency in GHz used to convert nanoseconds to cycles.
    pub core_ghz: f64,
    /// Row activate latency (tRCD) in nanoseconds.
    pub trcd_ns: f64,
    /// Column access latency (tCAS) in nanoseconds.
    pub tcas_ns: f64,
    /// Precharge latency (tRP) in nanoseconds.
    pub trp_ns: f64,
    /// Row-buffer size in bytes (8 KiB typical).
    pub row_bytes: u64,
}

impl DramParams {
    /// Table I DRAM organisation for `cores` cores: one channel with one
    /// rank for a single core; otherwise `cores / 2` channels (at least one)
    /// with two ranks each.
    #[must_use]
    pub fn for_cores(kind: DramKind, cores: usize) -> Self {
        if cores == 1 {
            Self::with_channels(kind, 1, 1)
        } else {
            Self::with_channels(kind, (cores / 2).max(1), 2)
        }
    }

    fn with_channels(kind: DramKind, channels: usize, ranks: usize) -> Self {
        Self {
            kind,
            channels,
            ranks_per_channel: ranks,
            banks_per_rank: 8,
            core_ghz: 2.5,
            trcd_ns: 14.0,
            tcas_ns: 14.0,
            trp_ns: 14.0,
            row_bytes: 8 * 1024,
        }
    }

    /// Per-channel bandwidth in bytes per nanosecond.
    #[must_use]
    pub fn channel_bytes_per_ns(&self) -> f64 {
        match self.kind {
            DramKind::Ddr3_1600 => 12.8,
            DramKind::Ddr4_2400 => 19.2,
        }
    }

    /// Time to stream one 64 B cache line over the channel, in core cycles.
    #[must_use]
    pub fn burst_cycles(&self) -> u64 {
        let ns = alecto_types::CACHE_LINE_BYTES as f64 / self.channel_bytes_per_ns();
        self.ns_to_cycles(ns)
    }

    /// Converts nanoseconds to core cycles (rounded up, at least 1).
    #[must_use]
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        ((ns * self.core_ghz).ceil() as u64).max(1)
    }

    /// Total number of banks across the whole memory system.
    #[must_use]
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }
}

/// The most simulated cache capacity one hierarchy may hold, summed over
/// every core's L1D and L2 and the shared L3. It admits every built-in
/// machine and the 1024-core Table-I machine (2.28 GiB). A simulated 64-byte
/// line costs 16 host bytes in a level that no prefetch fills, and 48 in an
/// L1D or L2 once a prefetch lands there, so one hierarchy's arrays stay
/// within 3 GiB and a valid-looking but enormous geometry is an error
/// instead of an allocation that aborts the process.
const MAX_TOTAL_CACHE_BYTES: u64 = 4 << 30;

/// Full hierarchy configuration for `cores` cores.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyParams {
    /// Number of cores (each with private L1D and L2).
    pub cores: usize,
    /// Private L1 data cache parameters.
    pub l1d: CacheParams,
    /// Private L2 parameters.
    pub l2: CacheParams,
    /// Shared L3 parameters.
    pub l3: CacheParams,
    /// DRAM parameters.
    pub dram: DramParams,
    /// System-level timing knobs (DRAM admission/bandwidth queue).
    pub timing: crate::timing::TimingParams,
}

impl HierarchyParams {
    /// Validates every cache level of the hierarchy (see
    /// [`CacheParams::validate`]), the core count and the total simulated
    /// capacity, `cores × (L1D + L2) + L3`, which may not exceed 4 GiB. A
    /// level may have at most one MSHR per line (`size_bytes / 64`): every
    /// outstanding miss fills a line of its level, and the MSHR file is
    /// allocated whole at construction, so the count is bounded by the
    /// capacity bound too. A bad sweep configuration fails with one message
    /// naming the level (or the total and the bound) instead of a panic or a
    /// failed allocation inside `Hierarchy::new`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("at least one core required".to_string());
        }
        for (label, level) in [("L1D", &self.l1d), ("L2", &self.l2), ("L3", &self.l3)] {
            level.validate().map_err(|e| format!("{label}: {e}"))?;
            let lines = level.size_bytes / alecto_types::CACHE_LINE_BYTES;
            if level.mshrs as u64 > lines {
                return Err(format!(
                    "{label}: {} MSHRs exceed the level's {lines} lines",
                    level.mshrs
                ));
            }
        }
        self.timing.validate().map_err(|e| format!("timing: {e}"))?;
        let total = self
            .l1d
            .size_bytes
            .checked_add(self.l2.size_bytes)
            .and_then(|private| private.checked_mul(self.cores as u64))
            .and_then(|private| private.checked_add(self.l3.size_bytes));
        match total {
            Some(total) if total <= MAX_TOTAL_CACHE_BYTES => Ok(()),
            Some(total) => Err(format!(
                "total cache capacity cores × (L1D + L2) + L3 = {total} B exceeds the \
                 {MAX_TOTAL_CACHE_BYTES} B (4 GiB) bound"
            )),
            None => Err(format!(
                "total cache capacity cores × (L1D + L2) + L3 overflows 64 bits, far beyond the \
                 {MAX_TOTAL_CACHE_BYTES} B (4 GiB) bound"
            )),
        }
    }

    /// The Skylake-like configuration of Table I for `cores` cores with
    /// DDR4-2400 memory.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    #[must_use]
    pub fn skylake_like(cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        Self {
            cores,
            l1d: CacheParams::l1d_default(),
            l2: CacheParams::l2_default(),
            l3: CacheParams::l3_default(cores),
            dram: DramParams::for_cores(DramKind::Ddr4_2400, cores),
            timing: crate::timing::TimingParams::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometry() {
        let l1 = CacheParams::l1d_default();
        assert_eq!(l1.num_sets(), 64);
        let l2 = CacheParams::l2_default();
        assert_eq!(l2.num_sets(), 512);
        let l3 = CacheParams::l3_default(1);
        assert_eq!(l3.num_sets(), 2048);
        let l3x8 = CacheParams::l3_default(8);
        assert_eq!(l3x8.num_sets(), 8 * 2048);
    }

    #[test]
    fn dram_bandwidth_ordering() {
        let d3 = DramParams::for_cores(DramKind::Ddr3_1600, 1);
        let d4 = DramParams::for_cores(DramKind::Ddr4_2400, 1);
        assert!(d3.burst_cycles() > d4.burst_cycles());
        assert!(d4.channel_bytes_per_ns() > d3.channel_bytes_per_ns());
    }

    #[test]
    fn multicore_channels_scale() {
        let d = DramParams::for_cores(DramKind::Ddr4_2400, 8);
        assert_eq!(d.channels, 4);
        assert_eq!(d.ranks_per_channel, 2);
        assert_eq!(d.total_banks(), 4 * 2 * 8);
        let d2 = DramParams::for_cores(DramKind::Ddr4_2400, 2);
        assert_eq!((d2.channels, d2.ranks_per_channel), (1, 2));
        let d1 = DramParams::for_cores(DramKind::Ddr4_2400, 1);
        assert_eq!((d1.channels, d1.ranks_per_channel), (1, 1));
    }

    #[test]
    fn hierarchy_presets() {
        let h = HierarchyParams::skylake_like(8);
        assert_eq!(h.cores, 8);
        assert_eq!(h.l3.size_bytes, 16 * 1024 * 1024);
        assert_eq!(h.dram, DramParams::for_cores(DramKind::Ddr4_2400, 8));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = HierarchyParams::skylake_like(0);
    }

    #[test]
    fn non_power_of_two_sets_are_rejected() {
        // 3 sets × 1 way × 64 B: the mask `line & 2` would alias set 2 away.
        let bad =
            CacheParams { size_bytes: 3 * 64, ways: 1, latency: 1, miss_latency: 1, mshrs: 1 };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("power of two"), "unexpected message: {err}");
        assert!(err.contains("alias"), "the error must explain the mask aliasing: {err}");
        // Degenerate geometries are caught too.
        assert!(CacheParams { size_bytes: 0, ways: 1, latency: 1, miss_latency: 1, mshrs: 1 }
            .validate()
            .unwrap_err()
            .contains("at least one set"));
        assert!(CacheParams { size_bytes: 64, ways: 0, latency: 1, miss_latency: 1, mshrs: 1 }
            .validate()
            .unwrap_err()
            .contains("at least one way"));
        // All Table I presets pass.
        for good in
            [CacheParams::l1d_default(), CacheParams::l2_default(), CacheParams::l3_default(8)]
        {
            assert!(good.validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panic_at_construction() {
        let _ = CacheParams { size_bytes: 3 * 64, ways: 1, latency: 1, miss_latency: 1, mshrs: 1 }
            .num_sets();
    }

    #[test]
    fn hierarchy_capacity_is_bounded() {
        // 1024 Table-I cores total 2.28 GiB and pass.
        assert!(HierarchyParams::skylake_like(1024).validate().is_ok());
        // A 1 PiB L2 has a valid set count but would abort in `Cache::new`.
        let mut h = HierarchyParams::skylake_like(1);
        h.l2.size_bytes = 1 << 50;
        let err = h.validate().unwrap_err();
        assert!(
            err.contains(&format!("{} B", (1u64 << 50) + 32 * 1024 + 2 * 1024 * 1024)),
            "{err}"
        );
        assert!(err.contains("4294967296 B (4 GiB) bound"), "{err}");
        // A 4 GiB L3 plus one core's private levels is just past the bound.
        h.l2.size_bytes = 256 * 1024;
        h.l3.size_bytes = MAX_TOTAL_CACHE_BYTES;
        assert!(h.validate().unwrap_err().contains("exceeds"));
        // The sum is checked, so it cannot wrap back under the bound.
        h.l3.size_bytes = 2 * 1024 * 1024;
        h.cores = usize::MAX;
        assert!(h.validate().unwrap_err().contains("overflows"));
    }

    #[test]
    fn associativity_is_bounded_by_the_match_mask() {
        // 32 KiB at 128 ways is 4 sets, a power of two, so only the way
        // bound refuses it.
        let wide = CacheParams {
            size_bytes: 32 * 1024,
            ways: 128,
            latency: 4,
            miss_latency: 1,
            mshrs: 16,
        };
        let err = wide.validate().unwrap_err();
        assert!(err.contains("associativity 128 exceeds the 64-way limit"), "{err}");
        assert!(CacheParams { ways: 64, ..wide }.validate().is_ok());
        let h = HierarchyParams { l1d: wide, ..HierarchyParams::skylake_like(1) };
        assert!(h.validate().unwrap_err().starts_with("L1D: associativity 128"));
    }

    #[test]
    fn mshrs_are_bounded_by_the_line_count() {
        // 2^40 MSHRs would allocate 40 TiB of MSHR entries for a 512-line L1D.
        let mut h = HierarchyParams::skylake_like(1);
        h.l1d.mshrs = 1 << 40;
        let err = h.validate().unwrap_err();
        assert_eq!(err, "L1D: 1099511627776 MSHRs exceed the level's 512 lines");
        // One MSHR per line is the most a level may have.
        h.l1d.mshrs = 512;
        assert!(h.validate().is_ok());
        h.l3.mshrs = 32 * 1024 + 1;
        assert_eq!(h.validate().unwrap_err(), "L3: 32769 MSHRs exceed the level's 32768 lines");
        // `CacheParams::validate` alone leaves MSHRs unbounded: a tiny test
        // cache may have more MSHRs than lines.
        assert!(CacheParams { size_bytes: 64, ways: 1, latency: 1, miss_latency: 1, mshrs: 4 }
            .validate()
            .is_ok());
    }

    #[test]
    fn hierarchy_validation_names_the_level() {
        let mut h = HierarchyParams::skylake_like(1);
        h.l2.size_bytes = 3 * 64 * 8; // 3 sets at 8 ways
        let err = h.validate().unwrap_err();
        assert!(err.starts_with("L2:"), "level must be named: {err}");
        assert!(HierarchyParams::skylake_like(8).validate().is_ok());
    }

    #[test]
    fn hierarchy_validation_covers_timing() {
        let mut h = HierarchyParams::skylake_like(1);
        h.timing.dram_drain_period = 0;
        let err = h.validate().unwrap_err();
        assert!(err.starts_with("timing:"), "timing must be named: {err}");
        let t = HierarchyParams {
            timing: crate::timing::TimingParams::bandwidth_bound(),
            ..HierarchyParams::skylake_like(2)
        };
        assert!(t.validate().is_ok());
    }

    #[test]
    fn ns_to_cycles_rounds_up() {
        let d = DramParams::for_cores(DramKind::Ddr4_2400, 1);
        assert_eq!(d.ns_to_cycles(0.1), 1);
        assert_eq!(d.ns_to_cycles(14.0), 35);
    }
}
