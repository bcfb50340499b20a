//! The three-level hierarchy of Table I: per-core private L1D and L2, a
//! shared L3, and DRAM, plus the plumbing that lets the CPU model issue
//! demand accesses and prefetch requests with cycle timestamps.
//!
//! A demand access returns only its completion cycle, and a prefetch
//! returns nothing. Every other per-access fact is recorded once, where the
//! reports read it: the serving level in the per-level [`CacheStats`] and
//! in `DramStats::accesses`, prefetch coverage in [`PrefetchQuality`] and
//! as [`PrefetchOutcome`] feedback.

use alecto_types::{FillLevel, LineAddr, PrefetchOutcome, PrefetchRequest};

use crate::cache::{Cache, LineMeta};
use crate::config::HierarchyParams;
use crate::dram::DramModel;
use crate::mshr::{MshrEntry, MshrFile};
use crate::stats::{CacheStats, Cycle, PrefetchQuality};
use crate::timing::{BandwidthQueue, TimingStats};

/// Channel backlog (in 64 B burst slots) beyond which off-chip prefetches are
/// dropped rather than queued behind demand traffic.
const PREFETCH_DRAM_PRESSURE_LIMIT: f64 = 32.0;

#[derive(Debug)]
struct CorePrivate {
    l1d: Cache,
    l2: Cache,
    l1_mshr: MshrFile,
    l2_mshr: MshrFile,
    quality: PrefetchQuality,
    timing: TimingStats,
}

/// The full memory hierarchy shared by all cores.
#[derive(Debug)]
pub struct Hierarchy {
    params: HierarchyParams,
    cores: Vec<CorePrivate>,
    l3: Cache,
    l3_mshr: MshrFile,
    dram: DramModel,
    /// Memory-controller admission queue in front of the DRAM banks; demand
    /// and prefetch fills alike consume its drain bandwidth.
    dram_queue: BandwidthQueue,
    feedback: Vec<PrefetchOutcome>,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid — most importantly when a
    /// level's geometry does not yield a power-of-two set count, which the
    /// set-index mask silently requires (see
    /// [`crate::CacheParams::validate`]).
    #[must_use]
    pub fn new(params: HierarchyParams) -> Self {
        params.validate().unwrap_or_else(|e| panic!("invalid hierarchy configuration: {e}"));
        let cores = (0..params.cores)
            .map(|_| CorePrivate {
                l1d: Cache::new(params.l1d),
                l2: Cache::new(params.l2),
                l1_mshr: MshrFile::new(params.l1d.mshrs),
                l2_mshr: MshrFile::new(params.l2.mshrs),
                quality: PrefetchQuality::default(),
                timing: TimingStats::default(),
            })
            .collect();
        Self {
            l3: Cache::new(params.l3),
            l3_mshr: MshrFile::new(params.l3.mshrs),
            dram: DramModel::new(params.dram),
            dram_queue: BandwidthQueue::new(params.timing),
            cores,
            params,
            feedback: Vec::new(),
        }
    }

    /// Configuration in use.
    #[must_use]
    pub const fn params(&self) -> &HierarchyParams {
        &self.params
    }

    /// L1D statistics of `core`.
    #[must_use]
    pub fn l1_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l1d.stats()
    }

    /// L2 statistics of `core`.
    #[must_use]
    pub fn l2_stats(&self, core: usize) -> &CacheStats {
        self.cores[core].l2.stats()
    }

    /// Shared L3 statistics.
    #[must_use]
    pub fn l3_stats(&self) -> &CacheStats {
        self.l3.stats()
    }

    /// DRAM statistics.
    #[must_use]
    pub fn dram_stats(&self) -> &crate::dram::DramStats {
        self.dram.stats()
    }

    /// Prefetch-quality breakdown of `core` (Fig. 10).
    #[must_use]
    pub fn quality(&self, core: usize) -> &PrefetchQuality {
        &self.cores[core].quality
    }

    /// Cycle accounting over `core`'s demand stream: access count, summed
    /// load-to-use latency, and the MSHR/DRAM-queue stall breakdown.
    #[must_use]
    pub fn timing_stats(&self, core: usize) -> &TimingStats {
        &self.cores[core].timing
    }

    /// Completion-time query for an individual outstanding access: the cycle
    /// at which the in-flight miss covering `line` completes, probing `core`'s
    /// private L1 and L2 MSHRs and then the shared L3 file, or `None` when the
    /// line is not outstanding anywhere at `now`.
    ///
    /// This is the per-access counterpart of the aggregate latency counters in
    /// [`Hierarchy::timing_stats`]: cycle-level core models (the out-of-order
    /// LSQ in `crates/cpu`) use it to wake individual queue entries instead of
    /// treating every miss as an opaque scalar latency. Read-only — probing
    /// never retires entries or perturbs timing.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn outstanding_completion(&self, core: usize, line: LineAddr, now: Cycle) -> Option<Cycle> {
        let private = &self.cores[core];
        private
            .l1_mshr
            .completion_of(line, now)
            .or_else(|| private.l2_mshr.completion_of(line, now))
            .or_else(|| self.l3_mshr.completion_of(line, now))
    }

    /// Moves the prefetch usefulness feedback accumulated since the last
    /// call into `out`, replacing its contents. The two buffers trade
    /// places, so a caller that keeps `out` between calls never allocates.
    pub fn swap_feedback(&mut self, out: &mut Vec<PrefetchOutcome>) {
        out.clear();
        std::mem::swap(&mut self.feedback, out);
    }

    /// Reports a prefetched line evicted before any demand used it as
    /// useless feedback, charged to `core`'s overprediction count.
    fn record_eviction_feedback(&mut self, core: usize, evicted: Option<LineMeta>) {
        let Some(ev) = evicted.filter(|ev| ev.prefetched_unused) else { return };
        let Some(issuer) = ev.prefetch_issuer else { return };
        self.feedback.push(PrefetchOutcome {
            issuer,
            trigger_pc: ev.trigger_pc,
            line: ev.line,
            useful: false,
        });
        self.cores[core].quality.overpredicted += 1;
    }

    /// Books a demand that merged into the in-flight miss `merged` (as it
    /// stood before the merge): the first demand to merge into a prefetch's
    /// entry covers that prefetch late.
    fn merged_coverage(&mut self, core: usize, line: LineAddr, merged: MshrEntry) {
        let Some(issuer) = merged.prefetch_issuer.filter(|_| !merged.demand_merged) else {
            return;
        };
        self.cores[core].quality.covered_untimely += 1;
        self.feedback.push(PrefetchOutcome { issuer, trigger_pc: None, line, useful: true });
    }

    /// Books a demand hit on the array line `before` (its metadata as it
    /// stood before the hit): the first demand to reach a prefetched line
    /// covers that prefetch in time.
    fn hit_coverage(&mut self, core: usize, line: LineAddr, before: LineMeta) {
        if !before.prefetched_unused {
            return;
        }
        let issuer = before.prefetch_issuer.expect("prefetched line records its issuer");
        self.cores[core].quality.covered_timely += 1;
        self.feedback.push(PrefetchOutcome {
            issuer,
            trigger_pc: before.trigger_pc,
            line,
            useful: true,
        });
    }

    /// Performs a demand access from `core` to `line` at cycle `now`, marking
    /// the line dirty when `is_store`, and returns the cycle at which the
    /// data is available (load-to-use, including MSHR stalls and DRAM
    /// queueing).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn demand_access(
        &mut self,
        core: usize,
        line: LineAddr,
        now: Cycle,
        is_store: bool,
    ) -> Cycle {
        let completion = self.demand_access_inner(core, line, now, is_store);
        // Cycle bookkeeping over the same deterministic stream: every demand
        // access contributes its load-to-use latency to the per-core timing
        // record the CPU model folds into IPC / average-latency figures.
        let timing = &mut self.cores[core].timing;
        timing.demand_accesses += 1;
        timing.demand_latency_cycles += completion - now;
        completion
    }

    fn demand_access_inner(
        &mut self,
        core: usize,
        line: LineAddr,
        now: Cycle,
        is_store: bool,
    ) -> Cycle {
        assert!(core < self.cores.len(), "core index {core} out of range");
        let l1_latency = self.params.l1d.latency;
        let l2_latency = self.params.l2.latency;
        let l3_latency = self.params.l3.latency;

        // --- L1 MSHR: line already being fetched? -------------------------
        let cp = &mut self.cores[core];
        if let Some(merged) = cp.l1_mshr.merge_demand(line, now) {
            cp.l1d.stats_mut().demand_mshr_merges += 1;
            // Clear the prefetched-unused bit so the later array hit is not
            // double counted; ignore the array's own coverage signal.
            let _ = cp.l1d.demand_lookup(line, is_store);
            self.merged_coverage(core, line, merged);
            return now + l1_latency.max(merged.completion.saturating_sub(now));
        }

        // --- L1 array ------------------------------------------------------
        if let Some(before) = self.cores[core].l1d.demand_lookup(line, is_store) {
            self.hit_coverage(core, line, before);
            return now + l1_latency;
        }

        // --- L1 miss: walk the outer levels --------------------------------
        // Each level a request misses in costs that level's tag-check
        // escalation penalty on top of wherever the data is finally found.
        let mut escalation = self.params.l1d.miss_latency;
        let mut fill_l2 = false;
        let mut fill_l3 = false;

        // L2 lookup / MSHR.
        let base_latency = if let Some(before) = self.cores[core].l2.demand_lookup(line, is_store) {
            self.hit_coverage(core, line, before);
            l2_latency
        } else if let Some(merged) = self.cores[core].l2_mshr.merge_demand(line, now) {
            self.cores[core].l2.stats_mut().demand_mshr_merges += 1;
            self.merged_coverage(core, line, merged);
            l2_latency.max(merged.completion.saturating_sub(now))
        } else {
            // L3 lookup / MSHR.
            fill_l2 = true;
            escalation += self.params.l2.miss_latency;
            if let Some(before) = self.l3.demand_lookup(line, is_store) {
                self.hit_coverage(core, line, before);
                l3_latency
            } else if let Some(merged) = self.l3_mshr.merge_demand(line, now) {
                self.l3.stats_mut().demand_mshr_merges += 1;
                self.merged_coverage(core, line, merged);
                l3_latency.max(merged.completion.saturating_sub(now))
            } else {
                // DRAM: the request first wins an admission slot at the
                // memory controller (the bandwidth queue), then pays the
                // bank/bus timing from the admitted cycle.
                fill_l3 = true;
                escalation += self.params.l3.miss_latency;
                let enter = now + l3_latency;
                let admitted = self.dram_queue.admit(enter);
                self.cores[core].timing.dram_queue_cycles += admitted - enter;
                let dram_done = self.dram.access(line, admitted);
                self.cores[core].quality.uncovered += 1;
                dram_done.saturating_sub(now)
            }
        };

        // --- MSHR allocation stalls -----------------------------------------
        // The guessed completion includes the escalation penalties so a
        // later access that merges on the MSHR entry is never reported
        // complete before the miss it merged into.
        let mut stall = 0;
        let completion_guess = now + base_latency + escalation;
        let l1_stall = self.cores[core].l1_mshr.allocate(line, completion_guess, None, now);
        self.cores[core].l1d.stats_mut().mshr_stall_cycles += l1_stall;
        stall += l1_stall;
        if fill_l2 {
            let l2_stall =
                self.cores[core].l2_mshr.allocate(line, completion_guess + stall, None, now);
            self.cores[core].l2.stats_mut().mshr_stall_cycles += l2_stall;
            stall += l2_stall;
        }
        if fill_l3 {
            let l3_stall = self.l3_mshr.allocate(line, completion_guess + stall, None, now);
            self.l3.stats_mut().mshr_stall_cycles += l3_stall;
            stall += l3_stall;
            self.l3.stats_mut().demand_misses += 1;
        }
        self.cores[core].timing.mshr_stall_cycles += stall;

        // --- Fills -----------------------------------------------------------
        let ev = self.cores[core].l1d.fill(line, None, None, is_store);
        self.record_eviction_feedback(core, ev);
        if fill_l2 {
            let ev = self.cores[core].l2.fill(line, None, None, false);
            self.record_eviction_feedback(core, ev);
        }
        if fill_l3 {
            let ev = self.l3.fill(line, None, None, false);
            self.record_eviction_feedback(core, ev);
        }

        now + base_latency + escalation + stall + l1_latency.min(4)
    }

    /// Issues one prefetch request on behalf of `core` at cycle `now`.
    ///
    /// A request is dropped when its line is already resident at the target
    /// level or in flight, when no MSHR can take it, or when the DRAM
    /// channel it needs is backlogged. An issued prefetch shows up as a
    /// `prefetch_fills` count of its target level and, until its fill lands,
    /// in [`Hierarchy::outstanding_completion`].
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn issue_prefetch(&mut self, core: usize, req: &PrefetchRequest, now: Cycle) {
        assert!(core < self.cores.len(), "core index {core} out of range");
        let line = req.line;
        let l2_latency = self.params.l2.latency;
        let l3_latency = self.params.l3.latency;

        // Redundancy checks against the target level and in-flight misses.
        let resident = match req.fill_level {
            FillLevel::L1 => self.cores[core].l1d.prefetch_probe(line),
            FillLevel::L2 => self.cores[core].l2.prefetch_probe(line),
        };
        let in_flight = self.cores[core].l1_mshr.lookup(line, now).is_some()
            || self.cores[core].l2_mshr.lookup(line, now).is_some();
        if resident || in_flight {
            return;
        }

        // MSHR admission control happens *before* any bandwidth is spent:
        // an L1-targeted prefetch that finds the L1 MSHR file full is demoted
        // to fill the L2 instead; if that file is also full the request is
        // dropped (never stalled — prefetches are best-effort).
        let mut fill_level = req.fill_level;
        if fill_level == FillLevel::L1 && !self.cores[core].l1_mshr.has_free(now) {
            fill_level = FillLevel::L2;
        }
        if fill_level == FillLevel::L2 && !self.cores[core].l2_mshr.has_free(now) {
            return;
        }
        if fill_level == FillLevel::L2 && self.cores[core].l2.contains(line) {
            // Demoted request finds its line already in the L2: nothing to do.
            return;
        }

        // Find the data: L2 (when targeting L1), then L3, then DRAM. Each
        // level probed and missed costs its tag-check escalation penalty,
        // exactly as on the demand path.
        let mut fill_l3 = false;
        let mut escalation = 0;
        let mut base_latency = match fill_level {
            FillLevel::L1 => {
                if self.cores[core].l2.contains(line) {
                    l2_latency
                } else {
                    escalation += self.params.l2.miss_latency;
                    0
                }
            }
            FillLevel::L2 => {
                // Reaching here means the L2 was probed (redundancy check or
                // demotion) and missed, so it pays the same escalation as an
                // L1-targeted request that missed the L2.
                escalation += self.params.l2.miss_latency;
                0
            }
        };
        if base_latency == 0 {
            if self.l3.contains(line) {
                base_latency = l3_latency;
            } else if let Some(entry) = self.l3_mshr.lookup(line, now) {
                base_latency = l3_latency.max(entry.completion.saturating_sub(now));
            } else {
                // Off-chip prefetch: memory controllers treat prefetches as
                // best-effort traffic. When the target channel already has a
                // deep backlog, issuing the prefetch would only delay demand
                // fills, so it is dropped instead.
                if self.dram.queue_pressure(line, now + l3_latency) > PREFETCH_DRAM_PRESSURE_LIMIT {
                    return;
                }
                fill_l3 = true;
                escalation += self.params.l3.miss_latency;
                // Prefetch fills consume the same admission bandwidth as
                // demand fills — that shared drain is what lets aggressive
                // prefetching visibly crowd out demand traffic.
                let admitted = self.dram_queue.admit(now + l3_latency);
                let dram_done = self.dram.access_prefetch(line, admitted);
                base_latency = dram_done.saturating_sub(now);
            }
        }
        let completion = now + base_latency + escalation;
        match fill_level {
            FillLevel::L1 => {
                self.cores[core].l1_mshr.allocate(line, completion, Some(req.issuer), now);
            }
            FillLevel::L2 => {
                self.cores[core].l2_mshr.allocate(line, completion, Some(req.issuer), now);
            }
        }
        if fill_l3 {
            self.l3_mshr.allocate(line, completion, Some(req.issuer), now);
        }

        // Fill the target level (timing is governed by the MSHR entry).
        let ev = match fill_level {
            FillLevel::L1 => {
                self.cores[core].l1d.fill(line, Some(req.issuer), Some(req.trigger_pc), false)
            }
            FillLevel::L2 => {
                self.cores[core].l2.fill(line, Some(req.issuer), Some(req.trigger_pc), false)
            }
        };
        self.record_eviction_feedback(core, ev);
        if fill_l3 {
            let ev = self.l3.fill(line, None, None, false);
            self.record_eviction_feedback(core, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Pc, PrefetcherId};

    fn hier(cores: usize) -> Hierarchy {
        Hierarchy::new(HierarchyParams::skylake_like(cores))
    }

    fn feedback(h: &mut Hierarchy) -> Vec<PrefetchOutcome> {
        let mut fb = Vec::new();
        h.swap_feedback(&mut fb);
        fb
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut h = hier(1);
        let line = LineAddr::new(0x100);
        let done = h.demand_access(0, line, 0, false);
        assert_eq!(h.dram_stats().accesses, 1);
        assert_eq!(*h.quality(0), PrefetchQuality { uncovered: 1, ..PrefetchQuality::default() });
        assert!(done > h.params().l3.latency);
        let hit = h.demand_access(0, line, done + 1, false);
        assert_eq!(h.l1_stats(0).demand_hits, 1);
        assert_eq!(hit - (done + 1), h.params().l1d.latency);
        // A plain hit covers nothing and reaches no further level.
        assert_eq!(*h.quality(0), PrefetchQuality { uncovered: 1, ..PrefetchQuality::default() });
        assert_eq!(h.dram_stats().accesses, 1);
    }

    #[test]
    fn outstanding_completion_tracks_an_individual_miss() {
        let mut h = hier(1);
        let line = LineAddr::new(0x180);
        let done = h.demand_access(0, line, 0, false);
        // The miss is outstanding: the probe reports the MSHR's fill arrival
        // (at or before the access's end-to-end completion, which also pays
        // the L1 forward latency) and repeating it does not disturb anything.
        let fill = h.outstanding_completion(0, line, 1).expect("miss is in flight");
        assert!(fill > 1 && fill <= done);
        assert_eq!(h.outstanding_completion(0, line, 1), Some(fill));
        // A line never requested is not outstanding.
        assert_eq!(h.outstanding_completion(0, LineAddr::new(0x999), 1), None);
        // Once the fill lands the access is no longer in flight.
        assert_eq!(h.outstanding_completion(0, line, done), None);
    }

    #[test]
    fn timely_prefetch_is_covered() {
        let mut h = hier(1);
        let line = LineAddr::new(0x200);
        let req = PrefetchRequest::new(line, Pc::new(0x40), PrefetcherId(0));
        h.issue_prefetch(0, &req, 0);
        // Issued into the L1 from DRAM, and in flight until the fill lands.
        assert_eq!(h.l1_stats(0).prefetch_fills, 1);
        assert_eq!(h.dram_stats().accesses, 1);
        let fill = h.outstanding_completion(0, line, 0).expect("prefetch in flight");
        // Demand arrives after the prefetch completed: timely.
        h.demand_access(0, line, fill + 10, false);
        assert_eq!(h.quality(0).covered_timely, 1);
        assert_eq!(
            feedback(&mut h),
            [PrefetchOutcome {
                issuer: PrefetcherId(0),
                trigger_pc: Some(Pc::new(0x40)),
                line,
                useful: true
            }]
        );
    }

    #[test]
    fn late_prefetch_is_covered_untimely() {
        let mut h = hier(1);
        let line = LineAddr::new(0x300);
        let req = PrefetchRequest::new(line, Pc::new(0x44), PrefetcherId(1));
        h.issue_prefetch(0, &req, 0);
        let fill = h.outstanding_completion(0, line, 0).expect("prefetch in flight");
        // Demand arrives while the prefetch is still in flight.
        let latency = h.demand_access(0, line, 1, false) - 1;
        assert!(latency > h.params().l1d.latency);
        assert!(latency < fill + 10);
        assert_eq!(h.quality(0).covered_untimely, 1);
        assert_eq!(
            feedback(&mut h),
            [PrefetchOutcome { issuer: PrefetcherId(1), trigger_pc: None, line, useful: true }]
        );
    }

    #[test]
    fn redundant_prefetch_is_dropped() {
        let mut h = hier(1);
        let line = LineAddr::new(0x400);
        let done = h.demand_access(0, line, 0, false);
        let req = PrefetchRequest::new(line, Pc::new(0x48), PrefetcherId(0));
        h.issue_prefetch(0, &req, done + 1);
        let l1 = h.l1_stats(0);
        assert_eq!((l1.prefetch_hits, l1.prefetch_fills), (1, 0));
    }

    #[test]
    fn l2_fill_level_prefetch_lands_in_l2() {
        let mut h = hier(1);
        let line = LineAddr::new(0x500);
        let req = PrefetchRequest::new(line, Pc::new(0x4c), PrefetcherId(2))
            .with_fill_level(alecto_types::FillLevel::L2);
        h.issue_prefetch(0, &req, 0);
        assert_eq!(h.l2_stats(0).prefetch_fills, 1);
        assert_eq!(h.l1_stats(0).prefetch_fills, 0);
        let fill = h.outstanding_completion(0, line, 0).expect("prefetch in flight");
        // Demand later: L1 misses, L2 hits with the prefetched line.
        h.demand_access(0, line, fill + 5, false);
        assert_eq!(h.l2_stats(0).demand_hits, 1);
        assert_eq!(h.quality(0).covered_timely, 1);
        let fb = feedback(&mut h);
        assert!(fb.iter().any(|f| f.useful && f.issuer == PrefetcherId(2) && f.line == line));
    }

    #[test]
    fn unused_prefetch_eviction_generates_useless_feedback() {
        let mut h = hier(1);
        // Fill one L1 set (64 sets, 8 ways) with conflicting prefetches plus
        // demand traffic so that an unused prefetched line gets evicted.
        let set_stride = 64; // lines per set cycle for 64-set L1
        let victim = LineAddr::new(7);
        let req = PrefetchRequest::new(victim, Pc::new(0x60), PrefetcherId(0));
        h.issue_prefetch(0, &req, 0);
        let mut t = 1_000;
        for i in 1..=16 {
            t = h.demand_access(0, LineAddr::new(7 + i * set_stride), t, false) + 1;
        }
        assert!(
            feedback(&mut h).iter().any(|f| !f.useful && f.line == victim),
            "victim should be reported useless"
        );
        assert!(h.quality(0).overpredicted >= 1);
    }

    #[test]
    fn only_prefetched_levels_allocate_attribution() {
        let mut h = hier(1);
        let attributed = |h: &Hierarchy| {
            let core = &h.cores[0];
            [core.l1d.holds_attribution(), core.l2.holds_attribution(), h.l3.holds_attribution()]
        };
        let mut t = 0;
        for i in 0..64u64 {
            t = h.demand_access(0, LineAddr::new(0x1000 + i * 64), t, i % 4 == 0) + 1;
        }
        assert!(h.l1_stats(0).evictions > 0, "demand traffic must evict");
        assert_eq!(attributed(&h), [false; 3]);
        // An L2-targeted prefetch from DRAM fills the L2 and the L3; only
        // the L2 records who issued it.
        let line = LineAddr::new(0x9_0000);
        let req = PrefetchRequest::new(line, Pc::new(0x40), PrefetcherId(0))
            .with_fill_level(FillLevel::L2);
        h.issue_prefetch(0, &req, t);
        assert_eq!(h.l2_stats(0).prefetch_fills, 1);
        assert!(h.l3.contains(line));
        assert_eq!(attributed(&h), [false, true, false]);
        // An L1-targeted one allocates the L1D's array; the L3 still has none.
        let line = LineAddr::new(0xa_0000);
        h.issue_prefetch(0, &PrefetchRequest::new(line, Pc::new(0x44), PrefetcherId(1)), t);
        assert_eq!(h.l1_stats(0).prefetch_fills, 1);
        assert!(h.l3.contains(line));
        assert_eq!(attributed(&h), [true, true, false]);
    }

    #[test]
    fn multicore_cores_are_isolated_in_private_levels() {
        let mut h = hier(2);
        let line = LineAddr::new(0x900);
        let done = h.demand_access(0, line, 0, false);
        // Core 1 misses its private caches but hits the shared L3.
        h.demand_access(1, line, done + 1, false);
        assert_eq!(h.l3_stats().demand_hits, 1);
        assert_eq!(h.l1_stats(1).demand_misses, 1);
        assert_eq!(h.l1_stats(0).demand_misses, 1);
    }

    #[test]
    fn dram_contention_increases_latency() {
        let mut h = hier(1);
        // Back-to-back cold misses at the same cycle queue in DRAM.
        let a = h.demand_access(0, LineAddr::new(0x10_000), 0, false);
        let b = h.demand_access(0, LineAddr::new(0x20_000), 0, false);
        assert!(b >= a, "second concurrent miss should not be faster");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_index_panics() {
        let mut h = hier(1);
        let _ = h.demand_access(3, LineAddr::new(1), 0, false);
    }

    #[test]
    fn timing_stats_account_every_demand_access() {
        let mut h = hier(1);
        let mut t = 0;
        let mut latency_sum = 0;
        for i in 0..10u64 {
            let done = h.demand_access(0, LineAddr::new(i * 1000), t, false);
            latency_sum += done - t;
            t = done + 1;
        }
        let stats = h.timing_stats(0);
        assert_eq!(stats.demand_accesses, 10);
        assert_eq!(stats.demand_latency_cycles, latency_sum);
        assert!(
            stats.avg_demand_latency() > f64::from(u32::try_from(h.params().l1d.latency).unwrap())
        );
    }

    #[test]
    fn miss_escalation_penalties_are_charged_per_level() {
        // An L2 hit costs the L1 miss penalty on top of the L2 latency; an
        // L3 hit additionally costs the L2 miss penalty.
        let mut h = hier(2);
        let line = LineAddr::new(0x5000);
        // Cold: DRAM. Then core 0 again: L1 hit, no penalty.
        let done = h.demand_access(0, line, 0, false);
        assert_eq!(h.demand_access(0, line, done + 1, false) - (done + 1), h.params().l1d.latency);
        // Core 1: misses its private levels, hits the shared L3.
        let l3_hit = h.demand_access(1, line, done + 2, false) - (done + 2);
        assert_eq!(h.l3_stats().demand_hits, 1);
        let p = h.params().clone();
        assert_eq!(
            l3_hit,
            p.l3.latency + p.l1d.miss_latency + p.l2.miss_latency + p.l1d.latency.min(4)
        );
    }

    #[test]
    fn bandwidth_bound_timing_throttles_dram_streams() {
        // The same burst of cold misses takes longer end-to-end under a
        // bandwidth-bound admission queue than under a latency-sensitive one,
        // and the queue's stall cycles show up in the per-core timing stats.
        // Consecutive lines stream across banks at the channel-bus rate
        // (~1/9 req/cycle on one DDR4 channel), so a 1/16 admission drain is
        // the binding constraint while the latency-sensitive drain is not.
        let run = |timing: crate::timing::TimingParams| {
            let mut h =
                Hierarchy::new(HierarchyParams { timing, ..HierarchyParams::skylake_like(1) });
            let mut done = 0;
            for i in 0..64u64 {
                done = done.max(h.demand_access(0, LineAddr::new(i), 0, false));
            }
            (done, h.timing_stats(0).dram_queue_cycles, h.dram_stats().accesses)
        };
        let (fast_done, fast_queue, fast_fills) =
            run(crate::timing::TimingParams::latency_sensitive());
        let (slow_done, slow_queue, slow_fills) =
            run(crate::timing::TimingParams::bandwidth_bound());
        assert_eq!(fast_fills, 64);
        assert_eq!(slow_fills, 64);
        assert!(
            slow_done > fast_done,
            "bandwidth-bound drain must stretch the burst ({slow_done} vs {fast_done})"
        );
        assert!(slow_queue > fast_queue, "queue stalls must be visible in timing stats");
    }
}
