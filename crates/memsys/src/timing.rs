//! Cycle-level timing knobs and bookkeeping shared by the whole hierarchy:
//! the DRAM admission (bandwidth) queue, and the per-core timing statistics
//! that turn the hit/miss counters into cycles, IPC and average memory-access
//! latency.
//!
//! The pieces here are *pure bookkeeping over the deterministic access
//! stream*: they never reorder requests or consult any global state, so the
//! serial-vs-parallel byte-identical determinism contract of the experiment
//! engine is preserved — timing makes runs slower or faster in simulated
//! cycles, never different.
//!
//! [`TimingParams`] lives inside the system configuration, so every knob
//! here reaches the harness cell cache's content-addressed key through the
//! config's `Debug` rendering: changing a drain rate or a latency invalidates
//! exactly the cached cells it would have changed (see `docs/ARCHITECTURE.md`,
//! "The determinism contract").

use crate::stats::Cycle;

/// System-level timing parameters beyond the per-level latencies carried by
/// [`crate::CacheParams`] (hit latency + miss escalation penalty per level).
///
/// The DRAM admission queue models the memory controller's front end: at most
/// `dram_drain_requests` line fills enter the DRAM banks per
/// `dram_drain_period` cycles. Requests beyond that rate queue — demand
/// traffic included — which is what makes bandwidth-bound configurations
/// visibly bandwidth-bound instead of hiding everything behind bank timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Requests admitted to DRAM per drain period.
    pub dram_drain_requests: u32,
    /// Length of the drain period in core cycles.
    pub dram_drain_period: u32,
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::balanced()
    }
}

impl TimingParams {
    /// The default controller: two line fills admitted per cycle — generous
    /// enough that the queue only binds under heavy multi-core pressure.
    #[must_use]
    pub const fn balanced() -> Self {
        Self { dram_drain_requests: 2, dram_drain_period: 1 }
    }

    /// A latency-sensitive configuration: a wide front end (four admissions
    /// per cycle) that essentially never queues, so load-to-use latency is
    /// dominated by the array/bank latencies.
    #[must_use]
    pub const fn latency_sensitive() -> Self {
        Self { dram_drain_requests: 4, dram_drain_period: 1 }
    }

    /// A bandwidth-bound configuration: one admission every sixteen cycles —
    /// slower than a single DDR4 channel's ~9-cycle burst rate, so the
    /// admission queue (not the banks) becomes the limiter. Streaming
    /// workloads saturate this immediately, which is the regime the `timing`
    /// experiment uses to separate bandwidth- from latency-limited behaviour.
    #[must_use]
    pub const fn bandwidth_bound() -> Self {
        Self { dram_drain_requests: 1, dram_drain_period: 16 }
    }

    /// Checks that the drain rate is well-formed (at least one request per
    /// period, non-zero period).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.dram_drain_requests == 0 {
            return Err("DRAM queue must drain at least one request per period".to_string());
        }
        if self.dram_drain_period == 0 {
            return Err("DRAM queue drain period must be at least one cycle".to_string());
        }
        Ok(())
    }
}

/// A rate-limited admission queue: at most `drain_requests` requests enter
/// per `drain_period` cycles, in arrival order. Arrival order is the drive
/// loop's deterministic call order, so the queue adds no nondeterminism.
#[derive(Debug, Clone)]
pub struct BandwidthQueue {
    params: TimingParams,
    /// Start cycle of the drain period currently being filled.
    period_start: Cycle,
    /// Admissions already granted inside that period.
    admitted_in_period: u32,
}

impl BandwidthQueue {
    /// Builds a queue with the given drain rate.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`TimingParams::validate`]).
    #[must_use]
    pub fn new(params: TimingParams) -> Self {
        params.validate().unwrap_or_else(|e| panic!("invalid timing parameters: {e}"));
        Self { params, period_start: 0, admitted_in_period: 0 }
    }

    /// Parameters in use.
    #[must_use]
    pub const fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Admits a request arriving at `now` and returns the cycle at which it
    /// actually enters DRAM (`>= now`). The difference is the bandwidth
    /// stall, which the hierarchy adds to the demanding core's
    /// [`TimingStats::dram_queue_cycles`].
    pub fn admit(&mut self, now: Cycle) -> Cycle {
        let period = Cycle::from(self.params.dram_drain_period);
        // The queue's backlog frontier never moves backwards; a request
        // arriving after the current period simply starts a fresh one.
        if now >= self.period_start + period {
            self.period_start = now;
            self.admitted_in_period = 0;
        }
        if self.admitted_in_period >= self.params.dram_drain_requests {
            // Current period is full: the request waits for the next one.
            self.period_start += period;
            self.admitted_in_period = 0;
        }
        self.admitted_in_period += 1;
        self.period_start.max(now)
    }
}

/// Per-core cycle accounting over the demand stream: every demand access'
/// load-to-use latency, plus the breakdown of where stall cycles came from.
/// Summed by the CPU model into total cycles, IPC and average memory-access
/// latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Demand accesses observed (loads and stores).
    pub demand_accesses: u64,
    /// Sum of load-to-use latencies over all demand accesses, in cycles.
    pub demand_latency_cycles: u64,
    /// Cycles demand accesses stalled because every MSHR was busy.
    pub mshr_stall_cycles: u64,
    /// Cycles demand accesses waited in the DRAM admission queue.
    pub dram_queue_cycles: u64,
}

impl TimingStats {
    /// Average load-to-use latency per demand access, in cycles (0 when no
    /// accesses were observed).
    #[must_use]
    pub fn avg_demand_latency(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_latency_cycles as f64 / self.demand_accesses as f64
        }
    }

    /// Merges another record into this one (aggregating across cores).
    pub fn merge(&mut self, other: &TimingStats) {
        self.demand_accesses += other.demand_accesses;
        self.demand_latency_cycles += other.demand_latency_cycles;
        self.mshr_stall_cycles += other.mshr_stall_cycles;
        self.dram_queue_cycles += other.dram_queue_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_drain_rate() {
        // The cycle at which a queue admits the last of a same-cycle burst.
        let drain = |params| {
            let mut q = BandwidthQueue::new(params);
            (0..64).map(|_| q.admit(0)).max().unwrap_or(0)
        };
        assert!(drain(TimingParams::latency_sensitive()) < drain(TimingParams::balanced()));
        assert!(drain(TimingParams::balanced()) < drain(TimingParams::bandwidth_bound()));
        for p in [
            TimingParams::balanced(),
            TimingParams::latency_sensitive(),
            TimingParams::bandwidth_bound(),
        ] {
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn validate_rejects_degenerate_rates() {
        assert!(TimingParams { dram_drain_requests: 0, dram_drain_period: 1 }
            .validate()
            .unwrap_err()
            .contains("at least one request"));
        assert!(TimingParams { dram_drain_requests: 1, dram_drain_period: 0 }
            .validate()
            .unwrap_err()
            .contains("period"));
    }

    #[test]
    #[should_panic(expected = "invalid timing parameters")]
    fn queue_rejects_invalid_params() {
        let _ = BandwidthQueue::new(TimingParams { dram_drain_requests: 0, dram_drain_period: 1 });
    }

    #[test]
    fn queue_admits_within_rate_without_delay() {
        // 2 per cycle: the first two requests of each cycle pass through.
        let mut q =
            BandwidthQueue::new(TimingParams { dram_drain_requests: 2, dram_drain_period: 1 });
        assert_eq!(q.admit(10), 10);
        assert_eq!(q.admit(10), 10);
        // The third request of the cycle waits for the next one.
        assert_eq!(q.admit(10), 11);
    }

    #[test]
    fn queue_delays_excess_requests_to_later_periods() {
        let mut q =
            BandwidthQueue::new(TimingParams { dram_drain_requests: 1, dram_drain_period: 4 });
        assert_eq!(q.admit(0), 0); // fills period [0, 4)
        assert_eq!(q.admit(0), 4); // next period
        assert_eq!(q.admit(0), 8);
        assert_eq!(q.admit(1), 12); // still queued behind the backlog
    }

    #[test]
    fn queue_backlog_drains_when_idle() {
        let mut q =
            BandwidthQueue::new(TimingParams { dram_drain_requests: 1, dram_drain_period: 4 });
        assert_eq!(q.admit(0), 0);
        assert_eq!(q.admit(0), 4);
        // Long after the backlog drained, a request passes straight through.
        assert_eq!(q.admit(100), 100);
        // Arrivals inside a fresh period still respect the rate.
        assert_eq!(q.admit(101), 104);
    }

    #[test]
    fn timing_stats_average_and_merge() {
        let mut a = TimingStats {
            demand_accesses: 4,
            demand_latency_cycles: 40,
            mshr_stall_cycles: 3,
            dram_queue_cycles: 5,
        };
        assert!((a.avg_demand_latency() - 10.0).abs() < 1e-12);
        let b = TimingStats {
            demand_accesses: 1,
            demand_latency_cycles: 60,
            mshr_stall_cycles: 1,
            dram_queue_cycles: 2,
        };
        a.merge(&b);
        assert_eq!(a.demand_accesses, 5);
        assert!((a.avg_demand_latency() - 20.0).abs() < 1e-12);
        assert_eq!(a.mshr_stall_cycles, 4);
        assert_eq!(a.dram_queue_cycles, 7);
        assert_eq!(TimingStats::default().avg_demand_latency(), 0.0);
    }
}
