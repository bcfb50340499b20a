//! Banked, channelled DRAM timing model.
//!
//! Each 64 B line fill is mapped to a (channel, rank, bank) by line address,
//! pays row-buffer-aware activation/column latencies, queues behind earlier
//! requests to the same bank, and occupies the channel data bus for one burst.
//! This captures the two DRAM effects the paper's evaluation depends on:
//! limited bandwidth (prefetch over-aggressiveness hurts, Fig. 16) and
//! bank-level parallelism (MLP helps).

use alecto_types::LineAddr;

use crate::config::DramParams;
use crate::stats::Cycle;

/// Banks per rank (Table I: 8).
pub const BANKS_PER_RANK: usize = 8;

/// Core clock frequency in GHz, which converts DRAM nanoseconds to cycles.
const CORE_GHZ: f64 = 2.5;

/// Row activate latency (tRCD) in nanoseconds.
const TRCD_NS: f64 = 14.0;

/// Column access latency (tCAS) in nanoseconds.
const TCAS_NS: f64 = 14.0;

/// Precharge latency (tRP) in nanoseconds.
const TRP_NS: f64 = 14.0;

/// Row activate latency in core cycles.
const ACT_CYCLES: u64 = ns_to_cycles(TRCD_NS);

/// Column access latency in core cycles.
const CAS_CYCLES: u64 = ns_to_cycles(TCAS_NS);

/// Precharge latency in core cycles.
const PRE_CYCLES: u64 = ns_to_cycles(TRP_NS);

/// Row-buffer size in bytes.
const ROW_BYTES: u64 = 8 * 1024;

/// Converts nanoseconds to core cycles at [`CORE_GHZ`] (rounded up, at
/// least 1).
#[must_use]
pub(crate) const fn ns_to_cycles(ns: f64) -> u64 {
    let cycles = ns * CORE_GHZ;
    // `f64::ceil` is not a `const fn` at the workspace's minimum Rust
    // version, so round up by hand; the cast saturates like `ceil() as u64`.
    let whole = cycles as u64;
    let up = if (whole as f64) < cycles { whole.saturating_add(1) } else { whole };
    if up == 0 {
        1
    } else {
        up
    }
}

/// Statistics kept by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total line transfers serviced.
    pub accesses: u64,
    /// Accesses that hit in an open row buffer.
    pub row_hits: u64,
    /// Accesses that required an activate (row miss).
    pub row_misses: u64,
    /// Total cycles spent queued behind bank/bus conflicts.
    pub queue_cycles: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    busy_until: Cycle,
    open_row: Option<u64>,
}

/// The DRAM timing model.
#[derive(Debug, Clone)]
pub struct DramModel {
    params: DramParams,
    banks: Vec<BankState>,
    channel_busy_until: Vec<Cycle>,
    /// Portion of each channel's backlog that consists of queued prefetch
    /// transfers; demand accesses are allowed to bypass it (memory-controller
    /// read priority over best-effort prefetches).
    prefetch_backlog: Vec<Cycle>,
    stats: DramStats,
    /// One line's transfer time on a channel, which the DRAM kind sets.
    burst_cycles: u64,
}

impl DramModel {
    /// Builds a DRAM model from its parameters.
    #[must_use]
    pub fn new(params: DramParams) -> Self {
        let total_banks = params.total_banks();
        Self {
            burst_cycles: params.burst_cycles(),
            banks: vec![BankState::default(); total_banks],
            channel_busy_until: vec![0; params.channels],
            prefetch_backlog: vec![0; params.channels],
            params,
            stats: DramStats::default(),
        }
    }

    /// Configuration in use.
    #[must_use]
    pub const fn params(&self) -> &DramParams {
        &self.params
    }

    /// Accumulated statistics.
    #[must_use]
    pub const fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn map(&self, line: LineAddr) -> (usize, usize, u64) {
        // Interleave consecutive lines across channels, then banks, to expose
        // bank-level parallelism for streaming patterns.
        let raw = line.raw();
        let channel = (raw as usize) % self.params.channels;
        let per_channel_banks = self.params.ranks_per_channel * BANKS_PER_RANK;
        let bank_in_channel = ((raw / self.params.channels as u64) as usize) % per_channel_banks;
        let bank = channel * per_channel_banks + bank_in_channel;
        let lines_per_row = ROW_BYTES / alecto_types::CACHE_LINE_BYTES;
        let row = raw / (lines_per_row * self.params.channels as u64 * per_channel_banks as u64);
        (channel, bank, row)
    }

    /// Services a *demand* line fill arriving at `now`; returns the cycle at
    /// which the data has been fully transferred to the LLC. Demand accesses
    /// may bypass queued prefetch transfers on the channel bus.
    pub fn access(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        self.access_with_kind(line, now, false)
    }

    /// Services a *prefetch* line fill arriving at `now`. Prefetch transfers
    /// only use bandwidth left over by demand traffic: they queue at the tail
    /// of the channel and are pushed back whenever a demand bypasses them.
    pub fn access_prefetch(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        self.access_with_kind(line, now, true)
    }

    fn access_with_kind(&mut self, line: LineAddr, now: Cycle, is_prefetch: bool) -> Cycle {
        let (channel, bank, row) = self.map(line);
        self.stats.accesses += 1;

        let bank_state = &mut self.banks[bank];
        let start = now.max(bank_state.busy_until);
        let queued = start - now;

        let array_latency = match bank_state.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                CAS_CYCLES
            }
            Some(_) => {
                self.stats.row_misses += 1;
                PRE_CYCLES + ACT_CYCLES + CAS_CYCLES
            }
            None => {
                self.stats.row_misses += 1;
                ACT_CYCLES + CAS_CYCLES
            }
        };
        bank_state.open_row = Some(row);

        // Data must also win the channel bus for one burst. Demands may jump
        // ahead of any queued prefetch transfers (whose work is still owed —
        // the channel stays busy for it), prefetches join at the tail.
        let data_ready = start + array_latency;
        let channel_busy = self.channel_busy_until[channel];
        let backlog = self.prefetch_backlog[channel].min(channel_busy.saturating_sub(now));
        let effective_busy =
            if is_prefetch { channel_busy } else { channel_busy.saturating_sub(backlog) };
        let bus_start = data_ready.max(effective_busy);
        let bus_queue = bus_start - data_ready;
        let completion = bus_start + self.burst_cycles;
        let new_busy = channel_busy.max(bus_start) + self.burst_cycles;

        bank_state.busy_until = completion;
        self.channel_busy_until[channel] = new_busy;
        let new_backlog = if is_prefetch { backlog + self.burst_cycles } else { backlog };
        self.prefetch_backlog[channel] = new_backlog.min(new_busy.saturating_sub(now));
        self.stats.queue_cycles += queued + bus_queue;
        completion
    }

    /// Backlog of the channel that `line` maps to, measured in burst slots
    /// (how many line transfers are already queued ahead of an access issued
    /// at `now`). Memory controllers use exactly this signal to drop or
    /// deprioritise prefetch traffic under load.
    #[must_use]
    pub fn queue_pressure(&self, line: LineAddr, now: Cycle) -> f64 {
        let (channel, _, _) = self.map(line);
        let busy = self.channel_busy_until[channel];
        if busy > now {
            (busy - now) as f64 / self.burst_cycles as f64
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramKind;

    fn model(kind: DramKind) -> DramModel {
        DramModel::new(DramParams::for_cores(kind, 1))
    }

    #[test]
    fn first_access_pays_activation() {
        let mut d = model(DramKind::Ddr4_2400);
        let done = d.access(LineAddr::new(0), 0);
        // Activation + column access + one burst on an idle bank and bus.
        let p = *d.params();
        assert_eq!(done, ACT_CYCLES + CAS_CYCLES + p.burst_cycles());
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = model(DramKind::Ddr4_2400);
        let first = d.access(LineAddr::new(0), 0);
        // Same bank (8 banks, single channel: line 8 maps back to bank 0) and
        // same row; access much later so there is no queueing.
        let start = first + 10_000;
        let hit_done = d.access(LineAddr::new(8), start) - start;
        // Same bank, different row.
        let far = LineAddr::new(8 * 128 * 100);
        let start2 = start + 10_000;
        let miss_done = d.access(far, start2) - start2;
        assert!(hit_done < miss_done, "row hit {hit_done} should beat row conflict {miss_done}");
        assert!(d.stats().row_hits >= 1);
    }

    #[test]
    fn same_bank_requests_queue() {
        let mut d = model(DramKind::Ddr4_2400);
        // Two accesses to the same line map to the same bank and row.
        let a = d.access(LineAddr::new(0), 0);
        let b = d.access(LineAddr::new(0), 0);
        assert!(b > a);
        assert!(d.stats().queue_cycles > 0);
    }

    #[test]
    fn ddr4_faster_than_ddr3_under_load() {
        let mut d3 = model(DramKind::Ddr3_1600);
        let mut d4 = model(DramKind::Ddr4_2400);
        let mut done3 = 0;
        let mut done4 = 0;
        for i in 0..256 {
            done3 = d3.access(LineAddr::new(i), 0);
            done4 = d4.access(LineAddr::new(i), 0);
        }
        assert!(done4 < done3, "DDR4 should drain a burst of fills sooner ({done4} vs {done3})");
    }

    #[test]
    fn multichannel_increases_throughput() {
        // The same burst of fills drains over 3x sooner on the 8-core
        // configuration's four channels than on one channel.
        let drain = |cores: usize| {
            let mut d = DramModel::new(DramParams::for_cores(DramKind::Ddr4_2400, cores));
            (0..256).map(|i| d.access(LineAddr::new(i), 0)).max().unwrap_or(0)
        };
        let (single, quad) = (drain(1), drain(8));
        assert!(3 * quad < single, "one channel {single} vs four channels {quad} cycles");
    }

    #[test]
    fn consecutive_lines_spread_over_banks() {
        // A bank serves its accesses one after another, each costing at
        // least a column access, so a burst of 64 consecutive lines that
        // drains before eight column accesses has used more than 8 banks.
        let mut d = DramModel::new(DramParams::for_cores(DramKind::Ddr4_2400, 8));
        let done = (0..64).map(|i| d.access(LineAddr::new(i), 0)).max().unwrap_or(0);
        let eight_in_one_bank = 8 * CAS_CYCLES;
        assert!(
            done < eight_in_one_bank,
            "64 consecutive lines should hit many banks: {done} >= {eight_in_one_bank} cycles"
        );
    }

    #[test]
    fn channel_pressure_reports_backlog() {
        let mut d = model(DramKind::Ddr4_2400);
        for i in 0..32 {
            d.access(LineAddr::new(i * 2), 0);
        }
        // One channel: every line sees the same backlog.
        assert!(d.queue_pressure(LineAddr::new(0), 0) > 1.0);
        // Far in the future the backlog has drained.
        assert_eq!(d.queue_pressure(LineAddr::new(0), 1_000_000), 0.0);
    }
}
