//! The per-core model: one [`Core`] for both timing presets.
//!
//! Every record takes the same path whichever preset runs it: the demand
//! access goes to the hierarchy, then to the prefetch controller, whose
//! requests are issued one per cycle behind it; usefulness feedback and
//! periodic epoch rewards flow back to the selector. Pointer-chase records
//! (`dependent`) cannot issue before the previous dependent load of their PC
//! completes. [`Core`] owns that path. What differs between the presets is
//! *when* a record issues and retires, which a private `Pipeline` answers:
//!
//! * Approx — the analytic model (fast; the sweep default). Instructions are
//!   fetched at `fetch_width` and retired in order at `commit_width` on
//!   fractional-cycle frontiers; loads issue as soon as they are fetched
//!   (subject to the load-queue size), overlap freely within the ROB window,
//!   and block retirement until their data returns. This captures the two
//!   effects the paper's evaluation depends on: memory-level parallelism
//!   inside the ROB window, and the full exposure of DRAM latency once the
//!   window fills behind a miss.
//! * OutOfOrder — the staged integer-cycle pipeline of [`crate::ooo`]: an
//!   explicit ROB, a load/store queue and a gshare predictor whose
//!   mispredicts squash fetch and gate the record's wrong-path prefetches.

use std::collections::{HashMap, VecDeque};

use alecto_types::{AccessKind, MemoryRecord};
use memsys::Hierarchy;

use crate::config::{CoreModelKind, SystemConfig};
use crate::controller::PrefetchController;
use crate::metrics::{CoreReport, PrefetcherReport};
use crate::ooo::OooPipeline;

/// Maximum distinct PCs tracked for pointer-chase serialisation.
///
/// Multi-gigabyte `.altr` replays can carry millions of distinct dependent
/// PCs; an unbounded map would grow with the trace. 4096 entries comfortably
/// cover every synthetic family and the hot chains of real traces while
/// keeping memory O(1) in trace length.
const CHAIN_TABLE_CAPACITY: usize = 4096;

/// Fixed-capacity PC → completion-cycle map with deterministic FIFO eviction.
///
/// Backed by a `HashMap` for O(1) lookup plus an insertion-order queue for
/// eviction. The map is never iterated, so hash order cannot leak into
/// simulation results; the eviction victim is always the *oldest first
/// inserted* key, which is a pure function of the record stream.
#[derive(Debug)]
struct ChainTable {
    map: HashMap<u64, u64>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl ChainTable {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "chain table needs at least one entry");
        Self { map: HashMap::new(), order: VecDeque::new(), capacity }
    }

    fn get(&self, key: u64) -> Option<u64> {
        self.map.get(&key).copied()
    }

    /// Inserts or updates `key`. A brand-new key beyond capacity first evicts
    /// the oldest inserted key; updating an existing key never evicts.
    fn insert(&mut self, key: u64, value: u64) {
        if self.map.insert(key, value).is_none() {
            if self.map.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
            self.order.push_back(key);
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }
}

/// One simulated core of the timing model [`SystemConfig::core_model`]
/// selects.
#[derive(Debug)]
pub struct Core {
    core_id: usize,
    pipeline: Pipeline,
    /// Instructions fetched so far; every one of them eventually retires.
    instructions: u64,
    /// Completion cycle of the most recent *dependent* load of each PC, used
    /// to serialise pointer-chase chains.
    chain_completion: ChainTable,
    /// The prefetch controller attached to this core's L1D.
    controller: PrefetchController,
    epoch_len: u64,
    epoch_instr_mark: u64,
    epoch_cycle_mark: f64,
}

impl Core {
    /// Creates core `core_id` with the timing model `config.core_model`
    /// selects and the given prefetch controller.
    #[must_use]
    pub fn new(core_id: usize, config: &SystemConfig, controller: PrefetchController) -> Self {
        let pipeline = match config.core_model {
            CoreModelKind::Approx => Pipeline::Approx(ApproxPipeline::new(config)),
            CoreModelKind::OutOfOrder => Pipeline::OutOfOrder(OooPipeline::new(config)),
        };
        Self {
            core_id,
            pipeline,
            instructions: 0,
            chain_completion: ChainTable::new(CHAIN_TABLE_CAPACITY),
            controller,
            epoch_len: config.selector_epoch_instructions,
            epoch_instr_mark: 0,
            epoch_cycle_mark: 0.0,
        }
    }

    /// The core's current simulated time in cycles. Monotone non-decreasing
    /// across [`Core::step`] calls; the multi-core drive loop orders cores by
    /// it to keep them in rough lockstep.
    #[must_use]
    pub fn current_time(&self) -> f64 {
        self.pipeline.current_time()
    }

    /// Borrow of the attached prefetch controller.
    #[must_use]
    pub const fn controller(&self) -> &PrefetchController {
        &self.controller
    }

    /// Advances the core over one trace record, performing the demand access
    /// and any resulting prefetches against `hierarchy`.
    pub fn step(&mut self, record: &MemoryRecord, hierarchy: &mut Hierarchy) {
        self.instructions += u64::from(record.gap_instructions) + 1;
        let (mut issue, mispredicted) =
            self.pipeline.issue(record, self.instructions, hierarchy, self.core_id);

        // --- Serial dependence (pointer chasing), then the demand access ----
        let pc = record.pc.raw();
        if record.dependent {
            if let Some(ready) = self.chain_completion.get(pc) {
                issue = issue.max(ready);
            }
        }
        let demand = record.demand();
        let is_store = record.kind == AccessKind::Store;
        let completion = hierarchy.demand_access(self.core_id, demand.line(), issue, is_store);
        if record.dependent {
            self.chain_completion.insert(pc, completion);
        }

        // --- Prefetching (a mispredicted record's triggers are wrong-path) --
        let requests = self.controller.on_demand_access(&demand);
        if !mispredicted {
            for (k, req) in requests.iter().enumerate() {
                // Prefetches trickle out of the prefetch queue one per cycle.
                let delay = u64::try_from(k).expect("prefetch queue index fits in u64");
                hierarchy.issue_prefetch(self.core_id, req, issue + 1 + delay);
            }
        }
        self.controller.forward_feedback(hierarchy);

        self.pipeline.retire(record, issue, completion, self.instructions, mispredicted);

        // --- Selector reward epochs -----------------------------------------
        if self.instructions - self.epoch_instr_mark >= self.epoch_len {
            let frontier = self.pipeline.frontier();
            let cycle_delta = (frontier - self.epoch_cycle_mark).max(1.0) as u64;
            self.controller.on_epoch(self.instructions - self.epoch_instr_mark, cycle_delta);
            self.epoch_instr_mark = self.instructions;
            self.epoch_cycle_mark = frontier;
        }
    }

    /// Produces the per-core report after the trace has been consumed.
    #[must_use]
    pub fn report(&self, workload_name: &str, hierarchy: &Hierarchy) -> CoreReport {
        // IPC derives from the integer cycle count, so a JSON consumer
        // recomputing `instructions / cycles` gets exactly the report's `ipc`.
        let cycles = self.pipeline.cycles();
        let (branch_mpki, rob_occupancy) = self.pipeline.metrics(self.instructions);
        CoreReport {
            workload: workload_name.to_string(),
            selector: self.controller.selector_name().to_string(),
            instructions: self.instructions,
            cycles,
            ipc: self.instructions as f64 / cycles as f64,
            timing: *hierarchy.timing_stats(self.core_id),
            l1: *hierarchy.l1_stats(self.core_id),
            l2: *hierarchy.l2_stats(self.core_id),
            quality: *hierarchy.quality(self.core_id),
            prefetchers: self
                .controller
                .table_stats()
                .into_iter()
                .map(|(name, stats)| PrefetcherReport { name: name.to_string(), stats })
                .collect(),
            training_occurrences: self.controller.training_occurrences(),
            table_misses: self.controller.table_misses(),
            prefetches_issued: self.controller.stats().issued,
            branch_mpki,
            rob_occupancy,
        }
    }
}

/// When a record issues and retires: the part of the timing the two presets
/// do not share.
#[derive(Debug)]
enum Pipeline {
    Approx(ApproxPipeline),
    OutOfOrder(OooPipeline),
}

impl Pipeline {
    /// Fetches `record` (`instructions` counts it already) and returns the
    /// cycle its access can issue, before chain dependence, and whether it
    /// sits on a mispredicted path.
    fn issue(
        &mut self,
        record: &MemoryRecord,
        instructions: u64,
        hierarchy: &Hierarchy,
        core_id: usize,
    ) -> (u64, bool) {
        match self {
            Self::Approx(p) => (p.issue(record, instructions), false),
            Self::OutOfOrder(p) => p.issue(record, hierarchy, core_id),
        }
    }

    /// Retires `record`, whose access issued at `issue` and completes at
    /// `completion`.
    fn retire(
        &mut self,
        record: &MemoryRecord,
        issue: u64,
        completion: u64,
        instructions: u64,
        mispredicted: bool,
    ) {
        match self {
            Self::Approx(p) => p.retire(record, completion, instructions),
            Self::OutOfOrder(p) => p.retire(record, issue, completion, mispredicted),
        }
    }

    /// Retirement frontier the selector's reward epochs are timed against.
    fn frontier(&self) -> f64 {
        match self {
            Self::Approx(p) => p.retire_time,
            Self::OutOfOrder(p) => p.current_time(),
        }
    }

    fn current_time(&self) -> f64 {
        match self {
            Self::Approx(p) => p.retire_time.max(p.fetch_time),
            Self::OutOfOrder(p) => p.current_time(),
        }
    }

    /// Final cycle count, at least 1.
    fn cycles(&self) -> u64 {
        match self {
            Self::Approx(p) => p.retire_time.max(1.0).ceil() as u64,
            Self::OutOfOrder(p) => p.cycles(),
        }
    }

    /// Branch MPKI and mean ROB occupancy; the analytic model has neither,
    /// so both stay null in its reports.
    fn metrics(&self, instructions: u64) -> (Option<f64>, Option<f64>) {
        match self {
            Self::Approx(_) => (None, None),
            Self::OutOfOrder(p) => p.metrics(instructions),
        }
    }
}

/// Timing state of the analytic (Approx) preset, in fractional cycles.
#[derive(Debug)]
struct ApproxPipeline {
    fetch_width: f64,
    commit_width: f64,
    rob_entries: u64,
    load_queue: usize,
    /// Time at which the next instruction can be fetched.
    fetch_time: f64,
    /// In-order retirement frontier.
    retire_time: f64,
    /// Retirement times of recent memory instructions, used to model the ROB
    /// occupancy limit (instruction i cannot fetch before instruction
    /// i - ROB_SIZE has retired).
    rob_window: VecDeque<(u64, f64)>,
    /// Completion times of in-flight loads (bounds MLP by the LQ size).
    inflight_loads: VecDeque<f64>,
}

impl ApproxPipeline {
    fn new(config: &SystemConfig) -> Self {
        Self {
            fetch_width: f64::from(config.fetch_width),
            commit_width: f64::from(config.commit_width),
            rob_entries: u64::try_from(config.rob_entries).expect("ROB size fits in u64"),
            load_queue: config.load_queue,
            fetch_time: 0.0,
            retire_time: 0.0,
            rob_window: VecDeque::with_capacity(64),
            inflight_loads: VecDeque::with_capacity(80),
        }
    }

    fn issue(&mut self, record: &MemoryRecord, instructions: u64) -> u64 {
        // --- Non-memory instructions preceding the access -------------------
        let gap = f64::from(record.gap_instructions);
        self.fetch_time += gap / self.fetch_width;
        self.retire_time = (self.retire_time + gap / self.commit_width).max(self.fetch_time);

        // --- ROB occupancy limit --------------------------------------------
        let oldest_allowed = instructions.saturating_sub(self.rob_entries);
        let mut rob_limit = 0.0f64;
        while let Some(&(idx, retire)) = self.rob_window.front() {
            if idx <= oldest_allowed {
                rob_limit = rob_limit.max(retire);
                self.rob_window.pop_front();
            } else {
                break;
            }
        }
        self.fetch_time = self.fetch_time.max(rob_limit);
        self.fetch_time += 1.0 / self.fetch_width;

        // --- Load-queue limit -------------------------------------------------
        if record.kind == AccessKind::Load {
            // Loads whose data has already returned free their queue entries.
            self.inflight_loads.retain(|&completion| completion > self.fetch_time);
            // A full queue stalls fetch until the *earliest-completing*
            // outstanding load returns. Completions are not monotonic in
            // issue order (an L1 hit issued after a DRAM miss returns first),
            // so the front entry is not the one that frees the queue.
            while self.inflight_loads.len() >= self.load_queue {
                let (idx, earliest) = self.inflight_loads.iter().copied().enumerate().fold(
                    (0, f64::INFINITY),
                    |best, (i, c)| if c < best.1 { (i, c) } else { best },
                );
                self.fetch_time = self.fetch_time.max(earliest);
                self.inflight_loads.remove(idx);
            }
        }
        // The chain wait `Core` applies next is a whole cycle, so rounding up
        // before it gives the same issue cycle as rounding up after it.
        self.fetch_time.ceil() as u64
    }

    fn retire(&mut self, record: &MemoryRecord, completion: u64, instructions: u64) {
        self.retire_time += 1.0 / self.commit_width;
        if record.kind == AccessKind::Load {
            let completion = completion as f64;
            self.retire_time = self.retire_time.max(completion);
            self.inflight_loads.push_back(completion);
        }
        self.rob_window.push_back((instructions, self.retire_time));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionAlgorithm;
    use alecto_types::{Addr, Pc};
    use machine::MachineSpec;
    use memsys::HierarchyParams;
    use prefetch::CompositeKind;

    fn stream_trace(n: u64, gap: u32) -> Vec<MemoryRecord> {
        (0..n)
            .map(|i| MemoryRecord::load(Pc::new(0x400), Addr::new(0x100_0000 + i * 64), gap))
            .collect()
    }

    fn run(algo: SelectionAlgorithm, records: &[MemoryRecord]) -> CoreReport {
        let config = SystemConfig::skylake_like(1);
        let controller = PrefetchController::new(CompositeKind::GsCsPmp, algo);
        let mut core = Core::new(0, &config, controller);
        let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
        for r in records {
            core.step(r, &mut hier);
        }
        core.report("test", &hier)
    }

    #[test]
    fn ipc_is_bounded_by_commit_width() {
        let report = run(SelectionAlgorithm::NoPrefetching, &stream_trace(2_000, 20));
        assert!(report.ipc > 0.0);
        assert!(report.ipc <= 4.0 + 1e-9, "IPC {} cannot exceed the commit width", report.ipc);
    }

    #[test]
    fn prefetching_improves_streaming_ipc() {
        // gap = 60 keeps the stream latency-bound (DRAM has bandwidth slack),
        // which is where prefetching pays off; a ~7-instruction gap would be
        // purely bandwidth-bound and prefetching could not help.
        let trace = stream_trace(5_000, 60);
        let base = run(SelectionAlgorithm::NoPrefetching, &trace);
        let alecto = run(SelectionAlgorithm::Alecto, &trace);
        let ipcp = run(SelectionAlgorithm::Ipcp, &trace);
        assert!(
            alecto.ipc > base.ipc * 1.05,
            "Alecto on a pure stream should clearly beat no-prefetching ({} vs {})",
            alecto.ipc,
            base.ipc
        );
        assert!(ipcp.ipc > base.ipc, "even static IPCP helps a pure stream");
        assert!(alecto.quality.covered_timely + alecto.quality.covered_untimely > 0);
    }

    #[test]
    fn bandwidth_bound_stream_is_not_hurt_by_prefetching() {
        // With only ~7 instructions per line the stream saturates the single
        // DDR4 channel; prefetching cannot help, but it must not waste
        // bandwidth and slow the core down much either.
        let trace = stream_trace(4_000, 6);
        let base = run(SelectionAlgorithm::NoPrefetching, &trace);
        let alecto = run(SelectionAlgorithm::Alecto, &trace);
        assert!(
            alecto.ipc > base.ipc * 0.9,
            "prefetching should not waste bandwidth on a saturated channel ({} vs {})",
            alecto.ipc,
            base.ipc
        );
    }

    #[test]
    fn compute_bound_workload_is_insensitive_to_prefetching() {
        // Re-touch the same few lines: everything hits in L1 after warm-up.
        let records: Vec<MemoryRecord> = (0..3_000)
            .map(|i| MemoryRecord::load(Pc::new(0x40), Addr::new(0x1000 + (i % 8) * 64), 30))
            .collect();
        let base = run(SelectionAlgorithm::NoPrefetching, &records);
        let pf = run(SelectionAlgorithm::Alecto, &records);
        let ratio = pf.ipc / base.ipc;
        assert!((0.95..=1.05).contains(&ratio), "compute-bound ratio should be ~1.0, got {ratio}");
    }

    #[test]
    fn memory_intensive_workload_has_lower_ipc_than_compute_bound() {
        // Random far-apart lines (every access a DRAM miss) vs dense reuse.
        let miss_heavy: Vec<MemoryRecord> = (0..2_000)
            .map(|i| MemoryRecord::load(Pc::new(0x44), Addr::new(((i * 7919) % 500_000) * 4096), 2))
            .collect();
        let reuse: Vec<MemoryRecord> = (0..2_000)
            .map(|i| MemoryRecord::load(Pc::new(0x48), Addr::new(0x2000 + (i % 4) * 64), 2))
            .collect();
        let a = run(SelectionAlgorithm::NoPrefetching, &miss_heavy);
        let b = run(SelectionAlgorithm::NoPrefetching, &reuse);
        assert!(
            a.ipc < b.ipc,
            "DRAM-bound IPC {} should be below cache-resident IPC {}",
            a.ipc,
            b.ipc
        );
    }

    #[test]
    fn report_carries_cycle_accounting() {
        let trace = stream_trace(2_000, 20);
        let report = run(SelectionAlgorithm::NoPrefetching, &trace);
        // Every record is one demand access, each with a non-zero latency.
        assert_eq!(report.timing.demand_accesses, 2_000);
        assert!(report.timing.demand_latency_cycles >= report.timing.demand_accesses * 4);
        let avg = report.avg_mem_latency();
        assert!(avg >= 4.0, "average latency {avg} cannot undercut the L1 hit latency");
        // A DRAM-bound stream's average must clearly exceed the L1 latency.
        assert!(avg > 8.0, "a cold stream must show off-chip latency, got {avg}");
    }

    #[test]
    fn bandwidth_bound_timing_lowers_streaming_ipc() {
        // The same stream under a throttled DRAM admission queue must retire
        // slower and expose a higher average memory latency.
        let trace = stream_trace(4_000, 6);
        let run_with = |timing: memsys::TimingParams| {
            let config = SystemConfig::from_machine(&MachineSpec::table1(1).with_timing(timing));
            let controller =
                PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
            let mut core = Core::new(0, &config, controller);
            let mut hier = Hierarchy::new(config.hierarchy.clone());
            for r in &trace {
                core.step(r, &mut hier);
            }
            core.report("stream", &hier)
        };
        let fast = run_with(memsys::TimingParams::latency_sensitive());
        let slow = run_with(memsys::TimingParams::bandwidth_bound());
        assert!(
            slow.ipc < fast.ipc * 0.9,
            "bandwidth-bound drain must cost IPC ({} vs {})",
            slow.ipc,
            fast.ipc
        );
        assert!(slow.avg_mem_latency() > fast.avg_mem_latency());
        assert!(slow.timing.dram_queue_cycles > fast.timing.dram_queue_cycles);
    }

    #[test]
    fn instructions_account_for_gaps() {
        let trace = stream_trace(100, 9);
        let report = run(SelectionAlgorithm::NoPrefetching, &trace);
        assert_eq!(report.instructions, 100 * 10);
        assert_eq!(report.workload, "test");
        assert_eq!(report.selector, "NoPrefetch");
    }

    #[test]
    fn ipc_is_derived_from_the_reported_cycle_count() {
        // The report's `ipc` and `cycles` must agree exactly: a consumer
        // recomputing instructions / cycles from the (integer) JSON fields
        // reproduces the report's own `ipc`.
        for gap in [2u32, 20, 60] {
            let report = run(SelectionAlgorithm::Alecto, &stream_trace(2_000, gap));
            let recomputed = report.instructions as f64 / report.cycles as f64;
            assert!(
                (report.ipc - recomputed).abs() < 1e-12,
                "ipc {} must equal instructions/cycles {recomputed}",
                report.ipc
            );
        }
    }

    #[test]
    fn load_queue_never_exceeds_capacity() {
        // The queue frees the earliest-completing entry on a stall and never
        // transiently holds more than `load_queue` completions.
        let config = SystemConfig::skylake_like(1);
        let controller =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        let mut core = Core::new(0, &config, controller);
        let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
        // Zero-gap DRAM-bound loads keep the queue saturated.
        for r in &stream_trace(4_000, 0) {
            core.step(r, &mut hier);
            let Pipeline::Approx(pipeline) = &core.pipeline else { unreachable!("Approx preset") };
            assert!(
                pipeline.inflight_loads.len() <= config.load_queue,
                "load queue holds {} entries, capacity {}",
                pipeline.inflight_loads.len(),
                config.load_queue
            );
        }
    }

    #[test]
    fn chain_table_len_stays_bounded_on_a_million_distinct_pcs() {
        // RSS proxy for the unbounded-growth regression: a synthetic stream
        // of 1M distinct dependent PCs must leave the map at its fixed
        // capacity, not at 1M entries.
        let mut table = ChainTable::new(CHAIN_TABLE_CAPACITY);
        for pc in 0..1_000_000u64 {
            table.insert(pc, pc);
            assert!(table.len() <= CHAIN_TABLE_CAPACITY);
        }
        assert_eq!(table.len(), CHAIN_TABLE_CAPACITY);
        // FIFO eviction: the oldest keys are gone, the newest survive.
        assert!(table.get(0).is_none());
        assert!(table.get(999_999).is_some());
        // Updating an existing key neither grows the map nor evicts.
        table.insert(999_999, 1);
        assert_eq!(table.len(), CHAIN_TABLE_CAPACITY);
        assert_eq!(table.get(999_999), Some(1));
    }

    #[test]
    fn dependent_stream_with_many_pcs_keeps_the_core_chain_bounded() {
        // End-to-end flavour of the same regression: distinct dependent PCs
        // flowing through `step` must not grow core state without bound.
        let config = SystemConfig::skylake_like(1);
        let controller =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        let mut core = Core::new(0, &config, controller);
        let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
        let distinct = u64::try_from(CHAIN_TABLE_CAPACITY).unwrap() * 3;
        for i in 0..distinct {
            let r = MemoryRecord::dependent_load(Pc::new(i * 4), Addr::new(0x10_0000 + i * 64), 2);
            core.step(&r, &mut hier);
        }
        assert_eq!(core.chain_completion.len(), CHAIN_TABLE_CAPACITY);
        assert_eq!(core.instructions, distinct * 3);
    }

    #[test]
    fn both_pipelines_honour_the_core_contract() {
        for kind in [CoreModelKind::Approx, CoreModelKind::OutOfOrder] {
            let config = SystemConfig::skylake_like(1).with_core_model(kind);
            let controller =
                PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
            let mut core = Core::new(0, &config, controller);
            let mut hier = Hierarchy::new(HierarchyParams::skylake_like(1));
            let mut last_time = 0.0f64;
            for i in 0..500u64 {
                let r = MemoryRecord::load(Pc::new(0x40), Addr::new(0x8000 + i * 64), 3);
                core.step(&r, &mut hier);
                let now = core.current_time();
                assert!(now >= last_time, "{kind:?}: time went backwards");
                last_time = now;
            }
            let report = core.report("w", &hier);
            assert_eq!(report.instructions, 500 * 4);
            assert!(report.cycles >= 1);
            assert!(report.ipc > 0.0 && report.ipc.is_finite());
            // The nullable pipeline metrics are the presets' signature.
            assert_eq!(report.branch_mpki.is_some(), kind == CoreModelKind::OutOfOrder);
            assert_eq!(report.rob_occupancy.is_some(), kind == CoreModelKind::OutOfOrder);
        }
    }

    #[test]
    fn report_contains_prefetcher_breakdown() {
        let report = run(SelectionAlgorithm::Ipcp, &stream_trace(1_000, 4));
        assert_eq!(report.prefetchers.len(), 3);
        assert!(report.prefetchers.iter().any(|p| p.stats.trainings > 0));
        assert!(report.training_occurrences > 0);
        assert!(report.prefetches_issued > 0);
    }
}
