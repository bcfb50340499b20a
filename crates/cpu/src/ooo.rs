//! The staged out-of-order core model (`CoreModelKind::OutOfOrder`).
//!
//! Integer-cycle pipeline built from three stages:
//!
//! * fetch — `fetch_width` instructions per cycle, stalled by a full
//!   [`ReorderBuffer`] and squashed by branch mispredicts;
//! * issue — loads and stores allocate [`LoadStoreQueue`] entries and go to
//!   the memory hierarchy immediately, so outstanding misses overlap up to
//!   the LQ/MSHR limits (pointer-chase steps still serialise on the chain
//!   producer's completion);
//! * retire — in-order at `commit_width` through the ROB; a load blocks
//!   retirement until its fill returns, a store drains post-commit.
//!
//! The trace carries no branch records, so each memory record synthesises
//! one conditional branch whose outcome is a pure hash of the record (see
//! [`branch_outcome`]); a gshare mispredict costs
//! [`crate::branch::MISPREDICT_PENALTY`] cycles of fetch squash and gates
//! that record's wrong-path prefetch triggers.

use alecto_types::{AccessKind, MemoryRecord};
use memsys::Hierarchy;

use crate::branch::{GsharePredictor, MISPREDICT_PENALTY};
use crate::config::SystemConfig;
use crate::controller::PrefetchController;
use crate::core_model::{ChainTable, CHAIN_TABLE_CAPACITY};
use crate::lsq::LoadStoreQueue;
use crate::metrics::CoreReport;
use crate::rob::ReorderBuffer;

/// Deterministic outcome of the conditional branch synthesised for `record`:
/// a multiplicative hash of the PC and address, biased ~87% taken so regular
/// code predicts well while irregular access streams still mispredict.
#[must_use]
pub fn branch_outcome(record: &MemoryRecord) -> bool {
    let h =
        (record.pc.raw() ^ record.addr.raw().rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> 61) != 0
}

/// Timing and bookkeeping state of one out-of-order core.
#[derive(Debug)]
pub struct OooCore {
    core_id: usize,
    fetch_width: u64,
    rob: ReorderBuffer,
    lsq: LoadStoreQueue,
    branch: GsharePredictor,
    /// Cycle the next instruction group is fetched in.
    fetch_cycle: u64,
    /// Fetch slots already consumed within `fetch_cycle`.
    fetch_slots: u64,
    instructions: u64,
    /// Completion cycle of the most recent *dependent* load per PC (bounded,
    /// deterministic FIFO eviction — shared policy with the Approx model).
    chain_completion: ChainTable<u64>,
    controller: PrefetchController,
    epoch_len: u64,
    epoch_instr_mark: u64,
    epoch_cycle_mark: u64,
}

impl OooCore {
    /// Creates an out-of-order core with the given id, configuration and
    /// prefetch controller.
    #[must_use]
    pub fn new(core_id: usize, config: &SystemConfig, controller: PrefetchController) -> Self {
        Self {
            core_id,
            fetch_width: u64::from(config.fetch_width),
            rob: ReorderBuffer::new(config.rob_entries, config.commit_width),
            lsq: LoadStoreQueue::new(config.load_queue, config.store_queue),
            branch: GsharePredictor::new(),
            fetch_cycle: 0,
            fetch_slots: 0,
            instructions: 0,
            chain_completion: ChainTable::new(CHAIN_TABLE_CAPACITY),
            controller,
            epoch_len: config.selector_epoch_instructions,
            epoch_instr_mark: 0,
            epoch_cycle_mark: 0,
        }
    }

    /// This core's id.
    #[must_use]
    pub const fn core_id(&self) -> usize {
        self.core_id
    }

    /// Current simulated time in cycles — the later of the fetch clock and
    /// the retirement frontier. Monotone; the multi-core drive loop uses it
    /// to keep cores in rough lockstep.
    #[must_use]
    pub fn current_time(&self) -> f64 {
        self.rob.frontier().max(self.fetch_cycle) as f64
    }

    /// Instructions dispatched (and eventually retired) so far.
    #[must_use]
    pub const fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Borrow of the attached prefetch controller.
    #[must_use]
    pub const fn controller(&self) -> &PrefetchController {
        &self.controller
    }

    /// Consumes `count` fetch slots at `fetch_width` per cycle.
    fn advance_fetch(&mut self, count: u64) {
        let total = self.fetch_slots + count;
        self.fetch_cycle += total / self.fetch_width;
        self.fetch_slots = total % self.fetch_width;
    }

    /// Advances the core over one trace record, performing the demand access
    /// and any resulting prefetches against `hierarchy`.
    pub fn step(&mut self, record: &MemoryRecord, hierarchy: &mut Hierarchy) {
        let gap = u64::from(record.gap_instructions);

        // --- Fetch: ROB space, then the group at fetch_width ----------------
        let room = self.rob.make_room(gap + 1);
        if room > self.fetch_cycle {
            self.fetch_cycle = room;
            self.fetch_slots = 0;
        }
        self.rob.sample_occupancy();
        self.advance_fetch(gap);
        let dispatch_cycle = self.fetch_cycle;

        // --- The synthesised conditional branch at the record boundary ------
        let mispredicted = self.branch.predict_and_train(record.pc.raw(), branch_outcome(record));

        // --- Issue: LSQ allocation, chain dependence, the demand access -----
        let is_load = record.kind == AccessKind::Load;
        let mut issue = dispatch_cycle + 1;
        issue = if is_load {
            self.lsq.load_slot_ready(issue, hierarchy, self.core_id)
        } else {
            self.lsq.store_slot_ready(issue)
        };
        if record.dependent {
            if let Some(ready) = self.chain_completion.get(record.pc.raw()) {
                issue = issue.max(ready);
            }
        }
        let demand = record.demand();
        let result = hierarchy.demand_access_kind(self.core_id, demand.line(), issue, !is_load);
        let completion = result.completion_cycle;
        if record.dependent {
            self.chain_completion.insert(record.pc.raw(), completion);
        }
        if is_load {
            self.lsq.push_load(demand.line(), completion);
        } else {
            self.lsq.push_store(completion);
        }

        // --- Prefetch triggers (gated on the wrong path) --------------------
        let requests = self.controller.on_demand_access(&demand);
        if !mispredicted {
            for (k, req) in requests.iter().enumerate() {
                // Prefetches trickle out of the prefetch queue one per cycle.
                let delay = u64::try_from(k).expect("prefetch queue index fits in u64");
                hierarchy.issue_prefetch(self.core_id, req, issue + 1 + delay);
            }
        }
        self.controller.forward_feedback(hierarchy);

        // --- Dispatch into the window ---------------------------------------
        // Gap instructions are ready the cycle they dispatch; a load's result
        // is ready at its fill, a store commits without waiting for its fill.
        self.rob.dispatch(gap, dispatch_cycle);
        self.rob.dispatch(1, if is_load { completion } else { issue });
        self.instructions += gap + 1;
        self.advance_fetch(1);
        if mispredicted {
            // Squash: the front end refills after the resolution bubble.
            self.fetch_cycle += MISPREDICT_PENALTY;
            self.fetch_slots = 0;
        }

        // --- Selector reward epochs -----------------------------------------
        if self.instructions - self.epoch_instr_mark >= self.epoch_len {
            let instr_delta = self.instructions - self.epoch_instr_mark;
            let frontier = self.rob.frontier().max(self.fetch_cycle);
            let cycle_delta = frontier.saturating_sub(self.epoch_cycle_mark).max(1);
            self.controller.on_epoch(instr_delta, cycle_delta);
            self.epoch_instr_mark = self.instructions;
            self.epoch_cycle_mark = frontier;
        }
    }

    /// Produces the per-core report after the trace has been consumed.
    #[must_use]
    pub fn report(&self, workload_name: &str, hierarchy: &Hierarchy) -> CoreReport {
        // Cycle count: everything dispatched retires (the ROB drains), and
        // IPC derives from the rounded integer so JSON consumers recomputing
        // instructions / cycles reproduce the report's own `ipc`.
        let cycles = self.rob.drain_cycle().max(self.fetch_cycle).max(1);
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
                .map(|(name, stats)| crate::metrics::PrefetcherReport {
                    name: name.to_string(),
                    stats,
                })
                .collect(),
            training_occurrences: self.controller.training_occurrences(),
            table_misses: self.controller.table_misses(),
            prefetches_issued: self.controller.stats().issued,
            branch_mpki: Some(self.branch.mpki(self.instructions)),
            rob_occupancy: Some(self.rob.mean_occupancy()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::SelectionAlgorithm;
    use alecto_types::{Addr, Pc};
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
        let mut core = OooCore::new(0, &config, controller);
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
        let trace = stream_trace(5_000, 60);
        let base = run(SelectionAlgorithm::NoPrefetching, &trace);
        let alecto = run(SelectionAlgorithm::Alecto, &trace);
        assert!(
            alecto.ipc > base.ipc * 1.05,
            "Alecto on a pure stream should clearly beat no-prefetching ({} vs {})",
            alecto.ipc,
            base.ipc
        );
    }

    #[test]
    fn report_carries_pipeline_metrics() {
        let report = run(SelectionAlgorithm::NoPrefetching, &stream_trace(2_000, 20));
        let mpki = report.branch_mpki.expect("OoO reports carry branch MPKI");
        assert!(mpki.is_finite() && mpki >= 0.0);
        let occ = report.rob_occupancy.expect("OoO reports carry ROB occupancy");
        assert!(occ.is_finite() && (0.0..=4096.0).contains(&occ));
        // IPC and cycles agree exactly (the v2 JSON contract).
        let recomputed = report.instructions as f64 / report.cycles as f64;
        assert!((report.ipc - recomputed).abs() < 1e-12);
    }

    #[test]
    fn dependent_chain_is_slower_than_independent_stream() {
        // Distinct lines spread across DRAM channels and banks, so the
        // independent variant can actually overlap its misses.
        let chase: Vec<MemoryRecord> = (0..2_000u64)
            .map(|i| {
                MemoryRecord::dependent_load(
                    Pc::new(0x500),
                    Addr::new(((i * 7919) % 100_000) * 64),
                    4,
                )
            })
            .collect();
        let indep: Vec<MemoryRecord> =
            chase.iter().map(|r| MemoryRecord::load(r.pc, r.addr, r.gap_instructions)).collect();
        let serial = run(SelectionAlgorithm::NoPrefetching, &chase);
        let overlapped = run(SelectionAlgorithm::NoPrefetching, &indep);
        assert!(
            serial.ipc < overlapped.ipc,
            "pointer chasing must serialise misses ({} vs {})",
            serial.ipc,
            overlapped.ipc
        );
    }

    #[test]
    fn identical_runs_are_identical() {
        let trace = stream_trace(1_500, 8);
        let a = run(SelectionAlgorithm::Alecto, &trace);
        let b = run(SelectionAlgorithm::Alecto, &trace);
        assert_eq!(a, b);
    }
}
