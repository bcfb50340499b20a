//! The staged out-of-order pipeline (`CoreModelKind::OutOfOrder`): when a
//! [`crate::Core`] of that preset issues and retires each record.
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
use crate::lsq::LoadStoreQueue;
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

/// Timing state of one out-of-order core.
#[derive(Debug)]
pub(crate) struct OooPipeline {
    fetch_width: u64,
    rob: ReorderBuffer,
    lsq: LoadStoreQueue,
    branch: GsharePredictor,
    /// Cycle the next instruction group is fetched in.
    fetch_cycle: u64,
    /// Fetch slots already consumed within `fetch_cycle`.
    fetch_slots: u64,
}

impl OooPipeline {
    pub(crate) fn new(config: &SystemConfig) -> Self {
        Self {
            fetch_width: u64::from(config.fetch_width),
            rob: ReorderBuffer::new(config.rob_entries, config.commit_width),
            lsq: LoadStoreQueue::new(config.load_queue, config.store_queue),
            branch: GsharePredictor::new(),
            fetch_cycle: 0,
            fetch_slots: 0,
        }
    }

    /// The later of the fetch clock and the retirement frontier. Monotone.
    pub(crate) fn current_time(&self) -> f64 {
        self.rob.frontier().max(self.fetch_cycle) as f64
    }

    /// Consumes `count` fetch slots at `fetch_width` per cycle.
    fn advance_fetch(&mut self, count: u64) {
        let total = self.fetch_slots + count;
        self.fetch_cycle += total / self.fetch_width;
        self.fetch_slots = total % self.fetch_width;
    }

    /// Fetches `record`'s group, predicts its synthesised branch and waits
    /// for a free LSQ slot; returns the cycle the access can issue and
    /// whether the branch mispredicted.
    pub(crate) fn issue(
        &mut self,
        record: &MemoryRecord,
        hierarchy: &Hierarchy,
        core_id: usize,
    ) -> (u64, bool) {
        // --- Fetch: ROB space, then the group at fetch_width ----------------
        let gap = u64::from(record.gap_instructions);
        let room = self.rob.make_room(gap + 1);
        if room > self.fetch_cycle {
            self.fetch_cycle = room;
            self.fetch_slots = 0;
        }
        self.rob.sample_occupancy();
        self.advance_fetch(gap);

        // --- The synthesised conditional branch at the record boundary ------
        let mispredicted = self.branch.predict_and_train(record.pc.raw(), branch_outcome(record));

        // --- Issue: the LSQ slot ---------------------------------------------
        let ready = self.fetch_cycle + 1;
        let issue = if record.kind == AccessKind::Load {
            self.lsq.load_slot_ready(ready, hierarchy, core_id)
        } else {
            self.lsq.store_slot_ready(ready)
        };
        (issue, mispredicted)
    }

    /// Records the access in the LSQ and dispatches the record's group into
    /// the window, where it retires in order; a mispredict then squashes
    /// fetch.
    pub(crate) fn retire(
        &mut self,
        record: &MemoryRecord,
        issue: u64,
        completion: u64,
        mispredicted: bool,
    ) {
        let is_load = record.kind == AccessKind::Load;
        if is_load {
            self.lsq.push_load(record.addr.line(), completion);
        } else {
            self.lsq.push_store(completion);
        }
        // The fetch clock has not moved since `issue`, so it is the group's
        // dispatch cycle. Gap instructions are ready the cycle they dispatch;
        // a load's result is ready at its fill, a store commits without
        // waiting for its fill.
        self.rob.dispatch(u64::from(record.gap_instructions), self.fetch_cycle);
        self.rob.dispatch(1, if is_load { completion } else { issue });
        self.advance_fetch(1);
        if mispredicted {
            // Squash: the front end refills after the resolution bubble.
            self.fetch_cycle += MISPREDICT_PENALTY;
            self.fetch_slots = 0;
        }
    }

    /// Final cycle count: everything dispatched retires (the ROB drains).
    pub(crate) fn cycles(&self) -> u64 {
        self.rob.drain_cycle().max(self.fetch_cycle).max(1)
    }

    /// Branch MPKI over `instructions` and mean ROB occupancy.
    pub(crate) fn metrics(&self, instructions: u64) -> (Option<f64>, Option<f64>) {
        (Some(self.branch.mpki(instructions)), Some(self.rob.mean_occupancy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreModelKind;
    use crate::controller::PrefetchController;
    use crate::core_model::Core;
    use crate::metrics::CoreReport;
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
        let config = SystemConfig::skylake_like(1).with_core_model(CoreModelKind::OutOfOrder);
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
