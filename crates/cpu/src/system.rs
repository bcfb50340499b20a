//! The multi-core [`System`]: one [`Core`] per core (in the timing preset
//! [`SystemConfig::core_model`] selects), a shared [`memsys::Hierarchy`],
//! and a round-robin-by-time scheduler that keeps the cores in rough lockstep
//! so that shared-resource contention (L3, DRAM channels) is modelled
//! faithfully.
//!
//! Records reach the drive loop one way: [`System::run_sources`], where each
//! core replays its own [`TraceSource`] inline, in batches of
//! [`DEFAULT_BATCH_RECORDS`].

use std::fmt;
use std::iter::Flatten;

use alecto_types::{MemoryRecord, RecordBatches, TraceSource};
use memsys::Hierarchy;
use prefetch::CompositeKind;

use crate::config::SystemConfig;
use crate::controller::PrefetchController;
use crate::core_model::Core;
use crate::metrics::SystemReport;
use crate::selection::SelectionAlgorithm;

/// Records per batch a core pulls from its source at a time. Matches the
/// `.altr` block size, so a batch of a replayed trace is one decoded block.
pub const DEFAULT_BATCH_RECORDS: usize = 4096;

/// Validation error from [`System::run_sources`]: the run cannot start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The source list was empty — there is nothing to assign to the cores.
    NoSources,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoSources => f.write_str("at least one workload is required"),
        }
    }
}

impl std::error::Error for RunError {}

/// A complete simulated system.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
    hierarchy: Hierarchy,
    cores: Vec<Core>,
}

impl System {
    /// Builds a system with `config`, running `algorithm` over `composite` on
    /// every core.
    #[must_use]
    pub fn new(
        config: SystemConfig,
        algorithm: SelectionAlgorithm,
        composite: CompositeKind,
    ) -> Self {
        let hierarchy = Hierarchy::new(config.hierarchy.clone());
        let cores = (0..config.cores)
            .map(|id| Core::new(id, &config, PrefetchController::new(composite, algorithm)))
            .collect();
        Self { config, algorithm, composite, hierarchy, cores }
    }

    /// Configuration in use.
    #[must_use]
    pub const fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The selection algorithm being simulated.
    #[must_use]
    pub const fn algorithm(&self) -> SelectionAlgorithm {
        self.algorithm
    }

    /// Runs the system to completion over one lazy [`TraceSource`] per core
    /// and returns the report. Sources are assigned to cores in order; if
    /// fewer sources than cores are provided, the assignment wraps around
    /// (homogeneous mixes simply pass a single source). Records are generated
    /// on demand, so trace memory stays O(1) however long the run.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::NoSources`] if `sources` is empty.
    pub fn run_sources(&mut self, sources: &[TraceSource]) -> Result<SystemReport, RunError> {
        if sources.is_empty() {
            return Err(RunError::NoSources);
        }
        let assigned = |i: usize| &sources[i % sources.len()];
        let names: Vec<&str> = (0..self.cores.len()).map(|i| assigned(i).name()).collect();
        // Each core replays its own iterator, even when several cores share
        // one source (homogeneous mixes).
        let streams = (0..self.cores.len())
            .map(|i| assigned(i).record_batches(DEFAULT_BATCH_RECORDS).flatten())
            .collect();
        Ok(self.drive(&names, streams))
    }

    /// Advances the core with the smallest local time that still has trace
    /// left, so cores interleave their accesses to the shared levels in
    /// approximate timestamp order. Only one record per core is ever held in
    /// memory — the whole point of the streaming data path.
    fn drive(&mut self, names: &[&str], mut streams: Vec<RecordStream>) -> SystemReport {
        // Single-core fast path: with one stream the min-time merge always
        // selects core 0, so step straight through the records and skip the
        // per-record scan and pending-slot juggling entirely. Byte-identical
        // to the general loop below by construction.
        if self.cores.len() == 1 {
            let stream = streams.pop().expect("one stream per core");
            let core = &mut self.cores[0];
            for record in stream {
                core.step(&record, &mut self.hierarchy);
            }
            return self.assemble_report(names);
        }
        let mut pending: Vec<Option<MemoryRecord>> =
            streams.iter_mut().map(Iterator::next).collect();
        loop {
            let mut next: Option<usize> = None;
            let mut best_time = f64::INFINITY;
            for (i, core) in self.cores.iter().enumerate() {
                if pending[i].is_some() {
                    let t = core.current_time();
                    if t < best_time {
                        best_time = t;
                        next = Some(i);
                    }
                }
            }
            let Some(i) = next else { break };
            let record = pending[i].take().expect("selected core has a pending record");
            pending[i] = streams[i].next();
            self.cores[i].step(&record, &mut self.hierarchy);
        }
        self.assemble_report(names)
    }

    fn assemble_report(&self, names: &[&str]) -> SystemReport {
        SystemReport {
            selector: self.cores.first().map_or_else(
                || "NoPrefetch".to_string(),
                |c| c.controller().selector_name().to_string(),
            ),
            composite: self.composite.label(),
            cores: self
                .cores
                .iter()
                .enumerate()
                .map(|(i, core)| core.report(names[i], &self.hierarchy))
                .collect(),
            l3: *self.hierarchy.l3_stats(),
            dram: *self.hierarchy.dram_stats(),
            selector_storage_bits: self
                .cores
                .first()
                .map_or(0, |c| c.controller().selector_storage_bits()),
        }
    }
}

/// One core's record feed during a run.
type RecordStream = Flatten<RecordBatches>;

// The parallel experiment engine builds a `System` from a shared
// `&SystemConfig` on a worker thread and sends the `SystemReport` back, so
// all three must be `Send` (and the inputs `Sync`). Asserting it here keeps
// the whole dependency tree honest: reintroducing an `Rc`, a raw pointer or
// a non-`Send` trait object anywhere below breaks the build, not the harness.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<System>();
    assert_send::<SystemConfig>();
    assert_sync::<SystemConfig>();
    assert_send::<SystemReport>();
    assert_sync::<SystemReport>();
    assert_send::<TraceSource>();
    assert_sync::<TraceSource>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, MemoryRecord, Pc};

    fn stream_source(n: u64, name: &'static str) -> TraceSource {
        TraceSource::new(name, true, usize::try_from(n).unwrap(), move || {
            Box::new(
                (0..n)
                    .map(|i| MemoryRecord::load(Pc::new(0x400), Addr::new(0x40_0000 + i * 64), 6)),
            )
        })
    }

    fn run(
        config: SystemConfig,
        algorithm: SelectionAlgorithm,
        sources: &[TraceSource],
    ) -> SystemReport {
        System::new(config, algorithm, CompositeKind::GsCsPmp)
            .run_sources(sources)
            .expect("non-empty sources")
    }

    #[test]
    fn single_core_run_produces_report() {
        let report = run(
            SystemConfig::skylake_like(1),
            SelectionAlgorithm::Alecto,
            &[stream_source(3_000, "stream")],
        );
        assert_eq!(report.cores.len(), 1);
        assert_eq!(report.selector, "Alecto");
        assert_eq!(report.composite, "GS+CS+PMP");
        assert!(report.cores[0].ipc > 0.0);
        assert!(report.dram.accesses > 0);
    }

    #[test]
    fn eight_core_homogeneous_run() {
        let report = run(
            SystemConfig::skylake_like(8),
            SelectionAlgorithm::Ipcp,
            &[stream_source(800, "stream")],
        );
        assert_eq!(report.cores.len(), 8);
        assert!(report.cores.iter().all(|c| c.instructions > 0));
        assert!(report.geomean_ipc().unwrap() > 0.0);
    }

    #[test]
    fn out_of_order_system_runs_and_reports_pipeline_metrics() {
        let config =
            SystemConfig::skylake_like(2).with_core_model(crate::config::CoreModelKind::OutOfOrder);
        let report = run(config, SelectionAlgorithm::Alecto, &[stream_source(1_200, "stream")]);
        assert_eq!(report.cores.len(), 2);
        for core in &report.cores {
            assert!(core.ipc > 0.0 && core.ipc.is_finite());
            assert!(core.branch_mpki.is_some());
            assert!(core.rob_occupancy.is_some());
        }
        assert!(report.avg_branch_mpki().is_some());
        assert!(report.avg_rob_occupancy().is_some());
    }

    #[test]
    fn heterogeneous_assignment_wraps_workloads() {
        let report = run(
            SystemConfig::skylake_like(4),
            SelectionAlgorithm::NoPrefetching,
            &[stream_source(500, "a"), stream_source(700, "b")],
        );
        assert_eq!(report.cores[0].workload, "a");
        assert_eq!(report.cores[1].workload, "b");
        assert_eq!(report.cores[2].workload, "a");
        assert_eq!(report.cores[3].workload, "b");
    }

    #[test]
    fn shared_dram_contention_lowers_multicore_ipc() {
        // The same DRAM-heavy workload run alone vs eight *distinct* copies
        // (each in its own address space, like SPEC-rate): per-core IPC must
        // drop when eight cores fight for the shared L3 and DRAM.
        let make = |core: u64| {
            TraceSource::new(format!("mem{core}"), true, 2_000, move || {
                Box::new((0..2_000).map(move |i| {
                    MemoryRecord::load(
                        Pc::new(0x90),
                        Addr::new((core + 1) * (1 << 36) + ((i * 7919) % 100_000) * 4096),
                        2,
                    )
                }))
            })
        };
        let single =
            run(SystemConfig::skylake_like(1), SelectionAlgorithm::NoPrefetching, &[make(0)]);
        let copies: Vec<TraceSource> = (0..8).map(make).collect();
        let multi_report =
            run(SystemConfig::skylake_like(8), SelectionAlgorithm::NoPrefetching, &copies);
        let avg_multi: f64 =
            multi_report.cores.iter().map(|c| c.ipc).sum::<f64>() / multi_report.cores.len() as f64;
        assert!(
            avg_multi < single.cores[0].ipc,
            "8-core contention should lower per-core IPC ({avg_multi} vs {})",
            single.cores[0].ipc
        );
    }

    #[test]
    fn streamed_run_matches_materialised_run() {
        // The same trace generated lazily and replayed from materialised
        // records must produce byte-identical reports — single and multi
        // core, with wrap-around assignment sharing one source between cores.
        for cores in [1usize, 4] {
            let lazy = [stream_source(900, "s"), stream_source(500, "t")];
            let materialised: Vec<TraceSource> =
                lazy.iter().map(|s| TraceSource::from_workload(s.collect())).collect();
            let a = run(SystemConfig::skylake_like(cores), SelectionAlgorithm::Alecto, &lazy);
            let b =
                run(SystemConfig::skylake_like(cores), SelectionAlgorithm::Alecto, &materialised);
            assert_eq!(a, b, "streamed vs materialised reports diverged at {cores} cores");
        }
    }

    #[test]
    fn empty_sources_is_a_validation_error() {
        let mut system = System::new(
            SystemConfig::skylake_like(1),
            SelectionAlgorithm::Alecto,
            CompositeKind::GsCsPmp,
        );
        let err = system.run_sources(&[]).unwrap_err();
        assert_eq!(err, RunError::NoSources);
        assert!(
            err.to_string().contains("at least one workload"),
            "error message should explain the validation failure"
        );
    }
}
