//! The traced run's per-layer panel. It attributes host time to the
//! repository's layers from outside, by timing calls into their public
//! functions over the workload's own traces and machine:
//!
//! * `traces`: `TraceSource::record_batches` over generated sources;
//! * `traceio`: `traceio::file_source` decode of the recorded `.altr` files;
//! * `cpu`: whole cells through `System::run_sources`, under NoPrefetch and
//!   every selector, and under the other core model;
//! * `controller`: `PrefetchController::on_demand_access` replayed over the
//!   demand stream (no hierarchy feedback, no epochs);
//! * `selectors` / `prefetch`: `Selector::allocate` / `select_requests` from
//!   `cpu::build_selector` and `Prefetcher::train_and_predict` from
//!   `prefetch::build_composite`, each call wrapped in its own span;
//! * `memsys`: the residual of a prefetching cell after the NoPrefetch cell
//!   and the controller replay. The hierarchy is never timed against a
//!   synthetic clock: a fake issue rate saturates the MSHRs and the DRAM
//!   queue and reads several times slower than a real cell.
//!
//! The `sim.*` rows are simulated counts from the same cells' reports, not
//! host time.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use alecto_types::{DemandAccess, FillLevel, PrefetchRequest, PrefetcherId, TraceSource};
use cpu::{
    build_selector, CompositeKind, CoreModelKind, PrefetchController, SelectionAlgorithm, System,
    SystemConfig, SystemReport, DEFAULT_BATCH_RECORDS,
};
use harness::CellJob;
use memsys::PrefetchQuality;

use crate::calib::Calibrator;
use crate::cells::check_report;
use crate::sources::{open, record};
use crate::util::{median, Report};
use crate::Opts;

/// The selection algorithms of the paper's main comparison, after the
/// NoPrefetch baseline.
pub const ALGORITHMS: [SelectionAlgorithm; 5] = SelectionAlgorithm::main_comparison();

/// Prefetchers of the GS+CS+PMP composite every workload runs.
pub const PREFETCHERS: [&str; 3] = ["GS", "CS", "PMP"];

/// Records each panel timing should cover at full scale.
const PANEL_RECORDS: usize = 300_000;

/// What the panel measures over.
pub struct PanelInput<'a> {
    /// The workload's generated (seeded) sources, one per benchmark.
    pub generated: Vec<TraceSource>,
    /// `.altr` recordings of the same traces; empty means the panel records
    /// them itself.
    pub files: Vec<PathBuf>,
    /// The sources of each cell the workload runs (one per benchmark, or one
    /// four-core mix). Their fingerprints are in `expected`.
    pub units: Vec<Vec<TraceSource>>,
    /// The machine the workload's cells run on.
    pub config: SystemConfig,
    /// Expected retired instructions per source fingerprint.
    pub expected: &'a HashMap<u64, u64>,
    /// Scratch directory for recordings.
    pub work: &'a Path,
}

/// The NoPrefetch baseline followed by [`ALGORITHMS`].
fn all_algorithms() -> impl Iterator<Item = SelectionAlgorithm> {
    std::iter::once(SelectionAlgorithm::NoPrefetching).chain(ALGORITHMS)
}

/// Median calibrated host seconds of `passes` runs of `f`.
fn timed(cal: &mut Calibrator, passes: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..passes).map(|_| cal.time(&mut f).1.calibrated).collect();
    median(&samples)
}

/// Host nanoseconds an empty span (`Instant::now()` then `elapsed()`)
/// reads, removed from every per-call span.
fn timer_cost_ns() -> f64 {
    const SPANS: u32 = 200_000;
    let mut total = 0.0;
    for _ in 0..SPANS {
        let start = black_box(Instant::now());
        total += start.elapsed().as_nanos() as f64;
    }
    total / f64::from(SPANS)
}

/// Runs the panel and pushes every per-layer metric except the `harness.*`
/// rows (which come from the sweep loop and the sweep-server session).
///
/// # Errors
///
/// Returns recording and decoding failures.
pub fn panel(
    report: &mut Report,
    opts: &Opts,
    cal: &mut Calibrator,
    input: &PanelInput<'_>,
) -> Result<(), String> {
    let composite = CompositeKind::GsCsPmp;
    let unit_records = |unit: &[TraceSource], cores: usize| -> usize {
        (0..cores).map(|core| unit[core % unit.len()].memory_accesses()).sum()
    };
    let cell_records: usize = input.units.iter().map(|u| unit_records(u, input.config.cores)).sum();
    // Small workloads repeat each timing until it covers enough records for
    // a steady median.
    let passes = opts.scale.pick((PANEL_RECORDS.div_ceil(cell_records.max(1))).clamp(3, 25), 1);

    // traces: generation alone.
    let generated_records: usize = input.generated.iter().map(TraceSource::memory_accesses).sum();
    let gen_secs = timed(cal, passes, || {
        for source in &input.generated {
            for batch in source.record_batches(DEFAULT_BATCH_RECORDS) {
                black_box(batch);
            }
        }
    });
    let gen_ns = gen_secs * 1e9 / generated_records as f64;
    report.metric(
        "traces.gen_ns_per_record",
        "ns",
        gen_ns,
        format!(
            "median of {passes} passes over {} sources, {generated_records} records",
            input.generated.len()
        ),
    );

    // traceio: decode of the same traces from .altr files.
    let files = if input.files.is_empty() {
        let dir = input.work.join("panel-altr");
        std::fs::create_dir_all(&dir).map_err(|err| format!("{}: {err}", dir.display()))?;
        let mut files = Vec::new();
        for source in &input.generated {
            let path = dir.join(format!("{}.altr", source.name()));
            record(source, source.name(), opts.seed, &path)?;
            files.push(path);
        }
        files
    } else {
        input.files.clone()
    };
    let mut bytes = 0u64;
    let mut recorded = Vec::new();
    for path in &files {
        bytes += std::fs::metadata(path).map_err(|err| format!("{}: {err}", path.display()))?.len();
        recorded.push(open(path)?);
    }
    let decoded_records: usize = recorded.iter().map(TraceSource::memory_accesses).sum();
    let decode_secs = timed(cal, passes, || {
        for source in &recorded {
            for batch in source.record_batches(DEFAULT_BATCH_RECORDS) {
                black_box(batch);
            }
        }
    });
    let decode_ns = decode_secs * 1e9 / decoded_records as f64;
    let decode_base =
        format!("median of {passes} passes over {} files, {decoded_records} records", files.len());
    report.metric("traceio.decode_ns_per_record", "ns", decode_ns, decode_base.clone());
    report.metric(
        "traceio.bytes_per_record",
        "B",
        bytes as f64 / decoded_records as f64,
        format!("{bytes} bytes over {decoded_records} records"),
    );

    // cpu / memsys: whole cells.
    let cells = CellSet { units: &input.units, config: &input.config, composite };
    let mut cell_ns = HashMap::new();
    let mut sim = SimCounts::default();
    for algorithm in all_algorithms() {
        let mut reports = Vec::new();
        let secs = timed(cal, passes, || reports = cells.run(algorithm));
        for (job_unit, cell) in input.units.iter().zip(&reports) {
            let job = CellJob { algorithm, composite, config: &input.config, sources: job_unit };
            report.check(check_report(&job, cell, input.expected).is_ok(), || {
                format!("panel cell {} failed its checks", algorithm.label())
            });
        }
        sim.add(algorithm, &reports);
        cell_ns.insert(algorithm.label(), secs * 1e9 / cell_records as f64);
    }
    let nopf_ns = cell_ns["NoPrefetch"];
    let cell_base = format!(
        "median of {passes} passes over {} cells, {cell_records} records",
        input.units.len()
    );
    report.metric("cpu.nopf_cell_ns_per_record", "ns", nopf_ns, cell_base.clone());
    let files_drive_cells = !input.files.is_empty();
    let (feed, feed_ns) = if files_drive_cells { ("decode", decode_ns) } else { ("gen", gen_ns) };
    report.metric(
        "cpu.demand_path_ns_per_record",
        "ns",
        nopf_ns - feed_ns,
        format!("derived: NoPrefetch cell minus {feed}"),
    );
    let other_model = match input.config.core_model {
        CoreModelKind::Approx => CoreModelKind::OutOfOrder,
        CoreModelKind::OutOfOrder => CoreModelKind::Approx,
    };
    let other_config = input.config.clone().with_core_model(other_model);
    let other = CellSet { config: &other_config, ..cells };
    let other_ns = timed(cal, passes, || {
        black_box(other.run(SelectionAlgorithm::NoPrefetching));
    }) * 1e9
        / cell_records as f64;
    let (ooo_ns, approx_ns) = if other_model == CoreModelKind::OutOfOrder {
        (other_ns, nopf_ns)
    } else {
        (nopf_ns, other_ns)
    };
    report.metric(
        "cpu.ooo_extra_ns_per_record",
        "ns",
        ooo_ns - approx_ns,
        format!(
            "derived: NoPrefetch cells under ooo ({ooo_ns:.1} ns) minus approx ({approx_ns:.1} ns)"
        ),
    );

    // controller: on_demand_access replay; selectors/prefetch: per-call spans.
    let streams: Vec<Vec<DemandAccess>> = input
        .units
        .iter()
        .flat_map(|unit| (0..input.config.cores).map(move |core| &unit[core % unit.len()]))
        .map(|source| source.records().map(|r| r.demand()).collect())
        .collect();
    let demands: usize = streams.iter().map(Vec::len).sum();
    let timer_ns = timer_cost_ns();
    let mut train = [(0.0f64, 0u64); PREFETCHERS.len()];
    for algorithm in ALGORITHMS {
        let label = algorithm.label();
        let mut stats = ReplayStats::default();
        let secs = timed(cal, passes, || stats = replay_controller(&streams, composite, algorithm));
        let ctl_ns = secs * 1e9 / demands as f64;
        let per_demand = |n: u64| n as f64 / demands as f64;
        let replay_base = format!("{} replayed demands, median of {passes} passes", demands);
        report.metric(
            format!("controller.ns_per_demand.{label}"),
            "ns",
            ctl_ns,
            replay_base.clone(),
        );
        report.metric(
            format!("controller.candidates_per_demand.{label}"),
            "count",
            per_demand(stats.candidates),
            replay_base.clone(),
        );
        report.metric(
            format!("controller.issued_per_demand.{label}"),
            "count",
            per_demand(stats.issued),
            format!(
                "{replay_base}; issued/candidates = {:.3}",
                stats.issued as f64 / stats.candidates.max(1) as f64
            ),
        );
        report.metric(
            format!("controller.trainings_per_demand.{label}"),
            "count",
            per_demand(stats.trainings),
            replay_base,
        );
        report.note(format!(
            "{label}: controller replay issued {} prefetches (no feedback, no epochs); the cells issued {}",
            stats.issued,
            sim.issued.get(label).copied().unwrap_or(0)
        ));

        let (mut spans, slowness) =
            cal.bracket(|| time_selector(&streams, composite, algorithm, timer_ns));
        spans.calibrate(slowness);
        let span_base =
            format!("{demands} demands, one span per call, {timer_ns:.1} ns timer cost removed");
        report.metric(
            format!("selectors.allocate_ns.{label}"),
            "ns",
            spans.allocate_ns / demands as f64,
            span_base.clone(),
        );
        report.metric(
            format!("selectors.select_ns.{label}"),
            "ns",
            spans.select_ns / demands as f64,
            span_base,
        );
        for (slot, (ns, calls)) in train.iter_mut().zip(spans.train) {
            slot.0 += ns;
            slot.1 += calls;
        }
        let memsys_ns = cell_ns[label] - nopf_ns - ctl_ns;
        report.metric(
            format!("memsys.prefetch_path_ns_per_record.{label}"),
            "ns",
            memsys_ns,
            format!("derived: {label} cell {:.1} - NoPrefetch cell {nopf_ns:.1} - controller replay {ctl_ns:.1}", cell_ns[label]),
        );
        if algorithm == SelectionAlgorithm::Alecto {
            let gap = cell_ns[label] - nopf_ns;
            let train_ns: f64 = spans.train.iter().map(|(ns, _)| ns).sum::<f64>() / demands as f64;
            report.note(format!(
                "Alecto cell minus NoPrefetch cell = {gap:.1} ns/record; controller replay {ctl_ns:.1} ns/demand covers {:.0}% of it \
                 (selector spans {:.1} + training spans {train_ns:.1} ns/demand); memsys residual {memsys_ns:.1} ns/record",
                100.0 * ctl_ns / gap,
                (spans.allocate_ns + spans.select_ns) / demands as f64
            ));
        }
    }
    for (name, (ns, calls)) in PREFETCHERS.iter().zip(train) {
        report.metric(
            format!("prefetch.train_ns.{name}"),
            "ns",
            ns / calls.max(1) as f64,
            format!("{calls} train_and_predict calls across the five selectors' replays"),
        );
    }
    sim.report(report, cell_records);
    Ok(())
}

/// The workload's cells under one machine configuration.
#[derive(Clone, Copy)]
struct CellSet<'a> {
    units: &'a [Vec<TraceSource>],
    config: &'a SystemConfig,
    composite: CompositeKind,
}

impl CellSet<'_> {
    /// One `System::run_sources` per unit.
    fn run(&self, algorithm: SelectionAlgorithm) -> Vec<SystemReport> {
        self.units
            .iter()
            .map(|unit| {
                System::new(self.config.clone(), algorithm, self.composite)
                    .run_sources(unit)
                    .expect("every unit has a source")
            })
            .collect()
    }
}

#[derive(Debug, Default)]
struct ReplayStats {
    candidates: u64,
    issued: u64,
    trainings: u64,
}

/// Feeds every stream through a fresh controller, as the core model would
/// on each demand access.
fn replay_controller(
    streams: &[Vec<DemandAccess>],
    composite: CompositeKind,
    algorithm: SelectionAlgorithm,
) -> ReplayStats {
    let mut stats = ReplayStats::default();
    for stream in streams {
        let mut controller = PrefetchController::new(composite, algorithm);
        for access in stream {
            black_box(controller.on_demand_access(access));
        }
        stats.candidates += controller.stats().candidates;
        stats.issued += controller.stats().issued;
        stats.trainings += controller.training_occurrences();
    }
    stats
}

struct Spans {
    allocate_ns: f64,
    select_ns: f64,
    train: [(f64, u64); PREFETCHERS.len()],
}

impl Spans {
    /// Divides every span total by the host's slowness.
    fn calibrate(&mut self, slowness: f64) {
        self.allocate_ns /= slowness;
        self.select_ns /= slowness;
        for (ns, _) in &mut self.train {
            *ns /= slowness;
        }
    }
}

/// The controller's allocate → train → select sequence rebuilt from the
/// public parts, with a span around each call.
fn time_selector(
    streams: &[Vec<DemandAccess>],
    composite: CompositeKind,
    algorithm: SelectionAlgorithm,
    timer_ns: f64,
) -> Spans {
    let mut spans =
        Spans { allocate_ns: 0.0, select_ns: 0.0, train: [(0.0, 0); PREFETCHERS.len()] };
    let span = |start: Instant| start.elapsed().as_nanos() as f64 - timer_ns;
    for stream in streams {
        let mut prefetchers = prefetch::build_composite(composite);
        let mut selector = build_selector(algorithm, prefetchers.len())
            .expect("prefetching algorithms build a selector");
        let mut lines = Vec::new();
        for access in stream {
            let start = Instant::now();
            let decision = selector.allocate(access, &prefetchers);
            spans.allocate_ns += span(start);
            let mut candidates = Vec::new();
            for (idx, allocation) in decision.per_prefetcher.iter().enumerate() {
                let Some(allocation) = allocation else { continue };
                lines.clear();
                let start = Instant::now();
                prefetchers[idx].train_and_predict(access, allocation.total, &mut lines);
                spans.train[idx].0 += span(start);
                spans.train[idx].1 += 1;
                for (j, &line) in lines.iter().enumerate() {
                    let to_l1 = u32::try_from(j).is_ok_and(|j| j < allocation.l1_portion);
                    let fill = if to_l1 { FillLevel::L1 } else { FillLevel::L2 };
                    candidates.push(
                        PrefetchRequest::new(line, access.pc, PrefetcherId(idx))
                            .with_fill_level(fill),
                    );
                }
            }
            let start = Instant::now();
            let selected = selector.select_requests(access, candidates);
            spans.select_ns += span(start);
            black_box(selected);
        }
    }
    spans
}

/// Simulated counts summed over the panel's cells.
#[derive(Debug, Default)]
struct SimCounts {
    l1_misses: u64,
    l2_misses: u64,
    l3_misses: u64,
    dram_accesses: u64,
    mshr_stall_cycles: u64,
    dram_queue_cycles: u64,
    cells: usize,
    quality: HashMap<&'static str, PrefetchQuality>,
    issued: HashMap<&'static str, u64>,
}

impl SimCounts {
    fn add(&mut self, algorithm: SelectionAlgorithm, reports: &[SystemReport]) {
        for report in reports {
            self.cells += 1;
            for core in &report.cores {
                self.l1_misses += core.l1.demand_misses;
                self.l2_misses += core.l2.demand_misses;
                self.mshr_stall_cycles += core.timing.mshr_stall_cycles;
                self.dram_queue_cycles += core.timing.dram_queue_cycles;
                *self.issued.entry(algorithm.label()).or_default() += core.prefetches_issued;
            }
            self.l3_misses += report.l3.demand_misses;
            self.dram_accesses += report.dram.accesses;
            self.quality.entry(algorithm.label()).or_default().merge(&report.total_quality());
        }
    }

    fn report(&self, report: &mut Report, records_per_algorithm: usize) {
        let records = (records_per_algorithm * (ALGORITHMS.len() + 1)) as f64;
        let base = format!("simulated, summed over {} cells, {records} records", self.cells);
        let per_krec = |n: u64| 1000.0 * n as f64 / records;
        for (name, unit, value) in [
            ("sim.l1_misses_per_krec", "count/krec", self.l1_misses),
            ("sim.l2_misses_per_krec", "count/krec", self.l2_misses),
            ("sim.l3_misses_per_krec", "count/krec", self.l3_misses),
            ("sim.dram_accesses_per_krec", "count/krec", self.dram_accesses),
            ("sim.mshr_stall_cycles_per_krec", "cycles/krec", self.mshr_stall_cycles),
            ("sim.dram_queue_cycles_per_krec", "cycles/krec", self.dram_queue_cycles),
        ] {
            report.metric(name, unit, per_krec(value), base.clone());
        }
        for algorithm in ALGORITHMS {
            let label = algorithm.label();
            let quality = self.quality.get(label).copied().unwrap_or_default();
            report.metric(
                format!("sim.prefetch_accuracy.{label}"),
                "ratio",
                quality.accuracy(),
                format!("simulated, over the {label} cells"),
            );
        }
    }
}
