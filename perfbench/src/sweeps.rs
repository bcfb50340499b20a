//! The measurement loop shared by the in-process sweep workloads
//! (`fig8-1c`, `mix4-ooo-altr`): repeated set-up with an untimed warm-up,
//! timed sweeps with every cell freshly simulated, and fully cached
//! re-sweeps through a `harness::CellCache`.

use std::sync::Arc;
use std::time::Instant;

use harness::{experiments_to_json, CellCache, Experiment};

use crate::calib::{Calibrator, Timing};
use crate::cells::{BenchExecutor, CellInputs};
use crate::util::{digest, median, quantile, secs, Report};
use crate::{Opts, Scale};

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_ROUNDS: usize = 3;

/// What one set-up round hands the timed loop.
pub struct Setup {
    /// Seeded substitutes and expected instruction counts.
    pub inputs: Arc<CellInputs>,
    /// One sweep: a figure builder or runner call returning its report.
    pub sweep: Box<dyn Fn() -> Experiment>,
}

/// What the loop leaves for the workload's own metrics and the traced run.
pub struct Measured {
    /// The warm-up sweep's report; every timed and cached sweep must
    /// serialise to exactly its bytes.
    pub reference: Experiment,
    /// Inputs of the final set-up round (the ones the timed sweeps used).
    pub inputs: Arc<CellInputs>,
}

struct Rep {
    time: Timing,
    /// Raw host seconds inside cells (traced sweeps only).
    cell_secs: f64,
    records: u64,
    cells: u64,
}

/// Records per second over `reps`, calibrated and raw. Work over time across
/// the whole window: under bursty contention this moves smoothly with the
/// share of slow sweeps, where a median of per-sweep rates jumps between the
/// fast and slow modes.
fn throughput(reps: &[Rep]) -> (f64, f64) {
    let records: f64 = reps.iter().map(|r| r.records as f64).sum();
    let calibrated: f64 = reps.iter().map(|r| r.time.calibrated).sum();
    let raw: f64 = reps.iter().map(|r| r.time.raw).sum();
    (records / calibrated, records / raw)
}

/// Sets up `SETUP_ROUNDS` times (each with an untimed warm-up sweep), then
/// times sweeps for the run's window and re-sweeps from the warm cell cache.
/// Pushes `setup_s`, `records_per_s`, the sweep latencies and `sweeps_per_s`
/// (untraced run), or the tracing overhead and `harness.runner_overhead_s`
/// (traced run).
///
/// # Errors
///
/// Returns a set-up failure.
pub fn measure(
    report: &mut Report,
    opts: &Opts,
    cal: &mut Calibrator,
    label: &str,
    mut setup: impl FnMut(usize) -> Result<Setup, String>,
) -> Result<Measured, String> {
    let mut setup_secs = Vec::new();
    let mut last = None;
    for round in 0..SETUP_ROUNDS {
        let (ready, time) = cal.time(|| {
            let round_setup = setup(round)?;
            let cache = Arc::new(CellCache::new(CellCache::DEFAULT_CAPACITY));
            let warm = Arc::new(BenchExecutor::memoizing(
                Arc::clone(&round_setup.inputs),
                Arc::clone(&cache),
            ));
            let reference = warm.scope(&round_setup.sweep);
            Ok::<_, String>((round_setup, cache, reference, warm.take_tally()))
        });
        let (round_setup, cache, reference, tally) = ready?;
        setup_secs.push(time);
        report.absorb(tally);
        last = Some((round_setup, cache, reference));
    }
    let (setup, cache, reference) = last.expect("at least one set-up round");
    let reference_json = experiments_to_json(std::slice::from_ref(&reference));
    let reference_digest = digest(reference_json.as_bytes());
    report.note(format!(
        "output digest {label} = {reference_digest:#018x} (FNV-1a64 of the sweep's alecto-bench-v2 JSON)"
    ));

    let window = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let untraced = timed_reps(report, cal, &setup, false, window, reference_digest);
    let sweep_base = format!(
        "{} sweeps x {} cells x {} records",
        untraced.len(),
        untraced[0].cells,
        untraced[0].records
    );

    if opts.trace {
        let traced = timed_reps(report, cal, &setup, true, window, reference_digest);
        let (plain, with_spans) = (throughput(&untraced).0, throughput(&traced).0);
        report.note(format!(
            "tracing overhead: traced records_per_s {with_spans:.0} - untraced {plain:.0} = {:+.0} records/s ({:+.2}%)",
            with_spans - plain,
            100.0 * (with_spans - plain) / plain
        ));
        let overheads: Vec<f64> = traced
            .iter()
            .map(|r| (r.time.raw - r.cell_secs).max(0.0) * r.time.calibrated / r.time.raw)
            .collect();
        report.metric(
            "harness.runner_overhead_s",
            "s",
            median(&overheads),
            format!(
                "median over {} traced sweeps: sweep wall time minus summed cell time",
                traced.len()
            ),
        );
        return Ok(Measured { reference, inputs: setup.inputs });
    }

    let (hits_raw, hits) = cached_reps(report, cal, &setup, &cache, opts, reference_digest);
    let sweep_ms: Vec<f64> = untraced.iter().map(|r| r.time.calibrated * 1e3).collect();
    let raw_ms: Vec<f64> = untraced.iter().map(|r| r.time.raw * 1e3).collect();
    let listed = |ms: &[f64]| ms.iter().map(|ms| format!("{ms:.0}")).collect::<Vec<_>>().join(" ");
    report.note(format!("timed sweeps, calibrated ms in order: {}", listed(&sweep_ms)));
    report.note(format!("timed sweeps, raw ms in order:        {}", listed(&raw_ms)));
    let (rate, raw_rate) = throughput(&untraced);
    let total: f64 = untraced.iter().map(|r| r.time.calibrated).sum();
    let setup_calibrated: Vec<f64> = setup_secs.iter().map(|t| t.calibrated).collect();
    let setup_raw: Vec<f64> = setup_secs.iter().map(|t| t.raw).collect();
    report.metric(
        "records_per_s",
        "1/s",
        rate,
        format!("total over {sweep_base}; raw {raw_rate:.0}"),
    );
    report.metric(
        "setup_s",
        "s",
        median(&setup_calibrated),
        format!(
            "median of {SETUP_ROUNDS} set-ups, each with one warm-up sweep; raw {:.4}",
            median(&setup_raw)
        ),
    );
    report.metric(
        "sweep_p50_ms",
        "ms",
        median(&sweep_ms),
        format!("over {sweep_base}; raw {:.1}", median(&raw_ms)),
    );
    report.metric(
        "sweep_p90_ms",
        "ms",
        quantile(&sweep_ms, 0.9),
        format!("over {sweep_base}; raw {:.1}", quantile(&raw_ms, 0.9)),
    );
    report.metric(
        "hit_sweep_p50_ms",
        "ms",
        median(&hits),
        format!(
            "{} re-sweeps served entirely from a warm harness::CellCache; raw {:.4}",
            hits.len(),
            median(&hits_raw)
        ),
    );
    report.metric(
        "sweeps_per_s",
        "1/s",
        untraced.len() as f64 / total,
        format!("{} sweeps in {total:.2} calibrated s of sweeping", untraced.len()),
    );
    Ok(Measured { reference, inputs: setup.inputs })
}

/// Sweeps with every cell simulated afresh until `window` seconds have
/// passed (at least three sweeps), checking each report's bytes.
fn timed_reps(
    report: &mut Report,
    cal: &mut Calibrator,
    setup: &Setup,
    traced: bool,
    window: f64,
    want: u64,
) -> Vec<Rep> {
    let executor = Arc::new(BenchExecutor::new(Arc::clone(&setup.inputs), traced));
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 3 || secs(started) < window {
        let (experiment, time) = cal.time(|| executor.scope(&setup.sweep));
        let (cell_secs, cells, records) = executor.take_cell_time();
        let got = digest(experiments_to_json(std::slice::from_ref(&experiment)).as_bytes());
        report.check(got == want, || {
            format!("sweep {} digest {got:#018x} != warm-up {want:#018x}", reps.len())
        });
        reps.push(Rep { time, cell_secs, records, cells });
    }
    report.absorb(executor.take_tally());
    reps
}

/// Re-sweeps served from the warm-up's cell cache for one second (ten at
/// tiny scale), in blocks of at least 50 ms with a slowness reading around
/// each. Returns their latencies in milliseconds, raw and calibrated.
fn cached_reps(
    report: &mut Report,
    cal: &mut Calibrator,
    setup: &Setup,
    cache: &Arc<CellCache>,
    opts: &Opts,
    want: u64,
) -> (Vec<f64>, Vec<f64>) {
    let executor = Arc::new(BenchExecutor::memoizing(Arc::clone(&setup.inputs), Arc::clone(cache)));
    let (mut raw, mut calibrated) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while raw.len() < 10 || (opts.scale == Scale::Full && secs(started) < 1.0) {
        let (block, slowness) = cal.bracket(|| {
            let block_start = Instant::now();
            let mut block = Vec::new();
            while block.len() < 10 || (opts.scale == Scale::Full && secs(block_start) < 0.05) {
                let start = Instant::now();
                let experiment = executor.scope(&setup.sweep);
                let ms = secs(start) * 1e3;
                let got = digest(experiments_to_json(std::slice::from_ref(&experiment)).as_bytes());
                block.push((ms, got));
            }
            block
        });
        for (ms, got) in block {
            report.check(got == want, || {
                format!("cached sweep digest {got:#018x} != warm-up {want:#018x}")
            });
            raw.push(ms);
            calibrated.push(ms / slowness);
        }
    }
    report.absorb(executor.take_tally());
    (raw, calibrated)
}
