//! `fig8-1c`: the paper's headline figure, `harness::figures::fig8`, over
//! seeded SPEC CPU2006 traces on one approx core with one cell worker.
//! Five of its six cells per benchmark are selector-driven, so the work sits
//! in trace generation, the selectors, prefetcher training and the hierarchy.

use std::process::{Command, Stdio};
use std::sync::Arc;

use harness::{experiments_to_json, figures, GridCell, RunScale};

use crate::calib::Calibrator;
use crate::cells::{BenchExecutor, CellInputs};
use crate::layers::{self, PanelInput};
use crate::sources::{instructions, seeded_source};
use crate::sweeps::{self, Setup};
use crate::util::{peak_rss_mb, Report, WorkDir};
use crate::{serve, Opts};

/// Accesses per benchmark in the timed sweeps (full scale, tiny scale).
const ACCESSES: (usize, usize) = (5_000, 200);
/// Accesses of the CLI parity check.
const CHECK_ACCESSES: (usize, usize) = (1_000, 100);

/// The paper's Fig. 8 note: Alecto beats Bandit6 by 3.20% (geomean).
pub const PAPER_ALECTO_VS_BANDIT6_GAIN_PCT: f64 = 3.20;

/// The sweep scale `alecto-harness fig8 --accesses N --jobs 1` resolves to.
fn scale(accesses: usize) -> RunScale {
    RunScale::resolve(false, Some(accesses), None, Some(1))
}

/// Seeded substitutes for every SPEC CPU2006 source plus their instruction
/// counts.
fn inputs(seed: u64, accesses: usize) -> Result<CellInputs, String> {
    let mut inputs = CellInputs::default();
    for name in traces::Suite::Spec06.benchmarks() {
        let source = seeded_source(name, seed, accesses)?;
        inputs.instructions.insert(source.fingerprint(), instructions(&source));
        inputs.substitutes.insert(name.to_string(), source);
    }
    Ok(inputs)
}

/// Runs the workload and pushes its metrics.
///
/// # Errors
///
/// Returns set-up and I/O failures.
pub fn run(opts: &Opts, report: &mut Report, cal: &mut Calibrator) -> Result<(), String> {
    let accesses = opts.scale.pick(ACCESSES.0, ACCESSES.1);
    let work = WorkDir::create("fig8-1c").map_err(|err| format!("work dir: {err}"))?;
    let measured = sweeps::measure(report, opts, cal, "fig8-1c", |_| {
        let inputs = Arc::new(inputs(opts.seed, accesses)?);
        let scale = scale(accesses);
        Ok(Setup { inputs, sweep: Box::new(move || figures::fig8(&scale)) })
    })?;
    cli_parity(report, &work, opts.scale.pick(CHECK_ACCESSES.0, CHECK_ACCESSES.1))?;

    let ratio = alecto_vs_bandit6_pct(&measured.reference.cells)?;
    report.note(format!(
        "sim.alecto_vs_bandit6_pct = {ratio:.4}% of Bandit6 geomean-All IPC (gain {:+.2}%); paper Fig. 8 note: {:+.2}%",
        ratio - 100.0,
        PAPER_ALECTO_VS_BANDIT6_GAIN_PCT
    ));
    if opts.trace {
        let mut generated: Vec<_> = measured.inputs.substitutes.values().cloned().collect();
        generated.sort_by(|a, b| a.name().cmp(b.name()));
        let units = generated.iter().map(|s| vec![s.clone()]).collect();
        let input = PanelInput {
            generated,
            files: Vec::new(),
            units,
            config: scale(accesses).base_config(1),
            expected: &measured.inputs.instructions,
            work: work.path(),
        };
        layers::panel(report, opts, cal, &input)?;
        serve::probe(opts, report, cal)?;
    } else {
        report.metric(
            "sim.alecto_vs_bandit6_pct",
            "%",
            ratio,
            "simulated geomean-All IPC of Alecto as a percentage of Bandit6's over 29 benchmarks (100 = parity)".into(),
        );
        report.metric(
            "peak_rss_mb",
            "MiB",
            peak_rss_mb(None)?,
            "VmHWM of the benchmark process".into(),
        );
    }
    Ok(())
}

/// Simulated geomean IPC of Alecto as a percentage of Bandit6's over grid
/// cells (both share each benchmark's baseline, so this is the ratio of
/// their geomean speedups).
///
/// # Errors
///
/// Returns a message when either algorithm is missing.
pub fn alecto_vs_bandit6_pct(cells: &[GridCell]) -> Result<f64, String> {
    let geomean_speedup = |label: &str| {
        let speedups: Vec<f64> =
            cells.iter().filter(|c| c.algorithm == label).map(|c| c.speedup).collect();
        alecto_types::geomean(&speedups).ok_or_else(|| format!("no {label} cells to compare"))
    };
    Ok(100.0 * geomean_speedup("Alecto")? / geomean_speedup("Bandit6")?)
}

/// The bytes `alecto-harness fig8 --accesses N --jobs 1 --json` writes must
/// equal the library path the timed sweeps take (figure builder under the
/// benchmark's executor) at seed 0, where the seeded traces are the registry
/// traces.
fn cli_parity(report: &mut Report, work: &WorkDir, accesses: usize) -> Result<(), String> {
    let exe = std::env::current_exe()
        .map_err(|err| format!("locating the benchmark binary: {err}"))?
        .with_file_name("alecto-harness");
    let path = work.path().join("cli-fig8.json");
    let status = Command::new(&exe)
        .args(["fig8", "--accesses", &accesses.to_string(), "--jobs", "1", "--json"])
        .arg(&path)
        .stdout(Stdio::null())
        .status()
        .map_err(|err| format!("running {}: {err}", exe.display()))?;
    let cli = std::fs::read(&path).map_err(|err| format!("reading {}: {err}", path.display()))?;
    let executor = Arc::new(BenchExecutor::new(Arc::new(inputs(0, accesses)?), false));
    let library = experiments_to_json(&[executor.scope(|| figures::fig8(&scale(accesses)))]);
    report.absorb(executor.take_tally());
    report.check(status.success() && cli == library.as_bytes(), || {
        format!("alecto-harness fig8 --json ({status}) differs from the library report at {accesses} accesses")
    });
    Ok(())
}
