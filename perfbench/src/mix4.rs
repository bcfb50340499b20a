//! `mix4-ooo-altr`: the built-in `desktop` machine (Table I, four cores)
//! under the out-of-order core model, each core replaying an `.altr` file
//! recorded during set-up, under NoPrefetch and IPCP. The work sits in
//! `.altr` decode, the ROB/LSQ pipeline, the multicore min-time merge and the
//! shared L3/DRAM; the selector is absent or cheap and generation happens
//! only in set-up.

use std::sync::Arc;

use alecto_types::TraceSource;
use cpu::{CompositeKind, SelectionAlgorithm, SystemConfig};
use harness::runner::run_multicore_mix;
use harness::{Experiment, RunScale};

use crate::calib::Calibrator;
use crate::cells::{BenchExecutor, CellInputs};
use crate::layers::{self, PanelInput};
use crate::sources::{instructions, open, record, seeded_source};
use crate::sweeps::{self, Setup};
use crate::util::{peak_rss_mb, Report, WorkDir};
use crate::{fig8, serve, Opts};

/// One benchmark per core: pointer chasing, a cold list walk, Zipfian web
/// serving and a database hash join.
pub const MIX: [&str; 4] = ["mcf", "linked-list", "web-cache", "hash-join"];

/// Records per core (full scale, tiny scale).
const RECORDS_PER_CORE: (usize, usize) = (40_000, 300);

/// One mix sweep: the baseline plus `algorithms`, one four-core cell each.
fn sweep(
    sources: &[TraceSource],
    algorithms: &[SelectionAlgorithm],
    composite: CompositeKind,
    config: &SystemConfig,
) -> Experiment {
    let grid = run_multicore_mix("mix4", sources, algorithms, composite, config, 1);
    Experiment::new("mix4-ooo-altr", "desktop x4, ooo core, .altr replay", grid.to_table())
        .with_grid(&grid)
}

/// Runs the workload and pushes its metrics.
///
/// # Errors
///
/// Returns set-up and I/O failures.
pub fn run(opts: &Opts, report: &mut Report, cal: &mut Calibrator) -> Result<(), String> {
    let per_core = opts.scale.pick(RECORDS_PER_CORE.0, RECORDS_PER_CORE.1);
    let work = WorkDir::create("mix4-ooo-altr").map_err(|err| format!("work dir: {err}"))?;
    let desktop = machine::builtin("desktop").ok_or("the desktop machine is not built in")?;
    let scale = RunScale::default()
        .with_machine(desktop)
        .with_core_model(cpu::CoreModelKind::OutOfOrder)
        .with_jobs(1);
    let config = scale.base_config(scale.multicore_cores(MIX.len()));
    let composite = scale.composite(CompositeKind::GsCsPmp);

    let mut files = Vec::new();
    let mut sources = Vec::new();
    let measured = sweeps::measure(report, opts, cal, "mix4-ooo-altr", |round| {
        let dir =
            work.subdir(&format!("setup-{round}")).map_err(|err| format!("work dir: {err}"))?;
        let mut inputs = CellInputs::default();
        files.clear();
        sources.clear();
        for (core, name) in MIX.iter().enumerate() {
            let path = dir.join(format!("{name}.altr"));
            record(&seeded_source(name, opts.seed, per_core)?, name, opts.seed, &path)?;
            // Each core gets its own address-space slice, as the harness's
            // multi-programmed mixes do.
            let source = open(&path)?.with_addr_offset((core as u64) << 40);
            inputs.instructions.insert(source.fingerprint(), instructions(&source));
            files.push(path);
            sources.push(source);
        }
        let (cell_sources, config) = (sources.clone(), config.clone());
        Ok(Setup {
            inputs: Arc::new(inputs),
            sweep: Box::new(move || {
                sweep(&cell_sources, &[SelectionAlgorithm::Ipcp], composite, &config)
            }),
        })
    })?;

    if opts.trace {
        let generated = MIX
            .iter()
            .map(|name| seeded_source(name, opts.seed, per_core))
            .collect::<Result<Vec<_>, _>>()?;
        let input = PanelInput {
            generated,
            files,
            units: vec![sources],
            config,
            expected: &measured.inputs.instructions,
            work: work.path(),
        };
        layers::panel(report, opts, cal, &input)?;
        serve::probe(opts, report, cal)?;
        return Ok(());
    }
    // Alecto against Bandit6 on the same mix, outside the timed window.
    let executor = Arc::new(BenchExecutor::new(Arc::clone(&measured.inputs), false));
    let versus = executor.scope(|| {
        sweep(
            &sources,
            &[SelectionAlgorithm::Bandit6, SelectionAlgorithm::Alecto],
            composite,
            &config,
        )
    });
    report.absorb(executor.take_tally());
    let ratio = fig8::alecto_vs_bandit6_pct(&versus.cells)?;
    report.note(format!(
        "sim.alecto_vs_bandit6_pct = {ratio:.4}% of Bandit6 IPC on the four-core mix (gain {:+.2}%); paper Fig. 8 note: {:+.2}%",
        ratio - 100.0,
        fig8::PAPER_ALECTO_VS_BANDIT6_GAIN_PCT
    ));
    report.metric(
        "sim.alecto_vs_bandit6_pct",
        "%",
        ratio,
        "simulated geomean IPC of Alecto as a percentage of Bandit6's on the mix (untimed cells)"
            .into(),
    );
    report.metric(
        "peak_rss_mb",
        "MiB",
        peak_rss_mb(None)?,
        "VmHWM of the benchmark process".into(),
    );
    Ok(())
}
