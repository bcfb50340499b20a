//! Host-time benchmark of the Alecto reproduction.
//!
//! ```text
//! perfbench --workload <fig8-1c|mix4-ooo-altr|serve-mixed> --seed N --seconds S --trace <0|1>
//!           [--scale full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans inside the
//! measured sweeps. `--trace 1` is the separate traced run: it repeats the
//! workload with per-cell spans, reports the tracing overhead, and
//! attributes host time to the repository's layers (see `layers`). Every
//! output is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--scale tiny` runs
//! the same code on tiny inputs for the self-tests. See `README.md` for why
//! each workload exists and which layer metric should move which end-to-end
//! metric.

mod calib;
mod cells;
mod fig8;
mod layers;
mod mix4;
mod serve;
mod sources;
mod sweeps;
mod util;

use std::collections::BTreeSet;
use std::process::ExitCode;

use harness::report::json;
use util::Report;

/// Input sizes: the measured configuration or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    /// `full` at full scale, `tiny` at tiny scale.
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fig8-1c", "mix4-ooo-altr", "serve-mixed"];

/// End-to-end metrics and their units, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("records_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim.alecto_vs_bandit6_pct", "%"),
    ("sweep_p50_ms", "ms"),
    ("sweep_p90_ms", "ms"),
    ("hit_sweep_p50_ms", "ms"),
    ("sweeps_per_s", "1/s"),
];

/// Per-layer metrics and their units, reported by every traced run.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut metrics: Vec<(String, &'static str)> = [
        ("traces.gen_ns_per_record", "ns"),
        ("traceio.decode_ns_per_record", "ns"),
        ("traceio.bytes_per_record", "B"),
        ("cpu.nopf_cell_ns_per_record", "ns"),
        ("cpu.demand_path_ns_per_record", "ns"),
        ("cpu.ooo_extra_ns_per_record", "ns"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for algorithm in layers::ALGORITHMS {
        let label = algorithm.label();
        for (prefix, unit) in [
            ("controller.ns_per_demand", "ns"),
            ("controller.candidates_per_demand", "count"),
            ("controller.issued_per_demand", "count"),
            ("controller.trainings_per_demand", "count"),
            ("selectors.allocate_ns", "ns"),
            ("selectors.select_ns", "ns"),
            ("memsys.prefetch_path_ns_per_record", "ns"),
            ("sim.prefetch_accuracy", "ratio"),
        ] {
            metrics.push((format!("{prefix}.{label}"), unit));
        }
    }
    for name in layers::PREFETCHERS {
        metrics.push((format!("prefetch.train_ns.{name}"), "ns"));
    }
    for (name, unit) in [
        ("sim.l1_misses_per_krec", "count/krec"),
        ("sim.l2_misses_per_krec", "count/krec"),
        ("sim.l3_misses_per_krec", "count/krec"),
        ("sim.dram_accesses_per_krec", "count/krec"),
        ("sim.mshr_stall_cycles_per_krec", "cycles/krec"),
        ("sim.dram_queue_cycles_per_krec", "cycles/krec"),
        ("harness.runner_overhead_s", "s"),
        ("harness.post_ack_ms", "ms"),
        ("harness.queue_wait_ms", "ms"),
        ("harness.run_ms", "ms"),
        ("harness.fetch_ms", "ms"),
        ("harness.cache_hit_ratio", "ratio"),
    ] {
        metrics.push((name.to_string(), unit));
    }
    metrics
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1> [--scale full|tiny]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Option<Opts> {
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, None, None, None, Scale::Full);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1)?;
        match args[i].as_str() {
            "--workload" => {
                workload = Some(value.clone()).filter(|w| WORKLOADS.contains(&w.as_str()))
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value.parse::<f64>().ok().filter(|s| s.is_finite() && *s > 0.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return None,
                }
            }
            _ => return None,
        }
        i += 2;
    }
    Some(Opts { workload: workload?, seed: seed?, seconds: seconds?, trace: trace?, scale })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else { return usage() };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench: workload {}, seed {}, {} s window, {}, {threads} available thread(s)",
        opts.workload,
        opts.seed,
        opts.seconds,
        if opts.trace { "traced" } else { "untraced" }
    );
    let mut report = Report::default();
    let mut cal = calib::Calibrator::new();
    let outcome = match opts.workload.as_str() {
        "fig8-1c" => fig8::run(&opts, &mut report, &mut cal),
        "mix4-ooo-altr" => mix4::run(&opts, &mut report, &mut cal),
        _ => serve::run(&opts, &mut report, &mut cal),
    };
    if let Err(err) = outcome {
        eprintln!("perfbench: {err}");
        return ExitCode::FAILURE;
    }
    let slowness = &cal.readings;
    report.note(format!(
        "host slowness (calibration kernel time over its reference, 1 = reference speed): median {:.3}, \
         range {:.3}..{:.3} over {} readings; every host time above and below is divided by it",
        util::median(slowness),
        util::quantile(slowness, 0.0),
        util::quantile(slowness, 1.0),
        slowness.len()
    ));
    finish(&opts, report);
    ExitCode::SUCCESS
}

/// Checks the metric set, prints the human-readable report and the final
/// JSON line.
fn finish(opts: &Opts, mut report: Report) {
    let expected: BTreeSet<(String, &str)> = if opts.trace {
        per_layer().into_iter().collect()
    } else {
        END_TO_END.iter().map(|(n, u)| ((*n).to_string(), *u)).collect()
    };
    let got: BTreeSet<(String, &str)> =
        report.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
    let complete = got == expected && got.len() == report.metrics.len();
    report.check(complete, || {
        let missing: Vec<_> = expected.difference(&got).collect();
        let extra: Vec<_> = got.difference(&expected).collect();
        format!("metric set mismatch: missing {missing:?}, unexpected {extra:?}")
    });
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    report.check(finite, || "a metric is not a finite number".to_string());

    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "{} metrics ({}):",
        report.metrics.len(),
        if opts.trace { "per layer" } else { "end to end" }
    );
    for m in &report.metrics {
        let value = if m.value != 0.0 && m.value.abs() < 0.01 {
            format!("{:.4e}", m.value)
        } else {
            format!("{:.4}", m.value)
        };
        println!("  {:<44} {value:>16} {:<11} {}", m.name, m.unit, m.base);
    }
    println!(
        "failed_frac = {} ({} of {} checks failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    println!(
        "host times are wall-clock on this machine divided by its slowness; sim.* values are \
         simulated. Every cell starts with cold caches, and the simulator is otherwise unvalidated \
         against hardware."
    );
    // Rust's shortest round-trip formatting keeps every digit. A non-finite
    // value has already failed a check; JSON has no spelling for it.
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json::string(&m.name),
                json::string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
