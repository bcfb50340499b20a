//! `alecto-harness` — regenerate the paper's tables and figures, serve them
//! over HTTP, and record/replay binary `.altr` traces.
//!
//! Run it without arguments for the synopsis of every subcommand and flag.
//!
//! `list` prints every registered benchmark (grouped by suite) and every
//! experiment id, then exits 0.
//!
//! `machines` manages declarative machine descriptions (the
//! `alecto-machine-v1` format, see the `machine` crate and the README's
//! "Machines" section): bare `machines` (or `machines list`) tabulates the
//! built-in registry, `machines show` prints a spec's canonical text and
//! fingerprint, and `machines check` validates files (or names), exiting 2
//! on the first invalid one — CI runs it over every committed spec. Every
//! experiment and `trace replay` accept `--machine <name|file>`; the
//! machine's core model applies sweep-wide unless `--core-model` overrides
//! it, and an unknown or invalid machine exits 2 with usage before any
//! simulation runs.
//!
//! The `trace` subcommands persist and replay access streams:
//!
//! * `record` writes a registered benchmark's stream to a versioned binary
//!   `.altr` file (see the `traceio` crate for the format);
//! * `info` prints the trace header plus per-field statistics from one
//!   full decode that checks every block's framing and records and the body
//!   checksum, exiting 2 with a block-numbered error on the first structural
//!   defect or checksum mismatch;
//! * `replay` drives the full hierarchy × selector grid of the paper's main
//!   comparison from a trace — a `file:PATH` spec replays a recorded file,
//!   a benchmark name runs the same grid from the generator, and the two
//!   emit byte-identical `alecto-bench-v2` cells (CI's `trace-roundtrip`
//!   job pins this);
//! * `import` converts a ChampSim-style text/CSV dump into `.altr`;
//!   `--dir DIR` bulk-imports every `.txt`/`.csv`/`.champsim` file in a
//!   directory across a worker pool, continuing past per-file errors and
//!   rendering a per-file summary table (exit 1 when any file failed). Two
//!   inputs with one stem (`a.txt`, `a.csv`) would write the same `a.altr`,
//!   so both fail and neither is written.
//!
//! The `fuzz` subcommand family drives the adversarial scenario fuzzer (the
//! `fuzz` crate; see ARCHITECTURE.md § Fuzzing):
//!
//! * `run` scans `--budget` seeded scenarios against the oracle panel
//!   (sanity, determinism, pathology — subset via `--oracle a,b`); firing
//!   scenarios are shrunk (unless `--no-shrink`) and, with `--out DIR`,
//!   persisted as `.altr` + machine + manifest repro triples. The same
//!   `--seed` and `--budget` produce byte-identical findings whatever
//!   `--jobs` is. Exit 0 clean, 1 with findings, 2 on usage errors;
//! * `repro` replays a persisted manifest and exits 0 only when the recorded
//!   oracle fires again *and* the report digest matches byte-for-byte;
//! * `corpus` tabulates the repro manifests in a directory — the corpus the
//!   `stress` experiment graduates via `ALECTO_STRESS_CORPUS`.
//!
//! Each subcommand (an experiment, a `trace` or `fuzz` action, `serve`)
//! takes only the flags its usage line lists, its row of `COMMANDS`; one
//! loop parses them all. Any other flag, including one a sibling reads,
//! exits 2 naming itself, instead of being silently ignored.
//!
//! `serve` runs the sweep server (`harness::server`; wire format in
//! `docs/PROTOCOL.md`): sweeps submitted over HTTP, every cell memoized in
//! a 4096-cell cache that `--cache-dir` persists, `--jobs N` cell workers
//! per sweep by default, and results byte-identical to the CLI's `--json`.
//!
//! Flag interaction is explicit and position-independent:
//!
//! 1. the scale starts at the default (or quick, for `--quick`/`quick`);
//! 2. `--accesses N` then sets the single-core budget to `N` **and derives
//!    the per-core multi-core budget as `max(N / 3, 100)`**, mirroring the
//!    default scale's ratio. `N` must be positive: a zero budget is always
//!    a typo, so it exits 2 with usage like `--jobs 0` does;
//! 3. `--multicore-accesses N` overrides that derived multi-core budget
//!    (also positive, for the same reason);
//! 4. `--core-model {approx|ooo}` selects the per-core timing model every
//!    sweep cell is configured with (default `approx`). Unlike the flags
//!    above it changes simulated results, not just scale: `ooo` runs the
//!    staged ROB/LSQ/branch-predictor pipeline and fills the nullable
//!    `branch_mpki`/`rob_occupancy` report fields.
//!
//! `--jobs N` picks the worker-thread count of the parallel experiment
//! engine (default: one per available hardware thread), which spreads whole
//! grid cells across threads. It is the only execution knob and changes
//! wall-clock only — results are byte-identical for every worker count.
//! An experiment run or a `trace replay` simulates each distinct cell once:
//! figures share cells (fig14 repeats half of its own), so the run scopes
//! in one `CellCache`, as the sweep server does across requests.
//! `--json PATH` additionally writes the machine-readable
//! `alecto-bench-v2` report to `PATH`. Both report (`--json`) and trace
//! (`--out`) destinations are checked for writability up front, so a bad
//! path exits 2 before minutes of simulation, not after. The check removes
//! any file it created, so a later usage error (an unknown experiment or
//! trace spec) leaves no empty report or trace behind.

use std::sync::Arc;

use alecto_types::TraceSource;
use harness::figures;
use harness::report::{experiments_to_json, Experiment, Table};
use harness::{with_cell_executor, CellCache, RunScale};

/// Each subcommand and the flags it takes, its usage line's flags; [`parse`]
/// exits 2 on any other flag, naming it. Bulk `trace import --dir` names
/// each trace after its file and runs a worker pool, so it takes other flags
/// than a single import.
const COMMANDS: &[(&str, &str)] = &[
    (
        "an experiment",
        "--accesses --multicore-accesses --quick --jobs --machine --core-model --json",
    ),
    ("serve", "--addr --jobs --cache-dir"),
    ("trace record", "--accesses --out"),
    ("trace info", ""),
    ("trace replay", "--accesses --jobs --machine --core-model --json"),
    ("trace import", "--out --name --memory-intensive"),
    ("trace import --dir", "--dir --out --jobs --memory-intensive"),
    (
        "fuzz run",
        "--seed --budget --accesses --jobs --machine --oracle --threshold --out --no-shrink",
    ),
    ("fuzz repro", ""),
    ("fuzz corpus", ""),
];

/// Every experiment id the CLI runs: [`figures::EXPERIMENTS`]' ids, then
/// the two runs of all of them.
fn experiment_ids() -> Vec<&'static str> {
    figures::EXPERIMENTS.iter().map(|&(id, _)| id).chain(["all", "quick"]).collect()
}

fn usage() -> ! {
    let ids: Vec<String> = experiment_ids().chunks(10).map(|line| line.join(" ")).collect();
    eprintln!(
        "usage: alecto-harness <experiment> [--accesses N] [--multicore-accesses N] [--quick]\n\
         \x20                  [--jobs N] [--machine NAME|FILE]\n\
         \x20                  [--core-model approx|ooo] [--json PATH]\n\
         \x20      alecto-harness list\n\
         \x20      alecto-harness machines [list]\n\
         \x20      alecto-harness machines show <name|file>\n\
         \x20      alecto-harness machines check <name|file>...\n\
         \x20      alecto-harness serve [--addr HOST:PORT] [--jobs N] [--cache-dir PATH]\n\
         \x20      alecto-harness trace record <benchmark> [--accesses N] --out PATH\n\
         \x20      alecto-harness trace info <file.altr>\n\
         \x20      alecto-harness trace replay <benchmark|file:PATH> [--accesses N] [--jobs N]\n\
         \x20                                  [--machine NAME|FILE]\n\
         \x20                                  [--core-model approx|ooo] [--json PATH]\n\
         \x20      alecto-harness trace import <records.txt> --out PATH [--name NAME]\n\
         \x20                                  [--memory-intensive]\n\
         \x20      alecto-harness trace import --dir DIR [--out DIR] [--jobs N]\n\
         \x20                                  [--memory-intensive]\n\
         \x20      alecto-harness fuzz run [--seed N] [--budget N] [--accesses N] [--jobs N]\n\
         \x20                              [--machine NAME|FILE] [--oracle KINDS]\n\
         \x20                              [--threshold PCT] [--out DIR] [--no-shrink]\n\
         \x20      alecto-harness fuzz repro <manifest>\n\
         \x20      alecto-harness fuzz corpus <dir>\n\
         experiments: {}\n\
         flags:\n\
         \x20 --accesses N            single-core accesses (N >= 1); the multi-core per-core\n\
         \x20                         budget is derived as max(N / 3, 100) unless overridden\n\
         \x20 --multicore-accesses N  per-core accesses for multi-core runs (N >= 1)\n\
         \x20 --quick                 use the reduced CI scale (same as the `quick` experiment)\n\
         \x20 --jobs N                worker threads (N >= 1; default: available parallelism)\n\
         \x20                         that whole sweep cells are spread across; never changes\n\
         \x20                         results, only wall-clock\n\
         \x20 --machine NAME|FILE     machine description every sweep cell lowers its config\n\
         \x20                         from: a built-in name (mobile desktop server manycore,\n\
         \x20                         see `machines`) or an alecto-machine-v1 file; supplies\n\
         \x20                         cache geometry, DRAM, timing, core widths, core count\n\
         \x20                         and the default core model; validated before anything\n\
         \x20                         runs (exit 2 on an unknown or invalid machine)\n\
         \x20 --core-model KIND       per-core timing model for every sweep cell: `approx`\n\
         \x20                         (analytic frontiers, the default) or `ooo` (staged\n\
         \x20                         ROB/LSQ/branch-predictor pipeline); overrides the\n\
         \x20                         selected machine's model; unlike --jobs this changes\n\
         \x20                         results — reports carry branch_mpki and rob_occupancy\n\
         \x20                         under `ooo`\n\
         \x20 --json PATH             also write the alecto-bench-v2 JSON report to PATH\n\
         \x20                         (the path must be creatable — checked up front)\n\
         \x20 --out PATH              destination .altr file for trace record/import\n\
         \x20                         (checked up front like --json)\n\
         \x20 --name NAME             benchmark name stamped into an imported trace's header\n\
         \x20                         (default: the input file stem)\n\
         \x20 --memory-intensive      mark an imported trace as memory intensive\n\
         \x20 --dir DIR               trace import: bulk-import every .txt/.csv/.champsim\n\
         \x20                         file in DIR on a worker pool (per-file summary table;\n\
         \x20                         continues past failures, exit 1 if any file failed)\n\
         \x20 --seed N                fuzz run: master seed (default 1); the same seed and\n\
         \x20                         budget reproduce byte-identical findings at any --jobs\n\
         \x20 --budget N              fuzz run: scenarios to generate and check (default 16)\n\
         \x20 --oracle KINDS          fuzz run: comma-separated oracle subset out of\n\
         \x20                         sanity,determinism,pathology (default: all three)\n\
         \x20 --threshold PCT         fuzz run: allowed selector shortfall vs the best static\n\
         \x20                         prefetcher stack before the pathology oracle fires\n\
         \x20                         (default 5)\n\
         \x20 --no-shrink             fuzz run: keep firing scenarios at full size instead of\n\
         \x20                         dropping components / halving accesses\n\
         \x20 --addr HOST:PORT        serve: listen address (default 127.0.0.1:7171; port 0\n\
         \x20                         picks a free port, printed on startup)\n\
         \x20 --cache-dir PATH        serve: persist cache entries across restarts under PATH",
        ids.join("\n             ")
    );
    std::process::exit(2);
}

/// The `list` subcommand: every registered benchmark and experiment id.
fn run_list() -> ! {
    println!("experiments:");
    println!("  {}", experiment_ids().join(" "));
    println!("benchmarks (suite: members):");
    for suite in traces::Suite::ALL {
        println!("  {:14} {}", format!("{}:", suite.name()), suite.benchmarks().join(" "));
    }
    println!(
        "  {:14} any recorded .altr trace (see `trace record` / `trace import`)",
        "file:<PATH>"
    );
    std::process::exit(0);
}

/// The `machines` subcommand family: list / show / check.
fn run_machines(args: &[String]) -> ! {
    match args.first().map(String::as_str) {
        None | Some("list") => {
            if args.len() > 1 {
                usage();
            }
            let mut table = Table::new(vec!["name", "cores", "core model", "fingerprint"]);
            for name in machine::BUILTIN_NAMES {
                let spec = machine::builtin(name).expect("built-in machines always parse");
                table.push_row(vec![
                    spec.name.clone(),
                    spec.cores.to_string(),
                    spec.core_model.label().to_string(),
                    format!("0x{}", spec.fingerprint_hex()),
                ]);
            }
            println!("{}", table.render());
            println!("run any experiment (or trace replay) with --machine <name|file>");
            std::process::exit(0);
        }
        Some("show") => {
            let [_, arg] = args else { usage() };
            let spec = machine::load(arg).unwrap_or_else(|err| {
                eprintln!("error: {err}");
                usage();
            });
            print!("{}", spec.canonical_text());
            println!("\n# fingerprint: 0x{}", spec.fingerprint_hex());
            std::process::exit(0);
        }
        Some("check") => {
            let targets = &args[1..];
            if targets.is_empty() {
                usage();
            }
            for arg in targets {
                match machine::load(arg) {
                    Ok(spec) => println!(
                        "{arg}: ok (machine {:?}, {} core(s), fingerprint 0x{})",
                        spec.name,
                        spec.cores,
                        spec.fingerprint_hex()
                    ),
                    Err(err) => {
                        eprintln!("error: {err}");
                        std::process::exit(2);
                    }
                }
            }
            std::process::exit(0);
        }
        Some(_) => usage(),
    }
}

/// Fails fast (exit 2 + usage) when `path` cannot be created, naming `flag`.
/// A full-scale run takes minutes; discovering the bad destination only at
/// the final write would throw the whole run away.
///
/// The probe removes a file it created, so a command that later fails (an
/// unknown experiment or trace spec) leaves no empty report or 0-byte trace
/// behind; an existing destination is opened for append and keeps its bytes.
fn check_writable(path: &str, flag: &str) {
    let probe = match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
        Ok(_) => std::fs::remove_file(path),
        Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => {
            std::fs::OpenOptions::new().append(true).open(path).map(drop)
        }
        Err(err) => Err(err),
    };
    if let Err(err) = probe {
        eprintln!("error: {flag} {path}: {err}");
        usage();
    }
}

/// Writes a trace via a sibling temp file and renames it into place, so
/// `--out` never truncates a file the operation is still reading from
/// (`trace record file:X --out X` is a valid in-place transcode) and a
/// failed write never leaves a half-finished `.altr` behind.
fn write_trace_atomically(
    out: &str,
    write: impl FnOnce(&std::path::Path) -> std::io::Result<u64>,
) -> std::io::Result<u64> {
    let tmp = std::path::PathBuf::from(format!("{out}.tmp-{}", std::process::id()));
    match write(&tmp).and_then(|count| std::fs::rename(&tmp, out).map(|()| count)) {
        Ok(count) => Ok(count),
        Err(err) => {
            let _ = std::fs::remove_file(&tmp);
            Err(err)
        }
    }
}

/// [`figures::resolve_trace_spec`], exiting 2 with usage when the spec does
/// not resolve: before any simulation runs.
fn resolve_spec(spec: &str, accesses: Option<usize>) -> (TraceSource, u64) {
    figures::resolve_trace_spec(spec, accesses).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        usage();
    })
}

/// Every flag any subcommand reads, as [`parse`] found them. A subcommand
/// reads the fields of the flags its [`COMMANDS`] row lists; the others
/// stay unset.
#[derive(Default)]
struct Flags {
    /// The arguments that are not flags or flag values, in order.
    positionals: Vec<String>,
    accesses: Option<usize>,
    multicore_accesses: Option<usize>,
    quick: bool,
    jobs: Option<usize>,
    /// `--machine`'s argument and the machine it names.
    machine: Option<(String, machine::MachineSpec)>,
    core_model: Option<cpu::CoreModelKind>,
    json: Option<String>,
    out: Option<String>,
    name: Option<String>,
    memory_intensive: bool,
    dir: Option<String>,
    seed: Option<u64>,
    budget: Option<u64>,
    oracles: Option<Vec<fuzz::OracleKind>>,
    threshold: Option<f64>,
    no_shrink: bool,
    addr: Option<String>,
    cache_dir: Option<String>,
}

impl Flags {
    /// The scale an experiment or `trace replay` runs at, in the order the
    /// module docs give. The sweep server resolves its request bodies
    /// through the same [`RunScale::resolve`], so equivalent HTTP and CLI
    /// runs are byte-identical.
    fn scale(&self, quick: bool) -> RunScale {
        let mut scale = RunScale::resolve(quick, self.accesses, self.multicore_accesses, self.jobs);
        if let Some((_, spec)) = &self.machine {
            scale = scale.with_machine(spec.clone());
        }
        if let Some(kind) = self.core_model {
            scale = scale.with_core_model(kind);
        }
        scale
    }
}

/// The one flag loop: parses `args` for `command`, a [`COMMANDS`] row. A
/// flag outside the row exits 2 naming itself; a missing or malformed
/// value, a zero count, and an unknown machine, core model or oracle exit 2
/// with usage, all before anything runs.
fn parse(command: &str, args: &[String]) -> Flags {
    let Some(&(_, accepted)) = COMMANDS.iter().find(|&&(name, _)| name == command) else { usage() };
    let mut flags = Flags::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if !flag.starts_with("--") {
            flags.positionals.push(arg.clone());
            continue;
        }
        if !accepted.split(' ').any(|name| name == flag) {
            eprintln!("error: {command} does not take {flag}");
            usage();
        }
        match flag {
            "--accesses" => flags.accesses = Some(count(&mut args)),
            "--multicore-accesses" => flags.multicore_accesses = Some(count(&mut args)),
            "--jobs" => flags.jobs = Some(count(&mut args)),
            "--budget" => flags.budget = Some(count(&mut args) as u64),
            "--quick" => flags.quick = true,
            "--machine" => {
                let arg = parse_path_value(&mut args);
                let spec = machine::load(&arg).unwrap_or_else(|err| {
                    eprintln!("error: --machine {err}");
                    usage();
                });
                flags.machine = Some((arg, spec));
            }
            "--core-model" => {
                let label: String = parse_flag_value(&mut args);
                let Some(kind) = cpu::CoreModelKind::from_label(&label) else {
                    eprintln!("error: unknown core model {label:?} (expected approx or ooo)");
                    usage();
                };
                flags.core_model = Some(kind);
            }
            "--json" => flags.json = Some(parse_path_value(&mut args)),
            "--out" => flags.out = Some(parse_path_value(&mut args)),
            "--name" => flags.name = Some(parse_path_value(&mut args)),
            "--memory-intensive" => flags.memory_intensive = true,
            "--dir" => flags.dir = Some(parse_path_value(&mut args)),
            "--seed" => flags.seed = Some(parse_flag_value(&mut args)),
            "--oracle" => {
                let labels: String = parse_flag_value(&mut args);
                let mut kinds = Vec::new();
                for label in labels.split(',') {
                    let Some(kind) = fuzz::OracleKind::from_label(label.trim()) else {
                        eprintln!(
                            "error: unknown oracle {label:?} (expected sanity, determinism or pathology)"
                        );
                        usage();
                    };
                    if !kinds.contains(&kind) {
                        kinds.push(kind);
                    }
                }
                flags.oracles = Some(kinds);
            }
            "--threshold" => {
                let pct: f64 = parse_flag_value(&mut args);
                if !pct.is_finite() || pct < 0.0 {
                    usage();
                }
                flags.threshold = Some(pct);
            }
            "--no-shrink" => flags.no_shrink = true,
            "--addr" => flags.addr = Some(parse_path_value(&mut args)),
            "--cache-dir" => flags.cache_dir = Some(parse_path_value(&mut args)),
            _ => unreachable!("{flag} is in a COMMANDS row but has no parse arm"),
        }
    }
    flags
}

/// A count flag's value, which must be positive: zero is always a typo (a
/// zero access budget would emit an all-NaN report).
fn count(args: &mut std::slice::Iter<'_, String>) -> usize {
    let n = parse_flag_value(args);
    if n == 0 {
        usage();
    }
    n
}

fn parse_flag_value<T: std::str::FromStr>(args: &mut std::slice::Iter<'_, String>) -> T {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

/// Like [`parse_flag_value`] for path/name operands, rejecting a following
/// flag: a leading dash is a forgotten value, and swallowing the next flag
/// would silently change the run (e.g. `--json --quick` dropping quick mode).
fn parse_path_value(args: &mut std::slice::Iter<'_, String>) -> String {
    let value = args.next().cloned().unwrap_or_else(|| usage());
    if value.starts_with('-') {
        usage();
    }
    value
}

/// The one run step of an experiment and of `trace replay`: probes the
/// `--json` destination, builds the experiments at the flags' scale, prints
/// each and writes the report. `build` runs after the probe, so when it
/// exits 2 on an unknown experiment id or trace spec the probe has left no
/// file behind.
fn run_and_report(
    flags: &Flags,
    quick: bool,
    build: impl FnOnce(&RunScale) -> Vec<Experiment>,
) -> ! {
    if let Some(path) = &flags.json {
        check_writable(path, "--json");
    }
    // One cache per run: a cell that two figures share, or one figure runs
    // twice, simulates once.
    let cache = Arc::new(CellCache::new(CellCache::DEFAULT_CAPACITY));
    let scale = flags.scale(quick);
    let experiments = with_cell_executor(cache, || build(&scale));
    for e in &experiments {
        println!("{}", e.render());
    }
    if let Some(path) = &flags.json {
        if let Err(err) = std::fs::write(path, experiments_to_json(&experiments)) {
            eprintln!("error: cannot write JSON report to {path}: {err}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// An experiment run: the one positional names a [`figures::builder`] id.
fn run_experiment(flags: Flags) -> ! {
    let [id] = &flags.positionals[..] else { usage() };
    run_and_report(&flags, flags.quick || id == "quick", |scale| {
        let Some(rows) = figures::builder(id) else { usage() };
        figures::build(rows, scale)
    })
}

/// The `serve` subcommand: run the sweep server until killed. Exit 2 on bad
/// flags, 1 when binding or serving fails.
fn run_serve(flags: Flags) -> ! {
    let [] = flags.positionals[..] else { usage() };
    let addr = flags.addr.unwrap_or_else(|| "127.0.0.1:7171".to_string());
    let mut config = harness::ServerConfig::default();
    config.default_jobs = flags.jobs.unwrap_or(config.default_jobs);
    config.cache_dir = flags.cache_dir.map(Into::into);
    let server = harness::Server::bind(&addr, config).unwrap_or_else(|err| {
        eprintln!("error: cannot bind {addr}: {err}");
        std::process::exit(1);
    });
    match server.local_addr() {
        // The exact line scripts (and the CI smoke job) wait for.
        Ok(local) => println!("alecto-harness serving on http://{local}"),
        Err(_) => println!("alecto-harness serving on http://{addr}"),
    }
    let err = server.run().expect_err("run only returns on listener failure");
    eprintln!("error: server terminated: {err}");
    std::process::exit(1);
}

/// The `trace` subcommand family: record / info / replay / import.
fn run_trace(action: &str, flags: Flags) -> ! {
    match (action, &flags.positionals[..]) {
        ("record", [benchmark]) => {
            let out = out_path(action, &flags);
            let (source, seed) = resolve_spec(benchmark, flags.accesses);
            let count =
                write_trace_atomically(out, |tmp| traceio::record_source(&source, seed, tmp))
                    .unwrap_or_else(|err| {
                        eprintln!("error: cannot record to {out}: {err}");
                        std::process::exit(1);
                    });
            let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {count} record(s) of {} to {out} ({bytes} bytes, {:.2} B/record)",
                source.name(),
                if count == 0 { 0.0 } else { bytes as f64 / count as f64 }
            );
            std::process::exit(0);
        }
        ("info", [path]) => run_trace_info(path),
        ("replay", [spec]) => run_and_report(&flags, false, |scale| {
            let (source, _) = resolve_spec(spec, flags.accesses);
            vec![figures::replay(std::slice::from_ref(&source), scale)]
        }),
        ("import", []) => {
            let Some(dir) = &flags.dir else { usage() };
            run_trace_import_dir(dir, &flags)
        }
        ("import", [input]) if flags.dir.is_none() => {
            let out = out_path(action, &flags);
            let file = std::fs::File::open(input).unwrap_or_else(|err| {
                eprintln!("error: cannot read {input}: {err}");
                usage();
            });
            let name = flags.name.clone().unwrap_or_else(|| stem(std::path::Path::new(input)));
            let count = write_trace_atomically(out, |tmp| {
                let reader = std::io::BufReader::new(file);
                traceio::import_text(reader, &name, flags.memory_intensive, tmp)
            })
            .unwrap_or_else(|err| {
                eprintln!("error: importing {input}: {err}");
                std::process::exit(2);
            });
            println!("imported {count} record(s) from {input} to {out} (benchmark {name:?})");
            std::process::exit(0);
        }
        _ => usage(),
    }
}

/// `trace record`'s and `trace import`'s `--out`, which they need, probed
/// with [`check_writable`].
fn out_path<'a>(action: &str, flags: &'a Flags) -> &'a str {
    let Some(out) = &flags.out else {
        eprintln!("error: trace {action} needs --out PATH");
        usage();
    };
    check_writable(out, "--out");
    out
}

/// The files in `dir` with one of `extensions`, sorted; an unreadable `dir`
/// exits 2 with usage.
fn files_in(dir: &str, extensions: &[&str]) -> Vec<std::path::PathBuf> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|err| {
        eprintln!("error: cannot read {dir}: {err}");
        usage();
    });
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| extensions.iter().any(|e| ext == *e)))
        .collect();
    files.sort();
    files
}

/// The benchmark name an imported file gets: its file stem.
fn stem(path: &std::path::Path) -> String {
    path.file_stem().map_or_else(|| "imported".to_string(), |s| s.to_string_lossy().into_owned())
}

/// `trace import --dir`: fan every ChampSim text file in `dir` across a
/// worker pool, continuing past per-file failures, and render a per-file
/// summary table. Inputs that would write the same `<stem>.altr` fail
/// without writing it. Exits 0 when every file imported, 1 when any failed,
/// 2 when the directory is unreadable or holds no importable files.
fn run_trace_import_dir(dir: &str, flags: &Flags) -> ! {
    let (jobs, memory_intensive) = (flags.jobs.unwrap_or(0), flags.memory_intensive);
    let inputs = files_in(dir, &["txt", "csv", "champsim"]);
    if inputs.is_empty() {
        eprintln!("error: no .txt/.csv/.champsim files in {dir}");
        std::process::exit(2);
    }
    let out_root = std::path::PathBuf::from(flags.out.as_deref().unwrap_or(dir));
    if let Err(err) = std::fs::create_dir_all(&out_root) {
        eprintln!("error: cannot create {}: {err}", out_root.display());
        usage();
    }

    let stems: Vec<String> = inputs.iter().map(|input| stem(input)).collect();
    let outputs: Vec<std::path::PathBuf> =
        stems.iter().map(|stem| out_root.join(format!("{stem}.altr"))).collect();
    // Inputs that share an output path (`a.txt` and `a.csv`) are all refused:
    // importing them would let one silently overwrite the other.
    let mut importers: std::collections::BTreeMap<&std::path::Path, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (index, out) in outputs.iter().enumerate() {
        importers.entry(out).or_default().push(index);
    }

    // (record count, output path) on success, a message naming the cause on
    // failure, in input order whatever the pool interleaving.
    let results = alecto_types::par_map(inputs.len(), jobs, |index| {
        let (input, stem, out) = (&inputs[index], &stems[index], &outputs[index]);
        let sharing = &importers[out.as_path()];
        if sharing.len() > 1 {
            let others: Vec<String> = sharing
                .iter()
                .filter(|&&other| other != index)
                .map(|&other| inputs[other].display().to_string())
                .collect();
            return Err(format!(
                "output {} is also the output of {}",
                out.display(),
                others.join(", ")
            ));
        }
        let out_str = out.to_string_lossy().into_owned();
        std::fs::File::open(input)
            .map_err(|err| format!("cannot read: {err}"))
            .and_then(|file| {
                write_trace_atomically(&out_str, |tmp| {
                    traceio::import_text(std::io::BufReader::new(file), stem, memory_intensive, tmp)
                })
                .map_err(|err| err.to_string())
            })
            .map(|count| (count, out_str))
    });

    let mut table = Table::new(vec!["input", "records", "output", "status"]);
    for (input, outcome) in inputs.iter().zip(&results) {
        let (count, out, status) = match outcome {
            Ok((count, out)) => (count.to_string(), out.clone(), "ok".to_string()),
            Err(err) => ("-".to_string(), "-".to_string(), format!("failed: {err}")),
        };
        table.push_row(vec![input.display().to_string(), count, out, status]);
    }
    let failed = results.iter().filter(|outcome| outcome.is_err()).count();
    println!("{}", table.render());
    println!(
        "imported {}/{} file(s) from {dir} on {} worker(s)",
        results.len() - failed,
        results.len(),
        alecto_types::worker_count(jobs, inputs.len())
    );
    std::process::exit(i32::from(failed > 0));
}

/// `trace info`: header fields plus the stats of one full verified decode
/// pass; a structural defect or checksum mismatch exits 2 with the error,
/// which names the block for structural ones.
fn run_trace_info(path: &str) -> ! {
    let reader = traceio::TraceReader::open(std::path::Path::new(path)).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        usage();
    });
    let stats = reader.stats().unwrap_or_else(|err| {
        eprintln!("error: {path}: {err}");
        std::process::exit(2);
    });
    let header = reader.header();
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut table = Table::new(vec!["field", "value"]);
    let rows: Vec<(&str, String)> = vec![
        ("benchmark", header.name.clone()),
        ("memory intensive", header.memory_intensive.to_string()),
        ("format version", traceio::FORMAT_VERSION.to_string()),
        ("generation seed", format!("{:#018x}", header.seed)),
        ("records", header.record_count.to_string()),
        ("blocks", stats.blocks.to_string()),
        ("checksum", format!("{:#018x} (verified)", header.checksum)),
        ("file size", format!("{bytes} bytes")),
        (
            "encoded size",
            format!(
                "{:.2} B/record (raw in-memory: {})",
                if header.record_count == 0 {
                    0.0
                } else {
                    bytes as f64 / header.record_count as f64
                },
                size_of::<alecto_types::MemoryRecord>()
            ),
        ),
        ("loads", stats.loads.to_string()),
        ("stores", stats.stores.to_string()),
        ("dependent (pointer-chase)", stats.dependent.to_string()),
        ("instructions", stats.instructions.to_string()),
        ("max gap", stats.max_gap.to_string()),
        ("distinct PCs", stats.distinct_pcs.to_string()),
        ("touched 4K pages", stats.touched_pages.to_string()),
        ("address range", format!("{:#x}..={:#x}", stats.min_addr, stats.max_addr)),
    ];
    for (field, value) in rows {
        table.push_row(vec![field.to_string(), value]);
    }
    println!("{}", table.render());
    std::process::exit(0);
}

/// The `fuzz` subcommand family: run / repro / corpus (see the module docs
/// for exit codes). `fuzz run`'s defaults are [`fuzz::FuzzConfig::new`]'s;
/// each flag given overrides one.
fn run_fuzz(action: &str, flags: Flags) -> ! {
    match (action, &flags.positionals[..]) {
        ("run", []) => {
            let (machine_label, spec) = flags
                .machine
                .unwrap_or_else(|| ("table1".to_string(), machine::MachineSpec::table1(1)));
            // Check the repro destination up front, like --json/--out do:
            // finding a pathology and then losing it to a typo'd path would
            // throw the whole scan away.
            if let Some(dir) = &flags.out {
                if let Err(err) = std::fs::create_dir_all(dir) {
                    eprintln!("error: --out {dir}: {err}");
                    usage();
                }
            }
            let mut config = fuzz::FuzzConfig::new(flags.seed.unwrap_or(1), spec);
            config.budget = flags.budget.unwrap_or(config.budget);
            config.accesses = flags.accesses.unwrap_or(config.accesses);
            config.jobs = flags.jobs.unwrap_or(config.jobs);
            if let Some(kinds) = flags.oracles {
                config.panel.kinds = kinds;
            }
            let threshold = &mut config.panel.pathology_threshold_pct;
            *threshold = flags.threshold.unwrap_or(*threshold);
            config.out_dir = flags.out.map(Into::into);
            config.shrink = !flags.no_shrink;
            let outcome = fuzz::run_fuzz(&config).unwrap_or_else(|err| {
                eprintln!("error: persisting repro: {err}");
                std::process::exit(1);
            });
            print!("{}", outcome.render(&machine_label, &config.panel));
            std::process::exit(i32::from(!outcome.findings.is_empty()));
        }
        ("repro", [manifest]) => {
            let replay = fuzz::replay(std::path::Path::new(manifest)).unwrap_or_else(|err| {
                eprintln!("error: {err}");
                std::process::exit(2);
            });
            println!(
                "scenario = {} (oracle {})",
                replay.manifest.name,
                replay.manifest.oracle.label()
            );
            println!(
                "digest = {:#018x} (manifest {:#018x}, {})",
                replay.digest,
                replay.manifest.report_digest,
                if replay.digest_match { "match" } else { "MISMATCH" }
            );
            match &replay.firing {
                Some(firing) => println!("oracle fired: {}", firing.detail),
                None => println!("oracle did not fire"),
            }
            if replay.reproduced() {
                println!("reproduced");
                std::process::exit(0);
            }
            println!("NOT reproduced");
            std::process::exit(1);
        }
        ("corpus", [dir]) => {
            let manifests = files_in(dir, &["manifest"]);
            let mut table = Table::new(vec!["manifest", "oracle", "accesses", "digest", "trace"]);
            for path in &manifests {
                let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
                    eprintln!("error: {}: {err}", path.display());
                    std::process::exit(2);
                });
                let manifest = fuzz::Manifest::parse(&text).unwrap_or_else(|err| {
                    eprintln!("error: {}: {err}", path.display());
                    std::process::exit(2);
                });
                table.push_row(vec![
                    manifest.name,
                    manifest.oracle.label().to_string(),
                    manifest.accesses.to_string(),
                    format!("{:#018x}", manifest.report_digest),
                    manifest.trace,
                ]);
            }
            println!("{}", table.render());
            println!(
                "{} repro(s) in {dir}; export ALECTO_STRESS_CORPUS={dir} to graduate the .altr \
                 traces into the `stress` experiment",
                manifests.len()
            );
            std::process::exit(0);
        }
        _ => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else { usage() };
    match first.as_str() {
        "list" => run_list(),
        "machines" => run_machines(&args[1..]),
        "serve" => run_serve(parse("serve", &args[1..])),
        "trace" | "fuzz" => {
            let Some(action) = args.get(1) else { usage() };
            let rest = &args[2..];
            // An argument `--dir` is always the flag: no import value may
            // start with a dash.
            let bulk = action == "import" && rest.iter().any(|arg| arg == "--dir");
            let command = format!("{first} {action}{}", if bulk { " --dir" } else { "" });
            let run = if first == "trace" { run_trace } else { run_fuzz };
            run(action, parse(&command, rest))
        }
        _ => run_experiment(parse("an experiment", &args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::CellExecutor;
    use std::collections::HashSet;

    /// The ids of the rows `id` runs, `None` for an unknown id.
    fn row_ids(id: &str) -> Option<Vec<&'static str>> {
        figures::builder(id).map(|rows| rows.iter().map(|&(row, _)| row).collect())
    }

    #[test]
    fn every_listed_experiment_id_dispatches() {
        let ids = experiment_ids();
        let distinct: HashSet<&str> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), ids.len(), "an experiment id is listed twice: {ids:?}");
        for &(id, _) in figures::EXPERIMENTS {
            assert_eq!(row_ids(id), Some(vec![id]), "{id} must run its own row");
        }
        for id in ["all", "quick"] {
            assert_eq!(row_ids(id).as_deref(), Some(&ids[..ids.len() - 2]), "{id} runs every row");
        }
    }

    #[test]
    fn unknown_experiment_ids_are_rejected() {
        for id in ["fig99", "", "trace", "compare", "list", "serve"] {
            assert_eq!(row_ids(id), None, "{id} must not dispatch");
        }
        // The paper-section alias stays dispatchable though unlisted.
        assert_eq!(row_ids("vi_h"), Some(vec!["bandit-ext"]));
    }

    #[test]
    fn cli_scale_resolution_matches_documented_order() {
        assert_eq!(RunScale::resolve(false, None, None, None), RunScale::default());
        assert_eq!(RunScale::resolve(true, None, None, None), RunScale::quick());
        let derived = RunScale::resolve(false, Some(9_000), None, Some(2));
        assert_eq!((derived.accesses, derived.multicore_accesses, derived.jobs), (9_000, 3_000, 2));
        // The floor mirrors the CLI contract: max(N / 3, 100).
        assert_eq!(RunScale::resolve(false, Some(30), None, None).multicore_accesses, 100);
        // An explicit multi-core budget overrides the derived one.
        assert_eq!(RunScale::resolve(true, Some(900), Some(42), None).multicore_accesses, 42);
    }

    #[test]
    fn every_command_parses_every_flag_it_lists() {
        let value = |flag| match flag {
            "--quick" | "--memory-intensive" | "--no-shrink" => None,
            "--machine" => Some("desktop"),
            "--core-model" => Some("ooo"),
            "--oracle" => Some("sanity"),
            _ => Some("7"),
        };
        for &(command, flags) in COMMANDS {
            let args: Vec<String> = flags
                .split_whitespace()
                .flat_map(|flag| std::iter::once(flag).chain(value(flag)))
                .map(String::from)
                .collect();
            assert!(parse(command, &args).positionals.is_empty(), "{command} {args:?}");
        }
    }

    #[test]
    fn one_run_simulates_each_distinct_cell_once() {
        let scale = RunScale::with_accesses(100, 100).with_jobs(1);
        let both = || vec![figures::fig13(&scale), figures::fig14(&scale)];
        // The memo `run_and_report` scopes in for a run.
        let cache = Arc::new(CellCache::new(CellCache::DEFAULT_CAPACITY));
        let once = with_cell_executor(Arc::clone(&cache) as Arc<dyn CellExecutor>, both);
        assert_eq!(experiments_to_json(&once), experiments_to_json(&both()));
        // At one worker each miss is one simulation, and each key looked up
        // stays resident: equal counts mean no key simulated twice.
        let counters = cache.counters();
        assert_eq!(counters.evictions, 0);
        assert_eq!(counters.misses, counters.resident, "a key was simulated twice");
        assert!(counters.hits() > 0, "fig13 and fig14 repeat cells");
    }
}
