//! `alecto-harness` — regenerate the paper's tables and figures, gate
//! performance regressions between report files, and record/replay binary
//! `.altr` traces.
//!
//! ```text
//! alecto-harness <experiment> [--accesses N] [--multicore-accesses N]
//!                [--quick] [--jobs N] [--machine NAME|FILE]
//!                [--core-model approx|ooo] [--json PATH]
//! alecto-harness compare <baseline.json> <candidate.json> [--tolerance PCT]
//! alecto-harness list
//! alecto-harness machines [list]
//! alecto-harness machines show <name|file>
//! alecto-harness machines check <name|file>...
//! alecto-harness serve [--addr HOST:PORT] [--sweep-workers N] [--jobs N]
//!                      [--cache-capacity N] [--cache-dir PATH]
//! alecto-harness trace record <benchmark> [--accesses N] --out PATH
//! alecto-harness trace info <file.altr> [--verify]
//! alecto-harness trace replay <benchmark|file:PATH> [--accesses N] [--jobs N]
//!                             [--machine NAME|FILE] [--core-model approx|ooo] [--json PATH]
//! alecto-harness trace import <records.txt> --out PATH [--name NAME] [--memory-intensive]
//! alecto-harness trace import --dir DIR [--out DIR] [--jobs N] [--memory-intensive]
//! alecto-harness fuzz run [--seed N] [--budget N] [--accesses N] [--jobs N]
//!                         [--machine NAME|FILE] [--oracle KINDS] [--threshold PCT]
//!                         [--out DIR] [--no-shrink]
//! alecto-harness fuzz repro <manifest>
//! alecto-harness fuzz corpus <dir>
//!
//! experiments: table1 table2 table3 fig1 fig2 fig8 fig9 fig10 fig11 fig12
//!              fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 bandit-ext
//!              stress timing all quick
//! ```
//!
//! `compare` exits 0 when every cell shared by the two reports keeps its
//! speedup and IPC within the tolerance (default 5%) below the baseline, 1
//! with a per-cell diff table when any cell regressed, and 2 on usage or
//! parse errors. CI runs it against the committed `BENCH_*.json` baselines.
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
//! * `info` prints the trace header plus per-field statistics, verifying
//!   the body checksum; `--verify` additionally re-walks the block framing
//!   and per-record encoding, exiting 2 with a block-numbered error on the
//!   first structural defect or checksum mismatch;
//! * `replay` drives the full hierarchy × selector grid of the paper's main
//!   comparison from a trace — a `file:PATH` spec replays a recorded file,
//!   a benchmark name runs the same grid from the generator, and the two
//!   emit byte-identical `alecto-bench-v2` cells (CI's `trace-roundtrip`
//!   job pins this);
//! * `import` converts a ChampSim-style text/CSV dump into `.altr`;
//!   `--dir DIR` bulk-imports every `.txt`/`.csv`/`.champsim` file in a
//!   directory across a worker pool, continuing past per-file errors and
//!   rendering a per-file summary table (exit 1 when any file failed).
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
//! `serve` turns the harness into a long-running sweep server: experiments
//! are submitted over HTTP (`POST /v1/sweep`), executed by a persistent
//! worker pool, and every finished simulation cell is memoized in a
//! content-addressed cache (`--cache-dir` persists it across restarts), so
//! repeated or overlapping sweeps cost near zero. `GET /v1/results/<id>`
//! serves the same bytes `--json` would write for the equivalent CLI run.
//! See `docs/PROTOCOL.md` for the wire format.
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
//! `--json PATH` additionally writes the machine-readable
//! `alecto-bench-v2` report to `PATH`. Both report (`--json`) and trace
//! (`--out`) destinations are checked for writability up front, so a bad
//! path exits 2 before minutes of simulation, not after.

use alecto_types::TraceSource;
use harness::figures;
use harness::report::{experiments_to_json, Table};
use harness::RunScale;

fn usage() -> ! {
    eprintln!(
        "usage: alecto-harness <experiment> [--accesses N] [--multicore-accesses N] [--quick]\n\
         \x20                  [--jobs N] [--machine NAME|FILE]\n\
         \x20                  [--core-model approx|ooo] [--json PATH]\n\
         \x20      alecto-harness compare <baseline.json> <candidate.json> [--tolerance PCT]\n\
         \x20      alecto-harness list\n\
         \x20      alecto-harness machines [list]\n\
         \x20      alecto-harness machines show <name|file>\n\
         \x20      alecto-harness machines check <name|file>...\n\
         \x20      alecto-harness serve [--addr HOST:PORT] [--sweep-workers N] [--jobs N]\n\
         \x20                           [--cache-capacity N] [--cache-dir PATH]\n\
         \x20      alecto-harness trace record <benchmark> [--accesses N] --out PATH\n\
         \x20      alecto-harness trace info <file.altr> [--verify]\n\
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
         experiments: table1 table2 table3 fig1 fig2 fig8 fig9 fig10 fig11 fig12\n\
         \x20            fig13 fig14 fig15 fig16 fig17 fig18 fig19 fig20 bandit-ext\n\
         \x20            stress timing all quick\n\
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
         \x20 --verify                trace info: re-walk every block, re-checking framing,\n\
         \x20                         record encoding and the FNV-1a64 body checksum; exits 2\n\
         \x20                         with a block-numbered error on the first defect\n\
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
         \x20 --tolerance PCT         compare: allowed speedup/IPC drop below the baseline\n\
         \x20                         in percent (default 5); exits 0 in-tolerance, 1 on\n\
         \x20                         regression with a per-cell diff, 2 on usage/parse errors\n\
         \x20 --addr HOST:PORT        serve: listen address (default 127.0.0.1:7171; port 0\n\
         \x20                         picks a free port, printed on startup)\n\
         \x20 --sweep-workers N       serve: concurrent sweep jobs (default 2)\n\
         \x20 --cache-capacity N      serve: in-memory cell-cache entries (default 4096)\n\
         \x20 --cache-dir PATH        serve: persist cache entries across restarts under PATH"
    );
    std::process::exit(2);
}

/// The `compare` subcommand: gate `candidate` against `baseline`.
/// Exit codes: 0 pass, 1 regression, 2 usage/parse error.
fn run_compare(args: &[String]) -> ! {
    let mut tolerance = harness::DEFAULT_TOLERANCE_PCT;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                let Some(value) = args.get(i) else { usage() };
                match value.parse::<f64>() {
                    Ok(t) if t.is_finite() && t >= 0.0 => tolerance = t,
                    _ => {
                        eprintln!("error: --tolerance {value}: not a non-negative percentage");
                        usage();
                    }
                }
            }
            flag if flag.starts_with('-') => usage(),
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    let [baseline_path, candidate_path] = paths[..] else { usage() };
    let read = |path: &String| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|err| {
            eprintln!("error: cannot read {path}: {err}");
            usage();
        })
    };
    let baseline = read(baseline_path);
    let candidate = read(candidate_path);
    match harness::compare_reports(&baseline, &candidate, tolerance) {
        Err(err) => {
            eprintln!("error: {err}");
            usage();
        }
        Ok(comparison) => {
            println!(
                "compared {} shared cell(s) ({} baseline-only, {} candidate-only) \
                 at {tolerance}% tolerance",
                comparison.shared_cells, comparison.baseline_only, comparison.candidate_only
            );
            // A comparison that gates nothing must not read as a pass: a
            // renamed experiment or benchmark set would otherwise silently
            // disarm the CI perf gate.
            if comparison.shared_cells == 0 {
                eprintln!(
                    "error: the reports share no cells — wrong file pair, or the baseline \
                     needs refreshing"
                );
                std::process::exit(2);
            }
            if comparison.passed() {
                println!("PASS: no cell regressed beyond tolerance");
                std::process::exit(0);
            }
            println!("FAIL: {} metric(s) regressed beyond tolerance", comparison.regressions.len());
            println!("{}", comparison.diff_table().render());
            std::process::exit(1);
        }
    }
}

/// The `list` subcommand: every registered benchmark and experiment id.
fn run_list() -> ! {
    println!("experiments:");
    println!("  {}", figures::EXPERIMENT_IDS.join(" "));
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

/// Resolves a `--machine` argument (built-in name or machine file) or exits
/// 2 with usage — always before any simulation, mirroring `--core-model`.
fn resolve_machine(arg: &str) -> machine::MachineSpec {
    machine::load(arg).unwrap_or_else(|err| {
        eprintln!("error: --machine {err}");
        usage();
    })
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
fn check_writable(path: &str, flag: &str) {
    if let Err(err) = std::fs::OpenOptions::new().create(true).append(true).open(path).map(drop) {
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

/// Resolves a benchmark spec — a registry name or `file:<path>` — into a
/// lazy source plus the seed to stamp when re-recording it. File-backed
/// traces are fully validated (checksum included) before anything runs, so
/// a corrupt file exits 2 here instead of panicking inside a worker thread.
fn resolve_spec(spec: &str, accesses: Option<usize>) -> (TraceSource, u64) {
    if let Some(path) = traceio::file_spec_path(spec) {
        let reader = traceio::TraceReader::open(path).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            usage();
        });
        if let Err(err) = reader.stats() {
            eprintln!("error: {}: {err}", path.display());
            usage();
        }
        let seed = reader.header().seed;
        return (reader.source(accesses), seed);
    }
    let Some(suite) = traces::Suite::of(spec) else {
        eprintln!("error: unknown benchmark {spec:?} (try `alecto-harness list`)");
        usage();
    };
    let accesses = accesses.unwrap_or(RunScale::default().accesses);
    (suite.source(spec, accesses), traces::derive_seed(spec, 0))
}

/// The `serve` subcommand: run the sweep server until killed. Exit 2 on bad
/// flags, 1 when binding or serving fails.
fn run_serve(args: &[String]) -> ! {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut config = harness::ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => addr = parse_path_value(args, &mut i),
            "--sweep-workers" => {
                let n: usize = parse_flag_value(args, &mut i);
                if n == 0 {
                    usage();
                }
                config.sweep_workers = n;
            }
            "--jobs" => {
                let n: usize = parse_flag_value(args, &mut i);
                if n == 0 {
                    usage();
                }
                config.default_jobs = n;
            }
            "--cache-capacity" => {
                let n: usize = parse_flag_value(args, &mut i);
                if n == 0 {
                    usage();
                }
                config.cache_capacity = n;
            }
            "--cache-dir" => config.cache_dir = Some(parse_path_value(args, &mut i).into()),
            _ => usage(),
        }
        i += 1;
    }
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
fn run_trace(args: &[String]) -> ! {
    let Some(action) = args.first() else { usage() };
    let rest = &args[1..];

    let mut accesses: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut machine_spec: Option<machine::MachineSpec> = None;
    let mut core_model: Option<cpu::CoreModelKind> = None;
    let mut out: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut name: Option<String> = None;
    let mut memory_intensive = false;
    let mut verify = false;
    let mut dir: Option<String> = None;
    let mut positionals: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--accesses" => {
                let n: usize = parse_flag_value(rest, &mut i);
                if n == 0 {
                    usage();
                }
                accesses = Some(n);
            }
            "--jobs" => {
                let n: usize = parse_flag_value(rest, &mut i);
                if n == 0 {
                    usage();
                }
                jobs = Some(n);
            }
            "--machine" => {
                let arg: String = parse_path_value(rest, &mut i);
                machine_spec = Some(resolve_machine(&arg));
            }
            "--core-model" => {
                let label: String = parse_flag_value(rest, &mut i);
                let Some(kind) = cpu::CoreModelKind::from_label(&label) else {
                    eprintln!("error: unknown core model {label:?} (expected approx or ooo)");
                    usage();
                };
                core_model = Some(kind);
            }
            "--out" => out = Some(parse_path_value(rest, &mut i)),
            "--json" => json_path = Some(parse_path_value(rest, &mut i)),
            "--name" => name = Some(parse_path_value(rest, &mut i)),
            "--memory-intensive" => memory_intensive = true,
            "--verify" => verify = true,
            "--dir" => dir = Some(parse_path_value(rest, &mut i)),
            flag if flag.starts_with("--") => usage(),
            _ => positionals.push(&rest[i]),
        }
        i += 1;
    }

    match (action.as_str(), &positionals[..]) {
        ("record", [benchmark]) => {
            let Some(out) = out else {
                eprintln!("error: trace record needs --out PATH");
                usage();
            };
            check_writable(&out, "--out");
            let (source, seed) = resolve_spec(benchmark, accesses);
            let count =
                write_trace_atomically(&out, |tmp| traceio::record_source(&source, seed, tmp))
                    .unwrap_or_else(|err| {
                        eprintln!("error: cannot record to {out}: {err}");
                        std::process::exit(1);
                    });
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!(
                "recorded {count} record(s) of {} to {out} ({bytes} bytes, {:.2} B/record)",
                source.name(),
                if count == 0 { 0.0 } else { bytes as f64 / count as f64 }
            );
            std::process::exit(0);
        }
        ("info", [path]) => run_trace_info(path, verify),
        ("replay", [spec]) => {
            if let Some(path) = &json_path {
                check_writable(path, "--json");
            }
            let mut scale = RunScale::default();
            if let Some(n) = jobs {
                scale.jobs = n;
            }
            if let Some(spec) = machine_spec {
                scale = scale.with_machine(spec);
            }
            if let Some(kind) = core_model {
                scale = scale.with_core_model(kind);
            }
            let (source, _) = resolve_spec(spec, accesses);
            let experiment = figures::replay(std::slice::from_ref(&source), &scale);
            println!("{}", experiment.render());
            if let Some(path) = json_path {
                if let Err(err) = std::fs::write(&path, experiments_to_json(&[experiment])) {
                    eprintln!("error: cannot write JSON report to {path}: {err}");
                    std::process::exit(1);
                }
            }
            std::process::exit(0);
        }
        ("import", []) if dir.is_some() => {
            // Bulk mode: --name makes no sense across many files (each trace
            // is stamped with its own file stem), so reject the combination.
            if name.is_some() {
                eprintln!("error: --name does not apply to trace import --dir");
                usage();
            }
            run_trace_import_dir(&dir.unwrap_or_default(), out.as_deref(), jobs, memory_intensive)
        }
        ("import", [input]) => {
            let Some(out) = out else {
                eprintln!("error: trace import needs --out PATH");
                usage();
            };
            check_writable(&out, "--out");
            let file = std::fs::File::open(input).unwrap_or_else(|err| {
                eprintln!("error: cannot read {input}: {err}");
                usage();
            });
            let name = name.unwrap_or_else(|| {
                std::path::Path::new(input)
                    .file_stem()
                    .map_or_else(|| "imported".to_string(), |s| s.to_string_lossy().into_owned())
            });
            let count = write_trace_atomically(&out, |tmp| {
                traceio::import_text(std::io::BufReader::new(file), &name, memory_intensive, tmp)
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

/// `trace import --dir`: fan every ChampSim text file in `dir` across a
/// worker pool, continuing past per-file failures, and render a per-file
/// summary table. Exits 0 when every file imported, 1 when any failed, 2
/// when the directory is unreadable or holds no importable files.
fn run_trace_import_dir(
    dir: &str,
    out_dir: Option<&str>,
    jobs: Option<usize>,
    memory_intensive: bool,
) -> ! {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|err| {
        eprintln!("error: cannot read {dir}: {err}");
        usage();
    });
    let mut inputs: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            path.extension().is_some_and(|ext| ext == "txt" || ext == "csv" || ext == "champsim")
        })
        .collect();
    inputs.sort();
    if inputs.is_empty() {
        eprintln!("error: no .txt/.csv/.champsim files in {dir}");
        std::process::exit(2);
    }
    let out_root = std::path::PathBuf::from(out_dir.unwrap_or(dir));
    if let Err(err) = std::fs::create_dir_all(&out_root) {
        eprintln!("error: cannot create {}: {err}", out_root.display());
        usage();
    }

    // Independent files, independent workers: a work-stealing index pull
    // like the experiment engine's, with results re-sorted by input order so
    // the summary table is deterministic whatever the pool interleaving.
    let workers = harness::effective_jobs(jobs.unwrap_or(0)).min(inputs.len()).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    // (record count, output path) on success, a message naming the cause on
    // failure; indexed by input position so the table re-sorts deterministically.
    type ImportOutcome = Result<(u64, String), String>;
    let results: std::sync::Mutex<Vec<(usize, ImportOutcome)>> = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(input) = inputs.get(index) else { break };
                let stem = input
                    .file_stem()
                    .map_or_else(|| "imported".to_string(), |s| s.to_string_lossy().into_owned());
                let out = out_root.join(format!("{stem}.altr"));
                let out_str = out.to_string_lossy().into_owned();
                let outcome = std::fs::File::open(input)
                    .map_err(|err| format!("cannot read: {err}"))
                    .and_then(|file| {
                        write_trace_atomically(&out_str, |tmp| {
                            traceio::import_text(
                                std::io::BufReader::new(file),
                                &stem,
                                memory_intensive,
                                tmp,
                            )
                        })
                        .map_err(|err| err.to_string())
                    })
                    .map(|count| (count, out_str));
                results.lock().expect("collector poisoned").push((index, outcome));
            });
        }
    });
    let mut results = results.into_inner().expect("collector poisoned");
    results.sort_by_key(|(index, _)| *index);

    let mut table = Table::new(vec!["input", "records", "output", "status"]);
    let mut failed = 0usize;
    for (index, outcome) in &results {
        let input = inputs[*index].display().to_string();
        match outcome {
            Ok((count, out)) => {
                table.push_row(vec![input, count.to_string(), out.clone(), "ok".to_string()]);
            }
            Err(err) => {
                failed += 1;
                table.push_row(vec![
                    input,
                    "-".to_string(),
                    "-".to_string(),
                    format!("failed: {err}"),
                ]);
            }
        }
    }
    println!("{}", table.render());
    println!(
        "imported {}/{} file(s) from {dir} on {workers} worker(s)",
        results.len() - failed,
        results.len()
    );
    std::process::exit(i32::from(failed > 0));
}

/// `trace info`: header fields plus one full verified decode pass of stats.
/// With `verify`, the block framing and record encoding are additionally
/// re-walked ([`traceio::TraceReader::verify_blocks`]); any structural
/// defect or checksum mismatch exits 2 with a block-numbered error.
fn run_trace_info(path: &str, verify: bool) -> ! {
    let reader = traceio::TraceReader::open(std::path::Path::new(path)).unwrap_or_else(|err| {
        eprintln!("error: {err}");
        usage();
    });
    let blocks_walked = if verify {
        Some(reader.verify_blocks().unwrap_or_else(|err| {
            eprintln!("error: {path}: {err}");
            std::process::exit(2);
        }))
    } else {
        None
    };
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
        (
            "checksum",
            match blocks_walked {
                Some(blocks) => {
                    format!("{:#018x} (verified, {blocks} block(s) re-walked)", header.checksum)
                }
                None => format!("{:#018x} (verified)", header.checksum),
            },
        ),
        ("file size", format!("{bytes} bytes")),
        (
            "encoded size",
            format!(
                "{:.2} B/record (raw in-memory: 22)",
                if header.record_count == 0 {
                    0.0
                } else {
                    bytes as f64 / header.record_count as f64
                }
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
/// for exit codes).
fn run_fuzz_cli(args: &[String]) -> ! {
    let Some(action) = args.first() else { usage() };
    let rest = &args[1..];

    let mut seed = 1u64;
    let mut budget = 16u64;
    let mut accesses = 4_000usize;
    let mut jobs = 0usize;
    let mut machine_arg: Option<String> = None;
    let mut oracles: Option<Vec<fuzz::OracleKind>> = None;
    let mut threshold = fuzz::DEFAULT_PATHOLOGY_THRESHOLD_PCT;
    let mut out_dir: Option<String> = None;
    let mut no_shrink = false;
    let mut positionals: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seed" => seed = parse_flag_value(rest, &mut i),
            "--budget" => {
                let n: u64 = parse_flag_value(rest, &mut i);
                if n == 0 {
                    usage();
                }
                budget = n;
            }
            "--accesses" => {
                let n: usize = parse_flag_value(rest, &mut i);
                if n == 0 {
                    usage();
                }
                accesses = n;
            }
            "--jobs" => {
                let n: usize = parse_flag_value(rest, &mut i);
                if n == 0 {
                    usage();
                }
                jobs = n;
            }
            "--machine" => machine_arg = Some(parse_path_value(rest, &mut i)),
            "--oracle" => {
                let labels: String = parse_flag_value(rest, &mut i);
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
                if kinds.is_empty() {
                    usage();
                }
                oracles = Some(kinds);
            }
            "--threshold" => {
                let pct: f64 = parse_flag_value(rest, &mut i);
                if !pct.is_finite() || pct < 0.0 {
                    usage();
                }
                threshold = pct;
            }
            "--out" => out_dir = Some(parse_path_value(rest, &mut i)),
            "--no-shrink" => no_shrink = true,
            flag if flag.starts_with("--") => usage(),
            _ => positionals.push(&rest[i]),
        }
        i += 1;
    }

    match (action.as_str(), &positionals[..]) {
        ("run", []) => {
            let machine_label = machine_arg.clone().unwrap_or_else(|| "table1".to_string());
            let spec = machine_arg
                .map_or_else(|| machine::MachineSpec::table1(1), |arg| resolve_machine(&arg));
            // Check the repro destination up front, like --json/--out do:
            // finding a pathology and then losing it to a typo'd path would
            // throw the whole scan away.
            if let Some(dir) = &out_dir {
                if let Err(err) = std::fs::create_dir_all(dir) {
                    eprintln!("error: --out {dir}: {err}");
                    usage();
                }
            }
            let mut config = fuzz::FuzzConfig::new(seed, spec);
            config.budget = budget;
            config.accesses = accesses;
            config.jobs = jobs;
            if let Some(kinds) = oracles {
                config.panel.kinds = kinds;
            }
            config.panel.pathology_threshold_pct = threshold;
            config.out_dir = out_dir.map(Into::into);
            config.shrink = !no_shrink;
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
            let entries = std::fs::read_dir(dir).unwrap_or_else(|err| {
                eprintln!("error: cannot read {dir}: {err}");
                usage();
            });
            let mut manifests: Vec<std::path::PathBuf> = entries
                .filter_map(Result::ok)
                .map(|entry| entry.path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "manifest"))
                .collect();
            manifests.sort();
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

fn parse_flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    *i += 1;
    args.get(*i).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

/// Like [`parse_flag_value`] for path/name operands, rejecting a following
/// flag: a leading dash is a forgotten value, and swallowing the next flag
/// would silently change the run (e.g. `--json --quick` dropping quick mode).
fn parse_path_value(args: &[String], i: &mut usize) -> String {
    *i += 1;
    let value = args.get(*i).cloned().unwrap_or_else(|| usage());
    if value.starts_with('-') {
        usage();
    }
    value
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args[0].as_str() {
        "compare" => run_compare(&args[1..]),
        "list" => run_list(),
        "machines" => run_machines(&args[1..]),
        "serve" => run_serve(&args[1..]),
        "trace" => run_trace(&args[1..]),
        "fuzz" => run_fuzz_cli(&args[1..]),
        _ => {}
    }
    let mut quick = false;
    let mut accesses_override: Option<usize> = None;
    let mut multicore_override: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut machine_spec: Option<machine::MachineSpec> = None;
    let mut core_model: Option<cpu::CoreModelKind> = None;
    let mut json_path: Option<String> = None;
    let mut experiment = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--machine" => {
                let arg: String = parse_path_value(&args, &mut i);
                machine_spec = Some(resolve_machine(&arg));
            }
            "--core-model" => {
                let label: String = parse_flag_value(&args, &mut i);
                let Some(kind) = cpu::CoreModelKind::from_label(&label) else {
                    eprintln!("error: unknown core model {label:?} (expected approx or ooo)");
                    usage();
                };
                core_model = Some(kind);
            }
            "--accesses" => {
                let n: usize = parse_flag_value(&args, &mut i);
                // A zero access budget is always a typo; reject it like
                // `--jobs 0` rather than emitting an all-NaN report.
                if n == 0 {
                    usage();
                }
                accesses_override = Some(n);
            }
            "--multicore-accesses" => {
                let n: usize = parse_flag_value(&args, &mut i);
                if n == 0 {
                    usage();
                }
                multicore_override = Some(n);
            }
            "--jobs" => {
                let n: usize = parse_flag_value(&args, &mut i);
                if n == 0 {
                    usage();
                }
                jobs = Some(n);
            }
            "--json" => json_path = Some(parse_path_value(&args, &mut i)),
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    let experiment = experiment.unwrap_or_else(|| usage());

    // Scale resolution, in documented order: preset, then --accesses (which
    // derives the multi-core budget), then --multicore-accesses. The sweep
    // server resolves its request bodies through the same function, so
    // equivalent HTTP and CLI runs are byte-identical.
    let mut scale = RunScale::resolve(
        quick || experiment == "quick",
        accesses_override,
        multicore_override,
        jobs,
    );
    // The machine supplies the default core model; an explicit --core-model
    // then overrides it, whatever the flag order on the command line.
    if let Some(spec) = machine_spec {
        scale = scale.with_machine(spec);
    }
    if let Some(kind) = core_model {
        scale = scale.with_core_model(kind);
    }

    if let Some(path) = &json_path {
        check_writable(path, "--json");
    }

    let Some(build) = figures::builder(&experiment) else { usage() };
    let experiments = build(&scale);
    for e in &experiments {
        println!("{}", e.render());
    }
    if let Some(path) = json_path {
        if let Err(err) = std::fs::write(&path, experiments_to_json(&experiments)) {
            eprintln!("error: cannot write JSON report to {path}: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_id_dispatches() {
        for id in figures::EXPERIMENT_IDS {
            assert!(
                figures::builder(id).is_some(),
                "`list` advertises {id} but the dispatch rejects it"
            );
        }
    }

    #[test]
    fn unknown_experiment_ids_are_rejected() {
        for id in ["fig99", "", "trace", "compare", "list", "serve"] {
            assert!(figures::builder(id).is_none(), "{id} must not dispatch");
        }
        // The paper-section alias stays dispatchable though unlisted.
        assert!(figures::builder("vi_h").is_some());
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
}
