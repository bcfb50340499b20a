//! `serve-mixed`: an `alecto-harness serve` child with a fresh `--cache-dir`,
//! driven by a closed loop of two clients over the `/v1` HTTP API. Each
//! client waits for its result before submitting again. Two sweeps in five
//! are exact repeats of a warm sweep (served from the memory tier of the
//! cell cache); the rest use an access budget never seen before (simulation,
//! cache insert and disk-tier write). Each sweep is a small `replay` grid
//! over one `.altr` trace recorded during set-up, so the work sits in the
//! server, the cell cache and report assembly, with reads beside writes on
//! the same cache.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alecto_types::TraceSource;
use harness::report::json::{self, JsonValue};
use harness::{experiments_to_json, figures, Experiment, RunScale};

use crate::calib::Calibrator;
use crate::cells::{BenchExecutor, CellInputs};
use crate::layers::{self, PanelInput, ALGORITHMS};
use crate::sources::{instructions, open, record, seeded_source};
use crate::sweeps::SETUP_ROUNDS;
use crate::util::{digest, median, peak_rss_mb, quantile, secs, Report, WorkDir};
use crate::{fig8, Opts};

/// The traces clients sweep over, one `.altr` file each.
pub const TRACES: [&str; 4] = ["lbm", "mcf", "GemsFDTD", "soplex"];

/// Records per trace file, which is also the budget of a repeated sweep
/// (full scale, tiny scale).
const RECORDS: (usize, usize) = (1_500, 200);

/// Closed-loop clients, one connection each.
const CLIENTS: u64 = 2;

/// Length of the sweep-server session other workloads' traced runs add for
/// the `harness.*` rows (full scale, tiny scale).
const PROBE_SECONDS: (f64, f64) = (3.0, 0.5);

/// Cells per replay sweep: the NoPrefetch baseline plus each selector.
const CELLS_PER_SWEEP: usize = 1 + ALGORITHMS.len();

/// A running `alecto-harness serve` child; killed and reaped on drop.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServerChild {
    fn start(cache_dir: &Path) -> Result<Self, String> {
        let exe = std::env::current_exe()
            .map_err(|err| format!("locating the benchmark binary: {err}"))?
            .with_file_name("alecto-harness");
        let mut child = Command::new(&exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "1", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|err| format!("starting {}: {err}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr =
            line.trim().rsplit("http://").next().and_then(|addr| addr.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { child, addr, _stdout: stdout }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the server did not report its address (got {line:?})"))
            }
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the server closes every
/// connection after its response). Returns the status and the body.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let fail = |err: std::io::Error| format!("{method} {path}: {err}");
    let mut stream = TcpStream::connect(addr).map_err(fail)?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(fail)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(format!("{head}{body}").as_bytes()).map_err(fail)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(fail)?;
    let (head, body) =
        response.split_once("\r\n\r\n").ok_or_else(|| format!("{method} {path}: no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// A sweep's identity: which trace file, at which access budget.
type SweepKey = (usize, usize);

/// What one client observed of one sweep.
struct Served {
    key: SweepKey,
    repeat: bool,
    /// Host slowness over the sub-window the sweep ran in.
    slowness: f64,
    /// Submit to result bytes received.
    total_ms: f64,
    /// `POST /v1/sweep` round trip.
    post_ack_ms: f64,
    /// Acknowledged until first seen running (traced sweeps only).
    queue_wait_ms: f64,
    /// First seen running until first seen done (traced sweeps only).
    run_ms: f64,
    /// `GET /v1/results` round trip (traced sweeps only).
    fetch_ms: f64,
    result: String,
}

/// The session's recorded trace files and their full length.
struct Traces {
    files: Vec<PathBuf>,
    full: usize,
}

impl Traces {
    fn body(&self, (trace, accesses): SweepKey) -> String {
        let spec = format!("file:{}", self.files[trace].display());
        format!(
            "{{\"experiment\":\"replay\",\"traces\":[{}],\"accesses\":{accesses},\"jobs\":1}}",
            json::string(&spec)
        )
    }

    /// The `n`-th never-before-seen budget: every trace in turn, one access
    /// shorter each round.
    fn fresh(&self, n: u64) -> SweepKey {
        let traces = self.files.len() as u64;
        let trace = usize::try_from(n % traces).expect("trace index fits");
        let shorter = usize::try_from(n / traces).expect("round fits") % (self.full / 2);
        (trace, self.full - 1 - shorter)
    }
}

/// Submits sweep `key` and waits for its result bytes. Untraced sweeps poll
/// `/v1/results` directly; traced sweeps poll `/v1/jobs` to see the job
/// start and finish, then fetch the result.
fn sweep(
    addr: SocketAddr,
    traces: &Traces,
    key: SweepKey,
    repeat: bool,
    traced: bool,
) -> Result<Served, String> {
    let start = Instant::now();
    let (status, ack) = request(addr, "POST", "/v1/sweep", &traces.body(key))?;
    let post_ack_ms = secs(start) * 1e3;
    if status != 202 {
        return Err(format!("POST /v1/sweep answered {status}: {}", ack.trim()));
    }
    let doc = json::parse(&ack)?;
    let id = doc.get("id").and_then(JsonValue::as_str).ok_or("ack without an id")?.to_string();
    let mut pause = Duration::from_micros(200);
    let mut backoff = || {
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(2));
    };
    let (mut queue_wait_ms, mut run_ms, mut fetch_ms) = (0.0, 0.0, 0.0);
    let result = if traced {
        let acked = Instant::now();
        let mut running = None;
        loop {
            let (status, job) = request(addr, "GET", &format!("/v1/jobs/{id}"), "")?;
            let seen = Instant::now();
            let state =
                json::parse(&job)?.get("status").and_then(JsonValue::as_str).map(str::to_string);
            match (status, state.as_deref()) {
                (200, Some("queued")) => {}
                (200, Some("running")) => {
                    running.get_or_insert(seen);
                }
                (200, Some("done")) => {
                    let running = *running.get_or_insert(seen);
                    queue_wait_ms = running.duration_since(acked).as_secs_f64() * 1e3;
                    run_ms = seen.duration_since(running).as_secs_f64() * 1e3;
                    break;
                }
                _ => return Err(format!("job {id}: {status} {}", job.trim())),
            }
            backoff();
        }
        let fetch = Instant::now();
        let (status, result) = request(addr, "GET", &format!("/v1/results/{id}"), "")?;
        fetch_ms = secs(fetch) * 1e3;
        if status != 200 {
            return Err(format!("result {id}: {status}"));
        }
        result
    } else {
        loop {
            match request(addr, "GET", &format!("/v1/results/{id}"), "")? {
                (200, result) => break result,
                (409, _) => backoff(),
                (status, body) => return Err(format!("result {id}: {status} {}", body.trim())),
            }
        }
    };
    Ok(Served {
        key,
        repeat,
        slowness: 1.0,
        total_ms: secs(start) * 1e3,
        post_ack_ms,
        queue_wait_ms,
        run_ms,
        fetch_ms,
        result,
    })
}

/// A set-up server session.
struct Session {
    server: ServerChild,
    traces: Traces,
}

/// Records the traces, creates the cache directory, starts the server and
/// warms it: every repeat body is simulated once and then served once from
/// the cache.
fn set_up(work: &WorkDir, round: usize, seed: u64, records: usize) -> Result<Session, String> {
    let dir = work.subdir(&format!("setup-{round}")).map_err(|err| format!("work dir: {err}"))?;
    let mut files = Vec::new();
    for name in TRACES {
        let path = dir.join(format!("{name}.altr"));
        record(&seeded_source(name, seed, records)?, name, seed, &path)?;
        files.push(path);
    }
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&cache_dir).map_err(|err| format!("{}: {err}", cache_dir.display()))?;
    let server = ServerChild::start(&cache_dir)?;
    let (status, _) = request(server.addr, "GET", "/v1/health", "")?;
    if status != 200 {
        return Err(format!("/v1/health answered {status}"));
    }
    let traces = Traces { files, full: records };
    for _ in 0..2 {
        for trace in 0..traces.files.len() {
            sweep(server.addr, &traces, (trace, records), true, false)?;
        }
    }
    Ok(Session { server, traces })
}

/// Which of a client's sweeps repeat a warm one: two in every five (the
/// rest use a fresh budget). Not exactly half, so the median latency falls
/// inside the fresh sweeps' distribution instead of on the gap between the
/// two kinds.
const REPEAT_PATTERN: [bool; 5] = [true, false, false, true, false];

/// Samples the server's peak RSS when the session's `at`-th sweep completes,
/// so the figure covers a fixed amount of served work (the server keeps
/// every finished job, so its memory grows with the sweeps served).
struct RssProbe {
    pid: u32,
    at: u64,
    completed: AtomicU64,
    sampled: Mutex<Option<f64>>,
}

impl RssProbe {
    fn completed_one(&self) {
        if self.completed.fetch_add(1, Ordering::Relaxed) + 1 == self.at {
            *self.sampled.lock().expect("rss probe lock") = peak_rss_mb(Some(self.pid)).ok();
        }
    }
}

/// Runs the closed loop for `seconds`: each client follows
/// [`REPEAT_PATTERN`], repeating a warm sweep chosen by a seeded generator or
/// submitting a fresh budget.
fn closed_loop(
    session: &Session,
    seed: u64,
    seconds: f64,
    traced: bool,
    fresh: &AtomicU64,
    rss: &RssProbe,
) -> Result<(Vec<Served>, f64), String> {
    let start = Instant::now();
    let results: Vec<Result<Vec<Served>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut state =
                        traces::derive_seed("serve-mixed-client", seed ^ (client << 32)) | 1;
                    let mut served = Vec::new();
                    while secs(start) < seconds {
                        let repeat = REPEAT_PATTERN[served.len() % REPEAT_PATTERN.len()];
                        let key = if repeat {
                            // xorshift64: a seeded choice among the warm sweeps.
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let trace = usize::try_from(state % session.traces.files.len() as u64)
                                .expect("fits");
                            (trace, session.traces.full)
                        } else {
                            session.traces.fresh(fresh.fetch_add(1, Ordering::Relaxed))
                        };
                        served.push(sweep(
                            session.server.addr,
                            &session.traces,
                            key,
                            repeat,
                            traced,
                        )?);
                        rss.completed_one();
                    }
                    Ok(served)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = secs(start);
    let mut all = Vec::new();
    for served in results {
        all.extend(served?);
    }
    Ok((all, elapsed))
}

/// The server's cumulative cell-cache hit rate from `/v1/stats`.
fn cache_hit_ratio(addr: SocketAddr) -> Result<f64, String> {
    let (status, stats) = request(addr, "GET", "/v1/stats", "")?;
    if status != 200 {
        return Err(format!("/v1/stats answered {status}"));
    }
    json::parse(&stats)?
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| "/v1/stats without cache.hit_rate".to_string())
}

/// Library reports for every distinct sweep, computed in-process on two
/// threads through the same `figures::replay` path the server runs, plus
/// the per-sweep runner overhead (sweep wall time minus cell time).
fn library_reports(
    traces: &Traces,
    keys: &[SweepKey],
    report: &mut Report,
) -> Result<(HashMap<SweepKey, Experiment>, f64), String> {
    // Expected instructions of every capped source from per-trace prefix sums.
    let mut inputs = CellInputs::default();
    let mut sources = HashMap::new();
    for (trace, path) in traces.files.iter().enumerate() {
        let full = open(path)?;
        let mut prefix = vec![0u64];
        for r in full.records() {
            prefix.push(prefix.last().expect("non-empty") + r.instructions());
        }
        for &(t, accesses) in keys.iter().filter(|(t, _)| *t == trace) {
            let source = traceio::file_source(path, Some(accesses))
                .map_err(|err| format!("opening {}: {err}", path.display()))?;
            inputs
                .instructions
                .insert(source.fingerprint(), prefix[accesses.min(prefix.len() - 1)]);
            sources.insert((t, accesses), source);
        }
    }
    let executor = Arc::new(BenchExecutor::new(Arc::new(inputs), true));
    let chunks: Vec<&[SweepKey]> = keys.chunks(keys.len().div_ceil(2).max(1)).collect();
    let computed: Vec<Vec<(SweepKey, Experiment, f64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let (executor, sources) = (&executor, &sources);
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&key| {
                            let source: &TraceSource = &sources[&key];
                            let scale = RunScale::resolve(false, Some(key.1), None, Some(1));
                            let start = Instant::now();
                            let experiment = executor
                                .scope(|| figures::replay(std::slice::from_ref(source), &scale));
                            (key, experiment, secs(start))
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("verification thread panicked")).collect()
    });
    let (cell_secs, _, _) = executor.take_cell_time();
    report.absorb(executor.take_tally());
    let mut experiments = HashMap::new();
    let mut wall = 0.0;
    for (key, experiment, secs) in computed.into_iter().flatten() {
        wall += secs;
        experiments.insert(key, experiment);
    }
    let overhead = (wall - cell_secs).max(0.0) / keys.len().max(1) as f64;
    Ok((experiments, overhead))
}

/// The library side of a session's verification.
struct Verified {
    /// Library report of every distinct sweep, the warm repeats included.
    experiments: HashMap<SweepKey, Experiment>,
    /// Their alecto-bench-v2 bytes.
    library: HashMap<SweepKey, String>,
    /// Mean host seconds per library replay outside its cells.
    overhead: f64,
}

/// Computes the library report of the warm repeat sweeps and of every served
/// sweep, and checks each served result against it byte for byte.
///
/// # Errors
///
/// Returns failures to open the recorded traces.
fn verify(report: &mut Report, traces: &Traces, served: &[&[Served]]) -> Result<Verified, String> {
    let mut keys: Vec<SweepKey> = (0..traces.files.len())
        .map(|t| (t, traces.full))
        .chain(served.iter().flat_map(|list| list.iter().map(|s| s.key)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let (experiments, overhead) = library_reports(traces, &keys, report)?;
    let library: HashMap<SweepKey, String> = experiments
        .iter()
        .map(|(key, e)| (*key, experiments_to_json(std::slice::from_ref(e))))
        .collect();
    for s in served.iter().copied().flatten() {
        let matches = library.get(&s.key).is_some_and(|want| *want == s.result);
        report.check(matches, || {
            format!(
                "served result for trace {} at {} accesses differs from the library report",
                s.key.0, s.key.1
            )
        });
    }
    Ok(Verified { experiments, library, overhead })
}

/// Sub-window length: the closed loop pauses between sub-windows for a
/// slowness reading, so calibration follows the host's drift within a run.
const SUBWINDOW_SECS: f64 = 5.0;

/// Sweeps after which the server's peak RSS is read (full, tiny scale).
const RSS_AT_SWEEPS: (u64, u64) = (800, 40);

/// One closed-loop window, run as sub-windows with a slowness reading around
/// each.
struct Window {
    served: Vec<Served>,
    /// Raw and calibrated host seconds, summed over the sub-windows.
    raw_secs: f64,
    calibrated_secs: f64,
    /// Server peak RSS once [`RSS_AT_SWEEPS`] sweeps had completed (or at the
    /// end, if fewer did).
    rss_mb: Option<f64>,
}

impl Window {
    fn run(
        cal: &mut Calibrator,
        session: &Session,
        opts: &Opts,
        seconds: f64,
        traced: bool,
        fresh: &AtomicU64,
    ) -> Result<Self, String> {
        let rss = RssProbe {
            pid: session.server.child.id(),
            at: opts.scale.pick(RSS_AT_SWEEPS.0, RSS_AT_SWEEPS.1),
            completed: AtomicU64::new(0),
            sampled: Mutex::new(None),
        };
        let parts = (seconds / SUBWINDOW_SECS).ceil().max(1.0);
        let mut window =
            Self { served: Vec::new(), raw_secs: 0.0, calibrated_secs: 0.0, rss_mb: None };
        for _ in 0..parts as usize {
            let (outcome, slowness) = cal
                .bracket(|| closed_loop(session, opts.seed, seconds / parts, traced, fresh, &rss));
            let (mut served, secs) = outcome?;
            for s in &mut served {
                s.slowness = slowness;
            }
            window.served.extend(served);
            window.raw_secs += secs;
            window.calibrated_secs += secs / slowness;
        }
        window.rss_mb = rss.sampled.into_inner().expect("rss probe lock");
        Ok(window)
    }

    /// Records simulated for fresh-budget sweeps per calibrated second.
    fn records_per_s(&self) -> f64 {
        let records: usize =
            self.served.iter().filter(|s| !s.repeat).map(|s| s.key.1 * CELLS_PER_SWEEP).sum();
        records as f64 / self.calibrated_secs
    }

    /// Calibrated milliseconds of `pick` over the sweeps `keep` selects.
    fn calibrated_ms(
        &self,
        keep: impl Fn(&Served) -> bool,
        pick: impl Fn(&Served) -> f64,
    ) -> Vec<f64> {
        self.served.iter().filter(|s| keep(s)).map(|s| pick(s) / s.slowness).collect()
    }

    /// Raw milliseconds of `pick` over the sweeps `keep` selects.
    fn raw_ms(&self, keep: impl Fn(&Served) -> bool, pick: impl Fn(&Served) -> f64) -> Vec<f64> {
        self.served.iter().filter(|s| keep(s)).map(pick).collect()
    }

    fn describe(&self) -> String {
        format!(
            "{} sweeps ({} repeats) from {CLIENTS} closed-loop clients in {:.2} s ({:.2} calibrated)",
            self.served.len(),
            self.served.iter().filter(|s| s.repeat).count(),
            self.raw_secs,
            self.calibrated_secs
        )
    }
}

/// Runs the workload and pushes its metrics.
///
/// # Errors
///
/// Returns set-up, server and I/O failures.
pub fn run(opts: &Opts, report: &mut Report, cal: &mut Calibrator) -> Result<(), String> {
    let records = opts.scale.pick(RECORDS.0, RECORDS.1);
    let work = WorkDir::create("serve-mixed").map_err(|err| format!("work dir: {err}"))?;
    let mut setup_secs = Vec::new();
    let mut session = None;
    for round in 0..SETUP_ROUNDS {
        // An earlier round's server is stopped before the next one starts.
        drop(session.take());
        let (ready, time) = cal.time(|| set_up(&work, round, opts.seed, records));
        session = Some(ready?);
        setup_secs.push(time);
    }
    let session = session.expect("at least one set-up round");
    let fresh = AtomicU64::new(0);
    let seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let plain = Window::run(cal, &session, opts, seconds, false, &fresh)?;
    let traced = if opts.trace {
        Some(Window::run(cal, &session, opts, seconds, true, &fresh)?)
    } else {
        None
    };
    let hit_ratio = cache_hit_ratio(session.server.addr)?;
    let server_rss = match plain.rss_mb {
        Some(mb) => mb,
        None => session.server.peak_rss_mb()?,
    };
    let Session { server, traces } = session;
    drop(server);

    // Verification, outside every timed window.
    let traced_served = traced.as_ref().map_or(&[][..], |w| &w.served);
    let verified = verify(report, &traces, &[&plain.served, traced_served])?;
    let base: Vec<SweepKey> = (0..traces.files.len()).map(|t| (t, traces.full)).collect();
    let base_bytes: String = base.iter().map(|key| verified.library[key].as_str()).collect();
    report.note(format!(
        "output digest serve-mixed = {:#018x} (FNV-1a64 of the {} repeated sweeps' results)",
        digest(base_bytes.as_bytes()),
        base.len()
    ));
    let cells: Vec<_> =
        base.iter().flat_map(|key| verified.experiments[key].cells.clone()).collect();
    let ratio = fig8::alecto_vs_bandit6_pct(&cells)?;
    report.note(format!(
        "sim.alecto_vs_bandit6_pct = {ratio:.4}% of Bandit6 IPC over the {} served traces (gain {:+.2}%); paper Fig. 8 note: {:+.2}%",
        base.len(),
        ratio - 100.0,
        fig8::PAPER_ALECTO_VS_BANDIT6_GAIN_PCT
    ));

    if let Some(traced) = traced {
        let (plain_rps, traced_rps) = (plain.records_per_s(), traced.records_per_s());
        report.note(format!(
            "tracing overhead: traced records_per_s {traced_rps:.0} - untraced {plain_rps:.0} = {:+.0} records/s",
            traced_rps - plain_rps
        ));
        report.metric(
            "harness.runner_overhead_s",
            "s",
            verified.overhead,
            format!(
                "mean over {} library replays of one sweep: wall time minus summed cell time",
                verified.experiments.len()
            ),
        );
        push_server_layers(report, &traced, hit_ratio);
        let generated = TRACES
            .iter()
            .map(|name| seeded_source(name, opts.seed, records))
            .collect::<Result<Vec<_>, _>>()?;
        let mut inputs = CellInputs::default();
        let mut units = Vec::new();
        for path in &traces.files {
            let source = open(path)?;
            inputs.instructions.insert(source.fingerprint(), instructions(&source));
            units.push(vec![source]);
        }
        let input = PanelInput {
            generated,
            files: traces.files.clone(),
            units,
            config: RunScale::resolve(false, Some(records), None, Some(1)).base_config(1),
            expected: &inputs.instructions,
            work: work.path(),
        };
        return layers::panel(report, opts, cal, &input);
    }

    let all = plain.calibrated_ms(|_| true, |s| s.total_ms);
    let repeats = plain.calibrated_ms(|s| s.repeat, |s| s.total_ms);
    let desc = plain.describe();
    let setup_calibrated: Vec<f64> = setup_secs.iter().map(|t| t.calibrated).collect();
    report.metric(
        "records_per_s",
        "1/s",
        plain.records_per_s(),
        format!("records simulated for fresh-budget sweeps; {desc}"),
    );
    report.metric(
        "setup_s",
        "s",
        median(&setup_calibrated),
        format!(
            "median of {SETUP_ROUNDS} set-ups: trace recording, cache dir, server start, warm-up sweeps; raw {:.4}",
            median(&setup_secs.iter().map(|t| t.raw).collect::<Vec<_>>())
        ),
    );
    report.metric(
        "peak_rss_mb",
        "MiB",
        server_rss,
        format!(
            "VmHWM of the server child once {} sweeps had completed",
            opts.scale.pick(RSS_AT_SWEEPS.0, RSS_AT_SWEEPS.1)
        ),
    );
    report.metric(
        "sim.alecto_vs_bandit6_pct",
        "%",
        ratio,
        "simulated geomean IPC of Alecto as a percentage of Bandit6's over the served traces"
            .into(),
    );
    report.metric("sweep_p50_ms", "ms", median(&all), format!("submit to result bytes; {desc}"));
    report.metric(
        "sweep_p90_ms",
        "ms",
        quantile(&all, 0.9),
        format!("submit to result bytes; {desc}"),
    );
    report.metric(
        "hit_sweep_p50_ms",
        "ms",
        median(&repeats),
        format!("{} fully cached repeats", repeats.len()),
    );
    report.metric("sweeps_per_s", "1/s", plain.served.len() as f64 / plain.calibrated_secs, desc);
    report.note(format!("server cell-cache hit rate over the session: {hit_ratio:.3}"));
    let raw_all = plain.raw_ms(|_| true, |s| s.total_ms);
    report.note(format!(
        "raw serve-mixed figures: records_per_s {:.1} sweep_p50_ms {:.4} sweep_p90_ms {:.4} hit_sweep_p50_ms {:.4} sweeps_per_s {:.3}",
        plain.records_per_s() * plain.calibrated_secs / plain.raw_secs,
        median(&raw_all),
        quantile(&raw_all, 0.9),
        median(&plain.raw_ms(|s| s.repeat, |s| s.total_ms)),
        plain.served.len() as f64 / plain.raw_secs
    ));
    Ok(())
}

fn push_server_layers(report: &mut Report, traced: &Window, hit_ratio: f64) {
    let base = format!("median over {}; jobs polled at up to 2 ms intervals", traced.describe());
    for (name, pick) in [
        ("harness.post_ack_ms", (|s: &Served| s.post_ack_ms) as fn(&Served) -> f64),
        ("harness.queue_wait_ms", |s| s.queue_wait_ms),
        ("harness.run_ms", |s| s.run_ms),
        ("harness.fetch_ms", |s| s.fetch_ms),
    ] {
        report.metric(name, "ms", median(&traced.calibrated_ms(|_| true, pick)), base.clone());
    }
    report.metric(
        "harness.cache_hit_ratio",
        "ratio",
        hit_ratio,
        "cache.hit_rate from /v1/stats".into(),
    );
}

/// A short traced sweep-server session for the `harness.*` rows of the
/// other workloads' traced runs, verified like the workload's own.
///
/// # Errors
///
/// Returns set-up, server and I/O failures.
pub fn probe(opts: &Opts, report: &mut Report, cal: &mut Calibrator) -> Result<(), String> {
    let records = opts.scale.pick(RECORDS.0, RECORDS.1);
    let work = WorkDir::create("serve-probe").map_err(|err| format!("work dir: {err}"))?;
    let session = set_up(&work, 0, opts.seed, records)?;
    let seconds = opts.scale.pick(PROBE_SECONDS.0, PROBE_SECONDS.1);
    let traced = Window::run(cal, &session, opts, seconds, true, &AtomicU64::new(0))?;
    let hit_ratio = cache_hit_ratio(session.server.addr)?;
    let Session { server, traces } = session;
    drop(server);
    verify(report, &traces, &[&traced.served])?;
    push_server_layers(report, &traced, hit_ratio);
    Ok(())
}
