//! The sweep server: simulation-as-a-service over a hand-rolled HTTP/1.1
//! stack (`std::net::TcpListener` + thread pools — no dependencies), with
//! every finished simulation cell memoized in a shared [`CellCache`].
//!
//! # Endpoints (see `docs/PROTOCOL.md` for the full wire specification)
//!
//! | Method + path          | Purpose                                          |
//! |------------------------|--------------------------------------------------|
//! | `POST /v1/sweep`       | Submit an experiment (or `replay`) sweep; `202`  |
//! | `GET /v1/jobs/<id>`    | Incremental per-cell status of a submitted sweep |
//! | `GET /v1/results/<id>` | The finished `alecto-bench-v2` report            |
//! | `GET /v1/health`       | Liveness probe                                   |
//! | `GET /v1/stats`        | Uptime, cache counters, worker occupancy         |
//!
//! # Execution model
//!
//! Accepted connections go over a channel to a small pool of handler
//! threads; `POST /v1/sweep` only validates and enqueues, so submission
//! latency is independent of simulation time. A second pool, the persistent
//! sweep workers, reads submitted jobs from a channel of their own and runs
//! them through the same [`figures::builder`] / [`RunScale::resolve`]
//! pipeline as the CLI, with a memoizing [`CellExecutor`] scoped in, as the
//! CLI scopes one per run: each benchmark × algorithm cell is served from
//! the [`CellCache`] when its content-addressed key is present and
//! simulated (then remembered) otherwise. Inside one sweep the cells still
//! fan out across the experiment engine's work-stealing workers, so a cold
//! sweep is exactly as parallel as a CLI run.
//!
//! Because cell keys digest *everything* that can influence a result and
//! grids are byte-identical at any worker count, a fully cached sweep's
//! `/v1/results` body is byte-identical to the cold run's — and to
//! `alecto-harness <experiment> --json` for the same parameters.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use alecto_types::TraceSource;

use crate::cellcache::CellCache;
use crate::figures;
use crate::report::experiments_to_json;
use crate::report::json::{self, JsonValue};
use crate::runner::{with_cell_executor, CellExecutor, CellJob, RunScale};

/// Upper bound on a request body; sweep submissions are a few hundred bytes,
/// so anything near this is abuse or a protocol error.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on the request line and on each header line, terminator
/// included: the protocol's longest line is a short request target.
const MAX_LINE_BYTES: usize = 8 << 10;

/// Upper bound on the number of header lines in one request.
const MAX_HEADERS: usize = 64;

/// How long a handler waits for one whole request, from taking the
/// connection to the last byte of the body.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Connection-handler threads servicing the HTTP side; sweeps themselves run
/// on the sweep workers.
const HANDLER_THREADS: usize = 4;

/// Persistent sweep-worker threads: how many submitted sweeps execute
/// concurrently (further submissions queue).
const SWEEP_WORKERS: usize = 2;

/// Settings of a [`Server`]; `Default` uses every hardware thread per sweep
/// and keeps the cell cache in memory only.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Default per-sweep cell-engine worker count (`0` = one per hardware
    /// thread), overridable per request via the `jobs` field.
    pub default_jobs: usize,
    /// Optional directory persisting cache entries across restarts.
    pub cache_dir: Option<PathBuf>,
}

/// What a sweep job runs: rows of the experiment table, or a replay over
/// resolved trace sources.
enum SweepKind {
    /// The rows of [`figures::EXPERIMENTS`] the request's id names.
    Experiment(&'static [figures::ExperimentRow]),
    /// `figures::replay` over the request's resolved trace specs.
    Replay(Vec<TraceSource>),
}

/// Lifecycle of a submitted sweep; a finished sweep carries its report, the
/// exact `experiments_to_json` bytes.
enum JobStatus {
    Queued,
    Running,
    Done(String),
    Failed(String),
}

impl JobStatus {
    fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done(_) => "done",
            JobStatus::Failed(_) => "failed",
        }
    }
}

/// One completed cell of a running sweep, for the incremental
/// `GET /v1/jobs/<id>` view.
struct CellDone {
    key: u64,
    algorithm: String,
    benchmark: String,
    ipc: f64,
    cached: bool,
}

/// One submitted sweep. Its status and finished cells change under one lock,
/// so every poll sees them agree and a `done` job always has its report.
struct JobState {
    id: u64,
    experiment: String,
    scale: RunScale,
    progress: Mutex<Progress>,
}

/// The mutable part of a [`JobState`].
struct Progress {
    status: JobStatus,
    cells: Vec<CellDone>,
}

/// A job on its way to a sweep worker, with the sweep it runs.
type QueuedSweep = (Arc<JobState>, SweepKind);

/// State shared between connection handlers and sweep workers.
struct ServerState {
    cache: Arc<CellCache>,
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    queue: Sender<QueuedSweep>,
    next_job_id: AtomicU64,
    started: Instant,
    requests: AtomicU64,
    config: ServerConfig,
}

/// A bound sweep server; [`Server::run`] starts serving. See the
/// [module docs](self) for the execution model.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr`, creates the shared cell cache (opening `cache_dir` when
    /// configured) and spawns the persistent sweep-worker pool. No traffic
    /// is served until [`Server::run`].
    ///
    /// # Errors
    ///
    /// Returns socket-bind or cache-directory errors.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let cache = match &config.cache_dir {
            Some(dir) => CellCache::with_dir(CellCache::DEFAULT_CAPACITY, dir)?,
            None => CellCache::new(CellCache::DEFAULT_CAPACITY),
        };
        let (queue, queued) = mpsc::channel();
        let state = Arc::new(ServerState {
            cache: Arc::new(cache),
            jobs: Mutex::new(HashMap::new()),
            queue,
            next_job_id: AtomicU64::new(1),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            config,
        });
        let workers = Arc::clone(&state);
        spawn_pool("sweep-worker", SWEEP_WORKERS, queued, move |(job, kind)| {
            run_sweep(&workers, &job, kind);
        });
        Ok(Self { listener, state })
    }

    /// The bound address — useful with port 0 (tests bind `127.0.0.1:0` and
    /// read the assigned port here).
    ///
    /// # Errors
    ///
    /// Returns the underlying socket error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever: accepts connections and dispatches them to the
    /// handler pool. Only returns if the listener itself fails.
    ///
    /// # Errors
    ///
    /// Returns the listener's accept error.
    pub fn run(self) -> io::Result<()> {
        let (connections, accepted) = mpsc::channel();
        let state = Arc::clone(&self.state);
        spawn_pool("http-handler", HANDLER_THREADS, accepted, move |stream| {
            handle_connection(stream, &state);
        });
        loop {
            let (stream, _) = self.listener.accept()?;
            connections.send(stream).expect("connection handlers outlive the listener");
        }
    }
}

/// Spawns `threads` threads named `<name>-<i>` that take items from `items`
/// one at a time and pass each to `handle`, until every sender is gone.
fn spawn_pool<T: Send + 'static>(
    name: &str,
    threads: usize,
    items: Receiver<T>,
    handle: impl Fn(T) + Send + Sync + 'static,
) {
    let items = Arc::new(Mutex::new(items));
    let handle = Arc::new(handle);
    for index in 0..threads {
        let (items, handle) = (Arc::clone(&items), Arc::clone(&handle));
        thread::Builder::new()
            .name(format!("{name}-{index}"))
            .spawn(move || loop {
                // A statement of its own, so the receiver's lock is released
                // before `handle` runs and the threads work side by side.
                let Ok(item) = items.lock().expect("pool channel lock").recv() else { return };
                handle(item);
            })
            .expect("spawn pool thread");
    }
}

/// The memoizing executor one sweep job scopes in: serves cells from the
/// shared cache, simulates misses, and records per-cell progress on the job.
struct JobExecutor {
    cache: Arc<CellCache>,
    job: Arc<JobState>,
}

impl CellExecutor for JobExecutor {
    fn execute(&self, cell: &CellJob<'_>) -> cpu::SystemReport {
        let (key, report, cached) = self.cache.get_or_run(cell);
        let benchmark: Vec<&str> = cell.sources.iter().map(TraceSource::name).collect();
        self.job.progress.lock().expect("job lock").cells.push(CellDone {
            key,
            algorithm: cell.algorithm.label().to_string(),
            benchmark: benchmark.join("+"),
            ipc: report.geomean_ipc().unwrap_or(0.0),
            cached,
        });
        report
    }
}

/// Runs one dequeued job to completion (or failure). Panics inside a sweep
/// (e.g. a trace file deleted between validation and replay) fail that job
/// only, never the server.
fn run_sweep(state: &ServerState, job: &Arc<JobState>, kind: SweepKind) {
    job.progress.lock().expect("job lock").status = JobStatus::Running;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let executor =
            Arc::new(JobExecutor { cache: Arc::clone(&state.cache), job: Arc::clone(job) });
        let experiments = with_cell_executor(executor, || match &kind {
            SweepKind::Experiment(rows) => figures::build(rows, &job.scale),
            SweepKind::Replay(sources) => vec![figures::replay(sources, &job.scale)],
        });
        experiments_to_json(&experiments)
    }));
    let status = match outcome {
        Ok(body) => JobStatus::Done(body),
        Err(panic) => JobStatus::Failed(
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("sweep panicked")
                .to_string(),
        ),
    };
    job.progress.lock().expect("job lock").status = status;
}

// --- HTTP plumbing ---------------------------------------------------------

/// A fully assembled response; `body` is always JSON here.
struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn ok(body: String) -> Self {
        Self { status: 200, body }
    }

    /// The standard error envelope: `{"error":{"code":...,"message":...}}`.
    fn error(status: u16, code: &str, message: &str) -> Self {
        Self {
            status,
            body: format!(
                "{{\"error\":{{\"code\":{},\"message\":{}}}}}\n",
                json::string(code),
                json::string(message)
            ),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Reads one request, routes it, writes the response, closes the socket
/// (`Connection: close` — submissions are rare and cheap, keep-alive would
/// only complicate the protocol).
fn handle_connection(stream: TcpStream, state: &ServerState) {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut reader = BufReader::new(DeadlineReader { stream, deadline });
    let response = match read_request(&mut reader) {
        Ok((method, target, body)) => {
            state.requests.fetch_add(1, Ordering::Relaxed);
            route(state, &method, &target, &body)
        }
        Err(message) => Response::error(400, "malformed_request", &message),
    };
    let mut stream = reader.into_inner().stream;
    // One write: the pieces of a response written separately can be held
    // back by Nagle's algorithm and then lost to the reset that closing a
    // socket with unread request bytes (a rejected request) sends.
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        response.status,
        reason(response.status),
        response.body.len(),
        response.body
    );
    let _ = stream.write_all(message.as_bytes());
    let _ = stream.flush();
}

/// A connection whose reads all end by one deadline: each read waits only
/// for the time left, so a client that trickles bytes cannot hold a handler
/// thread past [`REQUEST_DEADLINE`].
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "request deadline passed"));
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one newline-terminated line of at most [`MAX_LINE_BYTES`] bytes
/// (`what` names it in errors), so a client cannot make the server buffer
/// an endless line.
fn read_line(reader: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = Vec::new();
    let limit = u64::try_from(MAX_LINE_BYTES).expect("line cap fits in u64");
    reader
        .by_ref()
        .take(limit)
        .read_until(b'\n', &mut line)
        .map_err(|e| format!("reading {what}: {e}"))?;
    if line.len() == MAX_LINE_BYTES && !line.ends_with(b"\n") {
        return Err(format!("{what} exceeds {MAX_LINE_BYTES} bytes"));
    }
    String::from_utf8(line).map_err(|_| format!("{what} is not UTF-8"))
}

/// Parses the request line, the headers we care about (`Content-Length`),
/// and the body. Everything else is skipped — the protocol needs nothing
/// more.
fn read_request(reader: &mut impl BufRead) -> Result<(String, String, String), String> {
    let line = read_line(reader, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line without target")?.to_string();
    let mut content_length = 0usize;
    for headers in 0.. {
        let header = read_line(reader, "header line")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if headers == MAX_HEADERS {
            return Err(format!("more than {MAX_HEADERS} header lines"));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {:?}", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES} cap"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| format!("reading body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok((method, target, body))
}

fn route(state: &ServerState, method: &str, target: &str, body: &str) -> Response {
    match (method, target) {
        ("GET", "/v1/health") => Response::ok(format!(
            "{{\"status\":\"ok\",\"uptime_seconds\":{}}}\n",
            state.started.elapsed().as_secs()
        )),
        ("GET", "/v1/stats") => stats_response(state),
        ("POST", "/v1/sweep") => submit_sweep(state, body),
        ("GET", t) if t.strip_prefix("/v1/jobs/").is_some() => {
            job_response(state, t.strip_prefix("/v1/jobs/").expect("prefix checked"))
        }
        ("GET", t) if t.strip_prefix("/v1/results/").is_some() => {
            result_response(state, t.strip_prefix("/v1/results/").expect("prefix checked"))
        }
        (_, "/v1/health" | "/v1/stats" | "/v1/sweep") => {
            Response::error(405, "method_not_allowed", "see docs/PROTOCOL.md for the verb map")
        }
        (_, t) if t.starts_with("/v1/jobs/") || t.starts_with("/v1/results/") => {
            Response::error(405, "method_not_allowed", "job and result resources are GET-only")
        }
        _ => Response::error(404, "not_found", "unknown resource (the API lives under /v1/)"),
    }
}

fn stats_response(state: &ServerState) -> Response {
    let counters = state.cache.counters();
    let (mut queued, mut running, mut done, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for job in state.jobs.lock().expect("job registry lock").values() {
        match job.progress.lock().expect("job lock").status {
            JobStatus::Queued => queued += 1,
            JobStatus::Running => running += 1,
            JobStatus::Done(_) => done += 1,
            JobStatus::Failed(_) => failed += 1,
        }
    }
    // A job runs only while a sweep worker holds it, so the running jobs
    // are the busy workers.
    Response::ok(format!(
        "{{\"uptime_seconds\":{},\"requests\":{},\
         \"cache\":{{\"memory_hits\":{},\"disk_hits\":{},\"hits\":{},\"misses\":{},\
         \"evictions\":{},\"corrupt_entries\":{},\"resident\":{},\"hit_rate\":{}}},\
         \"workers\":{{\"total\":{},\"busy\":{running}}},\
         \"jobs\":{{\"queued\":{queued},\"running\":{running},\"done\":{done},\
         \"failed\":{failed}}}}}\n",
        state.started.elapsed().as_secs(),
        state.requests.load(Ordering::Relaxed),
        counters.memory_hits,
        counters.disk_hits,
        counters.hits(),
        counters.misses,
        counters.evictions,
        counters.corrupt_entries,
        counters.resident,
        json::number(counters.hit_rate()),
        SWEEP_WORKERS,
    ))
}

/// Reads an optional positive integer field, distinguishing "absent" from
/// "present but invalid" (the latter is a client error worth a 400, not a
/// silent fallback to defaults).
fn optional_positive(doc: &JsonValue, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(value) => {
            let n = value.as_f64().ok_or_else(|| format!("{key} must be a number"))?;
            if n < 1.0 || n.fract() != 0.0 || n > u32::MAX.into() {
                return Err(format!("{key} must be a positive integer"));
            }
            Ok(Some(n as usize))
        }
    }
}

/// Flattens an inline `"machine"` JSON object into the dotted-path entries
/// the machine compiler consumes (`{"cache":{"l1d":{"ways":4}}}` becomes
/// `cache.l1d.ways = 4`), at line 0 so errors come back without a source
/// line. Only integers, strings and nested objects are meaningful in the
/// machine format; anything else is rejected by name.
fn flatten_machine_object(prefix: &str, value: &JsonValue) -> Result<Vec<machine::Entry>, String> {
    fn walk(
        prefix: &str,
        value: &JsonValue,
        entries: &mut Vec<machine::Entry>,
    ) -> Result<(), String> {
        match value {
            JsonValue::Object(fields) => {
                for (key, field) in fields {
                    let path =
                        if prefix.is_empty() { key.clone() } else { format!("{prefix}.{key}") };
                    walk(&path, field, entries)?;
                }
                Ok(())
            }
            JsonValue::String(s) => {
                entries.push(machine::Entry {
                    path: prefix.to_string(),
                    value: machine::RawValue::Str(s.clone()),
                    line: 0,
                });
                Ok(())
            }
            JsonValue::Number(n) => {
                if n.fract() != 0.0 || *n < 0.0 || *n > u64::MAX as f64 {
                    return Err(format!("machine key `{prefix}` must be a non-negative integer"));
                }
                entries.push(machine::Entry {
                    path: prefix.to_string(),
                    value: machine::RawValue::Int(*n as u64),
                    line: 0,
                });
                Ok(())
            }
            _ => Err(format!("machine key `{prefix}` must be an integer, a string or an object")),
        }
    }
    let mut entries = Vec::new();
    walk(prefix, value, &mut entries)?;
    Ok(entries)
}

/// Validates a `POST /v1/sweep` body into the experiment id, the resolved
/// scale and the sweep to run; a rejection is the `400` to answer.
fn parse_sweep(body: &str, default_jobs: usize) -> Result<(String, RunScale, SweepKind), Response> {
    let bad = |code: &str, message: &str| Response::error(400, code, message);
    let doc = json::parse(body).map_err(|err| bad("invalid_json", &err))?;
    let experiment = doc
        .get("experiment")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad("missing_experiment", "body needs an \"experiment\" string"))?;
    let quick = match doc.get("quick") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => return Err(bad("invalid_scale", "quick must be a boolean")),
    };
    let count = |key| optional_positive(&doc, key).map_err(|err| bad("invalid_scale", &err));
    let (accesses, multicore, jobs) =
        (count("accesses")?, count("multicore_accesses")?, count("jobs")?);
    let mut scale = RunScale::resolve(
        quick || experiment == "quick",
        accesses,
        multicore,
        jobs.or(Some(default_jobs)),
    );
    // The machine is applied before "core_model" so an explicit core model
    // overrides the machine's default — the same layering as the CLI's
    // `--machine` / `--core-model` flags.
    let machine = match doc.get("machine") {
        None => Ok(None),
        Some(JsonValue::String(name)) => machine::builtin(name).map(Some).ok_or_else(|| {
            let expected = machine::BUILTIN_NAMES.join(", ");
            format!("{name:?} is not a built-in machine (expected one of: {expected})")
        }),
        Some(object @ JsonValue::Object(_)) => flatten_machine_object("", object)
            .and_then(|entries| machine::compile_entries(&entries, true))
            .map(Some),
        Some(_) => Err("machine must be a built-in machine name or an inline spec object".into()),
    };
    if let Some(spec) = machine.map_err(|err| bad("invalid_machine", &err))? {
        scale = scale.with_machine(spec);
    }
    let core_model = match doc.get("core_model") {
        None => Ok(None),
        Some(JsonValue::String(label)) => {
            cpu::CoreModelKind::from_label(label).map(Some).ok_or_else(|| {
                format!("{label:?} is not a core model (expected \"approx\" or \"ooo\")")
            })
        }
        Some(_) => Err("core_model must be a string".into()),
    };
    if let Some(kind) = core_model.map_err(|err| bad("invalid_core_model", &err))? {
        scale = scale.with_core_model(kind);
    }

    let trace_specs: Vec<&str> = match doc.get("traces") {
        None => Vec::new(),
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(JsonValue::as_str)
            .collect::<Option<_>>()
            .ok_or_else(|| bad("invalid_traces", "traces must be strings"))?,
        Some(_) => return Err(bad("invalid_traces", "traces must be an array")),
    };
    let kind = if experiment == "replay" {
        if trace_specs.is_empty() {
            return Err(bad("missing_traces", "replay needs a non-empty traces array"));
        }
        let sources = trace_specs
            .iter()
            .map(|spec| match figures::resolve_trace_spec(spec, Some(scale.accesses)) {
                Ok((source, _)) => Ok(source),
                Err(message) => Err(bad("invalid_trace", &message)),
            })
            .collect::<Result<_, _>>()?;
        SweepKind::Replay(sources)
    } else if trace_specs.is_empty() {
        SweepKind::Experiment(figures::builder(experiment).ok_or_else(|| {
            bad("unknown_experiment", &format!("{experiment:?} is not a known experiment id"))
        })?)
    } else {
        let message = "traces are only accepted with the \"replay\" experiment";
        return Err(bad("invalid_traces", message));
    };
    Ok((experiment.to_string(), scale, kind))
}

fn submit_sweep(state: &ServerState, body: &str) -> Response {
    let (experiment, scale, kind) = match parse_sweep(body, state.config.default_jobs) {
        Ok(sweep) => sweep,
        Err(rejection) => return rejection,
    };
    let id = state.next_job_id.fetch_add(1, Ordering::Relaxed);
    let accepted = Response {
        status: 202,
        body: format!(
            "{{\"id\":\"{id}\",\"status\":\"queued\",\"experiment\":{},\
             \"links\":{{\"job\":\"/v1/jobs/{id}\",\"result\":\"/v1/results/{id}\"}}}}\n",
            json::string(&experiment)
        ),
    };
    let progress = Mutex::new(Progress { status: JobStatus::Queued, cells: Vec::new() });
    let job = Arc::new(JobState { id, experiment, scale, progress });
    state.jobs.lock().expect("job registry lock").insert(id, Arc::clone(&job));
    state.queue.send((job, kind)).expect("sweep workers outlive the server state");
    accepted
}

fn find_job(state: &ServerState, id: &str) -> Option<Arc<JobState>> {
    let id: u64 = id.parse().ok()?;
    state.jobs.lock().expect("job registry lock").get(&id).cloned()
}

fn job_response(state: &ServerState, id: &str) -> Response {
    let Some(job) = find_job(state, id) else {
        return Response::error(404, "unknown_job", &format!("no job {id:?}"));
    };
    // One snapshot backs the status, the cell list and both counts, so
    // `cache_hits + cache_misses == completed` in every poll.
    let progress = job.progress.lock().expect("job lock");
    let hits = progress.cells.iter().filter(|c| c.cached).count();
    let cells: Vec<String> = progress
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"key\":\"{:016x}\",\"algorithm\":{},\"benchmark\":{},\"ipc\":{},\
                 \"cached\":{}}}",
                c.key,
                json::string(&c.algorithm),
                json::string(&c.benchmark),
                json::number(c.ipc),
                c.cached
            )
        })
        .collect();
    let status = progress.status.label();
    let error_member = match &progress.status {
        JobStatus::Failed(message) => format!(",\"error\":{}", json::string(message)),
        _ => String::new(),
    };
    drop(progress);
    // The resolved machine is echoed by name + canonical fingerprint (null
    // when the job runs the anonymous Table-I defaults), so clients can
    // verify which machine actually served their sweep.
    let machine_member = match &job.scale.machine {
        Some(spec) => format!(
            "{{\"name\":{},\"fingerprint\":\"0x{}\"}}",
            json::string(&spec.name),
            spec.fingerprint_hex()
        ),
        None => "null".to_string(),
    };
    Response::ok(format!(
        "{{\"id\":\"{}\",\"experiment\":{},\"status\":\"{status}\",\
         \"scale\":{{\"accesses\":{},\"multicore_accesses\":{},\"jobs\":{},\
         \"core_model\":{},\"machine\":{machine_member}}},\
         \"cells\":{{\"completed\":{},\"cache_hits\":{},\"cache_misses\":{}}},\
         \"completed_cells\":{}{error_member},\"result\":\"/v1/results/{}\"}}\n",
        job.id,
        json::string(&job.experiment),
        job.scale.accesses,
        job.scale.multicore_accesses,
        job.scale.jobs,
        json::string(job.scale.core_model.label()),
        cells.len(),
        hits,
        cells.len() - hits,
        json::array(cells),
        job.id,
    ))
}

fn result_response(state: &ServerState, id: &str) -> Response {
    let Some(job) = find_job(state, id) else {
        return Response::error(404, "unknown_job", &format!("no job {id:?}"));
    };
    let progress = job.progress.lock().expect("job lock");
    match &progress.status {
        // The stored string is the exact `experiments_to_json` output —
        // served verbatim so the body is byte-identical to the CLI's
        // `--json` file for the same request.
        JobStatus::Done(body) => Response::ok(body.clone()),
        JobStatus::Failed(message) => Response::error(500, "sweep_failed", message),
        status => Response::error(
            409,
            "not_ready",
            &format!("job {} is still {}; poll /v1/jobs/{}", job.id, status.label(), job.id),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{BoxedRecordIter, SplitMix64};
    use std::sync::Barrier;

    #[test]
    fn config_defaults_are_sane() {
        let config = ServerConfig::default();
        assert_eq!(config.default_jobs, 0, "one cell worker per hardware thread");
        assert!(config.cache_dir.is_none());
    }

    #[test]
    fn read_request_parses_line_headers_and_body() {
        let raw = b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}";
        let (method, target, body) = read_request(&mut &raw[..]).unwrap();
        assert_eq!((method.as_str(), target.as_str(), body.as_str()), ("POST", "/v1/sweep", "{}"));
    }

    #[test]
    fn read_request_caps_line_length_and_header_count() {
        // A request line that exactly fills the cap is read whole...
        let target = "/".repeat(MAX_LINE_BYTES - "GET  HTTP/1.1\r\n".len());
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        assert_eq!(read_request(&mut raw.as_bytes()).unwrap().1, target);
        // ...one byte more is refused, as is an over-long header line.
        let raw = format!("GET /{target} HTTP/1.1\r\n\r\n");
        let err = read_request(&mut raw.as_bytes()).unwrap_err();
        assert!(err.contains("request line exceeds"), "{err}");
        let raw = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(1 << 20));
        let err = read_request(&mut raw.as_bytes()).unwrap_err();
        assert!(err.contains("header line exceeds"), "{err}");
        // The header count is capped too.
        let headers = |n: usize| format!("GET / HTTP/1.1\r\n{}\r\n", "X: y\r\n".repeat(n));
        assert!(read_request(&mut headers(MAX_HEADERS).as_bytes()).is_ok());
        let err = read_request(&mut headers(MAX_HEADERS + 1).as_bytes()).unwrap_err();
        assert!(err.contains("header lines"), "{err}");
    }

    /// One request-shaped byte string for the reader's property test, with
    /// the body length it declares; `None` when it declares no valid length,
    /// so the reader must refuse it.
    fn arbitrary_request(rng: &mut SplitMix64) -> (Vec<u8>, Option<usize>) {
        let mut raw = Vec::new();
        let mut declared = Some(0);
        let kind = rng.below(7);
        if kind == 0 {
            // Random bytes, with enough separators to form lines and tokens.
            for _ in 0..rng.below(512) {
                let separator = rng.below(4) == 0;
                raw.push(if separator {
                    b"\r\n :"[rng.below(4) as usize]
                } else {
                    rng.below(256) as u8
                });
            }
            return (raw, declared);
        }
        // A request line: plain, padded to 8191, 8192 or 8193 bytes with its
        // CRLF, or carrying a non-UTF-8 byte.
        let mut line = b"POST /v1/sweep".to_vec();
        if kind == 1 {
            let len = MAX_LINE_BYTES - 1 + rng.below(3) as usize;
            line.resize(len - b" HTTP/1.1\r\n".len(), b'a');
        } else if kind == 2 {
            line.push(0x80 + rng.below(0x80) as u8);
        }
        raw.extend_from_slice(&line);
        raw.extend_from_slice(b" HTTP/1.1\r\n");
        // Headers: 63, 64 or 65 of them, or a few random ones, some of them
        // `Content-Length` (numeric or not; the last one counts) unless the
        // request is cut short below.
        let headers =
            if kind == 3 { MAX_HEADERS - 1 + rng.below(3) as usize } else { rng.below(6) as usize };
        for _ in 0..headers {
            if kind == 3 || rng.below(2) == 0 {
                raw.extend_from_slice(b"X-Pad: y\r\n");
            } else if kind == 4 || rng.below(2) == 0 {
                // Random value bytes, never a line break.
                raw.extend_from_slice(b"X-Rand: ");
                raw.extend(
                    (0..rng.below(64)).map(|_| rng.below(256) as u8).filter(|&b| b != b'\n'),
                );
                raw.extend_from_slice(b"\r\n");
            } else if rng.below(3) == 0 {
                let junk = ["abc", "-1", "1e3", "", "0x10", "18446744073709551616", "1 2"];
                let value = junk[rng.below(junk.len() as u64) as usize];
                raw.extend_from_slice(format!("Content-Length: {value}\r\n").as_bytes());
                declared = None;
            } else {
                // Up to 256, or at and just above the 1 MiB cap.
                let len = match rng.below(4) {
                    0 => MAX_BODY_BYTES + rng.below(2) as usize,
                    _ => rng.below(257) as usize,
                };
                raw.extend_from_slice(format!("content-length: {len}\r\n").as_bytes());
                declared = Some(len);
            }
        }
        if kind == 4 {
            // Truncated: the request ends mid-line, without a newline.
            raw.truncate(rng.below(raw.len() as u64) as usize);
            return (raw, declared);
        }
        raw.extend_from_slice(b"\r\n");
        // The body: exactly the declared length, fewer bytes, or a
        // non-UTF-8 byte.
        let len = declared.unwrap_or(8);
        let mut body = vec![b'{'; len];
        if len > 0 && kind == 5 {
            body.truncate(rng.below(len as u64) as usize);
        } else if len > 0 && kind == 6 {
            body[rng.below(len as u64) as usize] = 0xff;
        }
        raw.extend_from_slice(&body);
        (raw, declared)
    }

    #[test]
    fn read_request_refuses_or_reads_whole_requests_for_arbitrary_bytes() {
        let mut rng = SplitMix64::new(0x4774_5052);
        let (mut ok, mut refused) = (0, 0);
        for case in 0..3_000 {
            let (raw, declared) = arbitrary_request(&mut rng);
            match read_request(&mut raw.as_slice()) {
                Ok((method, target, body)) => {
                    assert!(!method.is_empty() && !target.is_empty(), "case {case}: {raw:?}");
                    assert_eq!(Some(body.len()), declared, "case {case}: {method} {target}");
                    ok += 1;
                }
                Err(_) => refused += 1,
            }
        }
        assert!(ok > 500 && refused > 500, "{ok} read, {refused} refused");
    }

    #[test]
    fn status_labels_cover_the_lifecycle() {
        assert_eq!(JobStatus::Queued.label(), "queued");
        assert_eq!(JobStatus::Running.label(), "running");
        assert_eq!(JobStatus::Done(String::new()).label(), "done");
        assert_eq!(JobStatus::Failed("boom".into()).label(), "failed");
    }

    #[test]
    fn optional_positive_distinguishes_absent_and_invalid() {
        let doc = json::parse(r#"{"accesses":500,"jobs":0,"quick":true}"#).unwrap();
        assert_eq!(optional_positive(&doc, "accesses").unwrap(), Some(500));
        assert_eq!(optional_positive(&doc, "missing").unwrap(), None);
        assert!(optional_positive(&doc, "jobs").is_err(), "zero is invalid");
        assert!(optional_positive(&doc, "quick").is_err(), "booleans are not counts");
    }

    #[test]
    fn error_envelope_shape() {
        let r = Response::error(400, "invalid_json", "bad \"quote\"");
        assert_eq!(r.status, 400);
        let doc = json::parse(&r.body).expect("envelope is valid JSON");
        let error = doc.get("error").expect("error member");
        assert_eq!(error.get("code").and_then(JsonValue::as_str), Some("invalid_json"));
        assert_eq!(error.get("message").and_then(JsonValue::as_str), Some("bad \"quote\""));
    }

    /// A server state with no sweep workers attached, and the receiving end
    /// of its job queue: submissions only queue, and a test runs a queued
    /// sweep itself with [`run_sweep`].
    fn idle_state() -> (ServerState, Receiver<QueuedSweep>) {
        let (queue, queued) = mpsc::channel();
        let state = ServerState {
            cache: Arc::new(CellCache::new(4)),
            jobs: Mutex::new(HashMap::new()),
            queue,
            next_job_id: AtomicU64::new(1),
            started: Instant::now(),
            requests: AtomicU64::new(0),
            config: ServerConfig::default(),
        };
        (state, queued)
    }

    #[test]
    fn job_counts_split_the_completed_cells() {
        let (state, _queued) = idle_state();
        assert_eq!(submit_sweep(&state, r#"{"experiment":"quick"}"#).status, 202);
        let job = find_job(&state, "1").expect("job 1 is registered");
        for (key, cached) in [(1, false), (2, true), (3, true)] {
            job.progress.lock().unwrap().cells.push(CellDone {
                key,
                algorithm: "IPCP".to_string(),
                benchmark: "mcf".to_string(),
                ipc: 1.0,
                cached,
            });
        }
        let doc = json::parse(&job_response(&state, "1").body).expect("job view is valid JSON");
        let count =
            |key: &str| doc.get("cells").and_then(|c| c.get(key)).and_then(JsonValue::as_f64);
        assert_eq!(count("completed"), Some(3.0));
        assert_eq!(count("cache_hits"), Some(2.0));
        assert_eq!(count("cache_misses"), Some(1.0));
    }

    #[test]
    fn submit_validates_the_core_model_knob() {
        // No sweep workers are attached: submissions only queue, which is all
        // the validation path needs.
        let (state, queued) = idle_state();
        let bad = submit_sweep(&state, r#"{"experiment":"quick","core_model":"fast"}"#);
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("invalid_core_model"), "{}", bad.body);
        let not_a_string = submit_sweep(&state, r#"{"experiment":"quick","core_model":3}"#);
        assert_eq!(not_a_string.status, 400);
        let ok = submit_sweep(&state, r#"{"experiment":"quick","core_model":"ooo"}"#);
        assert_eq!(ok.status, 202, "{}", ok.body);
        let queued: Vec<QueuedSweep> = queued.try_iter().collect();
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].0.scale.core_model, cpu::CoreModelKind::OutOfOrder);
    }

    #[test]
    fn submit_validates_the_machine_field() {
        let (state, queued) = idle_state();
        // Unknown built-in name → the invalid_machine envelope.
        let bad = submit_sweep(&state, r#"{"experiment":"quick","machine":"laptop"}"#);
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("invalid_machine"), "{}", bad.body);
        // Wrong type → rejected before anything queues.
        let wrong = submit_sweep(&state, r#"{"experiment":"quick","machine":7}"#);
        assert_eq!(wrong.status, 400);
        assert!(wrong.body.contains("invalid_machine"), "{}", wrong.body);
        // An inline spec object with a bad value reports the machine error
        // (no "line N:" prefix — the body has no source lines).
        let inline_bad = submit_sweep(
            &state,
            r#"{"experiment":"quick","machine":{"format":"alecto-machine-v1","cores":4,"core":{"model":"fast"}}}"#,
        );
        assert_eq!(inline_bad.status, 400);
        assert!(inline_bad.body.contains("invalid_machine"), "{}", inline_bad.body);
        assert!(!inline_bad.body.contains("line "), "{}", inline_bad.body);
        assert!(queued.try_recv().is_err(), "nothing may queue on a 400");

        // A built-in name queues with the machine's core model applied...
        let ok = submit_sweep(&state, r#"{"experiment":"quick","machine":"server"}"#);
        assert_eq!(ok.status, 202, "{}", ok.body);
        // ...unless core_model explicitly overrides it.
        let overridden = submit_sweep(
            &state,
            r#"{"experiment":"quick","machine":"server","core_model":"approx"}"#,
        );
        assert_eq!(overridden.status, 202, "{}", overridden.body);
        // And an inline object defaults its name to "inline".
        let inline_ok = submit_sweep(
            &state,
            r#"{"experiment":"quick","machine":{"format":"alecto-machine-v1","cores":2}}"#,
        );
        assert_eq!(inline_ok.status, 202, "{}", inline_ok.body);
        let queued: Vec<QueuedSweep> = queued.try_iter().collect();
        assert_eq!(queued.len(), 3);
        assert_eq!(queued[0].0.scale.core_model, cpu::CoreModelKind::OutOfOrder);
        assert_eq!(queued[0].0.scale.machine.as_ref().unwrap().name, "server");
        assert_eq!(queued[1].0.scale.core_model, cpu::CoreModelKind::Approx);
        assert_eq!(queued[2].0.scale.machine.as_ref().unwrap().name, "inline");
        assert_eq!(queued[2].0.scale.machine.as_ref().unwrap().cores, 2);
    }

    /// The `status` and, for a failed job, `error` members of job `id`'s
    /// `/v1/jobs` document.
    fn job_status(state: &ServerState, id: &str) -> (String, Option<String>) {
        let doc = json::parse(&job_response(state, id).body).expect("job view is valid JSON");
        let member = |key| doc.get(key).and_then(JsonValue::as_str).map(str::to_string);
        (member("status").expect("every job has a status"), member("error"))
    }

    #[test]
    fn a_panicking_sweep_fails_its_job_and_the_server_keeps_serving() {
        let (state, queued) = idle_state();
        // At one cell worker the cells run inline on the sweep's thread.
        let body = r#"{"experiment":"replay","traces":["mcf"],"accesses":100,"jobs":1}"#;
        assert_eq!(submit_sweep(&state, body).status, 202);
        // The queued job runs a replay whose one trace panics when read.
        let (job, _) = queued.try_recv().expect("the sweep is queued");
        let exploding = TraceSource::new("exploding", true, 100, || -> BoxedRecordIter {
            panic!("trace factory exploded")
        });
        run_sweep(&state, &job, SweepKind::Replay(vec![exploding]));
        assert_eq!(
            job_status(&state, "1"),
            ("failed".to_string(), Some("trace factory exploded".to_string()))
        );
        let result = result_response(&state, "1");
        assert_eq!(result.status, 500);
        assert!(result.body.contains("\"sweep_failed\""), "{}", result.body);

        // The server keeps serving: stats count the failure, and the same
        // request with its own trace queues and runs to the end.
        let stats = json::parse(&route(&state, "GET", "/v1/stats", "").body).unwrap();
        let failed = stats.get("jobs").and_then(|j| j.get("failed")).and_then(JsonValue::as_f64);
        assert_eq!(failed, Some(1.0));
        assert_eq!(submit_sweep(&state, body).status, 202);
        let (job, kind) = queued.try_recv().expect("the second sweep is queued");
        run_sweep(&state, &job, kind);
        assert_eq!(job_status(&state, "2"), ("done".to_string(), None));
        assert_eq!(result_response(&state, "2").status, 200);
    }

    #[test]
    fn fig15_on_an_l3_that_builds_at_no_swept_size_ends_done() {
        // 3 MiB of 12-way L3 over two cores: each of fig15's 0.5-4 MB
        // per-core sizes has a set count that is no power of two, so every
        // row is n/a and no cell simulates.
        let (state, queued) = idle_state();
        let body = r#"{"experiment":"fig15","accesses":100,"jobs":1,"machine":
            {"format":"alecto-machine-v1","name":"m","cores":2,
             "cache":{"l3":{"size_kb":3072,"ways":12,"mshrs":128}}}}"#;
        let accepted = submit_sweep(&state, body);
        assert_eq!(accepted.status, 202, "{}", accepted.body);
        let (job, kind) = queued.try_recv().expect("the sweep is queued");
        run_sweep(&state, &job, kind);
        assert_eq!(job_status(&state, "1"), ("done".to_string(), None));
        let result = result_response(&state, "1");
        assert_eq!(result.status, 200);
        assert_eq!(result.body.matches("\"n/a\"").count(), 4 * 5, "{}", result.body);
    }

    #[test]
    fn pool_threads_handle_items_side_by_side() {
        // Each item's handler waits for the other's, so both items finish
        // only if the pool's two threads handle them at the same time.
        let barrier = Barrier::new(2);
        let (finished, finishes) = mpsc::channel();
        let (items, received) = mpsc::channel();
        spawn_pool("pool-test", 2, received, move |item: u32| {
            barrier.wait();
            finished.send(item).expect("the test awaits every item");
        });
        items.send(1).unwrap();
        items.send(2).unwrap();
        let mut done: Vec<u32> = (0..2)
            .map(|_| finishes.recv_timeout(Duration::from_secs(10)).expect("both items finish"))
            .collect();
        done.sort_unstable();
        assert_eq!(done, [1, 2]);
    }

    #[test]
    fn machine_objects_flatten_to_dotted_entries() {
        let doc = json::parse(
            r#"{"format":"alecto-machine-v1","cores":4,"cache":{"l1d":{"ways":4,"size_kb":32}}}"#,
        )
        .unwrap();
        let entries = flatten_machine_object("", &doc).unwrap();
        let paths: Vec<&str> = entries.iter().map(|e| e.path.as_str()).collect();
        assert!(paths.contains(&"cache.l1d.ways"), "{paths:?}");
        assert!(entries.iter().all(|e| e.line == 0));
        let spec = machine::compile_entries(&entries, true).unwrap();
        assert_eq!(spec.l1d.ways, 4);
        // Non-integer numbers are named in the rejection.
        let doc = json::parse(r#"{"cores":2.5}"#).unwrap();
        let err = flatten_machine_object("", &doc).unwrap_err();
        assert!(err.contains("`cores`"), "{err}");
    }
}
