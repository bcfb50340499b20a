//! End-to-end exercise of the sweep server over real sockets: submit,
//! poll, fetch results, verify byte-identity with the in-process pipeline
//! (the same one the CLI's `--json` writes through), and verify the second,
//! identical submission is served entirely from the cell cache.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use harness::report::experiments_to_json;
use harness::report::json::{self, JsonValue};
use harness::{figures, RunScale, Server, ServerConfig};

/// Issues one HTTP/1.1 request and returns `(status, body)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    send(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Sends raw request bytes and returns the response's `(status, body)`.
fn send(addr: &str, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // A server that rejects a request before reading all of it answers and
    // then resets the connection, which can fail the rest of the write and
    // the read after the response: what counts is the response received.
    let _ = stream.write_all(request.as_bytes());
    let mut raw = String::new();
    let _ = stream.read_to_string(&mut raw);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {raw:?}"));
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Submits a sweep and returns its job id.
fn submit(addr: &str, request: &str) -> String {
    let (status, body) = http(addr, "POST", "/v1/sweep", request);
    assert_eq!(status, 202, "submission should be accepted: {body}");
    let doc = json::parse(&body).expect("submission response is JSON");
    doc.get("id").and_then(JsonValue::as_str).expect("submission carries an id").to_string()
}

/// Polls `/v1/jobs/<id>` until the job leaves the queued/running states,
/// returning the final job document.
fn await_job(addr: &str, id: &str) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        assert_eq!(status, 200, "job {id} should be pollable: {body}");
        let doc = json::parse(&body).expect("job document is JSON");
        match doc.get("status").and_then(JsonValue::as_str) {
            Some("queued" | "running") => {
                assert!(Instant::now() < deadline, "job {id} did not finish in time");
                std::thread::sleep(Duration::from_millis(25));
            }
            Some("done" | "failed") => return doc,
            other => panic!("job {id} has unexpected status {other:?}"),
        }
    }
}

/// Starts a server on an ephemeral port and returns its `host:port`.
fn start_server(config: ServerConfig) -> String {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("resolved address").to_string();
    std::thread::spawn(move || server.run());
    addr
}

const REPLAY_LBM: &str = r#"{"experiment":"replay","traces":["lbm"],"accesses":300}"#;

#[test]
fn sweep_lifecycle_cache_reuse_and_byte_identity() {
    let addr = start_server(ServerConfig::default());

    let (status, body) = http(&addr, "GET", "/v1/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "health body: {body}");

    // Cold sweep: simulated from scratch, every cell a cache miss.
    let cold_id = submit(&addr, REPLAY_LBM);
    let cold_job = await_job(&addr, &cold_id);
    assert_eq!(cold_job.get("status").and_then(JsonValue::as_str), Some("done"));
    let cold_cells = cold_job.get("cells").expect("cells member");
    let completed = cold_cells.get("completed").and_then(JsonValue::as_f64).unwrap();
    assert!(completed >= 2.0, "replay runs a baseline plus algorithms");
    assert_eq!(cold_cells.get("cache_hits").and_then(JsonValue::as_f64), Some(0.0));
    assert_eq!(cold_cells.get("cache_misses").and_then(JsonValue::as_f64), Some(completed));
    let per_cell =
        cold_job.get("completed_cells").and_then(JsonValue::as_array).expect("per-cell progress");
    assert_eq!(per_cell.len() as f64, completed);
    assert!(per_cell.iter().all(|c| c.get("cached").and_then(JsonValue::as_bool) == Some(false)));

    let (status, cold_result) = http(&addr, "GET", &format!("/v1/results/{cold_id}"), "");
    assert_eq!(status, 200);

    // Byte-identity with the CLI pipeline: the server must serve exactly
    // what `alecto-harness trace replay lbm --accesses 300 --json` writes.
    let source = traces::Suite::of("lbm").expect("lbm registered").source("lbm", 300);
    let expected = experiments_to_json(&[figures::replay(
        std::slice::from_ref(&source),
        &RunScale::resolve(false, Some(300), None, Some(0)),
    )]);
    assert_eq!(cold_result, expected, "server result differs from the CLI pipeline");

    // Warm sweep: identical request, 100% served from the cell cache, and
    // the report is byte-identical to the cold one.
    let warm_id = submit(&addr, REPLAY_LBM);
    let warm_job = await_job(&addr, &warm_id);
    assert_eq!(warm_job.get("status").and_then(JsonValue::as_str), Some("done"));
    let warm_cells = warm_job.get("cells").expect("cells member");
    assert_eq!(warm_cells.get("cache_hits").and_then(JsonValue::as_f64), Some(completed));
    assert_eq!(warm_cells.get("cache_misses").and_then(JsonValue::as_f64), Some(0.0));
    let (status, warm_result) = http(&addr, "GET", &format!("/v1/results/{warm_id}"), "");
    assert_eq!(status, 200);
    assert_eq!(warm_result, cold_result, "cached sweep must be byte-identical");

    // The stats counters agree: at least half of all lookups hit (the warm
    // sweep is all hits) and the worker pool is visible.
    let (status, stats) = http(&addr, "GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let stats = json::parse(&stats).expect("stats is JSON");
    let cache = stats.get("cache").expect("cache member");
    assert_eq!(cache.get("hits").and_then(JsonValue::as_f64), Some(completed));
    assert_eq!(cache.get("misses").and_then(JsonValue::as_f64), Some(completed));
    assert!(cache.get("hit_rate").and_then(JsonValue::as_f64).unwrap() >= 0.5);
    let workers = stats.get("workers").expect("workers member");
    assert!(workers.get("total").and_then(JsonValue::as_f64).unwrap() >= 1.0);
}

#[test]
fn concurrent_submissions_all_complete() {
    let addr = start_server(ServerConfig::default());
    let addr = Arc::new(addr);
    let ids: Vec<String> = (0..4)
        .map(|i| {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                // Two distinct benchmarks so some submissions share cells
                // and some don't — both paths must complete.
                let bench = if i % 2 == 0 { "lbm" } else { "povray" };
                submit(
                    &addr,
                    &format!(r#"{{"experiment":"replay","traces":["{bench}"],"accesses":200}}"#),
                )
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("submission thread"))
        .collect();
    assert_eq!(ids.len(), 4);
    let mut results = Vec::new();
    for id in &ids {
        let job = await_job(&addr, id);
        assert_eq!(job.get("status").and_then(JsonValue::as_str), Some("done"), "job {id}");
        let (status, body) = http(&addr, "GET", &format!("/v1/results/{id}"), "");
        assert_eq!(status, 200);
        results.push(body);
    }
    // Same benchmark → byte-identical reports, whatever the submission
    // interleaving; different benchmark → different reports.
    assert_eq!(results[0], results[2]);
    assert_eq!(results[1], results[3]);
    assert_ne!(results[0], results[1]);
}

#[test]
fn protocol_errors_use_the_error_envelope() {
    let addr = start_server(ServerConfig::default());
    let expect_code = |status: u16, body: &str, code: &str| {
        let doc = json::parse(body).unwrap_or_else(|e| panic!("body {body:?} not JSON: {e}"));
        let got = doc.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
        assert_eq!(got, Some(code), "status {status} body {body}");
    };

    let (status, body) = http(&addr, "POST", "/v1/sweep", "not json");
    assert_eq!(status, 400);
    expect_code(status, &body, "invalid_json");

    let (status, body) = http(&addr, "POST", "/v1/sweep", r#"{"experiment":"fig99"}"#);
    assert_eq!(status, 400);
    expect_code(status, &body, "unknown_experiment");

    let (status, body) = http(&addr, "POST", "/v1/sweep", r#"{"experiment":"replay"}"#);
    assert_eq!(status, 400);
    expect_code(status, &body, "missing_traces");

    // An explicitly empty benchmark list is the same validation error — it
    // must come back as a 400 envelope, never reach `System::run_sources`
    // (whose empty-source case is a `RunError`, not a panic) and never kill
    // a sweep worker thread.
    let (status, body) = http(&addr, "POST", "/v1/sweep", r#"{"experiment":"replay","traces":[]}"#);
    assert_eq!(status, 400);
    expect_code(status, &body, "missing_traces");

    let (status, body) =
        http(&addr, "POST", "/v1/sweep", r#"{"experiment":"fig8","traces":["lbm"]}"#);
    assert_eq!(status, 400);
    expect_code(status, &body, "invalid_traces");

    let (status, body) = http(&addr, "POST", "/v1/sweep", r#"{"experiment":"fig8","jobs":0}"#);
    assert_eq!(status, 400);
    expect_code(status, &body, "invalid_scale");

    let (status, body) = http(
        &addr,
        "POST",
        "/v1/sweep",
        r#"{"experiment":"replay","traces":["file:/no/such.altr"]}"#,
    );
    assert_eq!(status, 400);
    expect_code(status, &body, "invalid_trace");

    let (status, body) = http(&addr, "GET", "/v1/jobs/999", "");
    assert_eq!(status, 404);
    expect_code(status, &body, "unknown_job");

    let (status, body) = http(&addr, "GET", "/v1/results/999", "");
    assert_eq!(status, 404);
    expect_code(status, &body, "unknown_job");

    let (status, body) = http(&addr, "PUT", "/v1/sweep", "{}");
    assert_eq!(status, 405);
    expect_code(status, &body, "method_not_allowed");

    let (status, body) = http(&addr, "GET", "/v2/anything", "");
    assert_eq!(status, 404);
    expect_code(status, &body, "not_found");
}

#[test]
fn hostile_requests_are_400s_and_the_server_keeps_serving() {
    let addr = start_server(ServerConfig::default());
    let error_code = |body: &str| {
        let doc = json::parse(body).unwrap_or_else(|e| panic!("body {body:?} not JSON: {e}"));
        doc.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str).map(String::from)
    };

    // 100,000 unclosed brackets: far under the body cap, far past the
    // JSON nesting cap.
    let (status, body) = http(&addr, "POST", "/v1/sweep", &"[".repeat(100_000));
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_code(&body).as_deref(), Some("invalid_json"));

    // A 1 MiB header line is cut off at the line cap, not buffered whole.
    let pad = "a".repeat(1 << 20);
    let (status, body) = send(&addr, &format!("GET /v1/health HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"));
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_code(&body).as_deref(), Some("malformed_request"));

    // A valid-looking inline machine with a 1 PiB L2 is refused up front,
    // not queued to abort the server while allocating its cache arrays.
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/sweep",
        r#"{"experiment":"fig8","accesses":100,"jobs":1,"machine":{"format":"alecto-machine-v1","name":"huge","cores":1,"cache":{"l2":{"size_kb":1099511627776}}}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_code(&body).as_deref(), Some("invalid_machine"));

    // So are 2^40 L1D MSHRs, which aborted the server allocating them, a
    // 128-way L1D, which failed its job on the tag scan's 64-way limit, and
    // a 3-core machine whose one-core L3 share has 1,365 sets, which failed
    // every single-core job.
    for level in [r#"{"mshrs":1099511627776}"#, r#"{"size_kb":32,"ways":128}"#] {
        let body = format!(
            r#"{{"experiment":"fig8","accesses":100,"jobs":1,"machine":{{"format":"alecto-machine-v1","name":"m","cores":1,"cache":{{"l1d":{level}}}}}}}"#
        );
        let (status, body) = http(&addr, "POST", "/v1/sweep", &body);
        assert_eq!(status, 400, "{level}: {body}");
        assert_eq!(error_code(&body).as_deref(), Some("invalid_machine"), "{level}");
    }
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/sweep",
        r#"{"experiment":"fig8","accesses":100,"jobs":1,"machine":{"format":"alecto-machine-v1","name":"m","cores":3,"cache":{"l3":{"size_kb":3072,"ways":12,"mshrs":192}}}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_code(&body).as_deref(), Some("invalid_machine"));

    let (status, body) = http(&addr, "GET", "/v1/health", "");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn cache_dir_serves_warm_sweeps_across_server_instances() {
    let dir = std::env::temp_dir().join(format!("alecto-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first =
        start_server(ServerConfig { cache_dir: Some(dir.clone()), ..ServerConfig::default() });
    let cold_id = submit(&first, REPLAY_LBM);
    await_job(&first, &cold_id);
    let (_, cold_result) = http(&first, "GET", &format!("/v1/results/{cold_id}"), "");

    // A brand-new server instance (fresh memory tier) over the same
    // directory serves the identical bytes from disk.
    let second =
        start_server(ServerConfig { cache_dir: Some(dir.clone()), ..ServerConfig::default() });
    let warm_id = submit(&second, REPLAY_LBM);
    let warm_job = await_job(&second, &warm_id);
    let cells = warm_job.get("cells").expect("cells member");
    let hits = cells.get("cache_hits").and_then(JsonValue::as_f64).unwrap();
    assert_eq!(cells.get("cache_misses").and_then(JsonValue::as_f64), Some(0.0));
    assert!(hits >= 2.0, "all cells should come from the persisted tier");
    let (status, warm_result) = http(&second, "GET", &format!("/v1/results/{warm_id}"), "");
    assert_eq!(status, 200);
    assert_eq!(warm_result, cold_result, "disk-tier reports must be byte-identical");

    let (_, stats) = http(&second, "GET", "/v1/stats", "");
    let stats = json::parse(&stats).expect("stats is JSON");
    let disk_hits =
        stats.get("cache").and_then(|c| c.get("disk_hits")).and_then(JsonValue::as_f64).unwrap();
    assert!(disk_hits >= 2.0, "the warm sweep's hits are disk hits: {stats:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn machine_sweeps_match_the_cli_and_echo_their_identity() {
    let addr = start_server(ServerConfig::default());

    // An unknown machine name is a 400 envelope, same as every other
    // validation failure — nothing reaches the sweep queue.
    let (status, body) = http(
        &addr,
        "POST",
        "/v1/sweep",
        r#"{"experiment":"replay","traces":["lbm"],"machine":"laptop"}"#,
    );
    assert_eq!(status, 400);
    let doc = json::parse(&body).expect("error body is JSON");
    let code = doc.get("error").and_then(|e| e.get("code")).and_then(JsonValue::as_str);
    assert_eq!(code, Some("invalid_machine"), "body: {body}");

    // A built-in machine runs to completion and the job document echoes the
    // machine's name and fingerprint in its scale line.
    let spec = machine::builtin("server").expect("server is a built-in");
    let id = submit(
        &addr,
        r#"{"experiment":"replay","traces":["lbm"],"accesses":300,"machine":"server"}"#,
    );
    let job = await_job(&addr, &id);
    assert_eq!(job.get("status").and_then(JsonValue::as_str), Some("done"), "job: {job:?}");
    let echoed = job.get("scale").and_then(|s| s.get("machine")).expect("scale echoes machine");
    assert_eq!(echoed.get("name").and_then(JsonValue::as_str), Some("server"));
    assert_eq!(
        echoed.get("fingerprint").and_then(JsonValue::as_str),
        Some(format!("0x{}", spec.fingerprint_hex()).as_str())
    );

    // Byte-identity with the CLI pipeline: the server must serve exactly what
    // `alecto-harness trace replay lbm --accesses 300 --machine server --json`
    // writes.
    let (status, result) = http(&addr, "GET", &format!("/v1/results/{id}"), "");
    assert_eq!(status, 200);
    let source = traces::Suite::of("lbm").expect("lbm registered").source("lbm", 300);
    let scale = RunScale::resolve(false, Some(300), None, Some(0)).with_machine(spec);
    let expected = experiments_to_json(&[figures::replay(std::slice::from_ref(&source), &scale)]);
    assert_eq!(result, expected, "machine sweep differs from the CLI pipeline");

    // A machine-less job keeps the old null echo.
    let plain_id = submit(&addr, REPLAY_LBM);
    let plain_job = await_job(&addr, &plain_id);
    let echoed = plain_job.get("scale").and_then(|s| s.get("machine")).expect("machine member");
    assert!(matches!(echoed, JsonValue::Null), "machine-less scale must echo null: {plain_job:?}");
}
