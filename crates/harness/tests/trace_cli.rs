//! End-to-end tests of the `list` and `trace` subcommands: the record →
//! info → replay pipeline, the `file:` scheme, the importer, and the
//! argument-validation contract (exit 2 + usage on bad flags, before any
//! simulation runs).

use std::path::PathBuf;
use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alecto-harness"))
}

/// A collision-free scratch path, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self(
            std::env::temp_dir()
                .join(format!("alecto-trace-cli-{}-{unique}-{name}", std::process::id())),
        )
    }

    fn as_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn list_prints_every_suite_and_experiment_and_exits_zero() {
    let output = harness().arg("list").output().expect("spawn harness");
    assert!(output.status.success(), "list must exit 0, got {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    // Every suite of the registry, a member of each, every experiment id,
    // and the file scheme all appear.
    for needle in [
        "spec06",
        "spec17",
        "parsec",
        "ligra",
        "pointer-chase",
        "web-serve",
        "database",
        "mcf",
        "canneal",
        "BFS",
        "web-cache",
        "hash-join",
        "fig8",
        "fig17",
        "stress",
        "timing",
        "quick",
        "file:<PATH>",
    ] {
        assert!(stdout.contains(needle), "list output is missing {needle}:\n{stdout}");
    }
}

#[test]
fn record_info_replay_round_trip_is_byte_identical_to_the_generated_run() {
    let trace = Scratch::new("rt.altr");
    let replayed_json = Scratch::new("replayed.json");
    let generated_json = Scratch::new("generated.json");

    // Record a small trace of a registered benchmark.
    let output = harness()
        .args(["trace", "record", "web-cache", "--accesses", "400", "--out", trace.as_str()])
        .output()
        .expect("spawn harness");
    assert!(output.status.success(), "record failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.contains("recorded 400 record(s) of web-cache"), "{stdout}");

    // info verifies the checksum and reports the header.
    let output = harness().args(["trace", "info", trace.as_str()]).output().expect("spawn harness");
    assert!(output.status.success(), "info failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let raw_size = format!("raw in-memory: {}", size_of::<alecto_types::MemoryRecord>());
    for needle in ["web-cache", "records", "400", "(verified)", "format version", &raw_size] {
        assert!(stdout.contains(needle), "info output is missing {needle}:\n{stdout}");
    }

    // Replaying the file and running the generated source emit
    // byte-identical reports, whatever the worker count.
    let output = harness()
        .args([
            "trace",
            "replay",
            &format!("file:{}", trace.as_str()),
            "--jobs",
            "3",
            "--json",
            replayed_json.as_str(),
        ])
        .output()
        .expect("spawn harness");
    assert!(output.status.success(), "file replay failed: {output:?}");
    let output = harness()
        .args([
            "trace",
            "replay",
            "web-cache",
            "--accesses",
            "400",
            "--jobs",
            "1",
            "--json",
            generated_json.as_str(),
        ])
        .output()
        .expect("spawn harness");
    assert!(output.status.success(), "generated replay failed: {output:?}");
    let replayed = std::fs::read(&replayed_json.0).expect("replayed report");
    let generated = std::fs::read(&generated_json.0).expect("generated report");
    assert!(!replayed.is_empty());
    assert_eq!(replayed, generated, "file replay diverged from the generated-source run");
}

#[test]
fn import_converts_champsim_text_and_rejects_malformed_lines() {
    let csv = Scratch::new("ext.csv");
    let trace = Scratch::new("ext.altr");
    std::fs::write(&csv.0, "# comment\n0x400, 0x1000, L, 3\n0x404 0x2000 S\n8,12288,w,5,1\n")
        .expect("write csv");
    let output = harness()
        .args(["trace", "import", csv.as_str(), "--out", trace.as_str(), "--memory-intensive"])
        .output()
        .expect("spawn harness");
    assert!(output.status.success(), "import failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.contains("imported 3 record(s)"), "{stdout}");

    // The imported trace is a first-class replay source.
    let output = harness()
        .args(["trace", "replay", &format!("file:{}", trace.as_str())])
        .output()
        .expect("spawn harness");
    assert!(output.status.success(), "imported replay failed: {output:?}");

    // A malformed line is rejected with its line number.
    std::fs::write(&csv.0, "0x400, 0x1000, L\nnot-a-record\n").expect("write csv");
    let output = harness()
        .args(["trace", "import", csv.as_str(), "--out", trace.as_str()])
        .output()
        .expect("spawn harness");
    assert_eq!(output.status.code(), Some(2), "malformed import must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("line 2"), "error names the line:\n{stderr}");
}

#[test]
fn zero_accesses_exits_two_with_usage_everywhere() {
    // `--accesses 0` is rejected exactly like `--jobs 0`, in the experiment
    // path and in every trace action; so is a zero multi-core budget, which
    // would otherwise emit all-zero speedups and NaN geomeans.
    let cases: &[&[&str]] = &[
        &["quick", "--accesses", "0"],
        &["fig8", "--accesses", "0"],
        &["fig17", "--accesses", "300", "--multicore-accesses", "0"],
        &["trace", "record", "mcf", "--accesses", "0", "--out", "x.altr"],
        &["trace", "replay", "mcf", "--accesses", "0"],
    ];
    for args in cases {
        let output = harness().args(*args).output().expect("spawn harness");
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8(output.stderr).expect("utf-8");
        assert!(stderr.contains("usage: alecto-harness"), "{args:?} must print usage");
    }
}

#[test]
fn unwritable_out_path_exits_two_with_usage_before_recording() {
    let output = harness()
        .args([
            "trace",
            "record",
            "mcf",
            "--accesses",
            "60",
            "--out",
            "/nonexistent-dir-xyz/t.altr",
        ])
        .output()
        .expect("spawn harness");
    assert_eq!(output.status.code(), Some(2), "bad --out must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("error: --out"), "error names the flag:\n{stderr}");
    assert!(stderr.contains("usage: alecto-harness"), "usage follows:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.is_empty(), "nothing may be recorded before the path check:\n{stdout}");
}

#[test]
fn usage_errors_after_the_path_check_leave_no_file_behind() {
    // The up-front writability probe must not leave an empty report or a
    // 0-byte (broken) trace when the experiment id or trace spec is bad.
    let trace = Scratch::new("x.altr");
    let report = Scratch::new("r.json");
    let replay_report = Scratch::new("r2.json");
    let cases: [(&[&str], &Scratch); 3] = [
        (&["trace", "record", "no-such-bench", "--out", trace.as_str()], &trace),
        (&["fig99", "--json", report.as_str()], &report),
        (&["trace", "replay", "no-such", "--json", replay_report.as_str()], &replay_report),
    ];
    for (args, file) in cases {
        let output = harness().args(args).output().expect("spawn harness");
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
        assert!(!file.0.exists(), "{args:?} left {} behind", file.as_str());
    }
    // A destination that already existed keeps its bytes.
    std::fs::write(&report.0, "keep").expect("write report");
    let output =
        harness().args(["fig99", "--json", report.as_str()]).output().expect("spawn harness");
    assert_eq!(output.status.code(), Some(2));
    assert_eq!(std::fs::read_to_string(&report.0).expect("read report"), "keep");
}

#[test]
fn import_dir_fails_inputs_that_share_an_output_and_writes_neither() {
    let dir = Scratch::new("import-dir");
    std::fs::create_dir(&dir.0).expect("create dir");
    let write = |name: &str, text: &str| std::fs::write(dir.0.join(name), text).expect("write");
    write("a.txt", "0x400 0x1000 L\n0x404 0x2000 L\n");
    write("a.csv", "1,4096,L\n2,8192,L\n3,12288,S\n");
    write("bad.txt", "not-a-record\n");
    write("good.champsim", "0x10 0x40 L\n");
    let input = |name: &str| dir.0.join(name).display().to_string();
    let collided = dir.0.join("a.altr");
    for jobs in ["1", "2"] {
        let output = harness()
            .args(["trace", "import", "--dir", dir.as_str(), "--jobs", jobs])
            .output()
            .expect("spawn harness");
        assert_eq!(output.status.code(), Some(1), "--jobs {jobs}: {output:?}");
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        let row = |name: &str| {
            let input = input(name);
            stdout
                .lines()
                .find(|line| line.split_whitespace().next() == Some(input.as_str()))
                .unwrap_or_else(|| panic!("no row for {input}:\n{stdout}"))
                .to_string()
        };
        let collision = format!("failed: output {} is also the output of", collided.display());
        assert!(row("a.csv").contains(&format!("{collision} {}", input("a.txt"))), "{stdout}");
        assert!(row("a.txt").contains(&format!("{collision} {}", input("a.csv"))), "{stdout}");
        assert!(row("bad.txt").contains("failed: line 1"), "{stdout}");
        let good = row("good.champsim");
        assert!(good.contains(&dir.0.join("good.altr").display().to_string()), "{stdout}");
        assert!(good.trim_end().ends_with("ok"), "{stdout}");
        assert!(stdout.contains("imported 1/4 file(s)"), "{stdout}");
        assert!(!collided.exists(), "--jobs {jobs} wrote {}", collided.display());
    }
}

#[test]
fn trace_usage_errors_exit_two() {
    let missing = Scratch::new("missing.altr");
    let probe = Scratch::new("probe.altr");
    let out = probe.as_str();
    // A valid trace and an existing directory, so the flag an action does
    // not read is the only thing wrong with those cases.
    let trace = Scratch::new("valid.altr");
    let output = harness()
        .args(["trace", "record", "mcf", "--accesses", "60", "--out", trace.as_str()])
        .output()
        .expect("spawn harness");
    assert!(output.status.success(), "record failed: {output:?}");
    let corpus = Scratch::new("corpus");
    std::fs::create_dir(&corpus.0).expect("create corpus dir");
    let report = Scratch::new("info.json");
    let cases: &[&[&str]] = &[
        // Unknown action, missing operands, unknown flags.
        &["trace"],
        &["trace", "frobnicate"],
        &["trace", "record", "--out", out],
        &["trace", "record", "mcf"],
        &["trace", "record", "mcf", "extra", "--out", out],
        &["trace", "replay", "--jobs", "2"],
        &["trace", "record", "mcf", "--bogus", "--out", out],
        // Unknown benchmark and unreadable trace file.
        &["trace", "record", "no-such-bench", "--out", out],
        // A flag the action does not read.
        &["trace", "info", trace.as_str(), "--json", report.as_str()],
        &["trace", "record", "mcf", "--out", out, "--jobs", "4", "--core-model", "ooo"],
        &["fuzz", "corpus", corpus.as_str(), "--seed", "3"],
    ];
    for args in cases {
        let output = harness().args(*args).output().expect("spawn harness");
        assert_eq!(output.status.code(), Some(2), "{args:?} must exit 2");
    }
    let output =
        harness().args(["trace", "info", missing.as_str()]).output().expect("spawn harness");
    assert_eq!(output.status.code(), Some(2), "missing trace file must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8");
    assert!(stderr.contains("error"), "{stderr}");
}

/// Rewrites block 1's payload-length varint with `edit` and re-patches the
/// header checksum over the edited body, so only the block frame lies.
fn edit_first_payload_len(bytes: &[u8], edit: impl FnOnce(u64) -> u64) -> Vec<u8> {
    use traceio::varint;
    let mut cursor = std::io::Cursor::new(bytes);
    let header = traceio::TraceHeader::decode(&mut cursor).expect("header");
    let records = varint::decode_u64(&mut cursor).expect("block records");
    let payload_len = varint::decode_u64(&mut cursor).expect("payload length");
    let body = header.encoded_len() as usize;
    let mut edited = bytes[..body].to_vec();
    varint::encode_u64(records, &mut edited);
    varint::encode_u64(edit(payload_len), &mut edited);
    edited.extend_from_slice(&bytes[cursor.position() as usize..]);
    let checksum = alecto_types::fnv1a_64(alecto_types::FNV1A_OFFSET, &edited[body..]);
    let at = header.count_offset() as usize + 8;
    edited[at..at + 8].copy_from_slice(&checksum.to_le_bytes());
    edited
}

#[test]
fn corrupt_trace_files_are_rejected_before_any_simulation() {
    let trace = Scratch::new("corrupt.altr");
    let output = harness()
        .args(["trace", "record", "seq-scan", "--accesses", "300", "--out", trace.as_str()])
        .output()
        .expect("spawn harness");
    assert!(output.status.success());
    let bytes = std::fs::read(&trace.0).expect("read trace");
    // A byte flipped deep in the body, and block 1's frame claiming one more
    // payload byte than its records use, or 2^44 bytes.
    let mut flipped = bytes.clone();
    let idx = bytes.len() - 40;
    flipped[idx] ^= 0x55;
    let cases = [
        ("flipped", flipped, "error"),
        ("payload_len + 1", edit_first_payload_len(&bytes, |len| len + 1), "block 1:"),
        ("payload_len 2^44", edit_first_payload_len(&bytes, |_| 1 << 44), "block 1:"),
    ];
    let spec = format!("file:{}", trace.as_str());
    for (case, corrupt, needle) in cases {
        std::fs::write(&trace.0, &corrupt).expect("rewrite");
        for args in [vec!["trace", "info", trace.as_str()], vec!["trace", "replay", spec.as_str()]]
        {
            let output = harness().args(&args).output().expect("spawn harness");
            assert_eq!(output.status.code(), Some(2), "{case}: {args:?} must exit 2");
            let stderr = String::from_utf8(output.stderr).expect("utf-8");
            assert!(stderr.contains(needle), "{case}: corruption must be named:\n{stderr}");
        }
    }
}
