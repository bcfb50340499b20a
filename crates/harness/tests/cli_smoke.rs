//! Smoke tests for the `alecto-harness` CLI: the binary must stay runnable,
//! not just compilable, so CI exercises an end-to-end `quick` run on a tiny
//! access budget and the usage/exit-code contract.

use std::process::Command;

fn harness() -> Command {
    Command::new(env!("CARGO_BIN_EXE_alecto-harness"))
}

#[test]
fn quick_on_a_tiny_budget_exits_zero_and_emits_a_report() {
    let output = harness().args(["quick", "--accesses", "60"]).output().expect("spawn harness");
    assert!(output.status.success(), "expected exit 0, got {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    // Every experiment of the evaluation must appear, rendered as a table.
    for id in ["fig1", "fig8", "fig17", "table1", "table3", "vi_h"] {
        assert!(stdout.contains(&format!("== {id} ")), "report is missing {id}:\n{stdout}");
    }
    assert!(stdout.lines().count() > 50, "report looks truncated:\n{stdout}");
}

#[test]
fn single_experiment_respects_accesses_override() {
    // fig2 is scale-dependent: its table reports per-PC access counts out of
    // the workload's total, so an honored `--accesses 120` bounds their sum
    // (the default scale would show thousands).
    let output = harness().args(["fig2", "--accesses", "120"]).output().expect("spawn harness");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let per_pc_total: u64 = stdout
        .lines()
        .filter(|l| l.starts_with("0x"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    assert!(per_pc_total > 0, "fig2 table has no per-PC rows:\n{stdout}");
    assert!(per_pc_total <= 120, "override ignored: {per_pc_total} accesses listed\n{stdout}");
}

#[test]
fn scale_independent_experiment_renders() {
    let output = harness().args(["table2"]).output().expect("spawn harness");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(stdout.contains("Prefetchers being selected"));
}

#[test]
fn jobs_flag_keeps_output_byte_identical() {
    // The worker count is a pure wall-clock knob: the full quick report —
    // every table of every experiment — must not change by a byte.
    let serial =
        harness().args(["quick", "--accesses", "60", "--jobs", "1"]).output().expect("spawn");
    let parallel =
        harness().args(["quick", "--accesses", "60", "--jobs", "4"]).output().expect("spawn");
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(serial.stdout, parallel.stdout, "--jobs changed the report");
}

#[test]
fn accesses_flag_derives_the_multicore_budget_explicitly() {
    // `--accesses N` sets the multi-core per-core budget to max(N / 3, 100);
    // for N = 90 that derivation floors at 100, so spelling the same value
    // out with `--multicore-accesses` must reproduce the report exactly...
    let derived = harness().args(["quick", "--accesses", "90"]).output().expect("spawn");
    let explicit = harness()
        .args(["quick", "--accesses", "90", "--multicore-accesses", "100"])
        .output()
        .expect("spawn");
    assert!(derived.status.success() && explicit.status.success());
    assert_eq!(derived.stdout, explicit.stdout);
    // ...while a different override must change the multi-core figures.
    let smaller = harness()
        .args(["quick", "--accesses", "90", "--multicore-accesses", "40"])
        .output()
        .expect("spawn");
    assert!(smaller.status.success());
    assert_ne!(derived.stdout, smaller.stdout);
}

#[test]
fn zero_or_malformed_jobs_exits_two_with_usage() {
    for jobs in ["0", "many", "-1"] {
        let output = harness().args(["quick", "--jobs", jobs]).output().expect("spawn harness");
        assert_eq!(output.status.code(), Some(2), "--jobs {jobs} must be rejected");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
        assert!(stderr.contains("usage: alecto-harness"));
    }
    // A missing value is rejected too.
    let output = harness().args(["quick", "--jobs"]).output().expect("spawn harness");
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn serve_rejects_the_removed_tuning_flags() {
    // Sweep workers and cache capacity are constants: their old flags are
    // unknown flags (exit 2 with usage), refused before any bind attempt —
    // 999.0.0.1 is no address, so binding it would exit 1.
    for flag in ["--sweep-workers", "--cache-capacity"] {
        let output = harness()
            .args(["serve", flag, "2", "--addr", "999.0.0.1:1"])
            .output()
            .expect("spawn harness");
        assert_eq!(output.status.code(), Some(2), "{flag} must be rejected");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
        assert!(stderr.contains("usage: alecto-harness"), "{stderr}");
    }
}

#[test]
fn unwritable_json_path_exits_two_with_usage() {
    // A bad --json path (missing parent directory) is a flag error like any
    // other: exit 2 with the usage text, not a raw io error with exit 1 —
    // and it must fail *before* the experiments run, not after minutes.
    let output = harness()
        .args(["quick", "--accesses", "60", "--json", "/nonexistent-dir-xyz/report.json"])
        .output()
        .expect("spawn harness");
    assert_eq!(output.status.code(), Some(2), "bad --json path must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
    assert!(stderr.contains("error: --json"), "error names the flag:\n{stderr}");
    assert!(stderr.contains("usage: alecto-harness"), "usage follows:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.is_empty(), "no experiment may run before the path check:\n{stdout}");
}

#[test]
fn stress_experiment_sweeps_access_counts() {
    let output =
        harness().args(["stress", "--accesses", "200", "--jobs", "2"]).output().expect("spawn");
    assert!(output.status.success(), "stress must exit 0, got {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(stdout.contains("== stress "), "missing stress header:\n{stdout}");
    for row in ["linked-list@1x", "web-cache@2x", "hash-join@4x", "mcf@4x"] {
        assert!(stdout.contains(row), "stress table is missing {row}:\n{stdout}");
    }
}

#[test]
fn timing_experiment_contrasts_both_regimes() {
    let output =
        harness().args(["timing", "--accesses", "200", "--jobs", "2"]).output().expect("spawn");
    assert!(output.status.success(), "timing must exit 0, got {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(stdout.contains("== timing "), "missing timing header:\n{stdout}");
    for row in ["mcf@lat", "mcf@bw", "seq-scan@lat", "seq-scan@bw"] {
        assert!(stdout.contains(row), "timing table is missing {row}:\n{stdout}");
    }
    assert!(stdout.contains("avg mem lat"), "latency column missing:\n{stdout}");
}

#[test]
fn unknown_experiment_exits_two_with_usage() {
    // `compare` is not a subcommand: CI gates baselines with `cmp`.
    for args in [&["fig99"][..], &["compare", "a.json", "b.json"]] {
        let output = harness().args(args).output().expect("spawn harness");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
        assert!(stderr.contains("usage: alecto-harness"), "no usage on stderr:\n{stderr}");
        assert!(!stderr.contains("compare"), "usage still lists compare:\n{stderr}");
    }
}

#[test]
fn no_arguments_exits_two_with_usage() {
    let output = harness().output().expect("spawn harness");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
    assert!(stderr.contains("experiments:"));
}

#[test]
fn machine_flag_unknown_name_exits_two_with_usage() {
    // Machine resolution is a flag error like any other: exit 2 with usage,
    // and it must fail *before* any simulation runs.
    let output = harness()
        .args(["quick", "--accesses", "60", "--machine", "laptop"])
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(2), "unknown machine must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
    assert!(stderr.contains("error: --machine"), "error names the flag:\n{stderr}");
    assert!(stderr.contains("not a built-in"), "error lists the registry:\n{stderr}");
    assert!(stderr.contains("usage: alecto-harness"), "usage follows:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.is_empty(), "no experiment may run before the machine check:\n{stdout}");
}

#[test]
fn machine_flag_unreadable_or_invalid_file_exits_two_with_usage() {
    // A path that does not exist...
    let output = harness()
        .args(["quick", "--accesses", "60", "--machine", "/nonexistent-dir-xyz/m.toml"])
        .output()
        .expect("spawn");
    assert_eq!(output.status.code(), Some(2), "unreadable machine file must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
    assert!(stderr.contains("error: --machine"), "error names the flag:\n{stderr}");
    assert!(
        stderr.contains("cannot read machine file"),
        "error explains the io failure:\n{stderr}"
    );
    assert!(stderr.contains("usage: alecto-harness"), "usage follows:\n{stderr}");

    // ...and a file that exists but fails to parse, with the offending line.
    let path = std::env::temp_dir().join(format!("alecto-bad-machine-{}.toml", std::process::id()));
    std::fs::write(&path, "format = \"alecto-machine-v1\"\nname = \"bad\"\ncores = oops\n")
        .expect("write temp machine");
    let output = harness()
        .args(["quick", "--accesses", "60", "--machine", path.to_str().unwrap()])
        .output()
        .expect("spawn");
    std::fs::remove_file(&path).ok();
    assert_eq!(output.status.code(), Some(2), "invalid machine file must exit 2");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 usage");
    assert!(stderr.contains("error: --machine"), "error names the flag:\n{stderr}");
    assert!(stderr.contains("line 3"), "error carries the offending line:\n{stderr}");
    assert!(stderr.contains("usage: alecto-harness"), "usage follows:\n{stderr}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert!(stdout.is_empty(), "no experiment may run before the machine check:\n{stdout}");
}

#[test]
fn machine_unbuildable_at_one_core_exits_two() {
    // 3 MiB of 12-way L3 has 4,096 sets at the file's 3 cores, but
    // single-core experiments run one core's 1 MiB share: 1,365 sets, which
    // `Hierarchy::new` cannot build. Both commands refuse the file up front.
    let path = std::env::temp_dir().join(format!("alecto-3core-l3-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        "format = \"alecto-machine-v1\"\nname = \"m\"\ncores = 3\n\
         [cache.l3]\nsize_kb = 3072\nways = 12\nmshrs = 192\n",
    )
    .expect("write temp machine");
    let file = path.to_str().expect("utf-8 temp path");
    let check = harness().args(["machines", "check", file]).output().expect("spawn");
    let fig8 =
        harness().args(["fig8", "--machine", file, "--accesses", "100"]).output().expect("spawn");
    std::fs::remove_file(&path).ok();
    assert!(fig8.stdout.is_empty(), "no experiment may run before the machine check");
    for (command, output) in [("machines check", check), ("fig8 --machine", fig8)] {
        assert_eq!(output.status.code(), Some(2), "{command} must exit 2");
        let stderr = String::from_utf8(output.stderr).expect("utf-8 error");
        assert!(stderr.contains("L3:") && stderr.contains("got 1365"), "{command}:\n{stderr}");
    }
}

#[test]
fn fig15_prints_n_a_rows_for_llc_sizes_the_machine_cannot_build() {
    // 3 MiB of 12-way L3 over two cores passes the machine check, but fig15
    // keeps the 12 ways at 0.5-4 MB per core, where no set count is a power
    // of two. Each size is a row of n/a and a note, not a panic (exit 101).
    let path = std::env::temp_dir().join(format!("alecto-12way-l3-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        "format = \"alecto-machine-v1\"\nname = \"m\"\ncores = 2\n\
         [cache.l3]\nsize_kb = 3072\nways = 12\nmshrs = 128\n",
    )
    .expect("write temp machine");
    let file = path.to_str().expect("utf-8 temp path");
    let output = harness()
        .args(["fig15", "--machine", file, "--accesses", "100", "--jobs", "1"])
        .output()
        .expect("spawn");
    std::fs::remove_file(&path).ok();
    assert_eq!(output.status.code(), Some(0), "fig15 must exit 0");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 report");
    let na_rows =
        stdout.lines().filter(|l| l.split_whitespace().filter(|c| *c == "n/a").count() == 5);
    assert_eq!(na_rows.count(), 4, "one n/a row per LLC size:\n{stdout}");
    assert!(
        stdout.contains("note: 0.5 MB LLC / core: n/a, the machine does not build: L3:")
            && stdout.contains("got 682"),
        "the note names the size and the reason:\n{stdout}"
    );
}

#[test]
fn machines_subcommand_lists_shows_and_checks() {
    // `machines` (and `machines list`) tabulate the built-in registry.
    let output = harness().arg("machines").output().expect("spawn");
    assert!(output.status.success(), "machines must exit 0, got {:?}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("utf-8 listing");
    for name in ["mobile", "desktop", "server", "manycore"] {
        assert!(stdout.contains(name), "listing is missing {name}:\n{stdout}");
    }
    assert!(stdout.contains("fingerprint"), "listing is missing fingerprints:\n{stdout}");

    // `machines show <name>` prints the canonical, re-parseable text.
    let output = harness().args(["machines", "show", "desktop"]).output().expect("spawn");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 canonical text");
    assert!(stdout.contains("format = \"alecto-machine-v1\""), "not canonical:\n{stdout}");
    assert!(stdout.contains("name = \"desktop\""), "wrong machine:\n{stdout}");
    assert!(stdout.contains("# fingerprint: 0x"), "fingerprint footer missing:\n{stdout}");

    // `machines check` validates every named target; a bad one exits 2.
    let output = harness()
        .args(["machines", "check", "mobile", "desktop", "server", "manycore"])
        .output()
        .expect("spawn");
    assert!(output.status.success(), "built-ins must pass their own check");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 check report");
    assert_eq!(stdout.matches("ok (machine ").count(), 4, "one ok line per target:\n{stdout}");
    let output = harness().args(["machines", "check", "laptop"]).output().expect("spawn");
    assert_eq!(output.status.code(), Some(2), "unknown target must fail the check");
}

#[test]
fn machine_flag_selects_a_builtin_and_changes_the_report() {
    // A valid --machine runs to completion and actually changes the numbers
    // (desktop differs from the anonymous default in cache geometry), while
    // the flag's absence keeps today's report untouched.
    let default = harness().args(["fig8", "--accesses", "60"]).output().expect("spawn");
    let desktop = harness()
        .args(["fig8", "--accesses", "60", "--machine", "desktop"])
        .output()
        .expect("spawn");
    let mobile = harness()
        .args(["fig8", "--accesses", "60", "--machine", "mobile"])
        .output()
        .expect("spawn");
    assert!(default.status.success() && desktop.status.success() && mobile.status.success());
    assert_ne!(default.stdout, mobile.stdout, "mobile must change the report");
    assert_ne!(desktop.stdout, mobile.stdout, "distinct machines must differ");
}
