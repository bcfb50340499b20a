//! End-to-end pins for the adversarial scenario fuzzer: jobs-independent
//! findings, the planted pathology on the committed weak machine, repro
//! persistence + byte-identical replay, and graduation of persisted `.altr`
//! repros into the `stress` experiment.

use std::path::PathBuf;

use fuzz::{FuzzConfig, OracleKind, OraclePanel};
use harness::figures;

fn weak_machine() -> machine::MachineSpec {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/fuzz-weak.machine.toml");
    let text = std::fs::read_to_string(&path).expect("read the committed weak machine");
    machine::parse(&text).expect("the committed weak machine parses")
}

/// The pinned fuzz configuration the CI `fuzz-smoke` job runs too: seed 42,
/// 8 scenarios of 2000 accesses, pathology oracle at a 2% threshold against
/// the committed weak machine.
fn pinned_config() -> FuzzConfig {
    let mut config = FuzzConfig::new(42, weak_machine());
    config.budget = 8;
    config.accesses = 2_000;
    config.panel = OraclePanel::only(OracleKind::Pathology, 2.0);
    config
}

#[test]
fn seed_42_findings_are_identical_at_jobs_1_and_4() {
    let mut config = pinned_config();
    config.jobs = 1;
    let serial = fuzz::run_fuzz(&config).expect("in-memory run");
    config.jobs = 4;
    let parallel = fuzz::run_fuzz(&config).expect("in-memory run");
    assert_eq!(serial, parallel, "findings must not depend on the worker count");
    // The planted pathology: the weak machine's selector epoch never
    // elapses, so adversarial blends beat the frozen selector. Seed 42 is
    // pinned to find at least one.
    assert!(
        !serial.findings.is_empty(),
        "seed 42 must plant a pathology on fuzz-weak; did the oracle or generator change?"
    );
    for finding in &serial.findings {
        assert_eq!(finding.oracle, OracleKind::Pathology);
        assert!(finding.accesses >= fuzz::MIN_ACCESSES);
    }
    // The deterministic text render is identical too (no repro paths in
    // play), so CLI output at --jobs 1 and --jobs 4 is byte-identical.
    assert_eq!(
        serial.render("fuzz-weak", &config.panel),
        parallel.render("fuzz-weak", &config.panel)
    );
}

#[test]
fn findings_persist_replay_and_graduate_into_stress() {
    let dir = std::env::temp_dir().join(format!("alecto-fuzz-root-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut config = pinned_config();
    config.out_dir = Some(dir.clone());
    let outcome = fuzz::run_fuzz(&config).expect("persisting repros");
    assert!(!outcome.findings.is_empty());

    // Every persisted manifest replays byte-identically: the oracle re-fires
    // and the subject-report digest matches.
    for finding in &outcome.findings {
        let repro = finding.repro.as_ref().expect("out_dir was set");
        let replay = fuzz::replay(&repro.manifest).expect("replay the manifest");
        assert!(replay.reproduced(), "replay of {} failed: {replay:?}", finding.name);
        assert_eq!(replay.manifest.report_digest, finding.report_digest);
        // The recorded trace is a valid `.altr` down to the block framing.
        traceio::TraceReader::open(&repro.trace)
            .and_then(|reader| reader.stats())
            .expect("repro trace verifies");
    }

    // Graduation: with ALECTO_STRESS_CORPUS pointing at the repro directory,
    // the stress suite appends one file:-backed benchmark per trace. (This
    // test owns the env var; nothing else in this binary touches it.)
    let scale = harness::RunScale {
        accesses: 400,
        multicore_accesses: 150,
        jobs: 2,
        ..harness::RunScale::default()
    };
    std::env::set_var(figures::STRESS_CORPUS_ENV, &dir);
    let experiment = figures::stress(&scale);
    std::env::remove_var(figures::STRESS_CORPUS_ENV);
    let rendered = experiment.render();
    for finding in &outcome.findings {
        assert!(
            rendered.contains(&finding.name),
            "stress output misses graduated repro {}:\n{rendered}",
            finding.name
        );
    }
    assert!(
        experiment.notes.iter().any(|note| note.contains("graduated repro")),
        "stress must note the corpus: {:?}",
        experiment.notes
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
