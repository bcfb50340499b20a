//! Fuzzer ↔ `.altr` round-trip properties and the end-to-end repro cycle.

use std::io::Cursor;

use alecto_types::MemoryRecord;
use fuzz::{persist_finding, replay, OracleKind, OraclePanel, Scenario};
use machine::MachineSpec;
use proptest::prelude::*;

fn encode(scenario: &Scenario) -> Vec<u8> {
    let source = scenario.source();
    let mut writer = traceio::TraceWriter::new(
        Cursor::new(Vec::new()),
        source.name(),
        source.memory_intensive(),
        scenario.seed,
    )
    .expect("in-memory writer");
    writer.write_all(source.records()).expect("in-memory write");
    let (_, cursor) = writer.finish_into_inner().expect("finish");
    cursor.into_inner()
}

proptest! {
    // Any fuzzer-composed blend round-trips through the `.altr` codec: the
    // decoded records equal the generated ones and a re-encode of the
    // decoded document is byte-identical.
    #[test]
    fn fuzzed_blends_round_trip_byte_identically(
        master_seed in any::<u64>(),
        index in 0u64..64,
        accesses in 1usize..600,
    ) {
        let spec = MachineSpec::table1(1);
        let scenario = Scenario::generate(master_seed, index, accesses, &spec);
        let generated: Vec<MemoryRecord> = scenario.source().records().collect();
        prop_assert_eq!(generated.len(), accesses);

        let bytes = encode(&scenario);
        let (header, decoded) = traceio::decode_document(&bytes).expect("decode");
        prop_assert_eq!(header.name.as_str(), scenario.name());
        prop_assert_eq!(header.seed, scenario.seed);
        prop_assert_eq!(&decoded, &generated);

        // Encoding is deterministic: the same scenario always produces the
        // same bytes (this is what makes persisted repros diffable).
        prop_assert_eq!(&encode(&scenario), &bytes);
    }
}

proptest! {
    // Scenario generation itself is pure: regenerating from the same
    // coordinates yields an identical blend, and the blend's trace source
    // replays identical records on every pull.
    #[test]
    fn scenario_generation_is_pure(master_seed in any::<u64>(), index in 0u64..32) {
        let spec = MachineSpec::table1(1);
        let a = Scenario::generate(master_seed, index, 200, &spec);
        let b = Scenario::generate(master_seed, index, 200, &spec);
        prop_assert_eq!(&a, &b);
        let first: Vec<MemoryRecord> = a.source().records().collect();
        let second: Vec<MemoryRecord> = a.source().records().collect();
        prop_assert_eq!(first, second);
    }
}

/// A machine whose selector epoch never elapses within a fuzz budget: the
/// selector cannot adapt, so aliasing-heavy scenarios become pathologies.
fn weak_machine() -> MachineSpec {
    let mut spec = MachineSpec::table1(1);
    spec.selector_epoch_instructions = 1_000_000;
    spec
}

#[test]
fn persisted_finding_replays_byte_identically() {
    let spec = weak_machine();
    let panel = OraclePanel::only(OracleKind::Pathology, 2.0);
    let (scenario, firing) = (0..24u64)
        .find_map(|index| {
            let scenario = Scenario::generate(42, index, 2_000, &spec);
            fuzz::evaluate(&spec, &scenario.source(), &panel).map(|firing| (scenario, firing))
        })
        .expect("a pathology fires on the weak machine within 24 scenarios");

    let dir = std::env::temp_dir().join(format!("fuzz-repro-e2e-{}", std::process::id()));
    let paths = persist_finding(&dir, &spec, 42, &scenario, &firing, 2.0, &["stream"])
        .expect("persist the finding");
    assert!(paths.trace.exists() && paths.machine.exists() && paths.manifest.exists());

    // The recorded trace passes a full verification walk.
    let reader = traceio::TraceReader::open(&paths.trace).expect("open repro trace");
    reader.stats().expect("repro trace verifies");

    // Replay re-fires the recorded oracle and reproduces the report digest.
    let first = replay(&paths.manifest).expect("replay");
    assert!(first.reproduced(), "replay did not reproduce: {first:?}");
    assert_eq!(first.manifest.oracle, OracleKind::Pathology);
    assert_eq!(first.manifest.dropped, vec!["stream".to_string()]);

    // Replay is itself deterministic.
    let second = replay(&paths.manifest).expect("replay again");
    assert_eq!(first.digest, second.digest);

    // Tampering with the machine file is caught by the fingerprint check.
    let mut text = std::fs::read_to_string(&paths.machine).expect("read machine");
    assert!(text.contains("rob = 256"), "canonical text changed shape:\n{text}");
    text = text.replace("rob = 256", "rob = 128");
    std::fs::write(&paths.machine, text).expect("tamper");
    let err = replay(&paths.manifest).expect_err("tampered machine must fail");
    assert!(err.to_string().contains("fingerprint mismatch"), "{err}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
