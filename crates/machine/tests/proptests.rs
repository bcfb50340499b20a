//! Property tests over the `alecto-machine-v1` format: every well-formed
//! spec must survive the spec → canonical text → spec round trip exactly,
//! the fingerprint must be a function of the spec alone (stable across
//! cosmetic reformatting, different for any semantic change), parse
//! errors must point at the offending source line, and no integer value
//! makes the parser panic.

use machine::{parse, CoreModelKind, MachineSpec};
use memsys::{CacheParams, DramKind, TimingParams};
use proptest::prelude::*;

/// Pow2 set counts and way counts keep every generated geometry valid at
/// the machine's own (pow2) core count, and capping the MSHRs at the line
/// count keeps it within the one-MSHR-per-line bound.
fn cache_level() -> impl Strategy<Value = CacheParams> {
    (0u32..8, 0u32..5, 1u64..60, 0u64..8, 1usize..128).prop_map(
        |(sets_log2, ways_log2, latency, miss_latency, mshrs)| {
            let sets = 16u64 << sets_log2;
            let ways = 1usize << ways_log2;
            let size_bytes = sets * ways as u64 * 64;
            let mshrs = mshrs.min((size_bytes / 64) as usize);
            CacheParams { size_bytes, ways, latency, miss_latency, mshrs }
        },
    )
}

/// Half the draws are the three presets, so the round trip keeps covering
/// the `preset` line; the rest are arbitrary drain knobs.
fn timing_params() -> impl Strategy<Value = TimingParams> {
    prop_oneof![
        (0u32..3).prop_map(|i| [
            TimingParams::balanced(),
            TimingParams::latency_sensitive(),
            TimingParams::bandwidth_bound()
        ][i as usize]),
        (1u32..8, 1u32..32).prop_map(|(dram_drain_requests, dram_drain_period)| {
            TimingParams { dram_drain_requests, dram_drain_period }
        }),
    ]
}

fn machine_spec() -> impl Strategy<Value = MachineSpec> {
    let core = (1usize..512, 1u32..10, 1u32..10, (1usize..128, 1usize..128));
    let caches = (cache_level(), cache_level(), cache_level());
    (0u32..5, core, caches, timing_params(), (0u32..3, any::<bool>(), 1u64..100_000)).prop_map(
        |(
            cores_log2,
            (rob, fetch, commit, (lq, sq)),
            (l1d, l2, l3),
            timing,
            (name_i, ddr4, epoch),
        )| {
            let mut spec = MachineSpec::table1(1usize << cores_log2);
            spec.name = ["alpha", "beta-2", "gamma_3", "d.e.f", "x"][name_i as usize].to_string();
            spec.rob_entries = rob;
            spec.fetch_width = fetch;
            spec.commit_width = commit;
            spec.load_queue = lq;
            spec.store_queue = sq;
            spec.l1d = l1d;
            spec.l2 = l2;
            spec.l3_per_core = l3;
            spec.core_model = if ddr4 { CoreModelKind::Approx } else { CoreModelKind::OutOfOrder };
            spec.dram = if ddr4 { DramKind::Ddr4_2400 } else { DramKind::Ddr3_1600 };
            spec.timing = timing;
            spec.selector_epoch_instructions = epoch;
            spec
        },
    )
}

/// Every integer key of the format, as a dotted path.
fn integer_keys() -> Vec<String> {
    let mut keys: Vec<String> = [
        "cores",
        "core.rob",
        "core.fetch_width",
        "core.commit_width",
        "core.load_queue",
        "core.store_queue",
        "timing.dram_drain_requests",
        "timing.dram_drain_period",
        "selector.epoch_instructions",
        "prefetch.temporal_metadata_kb",
    ]
    .map(String::from)
    .into();
    for level in ["l1d", "l2", "l3"] {
        for key in ["size_kb", "size", "sets", "ways", "line", "latency", "miss_latency", "mshrs"] {
            keys.push(format!("cache.{level}.{key}"));
        }
    }
    keys
}

/// The minimal two-core machine file with the integer key `path` set to
/// `value`.
fn minimal_with(path: &str, value: u64) -> String {
    let head = "format = \"alecto-machine-v1\"\nname = \"t\"\n";
    match path.rsplit_once('.') {
        None => format!("{head}{path} = {value}\n"),
        Some((section, key)) => format!("{head}cores = 2\n[{section}]\n{key} = {value}\n"),
    }
}

proptest! {
    #[test]
    fn any_integer_value_is_parsed_or_rejected(
        values in proptest::collection::vec(prop_oneof![any::<u64>(), 0u64..5_000], 34..35),
    ) {
        let keys = integer_keys();
        prop_assert_eq!(keys.len(), values.len());
        for (path, value) in keys.iter().zip(values) {
            // A panic (an overflow in a debug build) fails the test; a
            // value that parses must describe a valid, re-parseable machine.
            if let Ok(spec) = parse(&minimal_with(path, value)) {
                prop_assert!(spec.validate().is_ok(), "{path} = {value}");
                let reparsed = parse(&spec.canonical_text())
                    .map_err(proptest::test_runner::TestCaseError::fail)?;
                prop_assert_eq!(&reparsed, &spec);
            }
        }
    }

    #[test]
    fn canonical_text_round_trips_exactly(spec in machine_spec()) {
        prop_assert!(spec.validate().is_ok(), "generator must produce valid specs");
        let text = spec.canonical_text();
        let reparsed = parse(&text).map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.fingerprint(), spec.fingerprint());
        // And the canonical rendering is a fixed point.
        prop_assert_eq!(reparsed.canonical_text(), text);
    }

    #[test]
    fn fingerprint_ignores_formatting_noise(spec in machine_spec(), seed in 0u64..1_000) {
        let canonical = spec.canonical_text();
        // Re-dress the same document: comments, indentation, blank lines
        // and, on some seeds, a preset spelled as its two drain knobs —
        // none of it semantic.
        let TimingParams { dram_drain_requests, dram_drain_period } = spec.timing;
        let knobs = format!(
            "dram_drain_requests = {dram_drain_requests}\ndram_drain_period = {dram_drain_period}"
        );
        let mut noisy = String::from("# prologue comment\n\n");
        for (i, line) in canonical.lines().enumerate() {
            if i as u64 % 3 == seed % 3 {
                noisy.push_str("   ");
            }
            if line.starts_with("preset = ") && seed % 2 == 0 {
                noisy.push_str(&knobs);
            } else {
                noisy.push_str(line);
            }
            if !line.is_empty() && !line.starts_with('[') && i as u64 % 4 == seed % 4 {
                noisy.push_str("   # trailing note");
            }
            noisy.push('\n');
            if i as u64 % 5 == seed % 5 {
                noisy.push('\n');
            }
        }
        let reparsed = parse(&noisy).map_err(proptest::test_runner::TestCaseError::fail)?;
        prop_assert_eq!(&reparsed, &spec);
        prop_assert_eq!(reparsed.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_every_semantic_change(spec in machine_spec()) {
        let base = spec.fingerprint();
        let mut l2_latency = spec.clone();
        l2_latency.l2.latency += 1;
        prop_assert!(l2_latency.fingerprint() != base, "L2 latency must be digested");
        let mut renamed = spec.clone();
        renamed.name.push('x');
        prop_assert!(renamed.fingerprint() != base, "the name must be digested");
        let mut epoch = spec.clone();
        epoch.selector_epoch_instructions += 1;
        prop_assert!(epoch.fingerprint() != base, "the selector epoch must be digested");
    }

    #[test]
    fn unknown_keys_are_reported_with_their_line(spec in machine_spec(), pos in 0u64..10_000) {
        let mut lines: Vec<String> = spec.canonical_text().lines().map(str::to_string).collect();
        // Splice an unknown key anywhere after the three required headers.
        let at = 3 + (pos as usize % (lines.len() - 3));
        lines.insert(at, "mystery = 7".to_string());
        let err = parse(&lines.join("\n")).unwrap_err();
        let expected = format!("line {}: unknown key `", at + 1);
        prop_assert!(err.starts_with(&expected), "want prefix {:?}, got {:?}", expected, err);
    }

    #[test]
    fn corrupted_values_are_reported_with_their_line(spec in machine_spec(), pos in 0u64..10_000) {
        let text = spec.canonical_text();
        let lines: Vec<&str> = text.lines().collect();
        let value_lines: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains('=') && !l.contains('"'))
            .map(|(i, _)| i)
            .collect();
        let at = value_lines[pos as usize % value_lines.len()];
        let key = lines[at].split('=').next().unwrap().trim().to_string();
        let mut mutated: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        mutated[at] = format!("{key} = oops");
        let err = parse(&mutated.join("\n")).unwrap_err();
        let expected = format!("line {}: ", at + 1);
        prop_assert!(err.starts_with(&expected), "want prefix {:?}, got {:?}", expected, err);
    }
}
