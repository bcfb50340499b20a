//! Machine descriptions as a determinism surface: a `--machine` selection
//! must behave exactly like the hand-built configs it replaces — byte-
//! identical reports at any `--jobs`, a stable canonical fingerprint, and
//! cell cache keys derived from it. The golden fixture pins
//! the `alecto-machine-v1` wire format the same way `golden.altr` pins the
//! trace codec (see `tests/fixtures/README.md` for the bump rules).

use harness::report::experiments_to_json;
use harness::{figures, RunScale};
use machine::MachineSpec;

/// Whole-fixture fingerprint of `tests/fixtures/golden.machine.toml`. If
/// the parser, the canonical rendering, or the FNV fold changes, this
/// constant changes with it — see the bump rules before touching either.
const GOLDEN_MACHINE_FINGERPRINT: &str = "e217b28558ca938a";

fn golden_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.machine.toml");
    std::fs::read_to_string(path).expect("golden machine fixture is committed")
}

#[test]
fn golden_machine_fixture_is_pinned() {
    let spec = machine::parse(&golden_text()).expect("golden fixture parses");
    assert_eq!(spec.name, "golden");
    assert_eq!(spec.cores, 4);
    assert_eq!(
        spec.fingerprint_hex(),
        GOLDEN_MACHINE_FINGERPRINT,
        "the machine format or its fingerprint derivation changed; \
         follow the bump rules in tests/fixtures/README.md"
    );
}

#[test]
fn golden_machine_round_trips_through_its_canonical_text() {
    // `machines show` output is itself a valid machine file describing the
    // same machine: parse -> render -> parse is a fixed point.
    let spec = machine::parse(&golden_text()).expect("golden fixture parses");
    let reparsed = machine::parse(&spec.canonical_text()).expect("canonical text parses");
    assert_eq!(spec, reparsed, "canonical text must describe the same machine");
    assert_eq!(spec.fingerprint(), reparsed.fingerprint());
}

#[test]
fn golden_machine_lowers_into_a_valid_system_config() {
    let spec = machine::parse(&golden_text()).expect("golden fixture parses");
    let hierarchy = spec.hierarchy();
    hierarchy.validate().expect("lowered hierarchy is valid");
    assert_eq!(spec.describe()[0].1, "golden (alecto-machine-v1)");
    assert_eq!(spec.core_model, machine::CoreModelKind::OutOfOrder);
    // The fixture spells L3 as machine totals; the lowered hierarchy carries
    // the same totals (4 MiB, 128 MSHRs across 4 cores).
    assert_eq!(hierarchy.l3.size_bytes, 4096 * 1024);
    assert_eq!(hierarchy.l3.mshrs, 128);
}

#[test]
fn server_machine_report_is_jobs_invariant() {
    // The acceptance contract for `--machine`: selecting a machine must not
    // re-introduce any scheduling sensitivity. The full JSON report for a
    // `--machine server` replay is byte-identical at `--jobs 1` and `--jobs 4`
    // — the same contract `tests/determinism.rs` pins for the default config.
    let sources = vec![
        traces::Suite::Spec06.source("lbm", 400),
        traces::Suite::Spec17.source("povray_17", 400),
    ];
    let report_at = |jobs: usize| {
        let scale = RunScale { jobs, ..RunScale::resolve(false, Some(400), None, None) }
            .with_machine(machine::builtin("server").expect("server is a built-in"));
        experiments_to_json(&[figures::replay(&sources, &scale)])
    };
    assert_eq!(report_at(1), report_at(4), "--jobs changed a --machine server report");
}

#[test]
fn oversized_cache_file_is_rejected_by_machines_check() {
    // `machines check` exits 2 exactly when `machine::load` fails. A size of
    // 18014398509482016 KiB is 2^64 + 32 KiB bytes, which must be refused,
    // not wrapped into a valid 32 KiB L1D.
    let path = std::env::temp_dir().join(format!("alecto-huge-l1d-{}.toml", std::process::id()));
    std::fs::write(
        &path,
        "format = \"alecto-machine-v1\"\nname = \"huge\"\ncores = 1\n\n\
         [cache.l1d]\nsize_kb = 18014398509482016\n",
    )
    .expect("write temp machine");
    let result = machine::load(path.to_str().expect("utf-8 temp path"));
    std::fs::remove_file(&path).ok();
    let err = result.expect_err("an overflowing size must not parse");
    assert!(err.ends_with("line 6: `cache.l1d.size_kb` = 18014398509482016 is too large"), "{err}");
}

#[test]
fn enormous_cache_geometry_is_rejected_by_machines_check() {
    // `machines show desktop` with a 1 PiB L2: a power-of-two set count, so
    // every level is valid, but building the hierarchy would try to
    // allocate 256 TiB and abort. The total-capacity bound refuses it.
    let desktop = machine::builtin("desktop").expect("desktop is a built-in").canonical_text();
    let huge =
        desktop.replacen("[cache.l2]\nsize_kb = 256\n", "[cache.l2]\nsize_kb = 1099511627776\n", 1);
    assert_ne!(huge, desktop, "the desktop L2 line moved");
    let path = std::env::temp_dir().join(format!("alecto-huge-l2-{}.toml", std::process::id()));
    std::fs::write(&path, huge).expect("write temp machine");
    let result = machine::load(path.to_str().expect("utf-8 temp path"));
    std::fs::remove_file(&path).ok();
    let err = result.expect_err("a 1 PiB L2 must not validate");
    let total = 4 * ((1u64 << 50) + 32 * 1024) + 8192 * 1024;
    assert!(err.contains(&format!("= {total} B exceeds")), "{err}");
    assert!(err.contains("(4 GiB) bound"), "{err}");
}

#[test]
fn unbuildable_mshr_and_way_counts_are_rejected_by_machines_check() {
    // Both files keep Table I's capacities and power-of-two set counts, but
    // `Hierarchy::new` cannot build either: 2^40 L1D MSHRs would allocate
    // 40 TiB of MSHR entries, and the tag scan's match mask holds 64 ways,
    // not 128.
    for (stem, level, want) in [
        ("mshrs", "mshrs = 1099511627776", "L1D: 1099511627776 MSHRs exceed the level's 512 lines"),
        ("ways", "size_kb = 32\nways = 128", "L1D: associativity 128 exceeds the 64-way limit"),
    ] {
        let path = std::env::temp_dir().join(format!("alecto-{stem}-{}.toml", std::process::id()));
        let text = format!(
            "format = \"alecto-machine-v1\"\nname = \"m\"\ncores = 1\n\n[cache.l1d]\n{level}\n"
        );
        std::fs::write(&path, text).expect("write temp machine");
        let result = machine::load(path.to_str().expect("utf-8 temp path"));
        std::fs::remove_file(&path).ok();
        let err = result.expect_err("the machine must not validate");
        assert!(err.contains(want), "{err}");
    }
}

#[test]
fn builtin_machines_rescale_without_losing_their_identity() {
    // `--machine` composes with experiments that sweep the core count
    // (fig17 lowers the spec at several core counts): rescaling preserves
    // per-core geometry and the spec stays valid at every count.
    for name in machine::BUILTIN_NAMES {
        let spec = machine::builtin(name).expect("registry is complete");
        for cores in [1, 2, 8, 32] {
            let scaled = spec.clone().with_cores(cores);
            scaled.validate().unwrap_or_else(|e| panic!("{name} at {cores} cores: {e}"));
            assert_eq!(scaled.l1d, spec.l1d, "{name}: per-core L1D drifted at {cores} cores");
            assert_eq!(
                scaled.l3_per_core, spec.l3_per_core,
                "{name}: per-core LLC share drifted at {cores} cores"
            );
        }
    }
}

#[test]
fn machine_cells_share_cache_keys_between_cli_and_server() {
    // The CLI selects `--machine server` via `RunScale::with_machine`; the
    // server resolves `"machine":"server"` via `machine::builtin`. Both paths
    // must produce the same `MachineSpec` and therefore the same cell
    // cache keys — that is what lets a server sweep hit cells a CLI run
    // warmed (and vice versa, through --cache-dir).
    use harness::runner::CellJob;

    let sources = [traces::Suite::Spec06.source("lbm", 200)];
    let key_of = |config: &MachineSpec| {
        CellJob {
            algorithm: cpu::SelectionAlgorithm::Alecto,
            composite: cpu::CompositeKind::GsCsPmp,
            config,
            sources: &sources,
        }
        .cache_key()
    };

    let cli_scale = RunScale::default().with_machine(machine::builtin("server").unwrap());
    let cli_config = cli_scale.base_config(1);
    let server_config = machine::builtin("server")
        .unwrap()
        .with_cores(1)
        .with_core_model(machine::CoreModelKind::OutOfOrder);
    assert_eq!(cli_config, server_config, "both paths must resolve identically");
    assert_eq!(key_of(&cli_config), key_of(&server_config));

    // ...while the machine's name keys it apart from an anonymous spec
    // with the same parameters: named sweeps never poach cells from (or
    // leak cells to) the hand-built default.
    let anonymous = MachineSpec { name: String::new(), ..cli_config.clone() };
    assert_ne!(key_of(&cli_config), key_of(&anonymous));
}

#[test]
fn table1_prints_a_sub_mib_l3_in_kb() {
    // `table1 --machine` on a one-core machine with a 512 KiB L3 used to
    // print "0 MB total", and with a 1.5 MiB L3 "1 MB total". Whole MiB
    // keep their historical "N MB" spelling.
    let l3_row = |size_kb: u64, ways: u64| {
        let text = format!(
            "format = \"alecto-machine-v1\"\nname = \"l3\"\ncores = 1\n\n\
             [cache.l3]\nsize_kb = {size_kb}\nways = {ways}\n"
        );
        let spec = machine::parse(&text).expect("valid machine");
        let table = figures::table1(&RunScale::default().with_machine(spec)).table.render();
        let row = table.lines().find(|l| l.starts_with("Shared L3 cache")).expect("L3 row");
        row.trim_start_matches("Shared L3 cache").trim().to_string()
    };
    assert_eq!(l3_row(512, 16), "512 KB total, 16-way, 35 cycles round trip");
    assert_eq!(l3_row(1536, 12), "1536 KB total, 12-way, 35 cycles round trip");
    assert_eq!(l3_row(2048, 16), "2 MB total, 16-way, 35 cycles round trip");
}

#[test]
fn table1_prints_sizes_that_are_not_whole_kib_in_bytes() {
    // Sizes that are not whole KiB print in bytes: a valid 1536-byte L1D
    // and L3 (8 sets of 3 ways) must not round down to "1 KB".
    let text = "format = \"alecto-machine-v1\"\nname = \"odd\"\ncores = 1\n\n\
                [cache.l1d]\nsize = 1536\nways = 3\n\n\
                [cache.l3]\nsize = 1536\nways = 3\nmshrs = 4\n";
    let spec = machine::parse(text).expect("valid machine");
    let table = figures::table1(&RunScale::default().with_machine(spec)).table.render();
    let row = |label: &str| {
        let line = table.lines().find(|l| l.starts_with(label)).expect("row");
        line.trim_start_matches(label).trim().to_string()
    };
    assert_eq!(row("Private L1 D-cache"), "1536 B, 3-way, 64B line, 16 MSHRs, 4 cycles round trip");
    assert_eq!(row("Private L2 cache"), "256 KB, 8-way, 32 MSHRs, 15 cycles round trip");
    assert_eq!(row("Shared L3 cache"), "1536 B total, 3-way, 35 cycles round trip");
}

#[test]
fn anonymous_table1_spec_is_not_reported_as_a_machine() {
    // The default machine must keep today's byte-for-byte output: no
    // "Machine" row may appear unless the spec is *named*.
    let spec = MachineSpec::table1(1);
    assert!(spec.name.is_empty());
    assert!(spec.describe().iter().all(|(k, _)| k != "Machine"));
}
