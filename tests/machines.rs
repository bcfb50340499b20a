//! Machine descriptions as a determinism surface: a `--machine` selection
//! must behave exactly like the hand-built configs it replaces — byte-
//! identical reports at any `--jobs`, a stable canonical fingerprint, and a
//! single lowering funnel into [`SystemConfig`]. The golden fixture pins
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
    let config = cpu::SystemConfig::from_machine(&spec);
    config.hierarchy.validate().expect("lowered hierarchy is valid");
    assert_eq!(config.machine.as_deref(), Some("golden"));
    assert_eq!(config.core_model, machine::CoreModelKind::OutOfOrder);
    // The fixture spells L3 as machine totals; the lowered hierarchy carries
    // the same totals (4 MiB, 128 MSHRs across 4 cores).
    assert_eq!(config.hierarchy.l3.size_bytes, 4096 * 1024);
    assert_eq!(config.hierarchy.l3.mshrs, 128);
}

#[test]
fn server_machine_report_is_jobs_invariant() {
    // The acceptance contract for `--machine`: selecting a machine must not
    // re-introduce any scheduling sensitivity. The full JSON report for a
    // `--machine server` replay is byte-identical at `--jobs 1` and `--jobs 4`
    // — the same contract `tests/determinism.rs` pins for the default config.
    let sources =
        vec![traces::spec06::source("lbm", 400), traces::spec17::source("povray_17", 400)];
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
    // The CLI lowers `--machine server` via `RunScale::with_machine`; the
    // server lowers `"machine":"server"` via `machine::builtin`. Both paths
    // must produce the same `SystemConfig` and therefore the same cell
    // cache keys — that is what lets a server sweep hit cells a CLI run
    // warmed (and vice versa, through --cache-dir).
    use harness::runner::CellJob;

    let sources = [traces::spec06::source("lbm", 200)];
    let key_of = |config: &cpu::SystemConfig| {
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
    let server_config =
        cpu::SystemConfig::from_machine(&machine::builtin("server").unwrap().with_cores(1))
            .with_core_model(machine::CoreModelKind::OutOfOrder);
    assert_eq!(cli_config, server_config, "both paths must lower identically");
    assert_eq!(key_of(&cli_config), key_of(&server_config));

    // ...while the machine's name keys it apart from an anonymous config
    // with the same lowered parameters: named sweeps never poach cells
    // from (or leak cells to) the hand-built default.
    let mut anonymous = cli_config.clone();
    anonymous.machine = None;
    assert_ne!(key_of(&cli_config), key_of(&anonymous));
}

#[test]
fn anonymous_table1_spec_is_not_reported_as_a_machine() {
    // The default config must keep today's byte-for-byte output: no
    // "Machine" row may appear unless the config came from a *named* spec.
    let config = cpu::SystemConfig::from_machine(&MachineSpec::table1(1));
    assert_eq!(config.machine, None);
    assert!(config.describe().iter().all(|(k, _)| k != "Machine"));
}
