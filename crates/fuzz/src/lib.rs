//! Adversarial scenario fuzzer for the selection simulator.
//!
//! The fuzzer composes registered pattern primitives (zipfian object
//! popularity, pointer chases, set-aliasing conflict thrash, phase-shifting
//! interleaves — the `traces::Blend` vocabulary) into random-but-exactly-
//! reproducible scenarios, runs each through a configurable machine cell, and
//! checks the resulting reports against an oracle panel:
//!
//! * **sanity** — metrics are finite, non-negative, and IPC stays within the
//!   machine's fetch width;
//! * **determinism** — the identical cell, re-run in a fresh system on a
//!   newly spawned thread, reports byte-identical results;
//! * **pathology** — the paper's adaptive selector does not lose to the best
//!   *static* prefetcher stack by more than a threshold.
//!
//! Scenarios are a pure function of `(master seed, index, machine)`; the
//! same seed and budget therefore always yield the same findings, whatever
//! `--jobs` is. A firing scenario is shrunk (components dropped, access
//! budget halved, while the oracle keeps firing) and persisted as a
//! `.altr` trace + machine description + manifest triple that
//! [`persist::replay`] — and the `stress` experiment, via the `file:`
//! scheme — can replay byte-identically. See `ARCHITECTURE.md` § Fuzzing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod persist;
pub mod scenario;
pub mod shrink;

use std::io;
use std::path::PathBuf;

use alecto_types::par_map;
use machine::MachineSpec;

pub use oracle::{
    evaluate, machine_composite, report_digest, subject_report, Firing, OracleKind, OraclePanel,
    DEFAULT_PATHOLOGY_THRESHOLD_PCT,
};
pub use persist::{persist_finding, replay, Manifest, Replay, ReproPaths, MANIFEST_FORMAT};
pub use scenario::Scenario;
pub use shrink::{shrink, Shrunk, MIN_ACCESSES};

/// Everything one fuzz run needs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; with the budget it fully determines the findings.
    pub seed: u64,
    /// Number of scenarios to generate and check.
    pub budget: u64,
    /// Access budget per scenario (before shrinking).
    pub accesses: usize,
    /// Worker threads scanning scenarios; `0` means one per available core.
    pub jobs: usize,
    /// The machine every scenario runs on.
    pub machine: MachineSpec,
    /// The oracle panel scenarios are checked against.
    pub panel: OraclePanel,
    /// Where to persist repro triples; `None` keeps findings in memory only.
    pub out_dir: Option<PathBuf>,
    /// Whether firing scenarios are minimised before reporting/persisting.
    pub shrink: bool,
}

impl FuzzConfig {
    /// Defaults: 16 scenarios of 4000 accesses on `machine`, full panel,
    /// auto jobs, shrinking on, no persistence.
    #[must_use]
    pub fn new(seed: u64, machine: MachineSpec) -> Self {
        Self {
            seed,
            budget: 16,
            accesses: 4_000,
            jobs: 0,
            machine,
            panel: OraclePanel::default(),
            out_dir: None,
            shrink: true,
        }
    }
}

/// One confirmed (and possibly shrunk and persisted) finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Scenario index within the run.
    pub index: u64,
    /// Scenario benchmark name.
    pub name: String,
    /// The scenario's derived blend seed.
    pub scenario_seed: u64,
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// Description of the violation (for the *final*, shrunk scenario).
    pub detail: String,
    /// Access budget after shrinking.
    pub accesses: usize,
    /// Components the shrinker removed.
    pub dropped: Vec<&'static str>,
    /// Digest of the subject report (what replay must reproduce).
    pub report_digest: u64,
    /// Paths of the persisted repro triple, when an output directory was
    /// configured.
    pub repro: Option<ReproPaths>,
}

/// The result of a fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzOutcome {
    /// The run's master seed.
    pub seed: u64,
    /// Scenarios checked.
    pub budget: u64,
    /// Fingerprint of the machine fuzzed.
    pub machine_fingerprint: String,
    /// Confirmed findings in scenario-index order.
    pub findings: Vec<Finding>,
}

impl FuzzOutcome {
    /// Renders the outcome as deterministic text: the same seed, budget,
    /// machine and output directory always produce byte-identical output,
    /// whatever `jobs` was.
    #[must_use]
    pub fn render(&self, machine_label: &str, panel: &OraclePanel) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "alecto fuzz");
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "budget = {} scenario(s)", self.budget);
        let _ = writeln!(out, "machine = {} ({})", machine_label, self.machine_fingerprint);
        let oracle_labels: Vec<&str> = OracleKind::ALL
            .into_iter()
            .filter(|kind| panel.kinds.contains(kind))
            .map(OracleKind::label)
            .collect();
        let _ = writeln!(
            out,
            "oracles = {} (pathology threshold {}%)",
            oracle_labels.join(","),
            panel.pathology_threshold_pct
        );
        let _ = writeln!(out, "findings = {}", self.findings.len());
        for finding in &self.findings {
            let _ = writeln!(out);
            let _ = writeln!(out, "[finding {:04}]", finding.index);
            let _ = writeln!(out, "scenario = {} (seed {})", finding.name, finding.scenario_seed);
            let _ = writeln!(out, "oracle = {}", finding.oracle.label());
            let _ = writeln!(out, "accesses = {}", finding.accesses);
            if !finding.dropped.is_empty() {
                let _ = writeln!(out, "dropped = {}", finding.dropped.join(","));
            }
            let _ = writeln!(out, "digest = {:#018x}", finding.report_digest);
            let _ = writeln!(out, "detail = {}", finding.detail);
            if let Some(repro) = &finding.repro {
                let _ = writeln!(out, "repro = {}", repro.manifest.display());
            }
        }
        out
    }
}

/// Runs the fuzzer: scans `budget` scenarios across the worker pool, then —
/// serially, in scenario-index order, so the outcome is independent of
/// `jobs` — shrinks and persists every firing scenario.
///
/// # Errors
///
/// Propagates filesystem errors from repro persistence; the scan itself
/// cannot fail.
///
/// # Panics
///
/// Propagates a panic from a scenario's scan (a bug in the simulator or the
/// fuzzer).
pub fn run_fuzz(config: &FuzzConfig) -> io::Result<FuzzOutcome> {
    let budget = usize::try_from(config.budget).expect("a scan budget fits in usize");
    let fired = par_map(budget, config.jobs, |index| {
        let scenario =
            Scenario::generate(config.seed, index as u64, config.accesses, &config.machine);
        evaluate(&config.machine, &scenario.source(), &config.panel)
    });

    let mut findings = Vec::new();
    for (index, firing) in (0u64..).zip(fired) {
        let Some(firing) = firing else { continue };
        let scenario = Scenario::generate(config.seed, index, config.accesses, &config.machine);
        let (scenario, dropped, firing) = if config.shrink {
            let shrunk = shrink(
                &config.machine,
                &scenario,
                firing.oracle,
                config.panel.pathology_threshold_pct,
            );
            // Re-describe the violation for the minimised scenario (the
            // metrics in the detail line move as components drop out).
            let panel = OraclePanel::only(firing.oracle, config.panel.pathology_threshold_pct);
            let refire =
                evaluate(&config.machine, &shrunk.scenario.source(), &panel).unwrap_or(firing);
            (shrunk.scenario, shrunk.dropped, refire)
        } else {
            (scenario, Vec::new(), firing)
        };

        let digest = report_digest(&subject_report(&config.machine, &scenario.source()));
        let repro = match &config.out_dir {
            Some(dir) => Some(persist_finding(
                dir,
                &config.machine,
                config.seed,
                &scenario,
                &firing,
                config.panel.pathology_threshold_pct,
                &dropped,
            )?),
            None => None,
        };
        findings.push(Finding {
            index,
            name: scenario.name().to_string(),
            scenario_seed: scenario.seed,
            oracle: firing.oracle,
            detail: firing.detail,
            accesses: scenario.accesses,
            dropped,
            report_digest: digest,
            repro,
        });
    }

    Ok(FuzzOutcome {
        seed: config.seed,
        budget: config.budget,
        machine_fingerprint: config.machine.fingerprint_hex(),
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_runs_report_no_findings_and_are_jobs_independent() {
        // Table I with the sanity+determinism panel: no pathology checks, so
        // this is cheap, and the defaults are expected to be clean.
        let mut config = FuzzConfig::new(7, MachineSpec::table1(1));
        config.budget = 4;
        config.accesses = 1_000;
        config.panel.kinds = vec![OracleKind::Sanity, OracleKind::Determinism];
        config.jobs = 1;
        let serial = run_fuzz(&config).expect("no persistence, no I/O");
        config.jobs = 4;
        let parallel = run_fuzz(&config).expect("no persistence, no I/O");
        assert_eq!(serial, parallel);
        assert!(serial.findings.is_empty(), "{:?}", serial.findings);
        let text = serial.render("table1", &config.panel);
        assert!(text.contains("findings = 0"), "{text}");
        assert!(text.contains("seed = 7"), "{text}");
    }
}
