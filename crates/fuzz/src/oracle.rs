//! The oracle panel: the properties every fuzz scenario is checked against.
//!
//! Oracles are evaluated in the fixed order [`OracleKind::Sanity`],
//! [`OracleKind::Determinism`], [`OracleKind::Pathology`] (filtered by the
//! panel's selection); the first one that fires *is* the finding. Keeping the
//! order fixed makes findings — and therefore whole fuzz runs — byte-stable.

use std::panic;
use std::thread;

use alecto_types::TraceSource;
use cpu::{CompositeKind, SelectionAlgorithm, System, SystemReport};
use machine::MachineSpec;

/// Default pathology threshold: the selector must stay within 5% of the best
/// static prefetcher configuration.
pub const DEFAULT_PATHOLOGY_THRESHOLD_PCT: f64 = 5.0;

/// Which property a scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// Metrics must be well-formed: finite, non-negative, IPC within the
    /// machine's fetch width.
    Sanity,
    /// The identical cell, re-run in a fresh `System` on a newly spawned
    /// thread, must report byte-identical results — the `--jobs` analogue:
    /// the experiment engine runs each cell on whichever worker takes it,
    /// after whatever that thread ran before.
    Determinism,
    /// The adaptive selector must not lose to the best *static* prefetcher
    /// stack by more than the panel's threshold.
    Pathology,
}

impl OracleKind {
    /// All oracles, in evaluation order.
    pub const ALL: [Self; 3] = [Self::Sanity, Self::Determinism, Self::Pathology];

    /// Stable CLI / manifest label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Self::Sanity => "sanity",
            Self::Determinism => "determinism",
            Self::Pathology => "pathology",
        }
    }

    /// Parses a [`OracleKind::label`].
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|kind| kind.label() == label)
    }
}

/// The panel a fuzz run checks scenarios against.
#[derive(Debug, Clone, PartialEq)]
pub struct OraclePanel {
    /// Enabled oracles; evaluation follows [`OracleKind::ALL`] order
    /// regardless of the order given here.
    pub kinds: Vec<OracleKind>,
    /// Allowed selector shortfall versus the best static stack, in percent.
    pub pathology_threshold_pct: f64,
}

impl Default for OraclePanel {
    fn default() -> Self {
        Self {
            kinds: OracleKind::ALL.to_vec(),
            pathology_threshold_pct: DEFAULT_PATHOLOGY_THRESHOLD_PCT,
        }
    }
}

impl OraclePanel {
    /// A panel running only `kind` (used by the shrinker to re-confirm one
    /// specific finding).
    #[must_use]
    pub fn only(kind: OracleKind, pathology_threshold_pct: f64) -> Self {
        Self { kinds: vec![kind], pathology_threshold_pct }
    }

    fn enabled(&self, kind: OracleKind) -> bool {
        self.kinds.contains(&kind)
    }
}

/// A fired oracle: which property failed and a human-readable account.
#[derive(Debug, Clone, PartialEq)]
pub struct Firing {
    /// The oracle that fired.
    pub oracle: OracleKind,
    /// Deterministic one-line description of the violation.
    pub detail: String,
}

/// The prefetch composite a machine pins, falling back to the paper's
/// GS+CS+PMP stack when the machine file has no `[prefetch]` section.
#[must_use]
pub fn machine_composite(spec: &MachineSpec) -> CompositeKind {
    spec.prefetch.unwrap_or(CompositeKind::GsCsPmp)
}

/// Runs one cell (machine × algorithm × composite × source) to a report.
///
/// # Panics
///
/// Panics only on an empty source slice, which the fuzzer never constructs.
#[must_use]
pub fn run_cell(
    spec: &MachineSpec,
    source: &TraceSource,
    algorithm: SelectionAlgorithm,
    composite: CompositeKind,
) -> SystemReport {
    let mut system = System::new(spec.clone(), algorithm, composite);
    system.run_sources(std::slice::from_ref(source)).expect("one source provided")
}

/// Digest of a report's full `Debug` rendering — the identity the repro
/// manifest pins and replay compares against. It is
/// [`alecto_types::hash::fnv1a_like_64`] of that rendering, not
/// [`alecto_types::fnv1a_64`]; persisted manifests pin its values.
#[must_use]
pub fn report_digest(report: &SystemReport) -> u64 {
    alecto_types::hash::fnv1a_like_64(format!("{report:?}").as_bytes())
}

/// The report the digest is computed over: the panel's *subject* cell — the
/// paper's adaptive selector on the machine's composite.
#[must_use]
pub fn subject_report(spec: &MachineSpec, source: &TraceSource) -> SystemReport {
    run_cell(spec, source, SelectionAlgorithm::Alecto, machine_composite(spec))
}

/// Checks `source` on `spec` against the panel; returns the first firing
/// oracle, or `None` when the scenario is clean.
#[must_use]
pub fn evaluate(spec: &MachineSpec, source: &TraceSource, panel: &OraclePanel) -> Option<Firing> {
    let composite = machine_composite(spec);
    let subject = run_cell(spec, source, SelectionAlgorithm::Alecto, composite);

    if panel.enabled(OracleKind::Sanity) {
        if let Some(detail) = sanity_violation(spec, &subject) {
            return Some(Firing { oracle: OracleKind::Sanity, detail });
        }
    }

    if panel.enabled(OracleKind::Determinism) {
        // Same cell, fresh system, another thread: a cell's report must
        // not depend on which worker runs it or what that worker ran before,
        // so any field-level difference is a finding.
        let rerun = thread::scope(|scope| {
            scope.spawn(|| run_cell(spec, source, SelectionAlgorithm::Alecto, composite)).join()
        })
        .unwrap_or_else(|payload| panic::resume_unwind(payload));
        if rerun != subject {
            return Some(Firing {
                oracle: OracleKind::Determinism,
                detail: format!(
                    "report diverges when the cell re-runs on another thread: geomean IPC {:?} (first run) vs {:?} (re-run)",
                    subject.geomean_ipc(),
                    rerun.geomean_ipc()
                ),
            });
        }
    }

    if panel.enabled(OracleKind::Pathology) {
        let subject_ipc = subject.geomean_ipc().unwrap_or(0.0);
        let static_stacks =
            [CompositeKind::PmpOnly, CompositeKind::BertiOnly, CompositeKind::GsCsPmp];
        let (best_stack, best_ipc) = static_stacks
            .into_iter()
            .map(|stack| {
                let report = run_cell(spec, source, SelectionAlgorithm::Ipcp, stack);
                (stack, report.geomean_ipc().unwrap_or(0.0))
            })
            .reduce(|best, candidate| if candidate.1 > best.1 { candidate } else { best })
            .expect("three static stacks");
        let floor = best_ipc * (1.0 - panel.pathology_threshold_pct / 100.0);
        if subject_ipc < floor {
            return Some(Firing {
                oracle: OracleKind::Pathology,
                detail: format!(
                    "selector IPC {subject_ipc:.4} trails best static stack {} (IPCP, IPC {best_ipc:.4}) by more than {:.1}%",
                    best_stack.label(),
                    panel.pathology_threshold_pct
                ),
            });
        }
    }

    None
}

/// Returns a description of the first metric-sanity violation, if any.
fn sanity_violation(spec: &MachineSpec, report: &SystemReport) -> Option<String> {
    let ceiling = f64::from(spec.fetch_width) + 1e-9;
    for core in &report.cores {
        if !core.ipc.is_finite() || core.ipc < 0.0 {
            return Some(format!("core {} IPC is malformed: {}", core.workload, core.ipc));
        }
        if core.ipc > ceiling {
            return Some(format!(
                "core {} IPC {:.4} exceeds the {}-wide fetch ceiling",
                core.workload, core.ipc, spec.fetch_width
            ));
        }
        if core.instructions == 0 || core.cycles == 0 {
            return Some(format!(
                "core {} retired {} instructions in {} cycles",
                core.workload, core.instructions, core.cycles
            ));
        }
    }
    let latency = report.avg_mem_latency();
    if !latency.is_finite() || latency < 0.0 {
        return Some(format!("average memory latency is malformed: {latency}"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn labels_round_trip() {
        for kind in OracleKind::ALL {
            assert_eq!(OracleKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(OracleKind::from_label("chaos"), None);
    }

    #[test]
    fn default_panel_enables_everything() {
        let panel = OraclePanel::default();
        for kind in OracleKind::ALL {
            assert!(panel.enabled(kind));
        }
        let only = OraclePanel::only(OracleKind::Sanity, 1.0);
        assert!(only.enabled(OracleKind::Sanity));
        assert!(!only.enabled(OracleKind::Pathology));
    }

    #[test]
    fn sanity_and_determinism_hold_on_table1() {
        let spec = MachineSpec::table1(1);
        let scenario = Scenario::generate(11, 0, 1_500, &spec);
        let panel = OraclePanel {
            kinds: vec![OracleKind::Sanity, OracleKind::Determinism],
            ..OraclePanel::default()
        };
        assert_eq!(evaluate(&spec, &scenario.source(), &panel), None);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let spec = MachineSpec::table1(1);
        let scenario = Scenario::generate(11, 0, 1_000, &spec);
        let a = report_digest(&subject_report(&spec, &scenario.source()));
        let b = report_digest(&subject_report(&spec, &scenario.source()));
        assert_eq!(a, b, "same cell, same digest");
        let other = Scenario::generate(11, 1, 1_000, &spec);
        let c = report_digest(&subject_report(&spec, &other.source()));
        assert_ne!(a, c, "different scenario, different digest");
    }
}
