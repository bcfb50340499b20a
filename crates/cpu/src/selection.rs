//! Factory for the prefetcher-selection algorithms evaluated in the paper.

use alecto::config::{CONSERVATIVE_DEGREE, MAX_AGGRESSIVE};
use alecto::AlectoSelector;
use selectors::{
    BanditSelector, DolSelector, IpcpSelector, PpfFilterSelector, Selector, TriangelFilterSelector,
};

/// Which prefetcher-selection algorithm to run.
///
/// Each variant corresponds to one of the schemes compared in the paper's
/// evaluation; `NoPrefetching` is the normalisation baseline of every speedup
/// figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionAlgorithm {
    /// Prefetching disabled entirely (the speedup baseline).
    NoPrefetching,
    /// IPCP static output prioritisation.
    Ipcp,
    /// DOL sequential demand-request passing.
    Dol,
    /// Bandit with per-prefetcher degree 0 or 3.
    Bandit3,
    /// Bandit with per-prefetcher degree 0 or 6.
    Bandit6,
    /// The extended-arm Bandit of §VI-H (degrees 0, c, ..., c+M+1).
    BanditExtended,
    /// Alecto with the paper's parameters.
    Alecto,
    /// Alecto with the fixed IA degree of the §VII-A ablation (Alecto_fix).
    AlectoFixedDegree,
    /// IPCP plus the aggressive PPF perceptron filter (§VII-C).
    PpfAggressive,
    /// IPCP plus the conservative PPF perceptron filter (§VII-C).
    PpfConservative,
    /// Triangel-style temporal training management (Fig. 13).
    Triangel,
}

impl SelectionAlgorithm {
    /// Display label used in harness tables (matches the paper's legends).
    /// It is the algorithm's only name: reports print it and cell cache keys
    /// fold it, so no two algorithms may share one.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            SelectionAlgorithm::NoPrefetching => "NoPrefetch",
            SelectionAlgorithm::Ipcp => "IPCP",
            SelectionAlgorithm::Dol => "DOL",
            SelectionAlgorithm::Bandit3 => "Bandit3",
            SelectionAlgorithm::Bandit6 => "Bandit6",
            SelectionAlgorithm::BanditExtended => "BanditExt",
            SelectionAlgorithm::Alecto => "Alecto",
            SelectionAlgorithm::AlectoFixedDegree => "Alecto_fix",
            SelectionAlgorithm::PpfAggressive => "IPCP+PPF_Agg",
            SelectionAlgorithm::PpfConservative => "IPCP+PPF_Con",
            SelectionAlgorithm::Triangel => "Triangel",
        }
    }

    /// The five algorithms compared in the main single-core figures
    /// (Figs. 8, 9, 11, 15, 16, 17).
    #[must_use]
    pub const fn main_comparison() -> [SelectionAlgorithm; 5] {
        [
            SelectionAlgorithm::Ipcp,
            SelectionAlgorithm::Dol,
            SelectionAlgorithm::Bandit3,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::Alecto,
        ]
    }
}

/// Builds the selector instance for `algorithm` scheduling `prefetcher_count`
/// prefetchers. Returns `None` for [`SelectionAlgorithm::NoPrefetching`].
#[must_use]
pub fn build_selector(
    algorithm: SelectionAlgorithm,
    prefetcher_count: usize,
) -> Option<Box<dyn Selector>> {
    match algorithm {
        SelectionAlgorithm::NoPrefetching => None,
        SelectionAlgorithm::Ipcp => Some(Box::new(IpcpSelector)),
        SelectionAlgorithm::Dol => Some(Box::new(DolSelector)),
        SelectionAlgorithm::Bandit3 => Some(Box::new(BanditSelector::bandit3(prefetcher_count))),
        SelectionAlgorithm::Bandit6 => Some(Box::new(BanditSelector::bandit6(prefetcher_count))),
        SelectionAlgorithm::BanditExtended => Some(Box::new(BanditSelector::extended(
            CONSERVATIVE_DEGREE,
            MAX_AGGRESSIVE,
            prefetcher_count,
        ))),
        SelectionAlgorithm::Alecto => Some(Box::new(AlectoSelector::new(prefetcher_count))),
        SelectionAlgorithm::AlectoFixedDegree => {
            Some(Box::new(AlectoSelector::fixed_degree(prefetcher_count)))
        }
        SelectionAlgorithm::PpfAggressive => Some(Box::new(PpfFilterSelector::aggressive())),
        SelectionAlgorithm::PpfConservative => Some(Box::new(PpfFilterSelector::conservative())),
        SelectionAlgorithm::Triangel => Some(Box::new(TriangelFilterSelector::default())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetching_builds_nothing() {
        assert!(build_selector(SelectionAlgorithm::NoPrefetching, 3).is_none());
    }

    #[test]
    fn every_other_algorithm_builds_a_selector() {
        let algos = [
            SelectionAlgorithm::NoPrefetching,
            SelectionAlgorithm::Ipcp,
            SelectionAlgorithm::Dol,
            SelectionAlgorithm::Bandit3,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::BanditExtended,
            SelectionAlgorithm::Alecto,
            SelectionAlgorithm::AlectoFixedDegree,
            SelectionAlgorithm::PpfAggressive,
            SelectionAlgorithm::PpfConservative,
            SelectionAlgorithm::Triangel,
        ];
        for a in algos {
            // Exhaustive on purpose: a new variant must be listed above.
            match a {
                SelectionAlgorithm::NoPrefetching => continue,
                SelectionAlgorithm::Ipcp
                | SelectionAlgorithm::Dol
                | SelectionAlgorithm::Bandit3
                | SelectionAlgorithm::Bandit6
                | SelectionAlgorithm::BanditExtended
                | SelectionAlgorithm::Alecto
                | SelectionAlgorithm::AlectoFixedDegree
                | SelectionAlgorithm::PpfAggressive
                | SelectionAlgorithm::PpfConservative
                | SelectionAlgorithm::Triangel => {}
            }
            let s = build_selector(a, 3).expect("selector should be built");
            assert!(s.storage_bits() > 0);
        }
        // The label is an algorithm's only name and cell cache keys fold it:
        // two algorithms with one label would share cached cells.
        let labels: std::collections::BTreeSet<_> = algos.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), algos.len(), "labels must be pairwise distinct: {labels:?}");
    }

    #[test]
    fn main_comparison_has_five_entries_ending_with_alecto() {
        let m = SelectionAlgorithm::main_comparison();
        assert_eq!(m.len(), 5);
        assert_eq!(m[4], SelectionAlgorithm::Alecto);
    }

    #[test]
    fn alecto_storage_much_smaller_than_extended_bandit() {
        let alecto = build_selector(SelectionAlgorithm::Alecto, 3).unwrap();
        let ext = build_selector(SelectionAlgorithm::BanditExtended, 3).unwrap();
        // §VI-H: extended Bandit needs 4 KB, about 5.4× Alecto's requirement
        // (excluding the sandbox) and ~3× including it.
        assert!(ext.storage_bits() > 2 * alecto.storage_bits());
    }
}
