//! The L1D prefetch controller: glue between the demand-access stream, the
//! selection algorithm and the composite prefetcher.
//!
//! For every demand access the controller asks the selector which prefetchers
//! may train (and with what degree), trains exactly those prefetchers, lets
//! the selector post-process the resulting candidates, applies the external
//! prefetch filter when the selector wants one (§V-B), and hands the final
//! prefetch requests back to the caller (the core model) for issue into the
//! memory hierarchy.

use alecto_types::{DemandAccess, LineAddr, PrefetchOutcome, PrefetchRequest, PrefetcherId};
use memsys::Hierarchy;
use prefetch::{build_composite, CompositeKind, Prefetcher, TableStats};
use selectors::{PrefetchFilter, Selector};

use crate::selection::{build_selector, SelectionAlgorithm};

/// Per-controller statistics (everything Fig. 1 / Fig. 18 needs that is not
/// already inside the prefetchers' own [`TableStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Candidate prefetch lines produced by the trained prefetchers.
    pub candidates: u64,
    /// Requests dropped by the selector's own post-processing.
    pub dropped_by_selector: u64,
    /// Requests dropped by the external prefetch filter.
    pub dropped_by_filter: u64,
    /// Requests handed to the memory system.
    pub issued: u64,
}

/// The per-core L1D prefetch controller.
pub struct PrefetchController {
    prefetchers: Vec<Box<dyn Prefetcher>>,
    /// The algorithm `selector` was built from; its label names it.
    algorithm: SelectionAlgorithm,
    selector: Option<Box<dyn Selector>>,
    filter: PrefetchFilter,
    stats: ControllerStats,
    scratch: Vec<LineAddr>,
    /// The latest access's requests; the next access reuses the buffer.
    requests: Vec<PrefetchRequest>,
    /// Hierarchy feedback being forwarded; swapped, never reallocated.
    feedback: Vec<PrefetchOutcome>,
}

impl std::fmt::Debug for PrefetchController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefetchController")
            .field("prefetchers", &self.prefetchers.iter().map(|p| p.name()).collect::<Vec<_>>())
            .field("selector", &self.selector_name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PrefetchController {
    /// Builds a controller for the given composite and selection algorithm.
    #[must_use]
    pub fn new(composite: CompositeKind, algorithm: SelectionAlgorithm) -> Self {
        let prefetchers = build_composite(composite);
        let selector = build_selector(algorithm, prefetchers.len());
        Self {
            prefetchers,
            algorithm,
            selector,
            filter: PrefetchFilter::default_config(),
            stats: ControllerStats::default(),
            scratch: Vec::with_capacity(16),
            requests: Vec::new(),
            feedback: Vec::new(),
        }
    }

    /// Name of the selection algorithm in use (`"NoPrefetch"` when disabled).
    #[must_use]
    pub const fn selector_name(&self) -> &'static str {
        self.algorithm.label()
    }

    /// Controller statistics.
    #[must_use]
    pub const fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Metadata-table statistics of each prefetcher (Fig. 1 / Fig. 18 inputs).
    #[must_use]
    pub fn table_stats(&self) -> Vec<(&'static str, TableStats)> {
        self.prefetchers.iter().map(|p| (p.name(), *p.table_stats())).collect()
    }

    /// Total training occurrences across all prefetchers (the paper's proxy
    /// for prefetcher dynamic energy, §VI-I).
    #[must_use]
    pub fn training_occurrences(&self) -> u64 {
        self.prefetchers.iter().map(|p| p.table_stats().trainings).sum()
    }

    /// Total prefetcher-table misses across all prefetchers (Fig. 1).
    #[must_use]
    pub fn table_misses(&self) -> u64 {
        self.prefetchers.iter().map(|p| p.table_stats().misses).sum()
    }

    /// Storage of the selection hardware in bits (0 when prefetching is off).
    #[must_use]
    pub fn selector_storage_bits(&self) -> u64 {
        self.selector.as_ref().map_or(0, |s| s.storage_bits())
    }

    /// Handles one demand access: allocation, training, selection, filtering.
    /// Returns the prefetch requests to issue, valid until the next call.
    pub fn on_demand_access(&mut self, access: &DemandAccess) -> &[PrefetchRequest] {
        let Some(selector) = self.selector.as_mut() else {
            return &[];
        };

        // 1. Allocation: which prefetchers see this request, at what degree.
        let decision = selector.allocate(access, &self.prefetchers);

        // 2. Training + candidate generation, restricted to the allocation.
        // The candidates go into the previous access's request buffer.
        let mut candidates = std::mem::take(&mut self.requests);
        candidates.clear();
        for (idx, allocation) in decision.per_prefetcher.iter().enumerate() {
            let Some(alloc) = allocation else { continue };
            self.scratch.clear();
            self.prefetchers[idx].train_and_predict(access, alloc.total, &mut self.scratch);
            for &line in &self.scratch {
                candidates.push(PrefetchRequest::new(line, access.pc, PrefetcherId(idx)));
            }
        }
        let candidate_count = u64::try_from(candidates.len()).expect("count fits in u64");
        self.stats.candidates += candidate_count;

        // 3. Selection-specific post-processing (priority mux, PPF, Sandbox).
        let mut selected = selector.select_requests(access, candidates);
        self.stats.dropped_by_selector +=
            candidate_count - u64::try_from(selected.len()).expect("count fits in u64");

        // 4. External duplicate filter for selectors that do not bring their own.
        if selector.needs_external_filter() {
            selected.retain(|r| {
                let dropped = self.filter.check_and_insert(r.line);
                if dropped {
                    self.stats.dropped_by_filter += 1;
                }
                !dropped
            });
        }
        self.stats.issued += u64::try_from(selected.len()).expect("count fits in u64");
        self.requests = selected;
        &self.requests
    }

    /// Takes the usefulness feedback `hierarchy` gathered since the last call
    /// (from every core's traffic) and forwards it to the selector.
    pub fn forward_feedback(&mut self, hierarchy: &mut Hierarchy) {
        hierarchy.swap_feedback(&mut self.feedback);
        let Some(selector) = self.selector.as_mut() else { return };
        for outcome in &self.feedback {
            selector.on_prefetch_outcome(outcome);
        }
    }

    /// Forwards a periodic performance reward to the selector (Bandit).
    pub fn on_epoch(&mut self, committed_instructions: u64, cycles: u64) {
        if let Some(selector) = self.selector.as_mut() {
            selector.on_epoch(committed_instructions, cycles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, Pc};

    fn stream_access(i: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(0x400), Addr::new(0x10_0000 + i * 64))
    }

    #[test]
    fn no_prefetching_issues_nothing() {
        let mut c =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        for i in 0..100 {
            assert!(c.on_demand_access(&stream_access(i)).is_empty());
        }
        assert_eq!(c.selector_name(), "NoPrefetch");
        assert_eq!(c.stats().issued, 0);
        assert_eq!(c.training_occurrences(), 0, "prefetchers must not be trained when disabled");
    }

    #[test]
    fn streaming_pattern_produces_prefetches_under_every_algorithm() {
        for algo in [
            SelectionAlgorithm::Ipcp,
            SelectionAlgorithm::Dol,
            SelectionAlgorithm::Bandit6,
            SelectionAlgorithm::Alecto,
        ] {
            let mut c = PrefetchController::new(CompositeKind::GsCsPmp, algo);
            let mut issued = 0;
            for i in 0..200 {
                issued += c.on_demand_access(&stream_access(i)).len();
            }
            assert!(issued > 0, "{algo:?} should issue prefetches for a pure stream");
        }
    }

    #[test]
    fn external_filter_applies_only_to_non_alecto() {
        let mut ipcp = PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Ipcp);
        let mut alecto =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Alecto);
        for i in 0..300 {
            ipcp.on_demand_access(&stream_access(i));
            alecto.on_demand_access(&stream_access(i));
        }
        assert!(ipcp.stats().dropped_by_filter > 0, "IPCP relies on the external filter");
        assert_eq!(alecto.stats().dropped_by_filter, 0, "Alecto's sandbox does the filtering");
        assert!(alecto.stats().dropped_by_selector > 0);
    }

    #[test]
    fn alecto_trains_fewer_table_entries_than_ipcp_on_mixed_patterns() {
        // A pattern mix: one streaming PC and one pointer-chasing PC. Under
        // Alecto the blocked prefetchers stop receiving the requests they are
        // bad at, reducing training occurrences (Fig. 18).
        let chase: Vec<u64> = (0..50u64).map(|i| (i * 7919 + 3) % 4096).collect();
        let run = |algo: SelectionAlgorithm| {
            let mut c = PrefetchController::new(CompositeKind::GsCsPmp, algo);
            for round in 0..40u64 {
                for i in 0..50u64 {
                    c.on_demand_access(&stream_access(round * 50 + i));
                    c.on_demand_access(&DemandAccess::load(
                        Pc::new(0x900),
                        Addr::new(0x80_0000 + chase[usize::try_from(i).unwrap()] * 64),
                    ));
                }
            }
            c.training_occurrences()
        };
        let ipcp = run(SelectionAlgorithm::Ipcp);
        let alecto = run(SelectionAlgorithm::Alecto);
        assert!(
            alecto < ipcp,
            "Alecto should train less than non-selective IPCP (alecto {alecto} vs ipcp {ipcp})"
        );
    }

    #[test]
    fn table_stats_and_names_exposed() {
        let mut c =
            PrefetchController::new(CompositeKind::GsBertiCplx, SelectionAlgorithm::Bandit3);
        for i in 0..50 {
            c.on_demand_access(&stream_access(i));
        }
        let stats = c.table_stats();
        // One row per prefetcher, named in priority order.
        assert_eq!(
            stats.iter().map(|(name, _)| *name).collect::<Vec<_>>(),
            ["GS", "Berti", "CPLX"]
        );
        assert!(stats.iter().any(|(_, s)| s.trainings > 0));
        assert!(c.selector_storage_bits() > 0);
        assert!(c.table_misses() > 0);
        // Debug formatting is non-empty (C-DEBUG / C-DEBUG-NONEMPTY).
        assert!(!format!("{c:?}").is_empty());
    }

    #[test]
    fn epoch_and_outcome_forwarding_do_not_panic() {
        let mut c = PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::Bandit6);
        c.on_epoch(10_000, 5_000);
        let mut none =
            PrefetchController::new(CompositeKind::GsCsPmp, SelectionAlgorithm::NoPrefetching);
        none.on_epoch(10_000, 5_000);
    }
}
