//! IPCP-style selection: every prefetcher trains on every demand request and
//! the *outputs* are chosen by a static priority (Fig. 3b).
//!
//! §II-A(2): "these prefetchers accept all demand requests from the CPU core
//! ... When a single demand request could be serviced by more than one
//! prefetcher, IPCP implements a static strategy to select the output of
//! prefetchers based on a predetermined priority: P1 > P2 > P3", i.e. in the
//! composite order stream > stride > spatial.

use alecto_types::{DemandAccess, PrefetchRequest};
use prefetch::Prefetcher;

use crate::traits::{AllocationDecision, Selector};

/// The IPCP static-priority selector.
#[derive(Debug, Clone)]
pub struct IpcpSelector {
    degree: u32,
}

impl IpcpSelector {
    /// Creates an IPCP selector where each prefetcher may emit up to `degree`
    /// candidates per training event.
    #[must_use]
    pub fn new(degree: u32) -> Self {
        Self { degree }
    }

    /// Default degree of 4, comparable to the conservative end of Bandit.
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(4)
    }
}

impl Selector for IpcpSelector {
    fn name(&self) -> &'static str {
        "IPCP"
    }

    fn allocate(
        &mut self,
        _access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision {
        // Non-selective training: everyone sees the request.
        AllocationDecision::all(prefetchers.len(), self.degree)
    }

    fn select_requests(
        &mut self,
        _access: &DemandAccess,
        mut candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest> {
        // Keep only the output of the highest-priority prefetcher that
        // produced anything (lowest issuer index wins).
        let Some(winner) = candidates.iter().map(|r| r.issuer).min_by_key(|p| p.index()) else {
            return candidates;
        };
        candidates.retain(|r| r.issuer == winner);
        candidates
    }

    fn storage_bits(&self) -> u64 {
        // A priority mux has no table state; a handful of configuration bits.
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, LineAddr, Pc, PrefetcherId};
    use prefetch::{build_composite, CompositeKind};

    fn req(issuer: usize, line: u64) -> PrefetchRequest {
        PrefetchRequest::new(LineAddr::new(line), Pc::new(0x10), PrefetcherId(issuer))
    }

    #[test]
    fn all_prefetchers_are_trained() {
        let mut s = IpcpSelector::default_config();
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let d = s.allocate(&DemandAccess::load(Pc::new(1), Addr::new(0x100)), &prefetchers);
        assert_eq!(d.allocated_count(), 3);
        assert!(d.per_prefetcher.iter().all(|a| a.unwrap().total == 4));
    }

    #[test]
    fn highest_priority_output_wins() {
        let mut s = IpcpSelector::default_config();
        let access = DemandAccess::load(Pc::new(1), Addr::new(0x100));
        let out = s.select_requests(&access, vec![req(2, 10), req(0, 20), req(1, 30), req(0, 21)]);
        assert_eq!(out, [req(0, 20), req(0, 21)], "the winner's requests, in candidate order");
    }

    #[test]
    fn lower_priority_used_when_alone() {
        let mut s = IpcpSelector::default_config();
        let access = DemandAccess::load(Pc::new(1), Addr::new(0x100));
        let out = s.select_requests(&access, vec![req(2, 10), req(2, 11)]);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.issuer == PrefetcherId(2)));
    }

    #[test]
    fn empty_candidates_yield_nothing() {
        let mut s = IpcpSelector::default_config();
        let access = DemandAccess::load(Pc::new(1), Addr::new(0x100));
        assert!(s.select_requests(&access, Vec::new()).is_empty());
    }

    #[test]
    fn uses_external_filter_and_tiny_storage() {
        let s = IpcpSelector::default_config();
        assert!(s.needs_external_filter());
        assert!(s.storage_bits() < 64);
        assert_eq!(s.name(), "IPCP");
    }
}
