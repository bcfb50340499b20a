//! DOL-style selection: a coordinator statically prioritises prefetchers and
//! passes each demand request through them *sequentially*, stopping at the
//! first prefetcher able to handle it (Fig. 3a).
//!
//! §II-A(1): "demand requests are initially routed to P1. Only if P1 is unable
//! to handle the demand request, is it then forwarded to P2, followed by P3."
//! Crucially for the paper's Limitation 1, the request leaves traces in the
//! tables of every prefetcher it passes through, so DOL trains a prefix of
//! the priority chain rather than only the suitable prefetcher.

use alecto_types::{DemandAccess, PrefetchRequest};
use prefetch::Prefetcher;

use crate::traits::{AllocationDecision, Allocations, DegreeAllocation, Selector};

/// The DOL sequential-coordinator selector.
#[derive(Debug, Clone)]
pub struct DolSelector {
    degree: u32,
}

impl DolSelector {
    /// Creates a DOL selector with per-prefetcher degree `degree`.
    #[must_use]
    pub fn new(degree: u32) -> Self {
        Self { degree }
    }

    /// Default degree of 4 (same as the IPCP baseline).
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(4)
    }
}

impl Selector for DolSelector {
    fn name(&self) -> &'static str {
        "DOL"
    }

    fn allocate(
        &mut self,
        access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision {
        // Walk the static priority chain; every prefetcher up to and including
        // the first one that claims the access gets trained.
        let mut per_prefetcher = Allocations::filled(prefetchers.len(), None);
        for (i, pf) in prefetchers.iter().enumerate() {
            per_prefetcher[i] = Some(DegreeAllocation::l1(self.degree));
            if pf.probe(access) {
                break;
            }
        }
        AllocationDecision { per_prefetcher }
    }

    fn select_requests(
        &mut self,
        _access: &DemandAccess,
        candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest> {
        // The handling prefetcher is the only one that was allowed to emit, so
        // everything passes through.
        candidates
    }

    fn storage_bits(&self) -> u64 {
        // The coordinator is a priority chain with no learned state.
        16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, Pc};
    use prefetch::{build_composite, CompositeKind, StridePrefetcher};

    #[test]
    fn cold_tables_train_the_whole_chain() {
        let mut s = DolSelector::default_config();
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let d = s.allocate(&DemandAccess::load(Pc::new(1), Addr::new(0x100)), &prefetchers);
        // Nobody claims a never-seen access: the request walks the full chain.
        assert_eq!(d.allocated_count(), 3);
    }

    #[test]
    fn chain_stops_at_first_claiming_prefetcher() {
        let mut s = DolSelector::default_config();
        let mut prefetchers = build_composite(CompositeKind::GsCsPmp);
        // Make the stride prefetcher (index 1) confident about PC 0x40.
        {
            let stride = &mut prefetchers[1];
            let mut out = Vec::new();
            for i in 0..4u64 {
                stride.train_and_predict(
                    &DemandAccess::load(Pc::new(0x40), Addr::new(0x1000 + i * 64)),
                    0,
                    &mut out,
                );
            }
        }
        let d = s
            .allocate(&DemandAccess::load(Pc::new(0x40), Addr::new(0x1000 + 4 * 64)), &prefetchers);
        // GS (0) and CS (1) are trained; PMP (2) never sees the request.
        assert!(d.per_prefetcher[0].is_some());
        assert!(d.per_prefetcher[1].is_some());
        assert!(d.per_prefetcher[2].is_none());
    }

    #[test]
    fn single_prefetcher_composite_works() {
        let mut s = DolSelector::new(2);
        let prefetchers: Vec<Box<dyn Prefetcher>> =
            vec![Box::new(StridePrefetcher::default_config())];
        let d = s.allocate(&DemandAccess::load(Pc::new(5), Addr::new(0x40)), &prefetchers);
        assert_eq!(d.allocated_count(), 1);
        assert_eq!(d.per_prefetcher[0].unwrap().total, 2);
    }

    #[test]
    fn select_requests_passes_through() {
        use alecto_types::{LineAddr, PrefetcherId};
        let mut s = DolSelector::default_config();
        let access = DemandAccess::load(Pc::new(1), Addr::new(0x100));
        let reqs = vec![PrefetchRequest::new(LineAddr::new(1), Pc::new(1), PrefetcherId(0))];
        assert_eq!(s.select_requests(&access, reqs.clone()), reqs);
        assert_eq!(s.name(), "DOL");
        assert!(s.storage_bits() < 64);
    }
}
