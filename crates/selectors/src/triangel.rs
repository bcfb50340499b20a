//! Triangel-style training management for temporal prefetching (Fig. 7b).
//!
//! Triangel lets the non-temporal L1 prefetchers behave exactly as under IPCP
//! but decides, per PC, whether the *temporal* prefetcher should be trained on
//! the access stream: non-temporal PCs and rarely recurring PCs are filtered
//! out so they do not waste the metadata table. Unlike Alecto (§IV-F) it has
//! no notion of "this PC is already handled by a cheaper prefetcher", which is
//! precisely the gap Fig. 13 measures.

use alecto_types::{DemandAccess, LruTable, Pc, PrefetchRequest};
use prefetch::Prefetcher;

use crate::ipcp::BASELINE_DEGREE;
use crate::traits::{AllocationDecision, Allocations, DegreeAllocation, Selector};

/// Degree of the temporal prefetcher (§V-C).
const TEMPORAL_DEGREE: u32 = 1;
/// Accesses during which a PC trains unconditionally while its reuse
/// behaviour is being measured.
const BOOTSTRAP_TRAININGS: u32 = 64;
/// Minimum fraction of temporal-table hits for a PC to keep training the
/// temporal prefetcher after bootstrap.
const REUSE_THRESHOLD: f64 = 0.05;
/// PCs whose reuse is tracked; the least recently seen PC makes room for a
/// new one, which bootstraps afresh.
const PC_ENTRIES: usize = 2_048;

/// Per-PC reuse tracking state.
#[derive(Debug, Clone, Copy, Default)]
struct PcReuse {
    trainings: u32,
    temporal_hits: u32,
}

/// Triangel-style selector: IPCP's degree ([`BASELINE_DEGREE`]) for the
/// non-temporal prefetchers plus reuse-based training filtering for the
/// temporal prefetcher (assumed to be the last prefetcher in the composite).
#[derive(Debug, Clone)]
pub struct TriangelFilterSelector {
    reuse: LruTable<Pc, PcReuse>,
}

impl Default for TriangelFilterSelector {
    fn default() -> Self {
        Self { reuse: LruTable::new(PC_ENTRIES) }
    }
}

impl Selector for TriangelFilterSelector {
    fn allocate(
        &mut self,
        access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision {
        let mut per_prefetcher =
            Allocations::filled(prefetchers.len(), Some(DegreeAllocation::l1(BASELINE_DEGREE)));
        // Identify the temporal prefetcher (by convention the last one; fall
        // back to a kind check so other layouts still work).
        let temporal_idx = prefetchers.iter().rposition(|p| p.kind().is_temporal());
        let Some(idx) = temporal_idx else {
            return AllocationDecision { per_prefetcher };
        };

        let (entry, _, _) = self.reuse.touch_or_insert_with(access.pc, PcReuse::default);
        entry.trainings += 1;
        if prefetchers[idx].probe(access) {
            entry.temporal_hits += 1;
        }
        let allow = if entry.trainings <= BOOTSTRAP_TRAININGS {
            true
        } else {
            f64::from(entry.temporal_hits) / f64::from(entry.trainings) >= REUSE_THRESHOLD
        };
        per_prefetcher[idx] = allow.then_some(DegreeAllocation::l1(TEMPORAL_DEGREE));
        AllocationDecision { per_prefetcher }
    }

    fn select_requests(
        &mut self,
        _access: &DemandAccess,
        candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest> {
        candidates
    }

    fn storage_bits(&self) -> u64 {
        // Triangel's PC-classification structures dominate: the paper quotes
        // > 17 KB of filtering metadata. Model ~70 bits per tracked PC.
        PC_ENTRIES as u64 * 70
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::Addr;
    use prefetch::{build_composite, CompositeKind};

    fn composite() -> Vec<Box<dyn Prefetcher>> {
        build_composite(CompositeKind::GsCsPmpTemporal { metadata_bytes: 64 * 1024 })
    }

    fn access(pc: u64, line: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(pc), Addr::new(line * 64))
    }

    #[test]
    fn non_temporal_prefetchers_always_train() {
        let mut s = TriangelFilterSelector::default();
        let prefetchers = composite();
        let d = s.allocate(&access(1, 100), &prefetchers);
        assert!(d.per_prefetcher[0].is_some());
        assert!(d.per_prefetcher[1].is_some());
        assert!(d.per_prefetcher[2].is_some());
    }

    #[test]
    fn temporal_training_allowed_during_bootstrap() {
        let mut s = TriangelFilterSelector::default();
        let prefetchers = composite();
        let d = s.allocate(&access(0x77, 100), &prefetchers);
        assert!(d.per_prefetcher[3].is_some());
        assert_eq!(d.per_prefetcher[3].unwrap().total, 1);
    }

    #[test]
    fn non_recurring_pc_is_eventually_filtered() {
        let mut s = TriangelFilterSelector::default();
        let mut prefetchers = composite();
        // A streaming PC that never revisits a line: the temporal prefetcher's
        // table never hits, so after bootstrap the PC is filtered.
        let mut line = 0u64;
        let mut filtered_any = false;
        for _ in 0..300 {
            let a = access(0x99, line);
            let d = s.allocate(&a, &prefetchers);
            if d.per_prefetcher[3].is_none() {
                filtered_any = true;
            }
            // Train the prefetchers that were allocated the request, as the
            // controller would.
            let mut out = Vec::new();
            for (i, alloc) in d.per_prefetcher.iter().enumerate() {
                if let Some(a_) = alloc {
                    prefetchers[i].train_and_predict(&a, a_.total, &mut out);
                }
            }
            line += 3;
        }
        assert!(filtered_any, "a never-recurring PC should lose its temporal training slot");
    }

    #[test]
    fn recurring_pc_keeps_training() {
        let mut s = TriangelFilterSelector::default();
        let mut prefetchers = composite();
        // A pointer-chase loop over 50 lines, repeated: the temporal table
        // hits constantly, so training is never cut off.
        let seq: Vec<u64> = (0..50).map(|i| (i * 7919 + 13) % 10_000).collect();
        let mut allowed = 0;
        for _ in 0..10 {
            for &l in &seq {
                let a = access(0xbb, l);
                let d = s.allocate(&a, &prefetchers);
                allowed += usize::from(d.per_prefetcher[3].is_some());
                let mut out = Vec::new();
                for (i, alloc) in d.per_prefetcher.iter().enumerate() {
                    if let Some(a_) = alloc {
                        prefetchers[i].train_and_predict(&a, a_.total, &mut out);
                    }
                }
            }
        }
        assert_eq!(allowed, 500, "a strongly recurring PC must keep its temporal training");
    }

    #[test]
    fn reuse_tracking_is_bounded_and_evicted_pcs_bootstrap_again() {
        let mut s = TriangelFilterSelector::default();
        let prefetchers = composite();
        // Untrained, the temporal table never hits, so a PC loses its
        // temporal training slot once its bootstrap is over.
        let temporal_allowed = |s: &mut TriangelFilterSelector, pc: u64, line: u64| {
            s.allocate(&access(pc, line), &prefetchers).per_prefetcher[3].is_some()
        };
        for line in 0..u64::from(BOOTSTRAP_TRAININGS) {
            assert!(temporal_allowed(&mut s, 0x99, line), "bootstrap access {line}");
        }
        assert!(!temporal_allowed(&mut s, 0x99, 1_000));
        for pc in 0..3_000u64 {
            assert!(temporal_allowed(&mut s, 0x10_000 + pc, pc), "a new PC bootstraps");
        }
        assert_eq!(s.reuse.len(), PC_ENTRIES, "at most {PC_ENTRIES} PCs are tracked");
        assert!(s.reuse.get(&Pc::new(0x99)).is_none(), "the oldest PC was evicted");
        assert!(temporal_allowed(&mut s, 0x99, 2_000), "an evicted PC bootstraps again");
        assert_eq!(s.storage_bits(), 2_048 * 70);
    }

    #[test]
    fn works_without_temporal_prefetcher() {
        let mut s = TriangelFilterSelector::default();
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let d = s.allocate(&access(1, 5), &prefetchers);
        assert_eq!(d.allocated_count(), 3);
        assert!(s.storage_bits() > 8 * 1024 * 8, "Triangel metadata should exceed 8 KB");
    }
}
