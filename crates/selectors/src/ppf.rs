//! PPF — Perceptron-based Prefetch Filtering, layered on top of IPCP
//! scheduling (the §VII-C comparison).
//!
//! PPF does not change which prefetcher trains on what; it filters the
//! *output* of the composite prefetcher with a perceptron that predicts
//! whether each prefetch will be useful, based on simple features of the
//! trigger access and prefetch target. The paper tunes it into an aggressive
//! and a conservative version and shows that pure output filtering raises
//! accuracy but sacrifices coverage, which demand-request allocation does not.

use std::collections::BTreeMap;

use alecto_types::{fold_pc, DemandAccess, LineAddr, PrefetchOutcome, PrefetchRequest};
use prefetch::Prefetcher;

use crate::ipcp::IpcpSelector;
use crate::traits::{AllocationDecision, Selector};

const FEATURE_TABLE_BITS: u32 = 8;
const FEATURE_TABLE_SIZE: usize = 1 << FEATURE_TABLE_BITS;
const NUM_FEATURES: usize = 4;
const WEIGHT_MAX: i32 = 31;
const WEIGHT_MIN: i32 = -32;
/// Magnitude below which training updates are applied even on correct
/// predictions (perceptron margin).
const TRAINING_THRESHOLD: i32 = 16;
/// In-flight prefetches whose features are kept for outcome training.
const PENDING_ENTRIES: usize = 4_096;
/// Bits charged per pending line's tag: a 6-bit partial tag, as the Sandbox
/// Table charges its lines (Table III).
const PENDING_TAG_BITS: u64 = 6;

/// IPCP scheduling plus a perceptron prefetch filter.
#[derive(Debug, Clone)]
pub struct PpfFilterSelector {
    /// Perceptron sum required to let a prefetch through. Higher = more
    /// aggressive filtering.
    filter_threshold: i32,
    weights: Vec<Vec<i32>>,
    /// Features of still-in-flight prefetches, keyed by line, so that outcome
    /// feedback can train the same weights the decision used; at most
    /// [`PENDING_ENTRIES`].
    pending: BTreeMap<LineAddr, [usize; NUM_FEATURES]>,
}

impl PpfFilterSelector {
    fn with_filter_threshold(filter_threshold: i32) -> Self {
        Self {
            filter_threshold,
            weights: vec![vec![0; FEATURE_TABLE_SIZE]; NUM_FEATURES],
            pending: BTreeMap::new(),
        }
    }

    /// The aggressive tuning of §VII-C (filters more).
    #[must_use]
    pub fn aggressive() -> Self {
        Self::with_filter_threshold(0)
    }

    /// The conservative tuning of §VII-C (filters less).
    #[must_use]
    pub fn conservative() -> Self {
        Self::with_filter_threshold(-6)
    }

    fn features(access: &DemandAccess, req: &PrefetchRequest) -> [usize; NUM_FEATURES] {
        let pc_hash = fold_pc(access.pc, FEATURE_TABLE_BITS) as usize;
        let line = req.line.raw();
        let offset = (line & 0x3f) as usize;
        let delta = req.line.delta_from(access.line());
        let delta_hash = ((delta.unsigned_abs() ^ ((delta < 0) as u64) << 7) & 0xff) as usize;
        let pc_xor_offset = (pc_hash ^ offset) & (FEATURE_TABLE_SIZE - 1);
        let issuer_pc = (pc_hash ^ (req.issuer.index() << 5)) & (FEATURE_TABLE_SIZE - 1);
        [pc_hash, pc_xor_offset, delta_hash, issuer_pc]
    }

    fn sum(&self, features: &[usize; NUM_FEATURES]) -> i32 {
        features.iter().enumerate().map(|(t, &i)| self.weights[t][i]).sum()
    }

    fn train(&mut self, features: &[usize; NUM_FEATURES], useful: bool) {
        let sum = self.sum(features);
        let correct = (sum >= self.filter_threshold) == useful;
        if correct && sum.abs() > TRAINING_THRESHOLD {
            return;
        }
        for (t, &i) in features.iter().enumerate() {
            let w = &mut self.weights[t][i];
            if useful {
                *w = (*w + 1).min(WEIGHT_MAX);
            } else {
                *w = (*w - 1).max(WEIGHT_MIN);
            }
        }
    }
}

impl Selector for PpfFilterSelector {
    fn allocate(
        &mut self,
        access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision {
        IpcpSelector.allocate(access, prefetchers)
    }

    fn select_requests(
        &mut self,
        access: &DemandAccess,
        candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest> {
        let mut prioritized = IpcpSelector.select_requests(access, candidates);
        prioritized.retain(|req| {
            let features = Self::features(access, req);
            if self.sum(&features) >= self.filter_threshold {
                self.pending.insert(req.line, features);
                if self.pending.len() > PENDING_ENTRIES {
                    // Bound the bookkeeping; the map is ordered, so dropping
                    // the smallest line address is deterministic run-to-run
                    // (a HashMap's "first key" would not be).
                    self.pending.pop_first();
                }
                true
            } else {
                // Rejected prefetches still train toward "useless" slowly via
                // an implicit negative outcome when the demand never arrives;
                // PPF proper uses a reject table — approximated by immediate
                // weak negative training.
                self.train(&features, false);
                false
            }
        });
        prioritized
    }

    fn on_prefetch_outcome(&mut self, outcome: &PrefetchOutcome) {
        if let Some(features) = self.pending.remove(&outcome.line) {
            self.train(&features, outcome.useful);
        }
    }

    fn storage_bits(&self) -> u64 {
        // Weight tables (6-bit weights) plus the pending table: per line its
        // feature indices and a partial tag.
        let pending_entry_bits =
            NUM_FEATURES as u64 * u64::from(FEATURE_TABLE_BITS) + PENDING_TAG_BITS;
        (NUM_FEATURES * FEATURE_TABLE_SIZE) as u64 * 6 + PENDING_ENTRIES as u64 * pending_entry_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, Pc, PrefetcherId};
    use prefetch::{build_composite, CompositeKind};

    fn access(pc: u64, addr: u64) -> DemandAccess {
        DemandAccess::load(Pc::new(pc), Addr::new(addr))
    }

    fn req(issuer: usize, line: u64) -> PrefetchRequest {
        PrefetchRequest::new(LineAddr::new(line), Pc::new(0x10), PrefetcherId(issuer))
    }

    #[test]
    fn allocation_is_ipcp_like() {
        let mut ppf = PpfFilterSelector::aggressive();
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let d = ppf.allocate(&access(1, 0x40), &prefetchers);
        assert_eq!(d.allocated_count(), 3);
    }

    /// Offers one candidate per round, reports each prefetch that passes as
    /// useful or not by `useful(round)`, and returns how many were filtered.
    fn count_filtered(
        ppf: &mut PpfFilterSelector,
        a: &DemandAccess,
        issuer: usize,
        first_line: u64,
        rounds: u64,
        useful: impl Fn(u64) -> bool,
    ) -> usize {
        let mut filtered = 0;
        for i in 0..rounds {
            let reqs = ppf.select_requests(a, vec![req(issuer, first_line + i)]);
            filtered += 1 - reqs.len();
            for r in reqs {
                ppf.on_prefetch_outcome(&PrefetchOutcome {
                    issuer: r.issuer,
                    trigger_pc: Some(a.pc),
                    line: r.line,
                    useful: useful(i),
                });
            }
        }
        filtered
    }

    #[test]
    fn useless_feedback_teaches_filtering() {
        let mut ppf = PpfFilterSelector::aggressive();
        let a = access(0x33, 0x8000);
        // Keep issuing the same kind of prefetch and reporting it useless:
        // eventually the perceptron should start rejecting these prefetches.
        assert!(
            count_filtered(&mut ppf, &a, 0, 0x200, 200, |_| false) > 0,
            "aggressive PPF must learn to reject useless prefetches"
        );
    }

    #[test]
    fn useful_feedback_keeps_prefetches_flowing() {
        let mut ppf = PpfFilterSelector::conservative();
        let a = access(0x44, 0x9000);
        assert_eq!(
            count_filtered(&mut ppf, &a, 0, 0x600, 100, |_| true),
            0,
            "conservative PPF with useful prefetches should not filter"
        );
    }

    #[test]
    fn aggressive_filters_more_than_conservative() {
        let a = access(0x55, 0xa000);
        // Mixed outcomes: 50% useful. The aggressive threshold rejects these
        // borderline prefetches earlier than the conservative one.
        let run = |mut ppf| count_filtered(&mut ppf, &a, 1, 0x900, 300, |i| i % 2 == 0);
        assert!(run(PpfFilterSelector::aggressive()) >= run(PpfFilterSelector::conservative()));
    }

    #[test]
    fn pending_table_is_bounded_and_charged() {
        // 4 × 256 six-bit weights, and 4,096 lines × (4 × 8-bit indices + 6):
        // 6,144 + 4,096 × 38 bits.
        for ppf in [PpfFilterSelector::aggressive(), PpfFilterSelector::conservative()] {
            assert_eq!(ppf.storage_bits(), 161_792);
        }
        // Fresh weights pass every prefetch, so each distinct line is pending.
        let mut ppf = PpfFilterSelector::aggressive();
        let a = access(0x66, 0xb000);
        for line in 0..5_000 {
            assert_eq!(ppf.select_requests(&a, vec![req(0, 0x4000 + line)]).len(), 1);
        }
        assert_eq!(ppf.pending.len(), PENDING_ENTRIES);
    }

    #[test]
    fn storage_and_external_filter() {
        assert!(PpfFilterSelector::aggressive().storage_bits() > 0);
        assert!(PpfFilterSelector::aggressive().needs_external_filter());
    }
}
