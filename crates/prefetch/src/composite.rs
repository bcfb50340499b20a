//! Composite prefetcher bundles: the fixed sets of prefetchers the paper's
//! selection algorithms schedule.
//!
//! §V-B: every selection algorithm (IPCP, DOL, Bandit, Alecto) schedules the
//! *same* composite; the default is GS + CS + PMP (Arm Neoverse V2-like), the
//! alternate composite of Fig. 11 is GS + Berti + CPLX, and the temporal
//! experiments of Fig. 13/14 append a temporal prefetcher.

use crate::berti::BertiPrefetcher;
use crate::cplx::CplxPrefetcher;
use crate::pmp::PmpPrefetcher;
use crate::stream::StreamPrefetcher;
use crate::stride::StridePrefetcher;
use crate::temporal::TemporalPrefetcher;
use crate::traits::Prefetcher;

/// The most prefetchers any [`CompositeKind`] holds (the temporal bundle's
/// four). Selection state sized per prefetcher is stored inline at this
/// capacity, so deciding an allocation never touches the heap.
pub const MAX_COMPOSITE_PREFETCHERS: usize = 4;

/// Which composite prefetcher bundle to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompositeKind {
    /// GS + CS + PMP — the paper's default composite (Figs. 8–10, 15–20).
    GsCsPmp,
    /// GS + Berti + CPLX — the alternate composite of Fig. 11.
    GsBertiCplx,
    /// GS + CS + PMP + temporal prefetcher — the Fig. 13/14 configuration.
    GsCsPmpTemporal {
        /// Metadata budget of the temporal prefetcher in bytes.
        metadata_bytes: u64,
    },
    /// PMP alone (non-composite baseline of Fig. 12).
    PmpOnly,
    /// Berti alone (non-composite baseline of Fig. 12).
    BertiOnly,
}

impl CompositeKind {
    /// Human-readable label used in harness output.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CompositeKind::GsCsPmp => "GS+CS+PMP".to_string(),
            CompositeKind::GsBertiCplx => "GS+Berti+CPLX".to_string(),
            CompositeKind::GsCsPmpTemporal { metadata_bytes } => {
                format!("GS+CS+PMP+TP({}KB)", metadata_bytes / 1024)
            }
            CompositeKind::PmpOnly => "PMP".to_string(),
            CompositeKind::BertiOnly => "Berti".to_string(),
        }
    }

    /// Number of prefetchers in the bundle.
    #[must_use]
    pub const fn prefetcher_count(&self) -> usize {
        match self {
            CompositeKind::GsCsPmp | CompositeKind::GsBertiCplx => 3,
            CompositeKind::GsCsPmpTemporal { .. } => 4,
            CompositeKind::PmpOnly | CompositeKind::BertiOnly => 1,
        }
    }
}

/// Builds the prefetcher instances of a composite bundle.
///
/// The returned order is stable and is the priority order the static
/// selection algorithms (IPCP, DOL) assume: stream > stride > spatial
/// (> temporal).
#[must_use]
pub fn build_composite(kind: CompositeKind) -> Vec<Box<dyn Prefetcher>> {
    match kind {
        CompositeKind::GsCsPmp => vec![
            Box::new(StreamPrefetcher::default_config()),
            Box::new(StridePrefetcher::default_config()),
            Box::new(PmpPrefetcher::default_config()),
        ],
        CompositeKind::GsBertiCplx => vec![
            Box::new(StreamPrefetcher::default_config()),
            Box::new(BertiPrefetcher::default_config()),
            Box::new(CplxPrefetcher::default_config()),
        ],
        CompositeKind::GsCsPmpTemporal { metadata_bytes } => vec![
            Box::new(StreamPrefetcher::default_config()),
            Box::new(StridePrefetcher::default_config()),
            Box::new(PmpPrefetcher::default_config()),
            Box::new(TemporalPrefetcher::new(metadata_bytes)),
        ],
        CompositeKind::PmpOnly => vec![Box::new(PmpPrefetcher::default_config())],
        CompositeKind::BertiOnly => vec![Box::new(BertiPrefetcher::default_config())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::PrefetcherKind;

    #[test]
    fn default_composite_matches_table2() {
        let pfs = build_composite(CompositeKind::GsCsPmp);
        assert_eq!(pfs.len(), 3);
        assert_eq!(pfs[0].name(), "GS");
        assert_eq!(pfs[1].name(), "CS");
        assert_eq!(pfs[2].name(), "PMP");
        assert_eq!(CompositeKind::GsCsPmp.prefetcher_count(), 3);
    }

    #[test]
    fn alternate_composite() {
        let pfs = build_composite(CompositeKind::GsBertiCplx);
        let names: Vec<_> = pfs.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["GS", "Berti", "CPLX"]);
    }

    #[test]
    fn temporal_composite_has_temporal_last() {
        let kind = CompositeKind::GsCsPmpTemporal { metadata_bytes: 512 * 1024 };
        let pfs = build_composite(kind);
        assert_eq!(pfs.len(), 4);
        assert!(pfs[3].kind().is_temporal());
        assert_eq!(pfs[3].kind(), PrefetcherKind::Temporal);
        assert_eq!(kind.label(), "GS+CS+PMP+TP(512KB)");
    }

    #[test]
    fn non_composite_bundles() {
        assert_eq!(build_composite(CompositeKind::PmpOnly).len(), 1);
        assert_eq!(build_composite(CompositeKind::BertiOnly)[0].name(), "Berti");
        assert_eq!(CompositeKind::PmpOnly.label(), "PMP");
    }

    #[test]
    fn every_composite_fits_the_inline_capacity() {
        let kinds = [
            CompositeKind::GsCsPmp,
            CompositeKind::GsBertiCplx,
            CompositeKind::GsCsPmpTemporal { metadata_bytes: 64 * 1024 },
            CompositeKind::PmpOnly,
            CompositeKind::BertiOnly,
        ];
        for kind in kinds {
            // Exhaustive on purpose: a new variant must be listed above.
            match kind {
                CompositeKind::GsCsPmp
                | CompositeKind::GsBertiCplx
                | CompositeKind::GsCsPmpTemporal { .. }
                | CompositeKind::PmpOnly
                | CompositeKind::BertiOnly => {}
            }
            assert_eq!(build_composite(kind).len(), kind.prefetcher_count());
            assert!(kind.prefetcher_count() <= MAX_COMPOSITE_PREFETCHERS, "{kind:?}");
        }
        // The capacity is exactly the largest bundle, not a guess.
        assert_eq!(
            kinds.iter().map(CompositeKind::prefetcher_count).max(),
            Some(MAX_COMPOSITE_PREFETCHERS)
        );
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            CompositeKind::GsCsPmp.label(),
            CompositeKind::GsBertiCplx.label(),
            CompositeKind::PmpOnly.label(),
            CompositeKind::BertiOnly.label(),
        ];
        let mut dedup = labels.to_vec();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
