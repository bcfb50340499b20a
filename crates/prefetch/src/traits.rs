//! The [`Prefetcher`] trait and the bookkeeping every prefetcher maintains
//! about its internal metadata table.

use alecto_types::{DemandAccess, LineAddr};

/// The broad pattern family a prefetcher targets. Alecto uses this to apply
//  the temporal-prefetcher special case of transition ① (§IV-A): when both a
/// temporal and a non-temporal prefetcher qualify for promotion, only the
/// non-temporal one is promoted, to conserve temporal metadata storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// Monotonic, dense streams (GS).
    Stream,
    /// Constant-stride patterns (CS).
    Stride,
    /// Spatial bit-pattern prefetchers over pages/regions (PMP, Berti).
    Spatial,
    /// Complex / varying delta sequences (CPLX).
    DeltaComplex,
    /// Temporal (address-correlation) prefetchers with large metadata tables.
    Temporal,
}

impl PrefetcherKind {
    /// Whether this prefetcher family is a temporal prefetcher.
    #[must_use]
    pub const fn is_temporal(self) -> bool {
        matches!(self, PrefetcherKind::Temporal)
    }
}

/// Access statistics of a prefetcher's internal metadata table.
///
/// * `misses` feed Fig. 1 (prefetcher table misses with/without DDRA),
/// * `trainings` feed Fig. 18 (training occurrences, the proxy the paper uses
///   for prefetcher dynamic energy).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of table lookups performed.
    pub lookups: u64,
    /// Lookups that found a matching entry.
    pub hits: u64,
    /// Lookups that missed (no entry for the index/tag).
    pub misses: u64,
    /// Training events that wrote the table.
    pub trainings: u64,
    /// Valid entries displaced to make room for new ones.
    pub evictions: u64,
    /// Prefetch candidate lines produced.
    pub candidates_emitted: u64,
}

/// A hardware prefetcher that is trained on demand accesses and produces
/// candidate prefetch lines.
///
/// The trait is object safe: composites hold `Vec<Box<dyn Prefetcher>>`.
/// `Send` is a supertrait so that a whole simulated system (which owns its
/// prefetchers as trait objects) can be constructed and run on a worker
/// thread of the parallel experiment engine.
pub trait Prefetcher: Send {
    /// Short, stable display name (e.g. `"GS"`, `"PMP"`).
    fn name(&self) -> &'static str;

    /// Pattern family.
    fn kind(&self) -> PrefetcherKind;

    /// Trains the prefetcher on `access` and appends up to `degree` candidate
    /// cache lines to `out`. Candidates must be ordered from most to least
    /// confident so that callers can truncate to a smaller degree.
    ///
    /// A `degree` of zero performs training without emitting candidates
    /// (used by selection schemes that throttle output but not training).
    fn train_and_predict(&mut self, access: &DemandAccess, degree: u32, out: &mut Vec<LineAddr>);

    /// Non-destructive query: does this prefetcher believe the access belongs
    /// to a pattern it can handle (e.g. a confident table entry exists)?
    ///
    /// DOL's coordinator uses this to decide whether to stop passing a demand
    /// request down its static priority chain; the default is a conservative
    /// `false` ("not mine").
    fn probe(&self, access: &DemandAccess) -> bool {
        let _ = access;
        false
    }

    /// Statistics of the internal metadata table.
    fn table_stats(&self) -> &TableStats;

    /// Storage requirement of the prefetcher's metadata in bits, for the
    /// Table III-style storage accounting.
    fn storage_bits(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_temporal_flag() {
        assert!(PrefetcherKind::Temporal.is_temporal());
        assert!(!PrefetcherKind::Stream.is_temporal());
        assert!(!PrefetcherKind::Spatial.is_temporal());
    }
}
