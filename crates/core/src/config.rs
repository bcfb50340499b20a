//! Alecto's parameters: the one design point the paper evaluates.
//!
//! | constant | paper | value |
//! |---|---|---|
//! | [`BLOCKED_EPOCHS`] | N, §V-B | 8 |
//! | [`MAX_AGGRESSIVE`] | M, §V-B | 5 |
//! | [`CONSERVATIVE_DEGREE`] | c, §V-B | 3 |
//! | [`PROFICIENCY_BOUNDARY`] | PB, §V-B | 0.75 |
//! | [`DEFICIENCY_BOUNDARY`] | DB, §V-B | 0.05 |
//! | [`EPOCH_DEMANDS`] | epoch length (Demand Counter threshold), §V-B | 100 |
//! | [`DEAD_THRESHOLD`] | Dead Counter threshold, §V-B | 150 |
//! | [`ALLOCATION_ENTRIES`] | Allocation Table entries, Table III | 64 |
//! | [`SAMPLE_ENTRIES`] | Sample Table entries, Table III | 64 |
//! | [`SANDBOX_ENTRIES`] | Sandbox Table entries, Table III | 512 |
//! | [`FIXED_IA_DEGREE`] | Alecto_fix's IA degree, §VII-A | 6 |
//!
//! Only the §VII-A ablation is a setting: [`crate::AlectoSelector::new`]
//! builds full Alecto and [`crate::AlectoSelector::fixed_degree`] builds
//! Alecto_fix.

/// N: epochs a prefetcher stays blocked (IB_-N thawing to IB_0) after its
/// accuracy falls below [`DEFICIENCY_BOUNDARY`].
pub const BLOCKED_EPOCHS: u32 = 8;

/// M: the highest aggressive sub-state IA_M.
pub const MAX_AGGRESSIVE: u32 = 5;

/// c: the degree of a UI prefetcher, and the lines of an IA prefetcher that
/// fill the L1 (the rest of its `c + m + 1` fill the L2).
pub const CONSERVATIVE_DEGREE: u32 = 3;

/// PB, the Proficiency Boundary: a per-PC accuracy at or above it promotes
/// a prefetcher.
pub const PROFICIENCY_BOUNDARY: f64 = 0.75;

/// DB, the Deficiency Boundary: a per-PC accuracy below it blocks a
/// prefetcher.
pub const DEFICIENCY_BOUNDARY: f64 = 0.05;

/// Demand accesses of one PC per epoch (the Demand Counter threshold).
pub const EPOCH_DEMANDS: u32 = 100;

/// Dead Counter value at which a PC's states are reset to UI.
pub const DEAD_THRESHOLD: u32 = 150;

/// Allocation Table entries.
pub const ALLOCATION_ENTRIES: usize = 64;

/// Sample Table entries.
pub const SAMPLE_ENTRIES: usize = 64;

// Both tables are indexed by the demand's PC and every demand touches both,
// so they always hold the same PCs: the model keeps them as one table of
// ALLOCATION_ENTRIES entries, which is exact only while the sizes agree.
const _: () = assert!(
    ALLOCATION_ENTRIES == SAMPLE_ENTRIES,
    "the Allocation and Sample Tables are held as one PC table and need equal sizes"
);

/// Sandbox Table entries (direct-mapped).
pub const SANDBOX_ENTRIES: usize = 512;

/// Alecto_fix: a prefetcher in any IA state issues exactly this many
/// prefetches into the L1 (like Bandit6), decoupling demand request
/// allocation from degree control.
pub const FIXED_IA_DEGREE: u32 = 6;

const _: () = assert!(
    0.0 <= DEFICIENCY_BOUNDARY
        && DEFICIENCY_BOUNDARY < PROFICIENCY_BOUNDARY
        && PROFICIENCY_BOUNDARY <= 1.0,
    "the accuracy boundaries must satisfy 0 <= DB < PB <= 1"
);
const _: () = assert!(EPOCH_DEMANDS > 0, "an epoch needs at least one demand");
const _: () =
    assert!(ALLOCATION_ENTRIES > 0 && SAMPLE_ENTRIES > 0, "the PC-indexed tables need entries");
const _: () = assert!(
    SANDBOX_ENTRIES.is_power_of_two(),
    "the Sandbox Table is direct-mapped and must be a power of two"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        assert_eq!(BLOCKED_EPOCHS, 8);
        assert_eq!(MAX_AGGRESSIVE, 5);
        assert_eq!(CONSERVATIVE_DEGREE, 3);
        assert!((PROFICIENCY_BOUNDARY - 0.75).abs() < 1e-12);
        assert!((DEFICIENCY_BOUNDARY - 0.05).abs() < 1e-12);
        assert_eq!(EPOCH_DEMANDS, 100);
        assert_eq!(DEAD_THRESHOLD, 150);
        assert_eq!(ALLOCATION_ENTRIES, 64);
        assert_eq!(SAMPLE_ENTRIES, 64);
        assert_eq!(SANDBOX_ENTRIES, 512);
        assert_eq!(FIXED_IA_DEGREE, 6);
    }
}
