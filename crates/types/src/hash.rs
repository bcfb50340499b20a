//! Folded-XOR PC hashing, as used by the Sandbox Table.
//!
//! §IV-C: "Alecto utilizes common hash functions found in Branch Prediction
//! Unit designs. This approach involves dividing the PC address into n
//! segments and applying an XOR operation across these segments to generate a
//! final, compacted hash value... By setting n to correspond with the
//! logarithm of the table's entry count, Alecto significantly decreases the
//! storage overhead."

use crate::addr::Pc;

/// Folds a PC into `bits` bits by XOR-ing successive `bits`-wide segments.
///
/// ```
/// # use alecto_types::{fold_pc, Pc};
/// let h = fold_pc(Pc::new(0x1234_5678_9abc_def0), 9);
/// assert!(h < (1 << 9));
/// // Folding is deterministic.
/// assert_eq!(h, fold_pc(Pc::new(0x1234_5678_9abc_def0), 9));
/// ```
///
/// # Panics
///
/// Panics if `bits` is 0 or greater than 32.
#[must_use]
pub fn fold_pc(pc: Pc, bits: u32) -> u32 {
    assert!(bits > 0 && bits <= 32, "fold width must be 1..=32 bits");
    let mask: u64 = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    let mut value = pc.raw();
    let mut folded: u64 = 0;
    while value != 0 {
        folded ^= value & mask;
        value >>= bits;
    }
    (folded & mask) as u32
}

/// Offset basis of the FNV-1a64 hash ([`fnv1a_64`] starts from this).
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a64 running state — the workspace's canonical
/// content hash. The same function checksums `.altr` trace bodies (`traceio`)
/// and derives [`crate::TraceSource`] fingerprints and sweep-server cell-cache
/// keys (`harness::cellcache`), so a trace's identity means the same thing
/// everywhere. Start from [`FNV1A_OFFSET`] and chain calls to hash
/// incrementally.
///
/// ```
/// # use alecto_types::{fnv1a_64, FNV1A_OFFSET};
/// let whole = fnv1a_64(FNV1A_OFFSET, b"foobar");
/// let chained = fnv1a_64(fnv1a_64(FNV1A_OFFSET, b"foo"), b"bar");
/// assert_eq!(whole, chained);
/// assert_eq!(whole, 0x8594_4171_f739_67e8); // reference FNV-1a64 vector
/// ```
#[must_use]
pub fn fnv1a_64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state = (state ^ u64::from(b)).wrapping_mul(FNV1A_PRIME);
    }
    state
}

/// An FNV-1a-shaped fold of `bytes` from [`FNV1A_OFFSET`] whose multiplier
/// `0x1_0000_01b3` is not the FNV-1a64 prime, so it is not [`fnv1a_64`].
/// Its values are pinned: `traces::derive_seed` seeds every generated trace
/// with it, and persisted fuzz manifests store `fuzz::report_digest`, which
/// is this fold of a report's `Debug` rendering.
#[must_use]
pub fn fnv1a_like_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV1A_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3))
}

/// The splitmix64 state increment, ⌊2^64 / φ⌋; it is odd, so the state
/// walks the full `u64` period.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output finalizer: two xor-shift-multiply rounds and a
/// final xor-shift, a bijection on `u64` that spreads every input bit.
#[must_use]
#[inline]
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One splitmix64 step from state `x`: [`splitmix64_finalize`] of
/// `x + SPLITMIX64_GAMMA`, the word [`crate::SplitMix64::next_u64`] returns
/// from state `x`. Not part of the paper's proposal; the Sandbox Table and
/// the prefetch filter index their tables with it to avoid pathological
/// aliasing in synthetic traces, so its values are pinned.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    splitmix64_finalize(x.wrapping_add(SPLITMIX64_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_stays_in_range() {
        for bits in 1..=20u32 {
            for raw in [0u64, 1, 0xdead_beef, u64::MAX, 0x0040_0a30_b00f_f123] {
                let h = fold_pc(Pc::new(raw), bits);
                assert!(u64::from(h) < (1u64 << bits), "hash {h} out of range for {bits} bits");
            }
        }
    }

    #[test]
    fn fold_zero_is_zero() {
        assert_eq!(fold_pc(Pc::new(0), 9), 0);
    }

    #[test]
    fn fold_differs_for_nearby_pcs_often() {
        // Not a strict requirement, but the folding of distinct low bits must
        // differ when the rest of the PC is identical.
        let a = fold_pc(Pc::new(0x30b00), 9);
        let b = fold_pc(Pc::new(0x30aca), 9);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "fold width")]
    fn zero_width_panics() {
        let _ = fold_pc(Pc::new(1), 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a64 test vectors ("foobar" is the doctest's).
        assert_eq!(fnv1a_64(FNV1A_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn mix64_spreads_small_inputs() {
        let a = mix64(1);
        let b = mix64(2);
        assert_ne!(a, b);
        assert_ne!(a & 0xffff, b & 0xffff);
    }
}
