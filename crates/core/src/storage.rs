//! Storage-overhead accounting reproducing Table III.
//!
//! Table III: for `P` prefetchers,
//!
//! * Allocation Table: 64 × (valid 1 + tag 9 + 4·P state bits) = 640 + 256·P,
//! * Sample Table: 64 × (valid 1 + tag 9 + 8·P issued + 8·P confirmed +
//!   7 dead + 8 demand) = 1600 + 1024·P,
//! * Sandbox Table / prefetch filter: 512 × (tag 6 + P valid bits)
//!   = 3072 + 512·P,
//!
//! for a total of 5312 + 1792·P bits (≈ 1.30 KB at P = 3, ≈ 760 B excluding
//! the Sandbox Table, which doubles as the prefetch filter every system needs
//! anyway).

use crate::config::{ALLOCATION_ENTRIES, SAMPLE_ENTRIES, SANDBOX_ENTRIES};

/// Per-structure storage requirement in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Allocation Table bits.
    pub allocation_table_bits: u64,
    /// Sample Table bits.
    pub sample_table_bits: u64,
    /// Sandbox Table (prefetch filter) bits.
    pub sandbox_table_bits: u64,
}

impl StorageBreakdown {
    /// Total storage in bits.
    #[must_use]
    pub const fn total_bits(&self) -> u64 {
        self.allocation_table_bits + self.sample_table_bits + self.sandbox_table_bits
    }

    /// Total storage in bytes (rounded up).
    #[must_use]
    pub const fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }

    /// Storage excluding the Sandbox Table, the number the paper quotes as
    /// "approximately 760 bytes" for P = 3 because the Sandbox Table replaces
    /// the prefetch filter the system would need regardless.
    #[must_use]
    pub const fn bits_excluding_sandbox(&self) -> u64 {
        self.allocation_table_bits + self.sample_table_bits
    }

    /// Same as [`StorageBreakdown::bits_excluding_sandbox`], in bytes.
    #[must_use]
    pub const fn bytes_excluding_sandbox(&self) -> u64 {
        self.bits_excluding_sandbox().div_ceil(8)
    }
}

/// Computes the Table III storage breakdown for `prefetchers` prefetchers.
#[must_use]
pub fn storage_breakdown(prefetchers: usize) -> StorageBreakdown {
    let p = prefetchers as u64;
    let alloc_entry_bits = 1 + 9 + 4 * p;
    let sample_entry_bits = 1 + 9 + 8 * p + 8 * p + 7 + 8;
    let sandbox_entry_bits = 6 + p;
    StorageBreakdown {
        allocation_table_bits: ALLOCATION_ENTRIES as u64 * alloc_entry_bits,
        sample_table_bits: SAMPLE_ENTRIES as u64 * sample_entry_bits,
        sandbox_table_bits: SANDBOX_ENTRIES as u64 * sandbox_entry_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_table3_closed_form() {
        for p in 1..=6usize {
            let b = storage_breakdown(p);
            assert_eq!(b.allocation_table_bits, 640 + 256 * p as u64, "allocation table, P={p}");
            assert_eq!(b.sample_table_bits, 1600 + 1024 * p as u64, "sample table, P={p}");
            assert_eq!(b.sandbox_table_bits, 3072 + 512 * p as u64, "sandbox table, P={p}");
            assert_eq!(b.total_bits(), 5312 + 1792 * p as u64, "total, P={p}");
        }
    }

    #[test]
    fn p3_is_about_1_3_kb_total_and_760_b_excluding_sandbox() {
        let b = storage_breakdown(3);
        // 5312 + 1792×3 = 10688 bits = 1336 bytes ≈ 1.30 KB.
        assert_eq!(b.total_bits(), 10_688);
        assert_eq!(b.total_bytes(), 1_336);
        // 2240 + 1280×3 = 6080 bits = 760 bytes.
        assert_eq!(b.bits_excluding_sandbox(), 6_080);
        assert_eq!(b.bytes_excluding_sandbox(), 760);
        // The headline claim: under 1 KB of Alecto-specific storage.
        assert!(b.bytes_excluding_sandbox() < 1024);
    }

    #[test]
    fn storage_scales_linearly_not_exponentially() {
        let p3 = storage_breakdown(3).total_bits();
        let p6 = storage_breakdown(6).total_bits();
        // Doubling the prefetcher count less than doubles the storage, in
        // contrast to Bandit's #actions^P growth.
        assert!(p6 < 2 * p3);
    }
}
