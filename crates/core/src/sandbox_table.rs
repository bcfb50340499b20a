//! The Sandbox Table (Fig. 4): a small, address-indexed record of recently
//! issued prefetch requests.
//!
//! It serves the two purposes described in §III-B and §IV-D:
//!
//! 1. **Usefulness confirmation** — when a later demand request matches an
//!    entry's tag and its (hashed) PC matches the PC recorded for a
//!    prefetcher, that prefetcher's Confirmed counter in the Sample Table is
//!    incremented (step ⑤).
//! 2. **Prefetch filtering** — a new prefetch request whose address already
//!    hits in the table is a duplicate and is dropped (step ⑥), which is why
//!    Alecto does not need the external prefetch filter the baselines get.

use alecto_types::{fold_pc, hash::mix64, LineAddr, Pc};
use prefetch::MAX_COMPOSITE_PREFETCHERS;

use crate::config::SANDBOX_ENTRIES;

/// Width of the folded PC hash stored per prefetcher slot: §IV-C matches it
/// to the logarithm of the entry count, log2(512) = 9.
const PC_HASH_BITS: u32 = SANDBOX_ENTRIES.ilog2();

/// Per-prefetcher slot inside a sandbox entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PrefetcherSlot {
    valid: bool,
    pc_hash: u32,
}

#[derive(Debug, Clone, Copy)]
struct SandboxEntry {
    /// Partial tag of the prefetched line (6 bits in Table III; the model
    /// keeps the full line address for exactness and charges only 6 bits).
    line: LineAddr,
    slots: [PrefetcherSlot; MAX_COMPOSITE_PREFETCHERS],
}

/// The address-indexed Sandbox Table.
#[derive(Debug, Clone)]
pub struct SandboxTable {
    entries: Vec<Option<SandboxEntry>>,
    prefetchers: usize,
    confirmations: u64,
}

impl SandboxTable {
    /// Creates a sandbox table of [`SANDBOX_ENTRIES`] direct-mapped slots for
    /// `prefetchers` prefetchers.
    ///
    /// # Panics
    ///
    /// Panics if `prefetchers` is zero or above [`MAX_COMPOSITE_PREFETCHERS`].
    #[must_use]
    pub fn new(prefetchers: usize) -> Self {
        assert!(prefetchers > 0, "sandbox table needs at least one prefetcher");
        assert!(
            prefetchers <= MAX_COMPOSITE_PREFETCHERS,
            "sandbox table holds at most {MAX_COMPOSITE_PREFETCHERS} prefetchers per entry"
        );
        Self { entries: vec![None; SANDBOX_ENTRIES], prefetchers, confirmations: 0 }
    }

    /// Demand-request confirmations produced.
    #[must_use]
    pub const fn confirmations(&self) -> u64 {
        self.confirmations
    }

    /// The slot `line` maps to.
    fn index(line: LineAddr) -> usize {
        (mix64(line.raw()) as usize) & (SANDBOX_ENTRIES - 1)
    }

    /// Step ⑥: returns `true` (duplicate, drop the request) if `line` already
    /// hits in the table; otherwise records the request for `prefetcher`
    /// triggered by `trigger_pc` and returns `false`.
    pub fn filter_and_record(&mut self, line: LineAddr, prefetcher: usize, trigger_pc: Pc) -> bool {
        assert!(prefetcher < self.prefetchers, "prefetcher index out of range");
        let idx = Self::index(line);
        let pc_hash = fold_pc(trigger_pc, PC_HASH_BITS);
        match &mut self.entries[idx] {
            Some(e) if e.line == line => {
                // Tag hit: duplicate. Still remember that this prefetcher also
                // wanted the line so it can be credited on confirmation.
                e.slots[prefetcher] = PrefetcherSlot { valid: true, pc_hash };
                true
            }
            slot => {
                let mut slots = [PrefetcherSlot::default(); MAX_COMPOSITE_PREFETCHERS];
                slots[prefetcher] = PrefetcherSlot { valid: true, pc_hash };
                *slot = Some(SandboxEntry { line, slots });
                false
            }
        }
    }

    /// Step ④/⑤: checks an incoming demand request against the table and
    /// returns a bitmask of the prefetchers whose recorded (hashed) trigger
    /// PC matches the demand's PC — bit `i` set means prefetcher `i` gets a
    /// Confirmed increment.
    pub fn confirm_demand(&mut self, line: LineAddr, pc: Pc) -> u32 {
        let idx = Self::index(line);
        let pc_hash = fold_pc(pc, PC_HASH_BITS);
        let Some(entry) = &self.entries[idx] else {
            return 0;
        };
        if entry.line != line {
            return 0;
        }
        let matched: u32 = entry
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.valid && s.pc_hash == pc_hash)
            .fold(0, |mask, (i, _)| mask | 1 << i);
        self.confirmations += u64::from(matched.count_ones());
        matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_then_confirm_matching_pc() {
        let mut t = SandboxTable::new(3);
        let pc = Pc::new(0x30b00);
        assert!(!t.filter_and_record(LineAddr::new(100), 2, pc));
        let matched = t.confirm_demand(LineAddr::new(100), pc);
        assert_eq!(matched, 0b100, "bit 2: prefetcher 2 is confirmed");
        assert_eq!(t.confirmations(), 1);
        // Every prefetcher that recorded the line under this PC is credited.
        assert!(t.filter_and_record(LineAddr::new(100), 0, pc));
        assert_eq!(t.confirm_demand(LineAddr::new(100), pc), 0b101);
        assert_eq!(t.confirmations(), 3);
    }

    #[test]
    fn mismatched_pc_does_not_confirm() {
        let mut t = SandboxTable::new(3);
        t.filter_and_record(LineAddr::new(100), 1, Pc::new(0x30b00));
        let matched = t.confirm_demand(LineAddr::new(100), Pc::new(0x30aca));
        assert_eq!(matched, 0);
    }

    #[test]
    fn duplicate_prefetch_is_filtered() {
        let mut t = SandboxTable::new(3);
        assert!(!t.filter_and_record(LineAddr::new(7), 0, Pc::new(0x10)), "the first is recorded");
        assert!(t.filter_and_record(LineAddr::new(7), 1, Pc::new(0x20)), "the second is filtered");
        // Both prefetchers can now be confirmed by their own PCs.
        assert_eq!(t.confirm_demand(LineAddr::new(7), Pc::new(0x10)), 0b01);
        assert_eq!(t.confirm_demand(LineAddr::new(7), Pc::new(0x20)), 0b10);
    }

    #[test]
    fn unknown_line_confirms_nothing() {
        let mut t = SandboxTable::new(2);
        assert_eq!(t.confirm_demand(LineAddr::new(1234), Pc::new(0x40)), 0);
    }

    #[test]
    fn conflicting_lines_overwrite_direct_mapped_slot() {
        let a = LineAddr::new(7);
        let b =
            (8..).map(LineAddr::new).find(|&l| SandboxTable::index(l) == SandboxTable::index(a));
        let b = b.expect("some line shares the slot of line 7");
        let pc = Pc::new(0x40);
        let mut t = SandboxTable::new(1);
        assert!(!t.filter_and_record(a, 0, pc));
        assert!(!t.filter_and_record(b, 0, pc), "a different line is no duplicate");
        assert_eq!(t.confirm_demand(a, pc), 0, "b displaced a");
        assert_eq!(t.confirm_demand(b, pc), 0b1, "b holds the slot");
        assert!(!t.filter_and_record(a, 0, pc), "a is new again");
        assert_eq!(t.confirm_demand(b, pc), 0, "a displaced b");
        assert_eq!(t.confirm_demand(a, pc), 0b1);
        assert!(t.filter_and_record(a, 0, pc), "a is now a duplicate");
    }

    #[test]
    #[should_panic(expected = "at most 4 prefetchers")]
    fn more_prefetchers_than_the_largest_composite_panic() {
        let _ = SandboxTable::new(MAX_COMPOSITE_PREFETCHERS + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_prefetcher_panics() {
        let mut t = SandboxTable::new(2);
        t.filter_and_record(LineAddr::new(1), 5, Pc::new(1));
    }
}
