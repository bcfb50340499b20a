//! A conventional prefetch filter: a small table of recently issued prefetch
//! lines used to drop duplicate requests.
//!
//! §V-B: "Considering Alecto naturally has a prefetch filter, we additionally
//! add a prefetch filter for other configurations to better reflect
//! real-world conditions." This is that filter. It is deliberately simple —
//! a direct-mapped array of line tags — because its only job is to stop the
//! same line being prefetched over and over by the baselines.

use alecto_types::LineAddr;

/// A direct-mapped recently-prefetched-line filter.
#[derive(Debug, Clone)]
pub struct PrefetchFilter {
    entries: Vec<Option<LineAddr>>,
}

impl PrefetchFilter {
    /// Creates a filter with `entries` slots (must be a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0 && entries.is_power_of_two(), "filter size must be a power of two");
        Self { entries: vec![None; entries] }
    }

    /// The default 512-entry filter (same entry count as Alecto's Sandbox
    /// Table, for a fair baseline).
    #[must_use]
    pub fn default_config() -> Self {
        Self::new(512)
    }

    fn index(&self, line: LineAddr) -> usize {
        (alecto_types::hash::mix64(line.raw()) as usize) & (self.entries.len() - 1)
    }

    /// Returns `true` if the line was recently prefetched and the request
    /// should be dropped; otherwise records it and returns `false`.
    pub fn check_and_insert(&mut self, line: LineAddr) -> bool {
        let idx = self.index(line);
        if self.entries[idx] == Some(line) {
            return true;
        }
        self.entries[idx] = Some(line);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_dropped() {
        let mut f = PrefetchFilter::new(64);
        assert!(!f.check_and_insert(LineAddr::new(10)));
        assert!(f.check_and_insert(LineAddr::new(10)));
    }

    #[test]
    fn distinct_lines_pass() {
        let mut f = PrefetchFilter::new(64);
        let mut dropped = 0;
        for i in 0..32u64 {
            if f.check_and_insert(LineAddr::new(i * 1024 + 7)) {
                dropped += 1;
            }
        }
        assert!(dropped <= 2, "few collisions expected among 32 distinct lines in 64 slots");
    }

    #[test]
    fn capacity_conflicts_eventually_forget() {
        let mut f = PrefetchFilter::new(8);
        assert!(!f.check_and_insert(LineAddr::new(1)));
        // Flood with many other lines: each is new, so none is dropped, and
        // together they overwrite the slot of line 1.
        for i in 2..200u64 {
            assert!(!f.check_and_insert(LineAddr::new(i)), "line {i} was never seen");
        }
        assert!(!f.check_and_insert(LineAddr::new(1)), "line 1 should be forgotten");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = PrefetchFilter::new(100);
    }
}
