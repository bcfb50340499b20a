//! A conventional prefetch filter: a small table of recently issued prefetch
//! lines used to drop duplicate requests.
//!
//! §V-B: "Considering Alecto naturally has a prefetch filter, we additionally
//! add a prefetch filter for other configurations to better reflect
//! real-world conditions." This is that filter. It is deliberately simple —
//! a direct-mapped array of line tags — because its only job is to stop the
//! same line being prefetched over and over by the baselines.

use alecto_types::LineAddr;

/// Filter slots: the entry count of Alecto's Sandbox Table, for a fair
/// baseline. Lines index the array by a hash masked to this power of two.
const ENTRIES: usize = 512;
const _: () = assert!(ENTRIES.is_power_of_two());

/// A direct-mapped recently-prefetched-line filter.
#[derive(Debug, Clone)]
pub struct PrefetchFilter {
    entries: Vec<Option<LineAddr>>,
}

impl PrefetchFilter {
    /// The 512-entry filter.
    #[must_use]
    pub fn default_config() -> Self {
        Self { entries: vec![None; ENTRIES] }
    }

    fn index(line: LineAddr) -> usize {
        (alecto_types::hash::mix64(line.raw()) as usize) & (ENTRIES - 1)
    }

    /// Returns `true` if the line was recently prefetched and the request
    /// should be dropped; otherwise records it and returns `false`.
    pub fn check_and_insert(&mut self, line: LineAddr) -> bool {
        let idx = Self::index(line);
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
        let mut f = PrefetchFilter::default_config();
        assert!(!f.check_and_insert(LineAddr::new(10)));
        assert!(f.check_and_insert(LineAddr::new(10)));
    }

    #[test]
    fn distinct_lines_pass() {
        // A slot only ever matches the line it holds, so a collision between
        // distinct lines evicts instead of dropping.
        let mut f = PrefetchFilter::default_config();
        for i in 0..32u64 {
            assert!(!f.check_and_insert(LineAddr::new(i * 1024 + 7)), "new line {i} was dropped");
        }
    }

    #[test]
    fn capacity_conflicts_eventually_forget() {
        let mut f = PrefetchFilter::default_config();
        let one = LineAddr::new(1);
        assert!(!f.check_and_insert(one));
        // The first other line that hashes to line 1's slot overwrites it.
        let rival = (2..)
            .map(LineAddr::new)
            .find(|&l| PrefetchFilter::index(l) == PrefetchFilter::index(one))
            .expect("some line shares the slot");
        assert!(!f.check_and_insert(rival), "{rival:?} was never seen");
        assert!(!f.check_and_insert(one), "line 1 should be forgotten");
    }
}
