//! Small hardware-style counters: saturating counters and issued/confirmed
//! ratio counters.
//!
//! These mirror the fields of the paper's Sample Table ("IssuedByP1",
//! "ConfirmedP1", "Demand Counter", "Dead Counter"), all of which are narrow
//! saturating counters in the hardware proposal (Table III: 7–8 bits each).

/// An unsigned saturating counter with a configurable maximum, mirroring the
/// narrow SRAM counters used throughout the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SaturatingCounter {
    value: u32,
    max: u32,
}

impl SaturatingCounter {
    /// Creates a counter saturating at `max` (inclusive), starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`; a zero-width counter is meaningless.
    #[must_use]
    pub fn new(max: u32) -> Self {
        assert!(max > 0, "saturating counter needs a non-zero maximum");
        Self { value: 0, max }
    }

    /// Creates a counter whose maximum is `2^bits - 1`.
    #[must_use]
    pub fn with_bits(bits: u32) -> Self {
        assert!(bits > 0 && bits <= 31, "counter width must be 1..=31 bits");
        Self::new((1 << bits) - 1)
    }

    /// Current value.
    #[must_use]
    pub const fn value(&self) -> u32 {
        self.value
    }

    /// The saturation limit.
    #[must_use]
    pub const fn max(&self) -> u32 {
        self.max
    }

    /// Increments, saturating at the maximum. Returns the new value.
    pub fn increment(&mut self) -> u32 {
        self.value = (self.value + 1).min(self.max);
        self.value
    }

    /// Decrements, saturating at zero. Returns the new value.
    pub fn decrement(&mut self) -> u32 {
        self.value = self.value.saturating_sub(1);
        self.value
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Whether the counter has reached `threshold`.
    #[must_use]
    pub const fn reached(&self, threshold: u32) -> bool {
        self.value >= threshold
    }
}

/// Tracks an issued/confirmed pair and yields an accuracy ratio, as used for
/// per-PC, per-prefetcher prefetching accuracy in the Sample Table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RatioCounter {
    issued: u32,
    confirmed: u32,
}

impl RatioCounter {
    /// Creates a zeroed ratio counter.
    #[must_use]
    pub const fn new() -> Self {
        Self { issued: 0, confirmed: 0 }
    }

    /// Number of issued events recorded.
    #[must_use]
    pub const fn issued(&self) -> u32 {
        self.issued
    }

    /// Number of confirmed events recorded.
    #[must_use]
    pub const fn confirmed(&self) -> u32 {
        self.confirmed
    }

    /// Records `n` issued events (saturating at the 8-bit hardware width times
    /// a generous software margin; saturation only matters for the ratio).
    pub fn record_issued(&mut self, n: u32) {
        self.issued = self.issued.saturating_add(n);
    }

    /// Records one confirmed event. Confirmations never exceed issues.
    pub fn record_confirmed(&mut self) {
        if self.confirmed < self.issued {
            self.confirmed += 1;
        }
    }

    /// Accuracy = confirmed / issued. Returns `None` when nothing was issued,
    /// which the Allocation Table treats as "insufficient data" rather than
    /// zero accuracy.
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        if self.issued == 0 {
            None
        } else {
            Some(f64::from(self.confirmed) / f64::from(self.issued))
        }
    }

    /// Clears both counters (done at every epoch boundary).
    pub fn reset(&mut self) {
        self.issued = 0;
        self.confirmed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_counter_saturates_up_and_down() {
        let mut c = SaturatingCounter::new(3);
        assert_eq!(c.value(), 0);
        assert_eq!(c.decrement(), 0);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.reached(3));
        assert!(!c.reached(4));
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn with_bits_width() {
        let c = SaturatingCounter::with_bits(8);
        assert_eq!(c.max(), 255);
        let c = SaturatingCounter::with_bits(7);
        assert_eq!(c.max(), 127);
    }

    #[test]
    #[should_panic(expected = "non-zero maximum")]
    fn zero_max_panics() {
        let _ = SaturatingCounter::new(0);
    }

    #[test]
    fn ratio_counter_accuracy() {
        let mut r = RatioCounter::new();
        assert_eq!(r.accuracy(), None);
        r.record_issued(4);
        assert_eq!(r.accuracy(), Some(0.0));
        r.record_confirmed();
        r.record_confirmed();
        assert_eq!(r.accuracy(), Some(0.5));
        // confirmations are clamped to issues
        for _ in 0..10 {
            r.record_confirmed();
        }
        assert_eq!(r.accuracy(), Some(1.0));
        r.reset();
        assert_eq!(r.issued(), 0);
        assert_eq!(r.confirmed(), 0);
    }
}
