//! The workspace's one seeded generator.
//!
//! Every seeded draw comes from [`SplitMix64`]: synthetic trace generation,
//! the Bandit selector's ε-greedy exploration and the fuzzer's scenario
//! composition. Its stream is therefore part of the determinism contract —
//! changing any method below moves every generated trace, every committed
//! report byte and every persisted fuzz repro.

use crate::hash::{mix64, SPLITMIX64_GAMMA};

/// A splitmix64 stream (Steele, Lea and Flood, 2014): one `u64` of state,
/// full period, and a pure function of its seed. Not cryptographic.
///
/// ```
/// # use alecto_types::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.below(10) < 10);
/// assert!((0.0..1.0).contains(&a.unit()));
/// ```
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Starts the stream at `seed`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next 64 bits: [`mix64`] of the state, which then advances by
    /// the splitmix64 increment.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        out
    }

    /// A draw in `0..n` by plain modulus: the bias is negligible for the
    /// ranges drawn here, and the arithmetic is trivially reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        self.next_u64() % n
    }

    /// A uniform draw in `[0, 1)` from the top 53 bits of the next word.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p`, as `unit() < p`: never for `p <= 0`,
    /// always for `p >= 1`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_splitmix64_reference_output() {
        // The reference implementation's first outputs for seed 1234567.
        let mut rng = SplitMix64::new(1_234_567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
        assert_eq!(rng.next_u64(), 9_817_491_932_198_370_423);
    }

    #[test]
    fn streams_are_seed_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }

    #[test]
    fn draws_respect_their_ranges() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1_000 {
            assert!(rng.below(13) < 13);
            assert_eq!(rng.below(1), 0);
            assert!((0.0..1.0).contains(&rng.unit()));
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }
}
