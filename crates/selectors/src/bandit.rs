//! The Micro-Armed-Bandit RL selection scheme (Fig. 3c), adapted as in §V-B:
//! each prefetcher's degree is either 0 or X, giving `2^P` arms; the reward is
//! the number of committed instructions observed during the epoch in which an
//! arm was active.
//!
//! Two stock configurations are provided — `Bandit3` (X = 3) and `Bandit6`
//! (X = 6) — plus the extended variant of §VI-H where each prefetcher's degree
//! may take any of `M + 3` values, yielding `(M+3)^P` arms and the storage
//! blow-up the paper criticises.

use alecto_types::{DemandAccess, PrefetchRequest, SplitMix64};
use prefetch::Prefetcher;

use crate::traits::{AllocationDecision, Allocations, DegreeAllocation, Selector};

/// Which stock Bandit variant is being run (affects only the display name and
/// the candidate degree set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Bandit3,
    Bandit6,
    Extended,
}

/// Bandit configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BanditConfig {
    /// Candidate degree values each prefetcher may be assigned.
    pub degree_choices: Vec<u32>,
    /// Number of prefetchers being scheduled.
    pub prefetchers: usize,
    /// Exploration probability of the epsilon-greedy policy.
    pub epsilon: f64,
    /// RNG seed (fixed for reproducible simulations).
    pub seed: u64,
}

impl BanditConfig {
    /// Bandit with on/off degree `x` for `prefetchers` prefetchers (2^P arms).
    #[must_use]
    pub fn on_off(x: u32, prefetchers: usize) -> Self {
        Self { degree_choices: vec![0, x], prefetchers, epsilon: 0.1, seed: 0xa1ec70 }
    }

    /// The extended-arm configuration of §VI-H: degrees {0, c, c+1, ..., c+M+1}.
    #[must_use]
    pub fn extended(c: u32, m: u32, prefetchers: usize) -> Self {
        let mut degree_choices = vec![0];
        for d in c..=(c + m + 1) {
            degree_choices.push(d);
        }
        Self { degree_choices, prefetchers, epsilon: 0.1, seed: 0xa1ec70 }
    }

    /// Number of arms = `choices ^ prefetchers`.
    #[must_use]
    pub fn num_arms(&self) -> usize {
        self.degree_choices.len().pow(self.prefetchers as u32)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ArmState {
    pulls: u64,
    mean_reward: f64,
}

/// The Bandit selector.
#[derive(Debug, Clone)]
pub struct BanditSelector {
    config: BanditConfig,
    variant: Variant,
    arms: Vec<ArmState>,
    current_arm: usize,
    epochs: u64,
    rng: SplitMix64,
}

impl BanditSelector {
    fn new_with_variant(config: BanditConfig, variant: Variant) -> Self {
        let arms = vec![ArmState::default(); config.num_arms()];
        let rng = SplitMix64::new(config.seed);
        // Start from the most aggressive arm (all prefetchers on), which is
        // also what the hardware proposal boots with.
        let current_arm = config.num_arms() - 1;
        Self { config, variant, arms, current_arm, epochs: 0, rng }
    }

    /// Bandit3: every prefetcher degree is 0 or 3.
    #[must_use]
    pub fn bandit3(prefetchers: usize) -> Self {
        Self::new_with_variant(BanditConfig::on_off(3, prefetchers), Variant::Bandit3)
    }

    /// Bandit6: every prefetcher degree is 0 or 6.
    #[must_use]
    pub fn bandit6(prefetchers: usize) -> Self {
        Self::new_with_variant(BanditConfig::on_off(6, prefetchers), Variant::Bandit6)
    }

    /// The extended-arm variant of §VI-H with Alecto's (c, M) degree range.
    #[must_use]
    pub fn extended(c: u32, m: u32, prefetchers: usize) -> Self {
        Self::new_with_variant(BanditConfig::extended(c, m, prefetchers), Variant::Extended)
    }

    /// Configuration in use.
    #[must_use]
    pub const fn config(&self) -> &BanditConfig {
        &self.config
    }

    /// Degree arm `arm` gives prefetcher `prefetcher`: digit `prefetcher` of
    /// `arm` written in base `degree_choices.len()`, least significant first.
    fn arm_degree(&self, arm: usize, prefetcher: usize) -> u32 {
        let base = self.config.degree_choices.len();
        let digit = (0..prefetcher).fold(arm, |rest, _| rest / base) % base;
        self.config.degree_choices[digit]
    }

    /// Index of the arm currently in use.
    #[must_use]
    pub const fn current_arm(&self) -> usize {
        self.current_arm
    }

    /// Number of reward epochs observed so far.
    #[must_use]
    pub const fn epochs(&self) -> u64 {
        self.epochs
    }

    fn pick_next_arm(&mut self) {
        // Epsilon-greedy with optimistic initialisation: unexplored arms are
        // preferred, otherwise the best empirical mean wins.
        if self.rng.chance(self.config.epsilon) {
            self.current_arm = self.rng.below(self.arms.len() as u64) as usize;
            return;
        }
        if let Some(unexplored) = self.arms.iter().position(|a| a.pulls == 0) {
            self.current_arm = unexplored;
            return;
        }
        self.current_arm = self
            .arms
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1.mean_reward.partial_cmp(&b.1.mean_reward).expect("rewards are finite")
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
    }
}

impl Selector for BanditSelector {
    fn name(&self) -> &'static str {
        match self.variant {
            Variant::Bandit3 => "Bandit3",
            Variant::Bandit6 => "Bandit6",
            Variant::Extended => "BanditExt",
        }
    }

    fn allocate(
        &mut self,
        _access: &DemandAccess,
        prefetchers: &[Box<dyn Prefetcher>],
    ) -> AllocationDecision {
        // Bandit does not gate training: every prefetcher observes every
        // demand request; only the output degree is controlled by the arm
        // (prefetchers beyond the configured count get degree 0).
        let mut per_prefetcher = Allocations::filled(prefetchers.len(), None);
        for (i, slot) in per_prefetcher.iter_mut().enumerate() {
            let degree =
                if i < self.config.prefetchers { self.arm_degree(self.current_arm, i) } else { 0 };
            *slot = Some(DegreeAllocation::l1(degree));
        }
        AllocationDecision { per_prefetcher }
    }

    fn select_requests(
        &mut self,
        _access: &DemandAccess,
        candidates: Vec<PrefetchRequest>,
    ) -> Vec<PrefetchRequest> {
        candidates
    }

    fn on_epoch(&mut self, committed_instructions: u64, cycles: u64) {
        let reward = if cycles == 0 { 0.0 } else { committed_instructions as f64 / cycles as f64 };
        let arm = &mut self.arms[self.current_arm];
        arm.pulls += 1;
        arm.mean_reward += (reward - arm.mean_reward) / arm.pulls as f64;
        self.epochs += 1;
        self.pick_next_arm();
    }

    fn storage_bits(&self) -> u64 {
        // §VI-H: 8 bytes per arm.
        8 * 8 * self.config.num_arms() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alecto_types::{Addr, Pc};
    use prefetch::{build_composite, CompositeKind};

    #[test]
    fn arm_counts_match_paper() {
        assert_eq!(BanditSelector::bandit3(3).config().num_arms(), 8);
        assert_eq!(BanditSelector::bandit6(3).config().num_arms(), 8);
        // Extended: M = 5 → M + 3 = 8 values per prefetcher → 8^3 arms.
        let ext = BanditSelector::extended(3, 5, 3);
        assert_eq!(ext.config().num_arms(), 512);
    }

    #[test]
    fn storage_matches_section_vi_h() {
        // Bandit: 8 × #arms bytes = 64 bytes for 8 arms.
        assert_eq!(BanditSelector::bandit6(3).storage_bits(), 64 * 8);
        // Extended: 8 × 8^3 bytes = 4 KB.
        assert_eq!(BanditSelector::extended(3, 5, 3).storage_bits(), 4 * 1024 * 8);
    }

    #[test]
    fn arm_decoding_covers_all_degrees() {
        // `allocate` gives prefetcher i the degree of the current arm's
        // digit i, least significant first.
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let access = DemandAccess::load(Pc::new(1), Addr::new(0x40));
        let totals = |b: &mut BanditSelector, arm: usize| -> Vec<u32> {
            b.current_arm = arm;
            let d = b.allocate(&access, &prefetchers);
            d.per_prefetcher.iter().map(|a| a.unwrap().total).collect()
        };
        let mut b = BanditSelector::bandit3(3);
        assert_eq!(totals(&mut b, 0), [0, 0, 0]);
        assert_eq!(totals(&mut b, 7), [3, 3, 3]);
        assert_eq!(totals(&mut b, 5), [3, 0, 3]); // binary 101
                                                  // The extended arms are base-8 numbers over {0, 3, 4, ..., 9}.
        let mut b = BanditSelector::extended(3, 5, 3);
        let choices = [0, 3, 4, 5, 6, 7, 8, 9];
        for arm in [0, 1, 5, 7, 100, 511] {
            let digits: Vec<u32> =
                [1, 8, 64].iter().map(|&place| choices[arm / place % 8]).collect();
            assert_eq!(totals(&mut b, arm), digits, "arm {arm}");
        }
    }

    #[test]
    fn allocation_uses_current_arm_degrees() {
        let mut b = BanditSelector::bandit6(3);
        let prefetchers = build_composite(CompositeKind::GsCsPmp);
        let d = b.allocate(&DemandAccess::load(Pc::new(1), Addr::new(0x40)), &prefetchers);
        // Initial arm = all prefetchers at degree 6.
        assert!(d.per_prefetcher.iter().all(|a| a.unwrap().total == 6));
        assert_eq!(d.allocated_count(), 3);
    }

    #[test]
    fn learning_prefers_rewarding_arm() {
        let mut b = BanditSelector::bandit3(3);
        // Feed rewards: arm 7 (all on) gets high reward, everything else low.
        for _ in 0..200 {
            let reward = if b.current_arm() == 7 { 2_000 } else { 500 };
            b.on_epoch(reward, 1_000);
        }
        // After convergence the greedy choice should usually be arm 7.
        let mut wins = 0;
        for _ in 0..50 {
            b.on_epoch(if b.current_arm() == 7 { 2_000 } else { 500 }, 1_000);
            if b.current_arm() == 7 {
                wins += 1;
            }
        }
        assert!(wins > 25, "bandit should exploit the best arm most of the time, got {wins}");
    }

    #[test]
    fn extended_bandit_converges_slower() {
        // With 512 arms and the same number of epochs, the extended bandit has
        // explored a much smaller fraction of its arms than the 8-arm bandit.
        let mut small = BanditSelector::bandit6(3);
        let mut big = BanditSelector::extended(3, 5, 3);
        for _ in 0..64 {
            small.on_epoch(1_000, 1_000);
            big.on_epoch(1_000, 1_000);
        }
        let explored_small =
            small.arms.iter().filter(|a| a.pulls > 0).count() as f64 / small.arms.len() as f64;
        let explored_big =
            big.arms.iter().filter(|a| a.pulls > 0).count() as f64 / big.arms.len() as f64;
        assert!(explored_small > explored_big);
    }

    #[test]
    fn zero_cycle_epoch_is_safe() {
        let mut b = BanditSelector::bandit3(3);
        b.on_epoch(100, 0);
        assert_eq!(b.epochs(), 1);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(BanditSelector::bandit3(3).name(), "Bandit3");
        assert_eq!(BanditSelector::bandit6(3).name(), "Bandit6");
        assert_eq!(BanditSelector::extended(3, 5, 3).name(), "BanditExt");
    }
}
