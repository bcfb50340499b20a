//! Alecto configuration parameters (§V-B).

/// Tunable parameters of the Alecto framework. The defaults are the values
/// used throughout the paper's evaluation: N = 8, M = 5, c = 3, PB = 0.75,
/// DB = 0.05, a 100-demand epoch and a dead-counter threshold of 150.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlectoConfig {
    /// N — number of epochs a prefetcher stays blocked after falling below DB.
    pub blocked_epochs: u32,
    /// M — maximum aggressive sub-state (degree bonus) of the IA state.
    pub max_aggressive: u32,
    /// c — conservative prefetching degree used in the UI state and as the
    /// L1-filling portion in the IA state.
    pub conservative_degree: u32,
    /// PB — Proficiency Boundary: per-PC accuracy above which a prefetcher is
    /// promoted.
    pub proficiency_boundary: f64,
    /// DB — Deficiency Boundary: per-PC accuracy below which a prefetcher is
    /// blocked.
    pub deficiency_boundary: f64,
    /// Epoch length in demand accesses per PC (the Demand Counter threshold).
    pub epoch_demands: u32,
    /// Dead Counter threshold after which a PC's states are reset to UI.
    pub dead_threshold: u32,
    /// Allocation Table entries (Table III: 64).
    pub allocation_entries: usize,
    /// Sample Table entries (Table III: 64).
    pub sample_entries: usize,
    /// Sandbox Table entries (Table III: 512).
    pub sandbox_entries: usize,
    /// Ablation mode of §VII-A ("Alecto_fix"): when `Some(d)`, a prefetcher in
    /// any IA state issues exactly `d` prefetches into the L1 instead of the
    /// state-dependent `c + m + 1` split, decoupling DDRA from degree control.
    pub fixed_ia_degree: Option<u32>,
}

impl Default for AlectoConfig {
    fn default() -> Self {
        Self {
            blocked_epochs: 8,
            max_aggressive: 5,
            conservative_degree: 3,
            proficiency_boundary: 0.75,
            deficiency_boundary: 0.05,
            epoch_demands: 100,
            dead_threshold: 150,
            allocation_entries: 64,
            sample_entries: 64,
            sandbox_entries: 512,
            fixed_ia_degree: None,
        }
    }
}

impl AlectoConfig {
    /// The ablation configuration of §VII-A: IA-state prefetchers always issue
    /// 6 prefetches (like Bandit6), isolating the benefit of demand request
    /// allocation from dynamic degree adjustment.
    #[must_use]
    pub fn fixed_degree(degree: u32) -> Self {
        Self { fixed_ia_degree: Some(degree), ..Self::default() }
    }

    /// Validates the configuration, panicking on nonsensical parameters.
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are not probabilities, if PB ≤ DB, or if any
    /// table is empty.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.proficiency_boundary)
                && (0.0..=1.0).contains(&self.deficiency_boundary),
            "accuracy boundaries must lie in [0, 1]"
        );
        assert!(self.proficiency_boundary > self.deficiency_boundary, "PB must exceed DB");
        assert!(self.epoch_demands > 0, "epoch length must be non-zero");
        assert!(
            self.allocation_entries > 0 && self.sample_entries > 0 && self.sandbox_entries > 0,
            "tables must have at least one entry"
        );
        assert!(
            self.sandbox_entries.is_power_of_two(),
            "sandbox table is direct-mapped and must be a power of two"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AlectoConfig::default();
        assert_eq!(c.blocked_epochs, 8);
        assert_eq!(c.max_aggressive, 5);
        assert_eq!(c.conservative_degree, 3);
        assert!((c.proficiency_boundary - 0.75).abs() < 1e-12);
        assert!((c.deficiency_boundary - 0.05).abs() < 1e-12);
        assert_eq!(c.epoch_demands, 100);
        assert_eq!(c.dead_threshold, 150);
        assert_eq!(c.allocation_entries, 64);
        assert_eq!(c.sample_entries, 64);
        assert_eq!(c.sandbox_entries, 512);
        assert_eq!(c.fixed_ia_degree, None);
        c.validate();
    }

    #[test]
    fn fixed_degree_mode() {
        let c = AlectoConfig::fixed_degree(6);
        assert_eq!(c.fixed_ia_degree, Some(6));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "PB must exceed DB")]
    fn invalid_boundaries_panic() {
        AlectoConfig { proficiency_boundary: 0.1, deficiency_boundary: 0.5, ..Default::default() }
            .validate();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sandbox_panics() {
        AlectoConfig { sandbox_entries: 500, ..Default::default() }.validate();
    }
}
