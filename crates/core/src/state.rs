//! The per-PC, per-prefetcher state machine of the Allocation Table (Fig. 5).
//!
//! Every prefetcher is, for a given memory-access instruction, in one of three
//! states:
//!
//! * **UI** (Un-Identified) — suitability unknown; the prefetcher trains with
//!   the conservative degree `c`,
//! * **IA_m** (Identified and Aggressive, m ∈ 0..=M) — the prefetcher is
//!   accurate; it trains with degree `c + m + 1`,
//! * **IB_n** (Identified and Blocked, n ∈ -N..=0) — the prefetcher is
//!   unsuitable; it receives no demand requests while it thaws one sub-state
//!   per epoch.

use crate::config::AlectoConfig;

/// The state of one prefetcher for one memory-access instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum PrefetcherState {
    /// Un-Identified: suitability not yet determined.
    #[default]
    Unidentified,
    /// Identified and Aggressive with sub-state `m` (0..=M).
    Aggressive(u32),
    /// Identified and Blocked with sub-state `n` stored as epochs remaining
    /// (N..=0); `Blocked(0)` is the IB_0 state ready for reconsideration.
    Blocked(u32),
}

impl PrefetcherState {
    /// Whether the prefetcher is in any IA sub-state.
    #[must_use]
    pub const fn is_aggressive(&self) -> bool {
        matches!(self, PrefetcherState::Aggressive(_))
    }

    /// Whether the prefetcher is in any IB sub-state.
    #[must_use]
    pub const fn is_blocked(&self) -> bool {
        matches!(self, PrefetcherState::Blocked(_))
    }
}

/// Inputs to one epoch-boundary state transition of a single prefetcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTransitionInput {
    /// Per-PC prefetching accuracy measured over the epoch, or `None` when the
    /// prefetcher issued nothing (insufficient data).
    pub accuracy: Option<f64>,
    /// Whether *some other* prefetcher qualifies for promotion this epoch
    /// (drives the "remaining prefetchers go to IB_0" part of event ①).
    pub another_promoted: bool,
    /// Whether this prefetcher is denied promotion by the temporal-prefetcher
    /// exception of event ① (a non-temporal prefetcher is being promoted at
    /// the same time).
    pub temporal_demotion: bool,
}

/// Applies one epoch-boundary transition (events ①–④ of Fig. 5) and returns
/// the next state.
#[must_use]
pub fn transition(
    state: PrefetcherState,
    input: StateTransitionInput,
    config: &AlectoConfig,
) -> PrefetcherState {
    let pb = config.proficiency_boundary;
    let db = config.deficiency_boundary;
    match state {
        PrefetcherState::Unidentified => match input.accuracy {
            Some(acc) if acc >= pb => {
                if input.temporal_demotion {
                    // Event ① exception: the temporal prefetcher is demoted in
                    // favour of an equally accurate non-temporal prefetcher.
                    PrefetcherState::Blocked(0)
                } else {
                    PrefetcherState::Aggressive(0)
                }
            }
            Some(acc) if acc < db => PrefetcherState::Blocked(config.blocked_epochs),
            Some(_) | None => {
                if input.another_promoted {
                    // Event ①: prefetchers not meeting PB while another is
                    // promoted are transitioned to IB_0.
                    PrefetcherState::Blocked(0)
                } else {
                    PrefetcherState::Unidentified
                }
            }
        },
        PrefetcherState::Aggressive(m) => match input.accuracy {
            Some(acc) if acc >= pb => {
                // Event ④: promote aggressiveness up to M.
                PrefetcherState::Aggressive((m + 1).min(config.max_aggressive))
            }
            Some(acc) if acc < db && m > 0 => PrefetcherState::Aggressive(m - 1),
            Some(acc) if acc < pb && m == 0 => {
                // Event ②: IA_0 falling below PB returns to UI.
                PrefetcherState::Unidentified
            }
            _ => PrefetcherState::Aggressive(m),
        },
        PrefetcherState::Blocked(n) => {
            if n > 0 {
                // Event ③: thaw one sub-state per epoch.
                PrefetcherState::Blocked(n - 1)
            } else {
                // IB_0 stays blocked; reconsideration to UI is applied by the
                // Allocation Table when no prefetcher remains in IA.
                PrefetcherState::Blocked(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AlectoConfig {
        AlectoConfig::default()
    }

    fn input(acc: Option<f64>) -> StateTransitionInput {
        StateTransitionInput { accuracy: acc, another_promoted: false, temporal_demotion: false }
    }

    #[test]
    fn ui_promotes_above_pb() {
        let next = transition(PrefetcherState::Unidentified, input(Some(0.9)), &cfg());
        assert_eq!(next, PrefetcherState::Aggressive(0));
    }

    #[test]
    fn ui_blocks_below_db() {
        let next = transition(PrefetcherState::Unidentified, input(Some(0.01)), &cfg());
        assert_eq!(next, PrefetcherState::Blocked(8));
    }

    #[test]
    fn ui_stays_with_middling_accuracy_and_no_promotion() {
        let next = transition(PrefetcherState::Unidentified, input(Some(0.4)), &cfg());
        assert_eq!(next, PrefetcherState::Unidentified);
        let next = transition(PrefetcherState::Unidentified, input(None), &cfg());
        assert_eq!(next, PrefetcherState::Unidentified);
    }

    #[test]
    fn ui_goes_to_ib0_when_someone_else_promotes() {
        let i = StateTransitionInput {
            accuracy: Some(0.4),
            another_promoted: true,
            temporal_demotion: false,
        };
        assert_eq!(
            transition(PrefetcherState::Unidentified, i, &cfg()),
            PrefetcherState::Blocked(0)
        );
    }

    #[test]
    fn temporal_exception_demotes_despite_high_accuracy() {
        let i = StateTransitionInput {
            accuracy: Some(0.95),
            another_promoted: true,
            temporal_demotion: true,
        };
        assert_eq!(
            transition(PrefetcherState::Unidentified, i, &cfg()),
            PrefetcherState::Blocked(0)
        );
    }

    #[test]
    fn ia_climbs_and_saturates_at_m() {
        let mut s = PrefetcherState::Aggressive(0);
        for _ in 0..10 {
            s = transition(s, input(Some(0.9)), &cfg());
        }
        assert_eq!(s, PrefetcherState::Aggressive(5));
    }

    #[test]
    fn ia0_returns_to_ui_below_pb() {
        assert_eq!(
            transition(PrefetcherState::Aggressive(0), input(Some(0.5)), &cfg()),
            PrefetcherState::Unidentified
        );
    }

    #[test]
    fn ia_m_steps_down_below_db() {
        assert_eq!(
            transition(PrefetcherState::Aggressive(3), input(Some(0.01)), &cfg()),
            PrefetcherState::Aggressive(2)
        );
    }

    #[test]
    fn ia_m_holds_between_db_and_pb() {
        assert_eq!(
            transition(PrefetcherState::Aggressive(3), input(Some(0.5)), &cfg()),
            PrefetcherState::Aggressive(3)
        );
        // Insufficient data also holds the state.
        assert_eq!(
            transition(PrefetcherState::Aggressive(3), input(None), &cfg()),
            PrefetcherState::Aggressive(3)
        );
    }

    #[test]
    fn ib_thaws_one_epoch_at_a_time() {
        let mut s = PrefetcherState::Blocked(8);
        for expected in (0..8).rev() {
            s = transition(s, input(None), &cfg());
            assert_eq!(s, PrefetcherState::Blocked(expected));
        }
        // IB_0 stays blocked by itself.
        assert_eq!(transition(s, input(Some(0.9)), &cfg()), PrefetcherState::Blocked(0));
    }

    #[test]
    fn state_predicates() {
        assert!(PrefetcherState::Aggressive(0).is_aggressive());
        assert!(PrefetcherState::Blocked(3).is_blocked());
        assert_eq!(PrefetcherState::default(), PrefetcherState::Unidentified);
    }
}
