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
//!
//! # The constants each event reads
//!
//! Every event fires at a PC's epoch boundary, after [`EPOCH_DEMANDS`]
//! demand accesses of that PC (`SampleTable::record_demand`), and compares
//! the PC's per-prefetcher accuracy over the epoch with the boundaries.
//!
//! * Event ①, UI → IA_0: accuracy ≥ [`PROFICIENCY_BOUNDARY`]. The PC's
//!   other UI prefetchers go to IB_0 unless they fall below DB, and a
//!   temporal prefetcher goes to IB_0 instead when a non-temporal one
//!   qualifies too (`AllocationTable::epoch_transition` finds both).
//! * UI → IB_-N: accuracy < [`DEFICIENCY_BOUNDARY`]; N is
//!   [`BLOCKED_EPOCHS`].
//! * Event ②, IA_0 → UI: accuracy < [`PROFICIENCY_BOUNDARY`].
//! * Event ③, IB_n → IB_n+1: one step per epoch, so IB_-N reaches IB_0 after
//!   [`BLOCKED_EPOCHS`] epochs. IB_0 returns to UI once no prefetcher of the
//!   PC is in IA (`AllocationTable::epoch_transition`).
//! * Event ④, IA_m → IA_m+1: accuracy ≥ [`PROFICIENCY_BOUNDARY`], up to
//!   IA_M with M = [`MAX_AGGRESSIVE`]. IA_m steps down to IA_m-1 when
//!   accuracy < [`DEFICIENCY_BOUNDARY`] and m > 0, and otherwise holds.
//!
//! Outside the epoch, a PC whose Dead Counter reaches [`DEAD_THRESHOLD`]
//! returns every prefetcher to UI (§IV-C). The degree a state grants is the
//! selector's: [`CONSERVATIVE_DEGREE`] in UI; `c + m + 1` in IA_m, of which
//! the first c fill the L1 (§IV-B), or [`FIXED_IA_DEGREE`] L1 lines in
//! Alecto_fix (§VII-A).
//!
//! [`EPOCH_DEMANDS`]: crate::config::EPOCH_DEMANDS
//! [`DEAD_THRESHOLD`]: crate::config::DEAD_THRESHOLD
//! [`CONSERVATIVE_DEGREE`]: crate::config::CONSERVATIVE_DEGREE
//! [`FIXED_IA_DEGREE`]: crate::config::FIXED_IA_DEGREE

use crate::config::{BLOCKED_EPOCHS, DEFICIENCY_BOUNDARY, MAX_AGGRESSIVE, PROFICIENCY_BOUNDARY};

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
pub fn transition(state: PrefetcherState, input: StateTransitionInput) -> PrefetcherState {
    match state {
        PrefetcherState::Unidentified => match input.accuracy {
            Some(acc) if acc >= PROFICIENCY_BOUNDARY => {
                if input.temporal_demotion {
                    // Event ① exception: the temporal prefetcher is demoted in
                    // favour of an equally accurate non-temporal prefetcher.
                    PrefetcherState::Blocked(0)
                } else {
                    PrefetcherState::Aggressive(0)
                }
            }
            Some(acc) if acc < DEFICIENCY_BOUNDARY => PrefetcherState::Blocked(BLOCKED_EPOCHS),
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
            Some(acc) if acc >= PROFICIENCY_BOUNDARY => {
                // Event ④: promote aggressiveness up to M.
                PrefetcherState::Aggressive((m + 1).min(MAX_AGGRESSIVE))
            }
            Some(acc) if acc < DEFICIENCY_BOUNDARY && m > 0 => PrefetcherState::Aggressive(m - 1),
            Some(acc) if acc < PROFICIENCY_BOUNDARY && m == 0 => {
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

    fn input(acc: Option<f64>) -> StateTransitionInput {
        StateTransitionInput { accuracy: acc, another_promoted: false, temporal_demotion: false }
    }

    #[test]
    fn ui_promotes_above_pb() {
        let next = transition(PrefetcherState::Unidentified, input(Some(0.9)));
        assert_eq!(next, PrefetcherState::Aggressive(0));
    }

    #[test]
    fn ui_blocks_below_db() {
        let next = transition(PrefetcherState::Unidentified, input(Some(0.01)));
        assert_eq!(next, PrefetcherState::Blocked(8));
    }

    #[test]
    fn ui_stays_with_middling_accuracy_and_no_promotion() {
        let next = transition(PrefetcherState::Unidentified, input(Some(0.4)));
        assert_eq!(next, PrefetcherState::Unidentified);
        let next = transition(PrefetcherState::Unidentified, input(None));
        assert_eq!(next, PrefetcherState::Unidentified);
    }

    #[test]
    fn ui_goes_to_ib0_when_someone_else_promotes() {
        let i = StateTransitionInput {
            accuracy: Some(0.4),
            another_promoted: true,
            temporal_demotion: false,
        };
        assert_eq!(transition(PrefetcherState::Unidentified, i), PrefetcherState::Blocked(0));
    }

    #[test]
    fn temporal_exception_demotes_despite_high_accuracy() {
        let i = StateTransitionInput {
            accuracy: Some(0.95),
            another_promoted: true,
            temporal_demotion: true,
        };
        assert_eq!(transition(PrefetcherState::Unidentified, i), PrefetcherState::Blocked(0));
    }

    #[test]
    fn ia_climbs_and_saturates_at_m() {
        let mut s = PrefetcherState::Aggressive(0);
        for _ in 0..10 {
            s = transition(s, input(Some(0.9)));
        }
        assert_eq!(s, PrefetcherState::Aggressive(5));
    }

    #[test]
    fn ia0_returns_to_ui_below_pb() {
        assert_eq!(
            transition(PrefetcherState::Aggressive(0), input(Some(0.5))),
            PrefetcherState::Unidentified
        );
    }

    #[test]
    fn ia_m_steps_down_below_db() {
        assert_eq!(
            transition(PrefetcherState::Aggressive(3), input(Some(0.01))),
            PrefetcherState::Aggressive(2)
        );
    }

    #[test]
    fn ia_m_holds_between_db_and_pb() {
        assert_eq!(
            transition(PrefetcherState::Aggressive(3), input(Some(0.5))),
            PrefetcherState::Aggressive(3)
        );
        // Insufficient data also holds the state.
        assert_eq!(
            transition(PrefetcherState::Aggressive(3), input(None)),
            PrefetcherState::Aggressive(3)
        );
    }

    #[test]
    fn ib_thaws_one_epoch_at_a_time() {
        let mut s = PrefetcherState::Blocked(8);
        for expected in (0..8).rev() {
            s = transition(s, input(None));
            assert_eq!(s, PrefetcherState::Blocked(expected));
        }
        // IB_0 stays blocked by itself.
        assert_eq!(transition(s, input(Some(0.9))), PrefetcherState::Blocked(0));
    }

    #[test]
    fn state_predicates() {
        assert!(PrefetcherState::Aggressive(0).is_aggressive());
        assert!(PrefetcherState::Blocked(3).is_blocked());
        assert_eq!(PrefetcherState::default(), PrefetcherState::Unidentified);
    }
}
