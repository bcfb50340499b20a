//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction: address arithmetic, saturating counters,
//! the Alecto state machine, the Sandbox/Sample tables, cache behaviour,
//! the prefetchers' output contracts and the JSON reader's failure mode.

use proptest::prelude::*;

mod addr_props {
    use super::*;
    use alecto_repro::types::{Addr, LineAddr, PageAddr};

    proptest! {
        #[test]
        fn line_and_page_round_trip(raw in any::<u64>()) {
            let addr = Addr::new(raw);
            // The line's base address is never above the original address and
            // within one line of it.
            let base = addr.line().raw() << 6;
            prop_assert!(base <= raw);
            prop_assert!(raw - base < 64);
            // Page/line relationships are consistent.
            prop_assert_eq!(addr.line().page(), addr.page());
            prop_assert!(addr.line().index_in_page() < 64);
        }

        #[test]
        fn line_offsets_are_invertible(line in 0u64..u64::MAX / 4, delta in -1000i64..1000) {
            let l = LineAddr::new(line);
            let moved = l.offset(delta);
            prop_assert_eq!(moved.delta_from(l), delta);
            prop_assert_eq!(moved.offset(-delta), l);
        }

        #[test]
        fn page_lines_stay_in_page(page in 0u64..(1 << 40), idx in 0u64..64) {
            let p = PageAddr::new(page);
            prop_assert_eq!(p.line(idx).page(), p);
        }
    }
}

mod counter_props {
    use super::*;
    use alecto_repro::types::{RatioCounter, SaturatingCounter};

    proptest! {
        #[test]
        fn saturating_counter_stays_in_range(max in 1u32..1000, ops in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut c = SaturatingCounter::new(max);
            for up in ops {
                if up { c.increment(); } else { c.decrement(); }
                prop_assert!(c.value() <= max);
            }
        }

        #[test]
        fn ratio_counter_accuracy_is_a_probability(
            issued in proptest::collection::vec(1u32..5, 0..50),
            confirms in 0usize..200,
        ) {
            let mut r = RatioCounter::new();
            for n in &issued {
                r.record_issued(*n);
            }
            for _ in 0..confirms {
                r.record_confirmed();
            }
            match r.accuracy() {
                None => prop_assert!(issued.is_empty()),
                Some(a) => prop_assert!((0.0..=1.0).contains(&a)),
            }
        }
    }
}

mod state_machine_props {
    use super::*;
    use alecto::config::{BLOCKED_EPOCHS, MAX_AGGRESSIVE};
    use alecto::state::{transition, PrefetcherState, StateTransitionInput};

    fn arb_state() -> impl Strategy<Value = PrefetcherState> {
        prop_oneof![
            Just(PrefetcherState::Unidentified),
            (0u32..=5).prop_map(PrefetcherState::Aggressive),
            (0u32..=8).prop_map(PrefetcherState::Blocked),
        ]
    }

    proptest! {
        #[test]
        fn transitions_stay_within_configured_bounds(
            state in arb_state(),
            accuracy in proptest::option::of(0.0f64..=1.0),
            another in any::<bool>(),
            temporal in any::<bool>(),
        ) {
            let input = StateTransitionInput {
                accuracy,
                another_promoted: another,
                temporal_demotion: temporal,
            };
            let next = transition(state, input);
            match next {
                PrefetcherState::Aggressive(m) => prop_assert!(m <= MAX_AGGRESSIVE),
                PrefetcherState::Blocked(n) => prop_assert!(n <= BLOCKED_EPOCHS),
                PrefetcherState::Unidentified => {}
            }
            // Blocked states only thaw by one per epoch; they never jump to IA.
            if let PrefetcherState::Blocked(n) = state {
                prop_assert!(!next.is_aggressive(), "IB_{n} must not jump straight to IA");
            }
        }

        #[test]
        fn high_accuracy_never_blocks_an_unidentified_non_temporal_prefetcher(
            accuracy in 0.75f64..=1.0,
        ) {
            let input = StateTransitionInput {
                accuracy: Some(accuracy),
                another_promoted: false,
                temporal_demotion: false,
            };
            let next = transition(PrefetcherState::Unidentified, input);
            prop_assert_eq!(next, PrefetcherState::Aggressive(0));
        }
    }
}

mod sandbox_props {
    use super::*;
    use alecto::SandboxTable;
    use alecto_repro::types::{LineAddr, Pc};

    proptest! {
        #[test]
        fn confirmations_only_for_matching_pcs(
            lines in proptest::collection::vec(0u64..10_000, 1..100),
            pcs in proptest::collection::vec(0u64..64, 1..100),
        ) {
            let mut table = SandboxTable::new(3);
            let n = lines.len().min(pcs.len());
            for i in 0..n {
                table.filter_and_record(LineAddr::new(lines[i]), i % 3, Pc::new(pcs[i] << 3));
            }
            // A PC that was never used as a trigger cannot be confirmed
            // (the folded hash of a never-used PC value may collide, but the
            // confirmation count can never exceed the recorded count).
            prop_assert!(table.confirmations() == 0);
            for i in 0..n {
                let _ = table.confirm_demand(LineAddr::new(lines[i]), Pc::new(pcs[i] << 3));
            }
            prop_assert!(table.confirmations() as usize <= n * 3);
        }
    }
}

mod cache_props {
    use super::*;
    use alecto_repro::memsys::{Cache, CacheParams};
    use alecto_repro::types::LineAddr;

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(lines in proptest::collection::vec(0u64..4096, 1..500)) {
            let params = CacheParams { size_bytes: 8 * 1024, ways: 4, latency: 4, miss_latency: 1, mshrs: 8 };
            let capacity = (params.size_bytes / 64) as usize;
            let mut cache = Cache::new(params);
            for &l in &lines {
                cache.fill(LineAddr::new(l), None, None, false);
                prop_assert!(cache.occupancy() <= capacity);
            }
            // Everything resident was one of the filled lines.
            for meta in cache.resident_lines() {
                prop_assert!(lines.contains(&meta.line.raw()));
            }
        }

        #[test]
        fn a_filled_line_hits_until_evicted(lines in proptest::collection::vec(0u64..512, 1..200)) {
            let params = CacheParams { size_bytes: 64 * 1024, ways: 16, latency: 4, miss_latency: 1, mshrs: 8 };
            let mut cache = Cache::new(params);
            for &l in &lines {
                cache.fill(LineAddr::new(l), None, None, false);
                // The cache is larger than the candidate line universe, so the
                // most recently filled line always hits.
                prop_assert!(cache.demand_lookup(LineAddr::new(l), false).is_some());
            }
        }
    }
}

mod prefetcher_props {
    use super::*;
    use alecto_repro::prefetch::{Prefetcher, StreamPrefetcher, StridePrefetcher};
    use alecto_repro::types::{Addr, DemandAccess, Pc};

    proptest! {
        #[test]
        fn stride_prefetcher_respects_degree(
            stride in prop_oneof![Just(64i64), Just(128), Just(-192), Just(320)],
            degree in 0u32..8,
            steps in 4usize..40,
        ) {
            let mut pf = StridePrefetcher::default_config();
            let mut out = Vec::new();
            let base: i64 = 1 << 30;
            for i in 0..steps {
                out.clear();
                let addr = Addr::new((base + stride * i as i64) as u64);
                pf.train_and_predict(&DemandAccess::load(Pc::new(0x40), addr), degree, &mut out);
                prop_assert!(out.len() <= degree as usize);
            }
            // After warm-up the prefetcher emits exactly `degree` candidates.
            if degree > 0 {
                prop_assert_eq!(out.len(), degree as usize);
            }
        }

        #[test]
        fn stream_prefetcher_never_emits_the_trigger_line(
            start in 0u64..(1 << 30),
            degree in 1u32..6,
        ) {
            let mut pf = StreamPrefetcher::default_config();
            let mut out = Vec::new();
            for i in 0..32u64 {
                out.clear();
                let addr = Addr::new((start + i) * 64);
                let access = DemandAccess::load(Pc::new(0x44), addr);
                pf.train_and_predict(&access, degree, &mut out);
                prop_assert!(!out.contains(&access.line()), "prefetching the demand line is useless");
            }
        }
    }
}

mod json_props {
    use super::*;
    use harness::report::json;

    /// JSON tokens and fragments, including escapes and a non-ASCII scalar.
    const TOKENS: [&str; 22] = [
        "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\ud83d", "d8", "0", "-", "1.5", "e+",
        "true", "fals", "null", " ", "\n", "\u{e9}", "\"k\":",
    ];

    proptest! {
        #[test]
        fn deep_nesting_is_an_error_not_a_crash(
            depth in prop_oneof![0usize..256, 0usize..200_000],
            objects in any::<bool>(),
            closed in any::<bool>(),
        ) {
            let (open, close) = if objects { ("{\"a\":", "}") } else { ("[", "]") };
            let mut text = open.repeat(depth);
            text.push('0');
            if closed {
                text.push_str(&close.repeat(depth));
            }
            let parsed = json::parse(&text);
            // The reader accepts 128 levels and rejects anything deeper.
            prop_assert_eq!(parsed.is_ok(), depth <= 128 && (closed || depth == 0));
        }

        #[test]
        fn token_soup_is_parsed_or_rejected(
            picks in proptest::collection::vec(0..TOKENS.len(), 0..64),
        ) {
            let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
            // Any outcome but a panic or a hang is acceptable.
            let _ = json::parse(&text);
        }
    }
}
