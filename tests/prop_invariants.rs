//! Property-based tests over the whole stack.

use contention_resolution::prelude::*;
use proptest::prelude::*;

/// Algorithms whose completion time is sane for any batch the tests draw.
/// `Fixed` windows are kept ≥ 256 (> every generated `n`): a fixed window
/// far below `n` never decongests and the run time explodes combinatorially
/// — a real property of fixed backoff, not a bug worth fuzzing into.
fn arb_algorithm() -> impl Strategy<Value = AlgorithmKind> {
    prop_oneof![
        Just(AlgorithmKind::Beb),
        Just(AlgorithmKind::LogBackoff),
        Just(AlgorithmKind::LogLogBackoff),
        Just(AlgorithmKind::Sawtooth),
        (256u32..=1024).prop_map(|window| AlgorithmKind::Fixed { window }),
        (1u32..=3).prop_map(|degree| AlgorithmKind::Polynomial { degree }),
    ]
}

fn arb_mac_algorithm() -> impl Strategy<Value = AlgorithmKind> {
    prop_oneof![
        arb_algorithm(),
        (2u32..=7).prop_map(|k| AlgorithmKind::BestOfK { k }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every schedule is positive, capped, and replays identically after
    /// reset.
    #[test]
    fn schedules_are_capped_and_replayable(
        kind in arb_algorithm(),
        cw_max in 8u32..=4096,
        len in 1usize..=64,
    ) {
        let trunc = Truncation { cw_min: 1, cw_max };
        let Some(mut schedule) = kind.schedule(trunc) else { return Ok(()); };
        let first = schedule.take_windows(len);
        schedule.reset();
        let second = schedule.take_windows(len);
        prop_assert_eq!(&first, &second);
        for (i, w) in first.iter().enumerate() {
            prop_assert!(*w >= 1, "{kind:?} window {i} is zero");
            prop_assert!(*w <= cw_max, "{kind:?} window {i} = {w} over cap");
        }
    }

    /// Monotone algorithms never shrink their window.
    #[test]
    fn monotone_schedules_do_not_shrink(
        kind in prop_oneof![
            Just(AlgorithmKind::Beb),
            Just(AlgorithmKind::LogBackoff),
            Just(AlgorithmKind::LogLogBackoff),
            (1u32..=3).prop_map(|degree| AlgorithmKind::Polynomial { degree }),
        ],
        len in 2usize..=64,
    ) {
        let mut schedule = kind.schedule(Truncation::unbounded()).expect("schedule");
        let windows = schedule.take_windows(len);
        for pair in windows.windows(2) {
            prop_assert!(pair[1] >= pair[0], "{kind:?}: {windows:?}");
        }
    }

    /// Abstract windowed runs conserve packets and collision accounting for
    /// arbitrary (algorithm, n, seed). The per-station attempt balance is
    /// checked on the reference loop of `tests/windowed_golden.rs`.
    #[test]
    fn windowed_runs_conserve(
        kind in arb_algorithm(),
        n in 1u32..=120,
        trial in 0u32..1000,
    ) {
        let config = WindowedConfig::abstract_model(kind);
        let t = run_trial::<WindowedSim>("prop-windowed", &config, n, trial);
        prop_assert_eq!(t.successes, n);
        prop_assert!(t.colliding_stations >= 2.0 * t.collisions);
        prop_assert!(t.half_cw_slots <= t.cw_slots);
        prop_assert!(t.cw_slots >= n as f64, "all n packets need ≥ n slots");
    }

    /// Residual-timer runs conserve too.
    #[test]
    fn residual_runs_conserve(
        kind in arb_algorithm(),
        n in 1u32..=120,
        trial in 0u32..1000,
    ) {
        let mut config = ResidualConfig::paper(kind);
        config.truncation = Truncation::unbounded();
        let mut sim = ResidualSim::new(config);
        let mut rng = trial_rng(experiment_tag("prop-residual"), kind, n, trial);
        let m = sim.run(n, &mut rng);
        prop_assert_eq!(m.successes, n);
        prop_assert!(m.attempts_balance());
        prop_assert!(m.half_cw_slots <= m.cw_slots);
    }

    /// MAC runs satisfy the full invariant set for arbitrary algorithms,
    /// sizes, payloads and seeds.
    #[test]
    fn mac_runs_conserve(
        kind in arb_mac_algorithm(),
        n in 1u32..=60,
        payload in prop_oneof![Just(12u32), Just(64), Just(300), Just(1024)],
        trial in 0u32..1000,
    ) {
        let config = MacConfig::paper(kind, payload);
        let mut rng = trial_rng(experiment_tag("prop-mac"), kind, n, trial);
        let run = simulate(&config, n, &mut rng);
        let m = &run.metrics;
        prop_assert_eq!(m.successes, n, "incomplete run");
        prop_assert!(m.attempts_balance());
        prop_assert!(m.half_time <= m.total_time);
        prop_assert!(m.half_cw_slots <= m.cw_slots);
        // Total time is at least the serial transmission floor.
        let phy = Phy80211g::paper_defaults();
        let floor = phy.data_frame_time(payload) * n as u64;
        prop_assert!(m.total_time > floor);
        for s in &m.stations {
            prop_assert!(s.attempts == s.ack_timeouts + 1);
            prop_assert!(s.success_time.expect("done") <= m.total_time);
        }
        // BEST-OF-k runs must estimate every station; others never do.
        let estimated = run.estimates.iter().filter(|e| e.is_some()).count() as u32;
        match kind {
            AlgorithmKind::BestOfK { .. } => prop_assert_eq!(estimated, n),
            _ => prop_assert_eq!(estimated, 0),
        }
    }

    /// The statistics pipeline never produces an interval that misses its
    /// own median, and the outlier filter never drops everything.
    #[test]
    fn stats_pipeline_is_sane(values in prop::collection::vec(0.0f64..1e6, 4..200)) {
        let kept = contention_stats::outliers::without_outliers(&values);
        prop_assert!(!kept.is_empty());
        let med = contention_stats::summary::median(&kept);
        let (lo, hi) = contention_stats::ci::median_ci95(&kept);
        prop_assert!(lo <= med && med <= hi);
        let s = Summary::of(&kept);
        prop_assert!(s.min <= s.q1 && s.q1 <= s.median);
        prop_assert!(s.median <= s.q3 && s.q3 <= s.max);
    }

    /// The cost model is monotone: more collisions or more slots never
    /// reduce predicted total time.
    #[test]
    fn cost_model_is_monotone(
        payload in 12u32..=2000,
        c in 0u64..10_000,
        w in 0u64..100_000,
    ) {
        let phy = Phy80211g::paper_defaults();
        let model = CostModel::for_payload(&phy, payload);
        let base = model.total_time(c, w);
        prop_assert!(model.total_time(c + 1, w) > base);
        prop_assert!(model.total_time(c, w + 1) > base);
    }
}
