//! The windowed simulator over lossy channels, trial by trial.
//!
//! A lossy [`ChannelModel`] (softened collisions, per-slot noise) takes the
//! count-only loop's sorted path; the paper's channel takes the occupancy
//! path. `tests/windowed_golden.rs` checks both against a per-station
//! reference bit for bit. Here every collision-fatal, noise-free channel
//! degrades exactly to the paper's windowed semantics, the summaries obey
//! the model's conservation laws, and softening never hurts.

use contention_resolution::prelude::*;
use proptest::prelude::*;

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

fn arb_channel() -> impl Strategy<Value = ChannelModel> {
    let recovery = prop_oneof![
        Just(Recovery::None),
        (0.0..=1.0f64).prop_map(|p| Recovery::Constant { p }),
        (0.0..=1.0f64).prop_map(|base| Recovery::Geometric { base }),
        ((2u32..=6), (0.0..=1.0f64)).prop_map(|(max_k, p)| Recovery::Capture { max_k, p }),
    ];
    // Noise capped well below 1 so every generated run terminates.
    (recovery, 0.0..0.5f64).prop_map(|(recovery, noise)| ChannelModel { recovery, noise })
}

/// Every spelling of a collision-fatal, noise-free channel: no recovery,
/// zero or negative odds, capture of at most one sender, and zero or
/// negative noise.
fn arb_fatal_channel() -> impl Strategy<Value = ChannelModel> {
    let recovery = prop_oneof![
        Just(Recovery::None),
        (-1.0..=0.0f64).prop_map(|p| Recovery::Constant { p }),
        (-1.0..=0.0f64).prop_map(|base| Recovery::Geometric { base }),
        ((0u32..=1), (0.0..=1.0f64)).prop_map(|(max_k, p)| Recovery::Capture { max_k, p }),
        ((2u32..=6), (-1.0..=0.0f64)).prop_map(|(max_k, p)| Recovery::Capture { max_k, p }),
    ];
    let noise = prop_oneof![Just(0.0), -1.0..=0.0f64];
    (recovery, noise).prop_map(|(recovery, noise)| ChannelModel { recovery, noise })
}

fn over(kind: AlgorithmKind, channel: ChannelModel) -> WindowedConfig {
    WindowedConfig {
        channel,
        ..WindowedConfig::abstract_model(kind)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate equality as a property: over any fatal, noise-free
    /// channel, any `(algorithm, n, trial)` yields the paper channel's
    /// summary, every field by bit pattern, and leaves the generator on the
    /// same word. Collisions being fatal, every failed attempt is a station
    /// of a collided slot.
    #[test]
    fn fatal_channel_degrades_to_windowed_semantics(
        kind in arb_algorithm(),
        channel in arb_fatal_channel(),
        n in 1u32..=120,
        trial in 0u32..1000,
    ) {
        let run = |channel| {
            let mut rng = trial_rng(experiment_tag("prop-degenerate"), kind, n, trial);
            let t = <WindowedSim as Simulator>::run(&over(kind, channel), n, &mut rng);
            ((t.n, Metric::ALL.map(|m| m.extract(&t).to_bits())), t, rng)
        };
        let (fatal_bits, fatal, fatal_rng) = run(channel);
        let (paper_bits, _, paper_rng) = run(ChannelModel::ideal());
        prop_assert_eq!(fatal_bits, paper_bits, "{:?}", channel);
        prop_assert_eq!(fatal_rng, paper_rng, "{:?}", channel);
        prop_assert_eq!(fatal.successes, n);
        prop_assert_eq!(fatal.ack_timeouts, fatal.colliding_stations);
    }

    /// Conservation over the whole channel family: every packet eventually
    /// lands and collision accounting stays coherent. The per-station
    /// attempt balance is checked on the reference loop of
    /// `tests/windowed_golden.rs`.
    #[test]
    fn noisy_runs_conserve(
        kind in arb_algorithm(),
        channel in arb_channel(),
        n in 1u32..=100,
        trial in 0u32..1000,
    ) {
        let t = run_trial::<WindowedSim>("prop-noisy", &over(kind, channel), n, trial);
        prop_assert_eq!(t.successes, n);
        prop_assert!(t.colliding_stations >= 2.0 * t.collisions);
        prop_assert!(t.half_cw_slots <= t.cw_slots);
        // Failures can only come from collision participation or noise; with
        // zero noise they are bounded by collision participation.
        if channel.noise == 0.0 {
            prop_assert!(t.ack_timeouts <= t.colliding_stations);
        }
    }

    /// Softening only ever helps: under common random numbers, certain
    /// recovery finishes no later than the fatal channel for the same seed.
    #[test]
    fn certain_recovery_never_hurts(
        kind in prop_oneof![
            Just(AlgorithmKind::Beb),
            Just(AlgorithmKind::LogBackoff),
            Just(AlgorithmKind::Sawtooth),
        ],
        n in 40u32..=120,
        trial in 0u32..200,
    ) {
        // Not a per-seed coupling (the RNG streams diverge after the first
        // recovered collision), so compare medians over a few paired seeds.
        let med = |channel: ChannelModel| -> f64 {
            let config = over(kind, channel);
            let mut xs: Vec<f64> = (0..5)
                .map(|t| run_trial::<WindowedSim>("prop-soft-help", &config, n, trial * 5 + t).cw_slots)
                .collect();
            xs.sort_by(f64::total_cmp);
            xs[2]
        };
        prop_assert!(med(ChannelModel::softened(1.0)) <= med(ChannelModel::ideal()));
    }
}
