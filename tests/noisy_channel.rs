//! The noisy-channel backend against the rest of the workspace.
//!
//! With recovery probability 0 and zero noise, `NoisySim` **degrades
//! exactly** to the fatal-collision semantics: the same seeds yield
//! bit-identical `TrialSummary`s through the sweep engine as the windowed
//! backend, and identical full `BatchMetrics` at the simulator level. This
//! is what lets every downstream comparison against "the paper's model" use
//! `NoisySim` at `p = 0` as its baseline.
//!
//! Since `WindowedSim` is *implemented* as a delegation to the shared loop
//! over the ideal channel, the assertions here pin the engine plumbing
//! (experiment tags, config mapping, thread scheduling) rather than two
//! independent executions; the guard against the two window-resolution code
//! paths diverging is `sampled_path_matches_fast_path_bit_for_bit` in
//! `crates/slotted/src/noisy.rs`, which forces the sampled path on an ideal
//! channel and demands bit-equality.

use contention_experiments::aggregate::MetricStats;
use contention_resolution::prelude::*;
use proptest::prelude::*;

/// The bit-exact image of every trial of a sweep: each cell's coordinates
/// and, per metric of [`Metric::ALL`], its trial values as bit patterns (no
/// `==` on floats: even a sign-of-zero drift between the two backends would
/// fail).
fn sweep_bits<S: Simulator>(sweep: Sweep<S>) -> Vec<(AlgorithmKind, u32, Vec<Vec<u64>>)>
where
    TrialSummary: From<S::Output>,
{
    sweep
        .run_fold_monitored(MetricStats::collector(&Metric::ALL), None, None, None)
        .into_iter()
        .map(|c| {
            let samples = c.acc.raw_samples();
            let bits = samples
                .iter()
                .map(|s| s.raw().iter().map(|v| v.to_bits()).collect())
                .collect();
            (c.algorithm, c.n, bits)
        })
        .collect()
}

/// Acceptance criterion: the degenerate `NoisySim` sweep is bit-identical to
/// the `WindowedSim` sweep under the same experiment tag, per seed, through
/// the generic engine.
#[test]
fn degenerate_noisy_sweep_matches_windowed_sweep_bit_for_bit() {
    let algorithms = vec![
        AlgorithmKind::Beb,
        AlgorithmKind::LogBackoff,
        AlgorithmKind::LogLogBackoff,
        AlgorithmKind::Sawtooth,
    ];
    let ns = vec![15, 60, 150];
    let noisy = sweep_bits(Sweep::<NoisySim> {
        experiment: "degenerate-regression",
        config: NoisyConfig::fatal(AlgorithmKind::Beb),
        algorithms: algorithms.clone(),
        ns: ns.clone(),
        trials: 6,
        exec: ExecPolicy::threads(4),
    });
    let windowed = sweep_bits(Sweep::<WindowedSim> {
        experiment: "degenerate-regression",
        config: WindowedConfig::abstract_model(AlgorithmKind::Beb),
        algorithms,
        ns,
        trials: 6,
        exec: ExecPolicy::threads(4),
    });
    assert_eq!(noisy.len(), 12);
    for (nc, wc) in noisy.iter().zip(&windowed) {
        assert_eq!(
            nc, wc,
            "{} n={}: noisy p=0 diverged from windowed",
            nc.0, nc.1
        );
    }
}

/// `run_trial` — the single-trial entry point benches use — agrees too.
#[test]
fn degenerate_single_trials_match() {
    let lone_noisy = run_trial::<NoisySim>(
        "degenerate-lone",
        &NoisyConfig::fatal(AlgorithmKind::Sawtooth),
        77,
        3,
    );
    let lone_windowed = run_trial::<WindowedSim>(
        "degenerate-lone",
        &WindowedConfig::abstract_model(AlgorithmKind::Sawtooth),
        77,
        3,
    );
    assert_eq!(lone_noisy, lone_windowed);
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate equality as a property: any (algorithm, n, trial), full
    /// `BatchMetrics` equality — not just the summary.
    #[test]
    fn fatal_channel_degrades_to_windowed_semantics(
        kind in arb_algorithm(),
        n in 1u32..=120,
        trial in 0u32..1000,
    ) {
        let mut noisy = NoisySim::new(NoisyConfig::fatal(kind));
        let mut rng = trial_rng(experiment_tag("prop-degenerate"), kind, n, trial);
        let a = noisy.run(n, &mut rng);
        let mut windowed = WindowedSim::new(WindowedConfig::abstract_model(kind));
        let mut rng = trial_rng(experiment_tag("prop-degenerate"), kind, n, trial);
        let b = windowed.run(n, &mut rng);
        prop_assert_eq!(a, b);
    }

    /// Conservation over the whole channel family: every packet eventually
    /// lands, attempts balance, and collision accounting stays coherent.
    #[test]
    fn noisy_runs_conserve(
        kind in arb_algorithm(),
        channel in arb_channel(),
        n in 1u32..=100,
        trial in 0u32..1000,
    ) {
        let mut sim = NoisySim::new(NoisyConfig::abstract_model(kind, channel));
        let mut rng = trial_rng(experiment_tag("prop-noisy"), kind, n, trial);
        let m = sim.run(n, &mut rng);
        prop_assert_eq!(m.successes, n);
        prop_assert!(m.attempts_balance());
        prop_assert!(m.colliding_stations >= 2 * m.collisions);
        prop_assert!(m.half_cw_slots <= m.cw_slots);
        prop_assert!(m.stations.iter().all(|s| s.success_time.is_some()));
        // Failures can only come from collision participation or noise; with
        // zero noise they are bounded by collision participation.
        if channel.noise == 0.0 {
            prop_assert!(m.total_ack_timeouts() <= m.colliding_stations);
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
        let med = |channel: ChannelModel| -> u64 {
            let mut xs: Vec<u64> = (0..5).map(|t| {
                let mut sim = NoisySim::new(NoisyConfig::abstract_model(kind, channel));
                let mut rng = trial_rng(experiment_tag("prop-soft-help"), kind, n, trial * 5 + t);
                sim.run(n, &mut rng).cw_slots
            }).collect();
            xs.sort_unstable();
            xs[2]
        };
        prop_assert!(med(ChannelModel::softened(1.0)) <= med(ChannelModel::ideal()));
    }
}
