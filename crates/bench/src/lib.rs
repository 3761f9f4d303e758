//! Shared helpers for the Criterion benches.
//!
//! Each bench target corresponds to one table/figure of the paper (see
//! DESIGN.md's per-experiment index). Criterion measures the *simulator's*
//! runtime on a scaled-down version of the experiment; each bench also runs
//! a once-per-process shape check so `cargo bench` doubles as a smoke test
//! of the reproduction. The `repro` binary is the tool that prints the
//! paper's actual rows/series.
//!
//! All trials route through the generic engine's
//! [`contention_sim::engine::run_trial`], so bench numbers use exactly the
//! same `(experiment tag, algorithm, n, trial)` RNG derivation as the
//! sweeps — a bench trial is bit-identical to the corresponding sweep trial.

use contention_core::algorithm::AlgorithmKind;
use contention_core::metrics::BatchMetrics;
use contention_mac::{MacConfig, MacRun, MacSim};
use contention_sim::engine::run_trial;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::WindowedSim;

/// One MAC trial with the engine's deterministic per-(alg, n, trial) stream.
pub fn mac_trial(experiment: &str, config: &MacConfig, n: u32, trial: u32) -> MacRun {
    run_trial::<MacSim>(experiment, config, n, trial)
}

/// Median of a metric over `trials` MAC runs.
pub fn mac_median(
    experiment: &str,
    config: &MacConfig,
    n: u32,
    trials: u32,
    metric: impl Fn(&MacRun) -> f64,
) -> f64 {
    let mut xs: Vec<f64> = (0..trials)
        .map(|t| metric(&mac_trial(experiment, config, n, t)))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    xs[xs.len() / 2]
}

/// One abstract-simulator trial through the engine.
pub fn abstract_trial(
    experiment: &str,
    config: WindowedConfig,
    n: u32,
    trial: u32,
) -> BatchMetrics {
    run_trial::<WindowedSim>(experiment, &config, n, trial)
}

/// Median of a metric over `trials` abstract runs.
pub fn abstract_median(
    experiment: &str,
    config: WindowedConfig,
    n: u32,
    trials: u32,
    metric: impl Fn(&BatchMetrics) -> f64,
) -> f64 {
    let mut xs: Vec<f64> = (0..trials)
        .map(|t| metric(&abstract_trial(experiment, config, n, t)))
        .collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
    xs[xs.len() / 2]
}

/// The paper's four algorithms, for iteration in benches.
pub fn paper_algorithms() -> [AlgorithmKind; 4] {
    AlgorithmKind::PAPER_SET
}

/// Prints a shape-check verdict in the bench log; panics on failure so a
/// broken reproduction cannot silently "pass" `cargo bench`.
pub fn shape_check(name: &str, ok: bool, detail: &str) {
    if ok {
        eprintln!("[shape-check] {name}: ok ({detail})");
    } else {
        eprintln!("[shape-check] {name}: FAILED ({detail})");
        panic!("shape check {name} failed: {detail}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_sim::engine::{Accumulator, Sweep};
    use contention_sim::summary::TrialSummary;

    #[test]
    fn mac_median_is_deterministic() {
        let config = MacConfig::paper(AlgorithmKind::Beb, 64);
        let a = mac_median("bench-helper", &config, 20, 5, |r| {
            r.metrics.total_time.as_micros_f64()
        });
        let b = mac_median("bench-helper", &config, 20, 5, |r| {
            r.metrics.total_time.as_micros_f64()
        });
        assert_eq!(a, b);
        assert!(a > 0.0);
    }

    #[test]
    fn abstract_trial_completes() {
        let m = abstract_trial(
            "bench-helper-abs",
            WindowedConfig::abstract_model(AlgorithmKind::Sawtooth),
            100,
            0,
        );
        assert_eq!(m.successes, 100);
    }

    #[test]
    fn bench_trials_match_sweep_trials_bit_for_bit() {
        // The whole point of routing benches through the engine: a bench
        // trial and the corresponding sweep trial are the same run.
        let config = MacConfig::paper(AlgorithmKind::LogBackoff, 64);
        let cells = Sweep::<MacSim> {
            experiment: "bench-vs-sweep",
            config,
            algorithms: vec![AlgorithmKind::LogBackoff],
            ns: vec![15],
            trials: 3,
            exec: contention_sim::ExecPolicy::threads(2),
        }
        .run_fold_monitored(|_, _, _| Third::default(), None, None, None);
        let lone = mac_trial("bench-vs-sweep", &config, 15, 2);
        assert_eq!(cells[0].acc.0, Some(TrialSummary::from(lone)));
    }

    /// Keeps the summary of trial 2.
    #[derive(Clone, Default)]
    struct Third(Option<TrialSummary>);

    impl Accumulator<TrialSummary> for Third {
        fn record(&mut self, trial: u32, value: TrialSummary) {
            if trial == 2 {
                self.0 = Some(value);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape check")]
    fn shape_check_panics_on_failure() {
        shape_check("demo", false, "intentional");
    }
}
