//! The windowed simulator over lossy channels against closed-form
//! expectations at small fixed `n` (`tests/abstract_vs_theory.rs` style, for
//! the softened model).
//!
//! With `n` and the window size `W` fixed, slot outcomes are simple enough
//! to integrate by hand; the simulator's sample means must land on the
//! formulas. The trial RNG derivation is deterministic, so these checks are
//! exact regressions, not flaky statistics — tolerances are ≥ 4 standard
//! errors at the chosen trial counts.

use contention_resolution::prelude::*;

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn run_trials(
    config: WindowedConfig,
    n: u32,
    trials: u32,
    f: impl Fn(&TrialSummary) -> f64,
) -> Vec<f64> {
    (0..trials)
        .map(|t| f(&run_trial::<WindowedSim>("noisy-theory", &config, n, t)))
        .collect()
}

/// One window size `w` over `channel`, stopped after `max_windows` windows
/// (0 = run to completion).
fn fixed(w: u32, channel: ChannelModel, max_windows: u32) -> WindowedConfig {
    WindowedConfig {
        channel,
        max_windows,
        ..WindowedConfig::abstract_model(AlgorithmKind::Fixed { window: w })
    }
}

/// A lone station on a noisy channel: each window is an independent
/// Bernoulli(1 − noise) try, so attempts-to-success is geometric with mean
/// `1 / (1 − noise)`.
#[test]
fn lone_station_attempts_are_geometric_in_the_noise() {
    let noise = 0.3;
    let config = fixed(16, ChannelModel::noisy(noise), 0);
    // A lone station's attempts are its one success plus its ACK timeouts.
    let attempts = run_trials(config, 1, 2_000, |t| t.ack_timeouts + 1.0);
    let expected = 1.0 / (1.0 - noise); // ≈ 1.4286
    let got = mean(&attempts);
    assert!(
        (got - expected).abs() < 0.08,
        "mean attempts {got:.4} vs geometric expectation {expected:.4}"
    );
}

/// Two stations, one window of size `W`, constant recovery `p`, noise `f`:
///
/// ```text
/// E[successes] = (1 − f) · (2·(1 − 1/W) + p/W)
/// ```
///
/// (distinct slots with probability `1 − 1/W` → both delivered unless the
/// slot is erased; same slot with probability `1/W` → one delivered with
/// probability `p`; every occupied slot is erased independently with
/// probability `f`).
#[test]
fn first_window_throughput_matches_closed_form() {
    let (w, p, f) = (4u32, 0.6, 0.2);
    let channel = ChannelModel {
        recovery: Recovery::Constant { p },
        noise: f,
    };
    let config = fixed(w, channel, 1);
    let successes = run_trials(config, 2, 4_000, |t| t.successes as f64);
    let expected = (1.0 - f) * (2.0 * (1.0 - 1.0 / w as f64) + p / w as f64); // = 1.32
    let got = mean(&successes);
    assert!(
        (got - expected).abs() < 0.05,
        "mean first-window successes {got:.4} vs closed form {expected:.4}"
    );
}

/// Certain recovery, no noise: the first window *always* delivers at least
/// one of the two stations — `E[successes] = 2 − 1/W` — and the run is
/// lossless overall.
#[test]
fn certain_recovery_first_window_is_two_minus_one_over_w() {
    let w = 4u32;
    let config = fixed(w, ChannelModel::softened(1.0), 1);
    let successes = run_trials(config, 2, 4_000, |t| t.successes as f64);
    assert!(successes.iter().all(|&s| s >= 1.0), "p = 1 lost a window");
    let expected = 2.0 - 1.0 / w as f64; // = 1.75
    let got = mean(&successes);
    assert!(
        (got - expected).abs() < 0.05,
        "mean successes {got:.4} vs {expected:.4}"
    );
}

/// The collision rate itself: two stations in a width-`W` window collide
/// with probability exactly `1/W`, independent of the channel.
#[test]
fn collision_rate_is_one_over_w() {
    let w = 8u32;
    let config = fixed(w, ChannelModel::ideal(), 1);
    let collisions = run_trials(config, 2, 4_000, |t| t.collisions);
    let got = mean(&collisions);
    let expected = 1.0 / w as f64; // = 0.125
    assert!(
        (got - expected).abs() < 0.025,
        "collision rate {got:.4} vs 1/W = {expected:.4}"
    );
}
