//! The abstract simulator against the paper's Tables II and III.

use contention_resolution::prelude::*;
use contention_stats::summary::median;

fn abstract_median(
    kind: AlgorithmKind,
    n: u32,
    trials: u32,
    f: &dyn Fn(&TrialSummary) -> f64,
) -> f64 {
    let config = WindowedConfig::abstract_model(kind);
    let xs: Vec<f64> = (0..trials)
        .map(|t| f(&run_trial::<WindowedSim>("abs-theory", &config, n, t)))
        .collect();
    median(&xs)
}

/// Table II shapes: at large n the CW-slot ordering is
/// STB < LLB < LB < BEB (the §V-A(i) flip of LLB vs LB included).
#[test]
fn table2_large_n_ordering() {
    let n = 30_000;
    let trials = 5;
    let cw = |kind| abstract_median(kind, n, trials, &|m| m.cw_slots);
    let beb = cw(AlgorithmKind::Beb);
    let lb = cw(AlgorithmKind::LogBackoff);
    let llb = cw(AlgorithmKind::LogLogBackoff);
    let stb = cw(AlgorithmKind::Sawtooth);
    assert!(
        stb < llb && llb < lb && lb < beb,
        "expected STB {stb} < LLB {llb} < LB {lb} < BEB {beb}"
    );
}

/// Table III / Figure 16 shapes: LB collides more than STB; BEB/STB stays
/// below 1 and roughly flat across a decade of n.
#[test]
fn table3_collision_ratios() {
    let trials = 5;
    let col = |kind, n| abstract_median(kind, n, trials, &|m| m.collisions);
    let mut beb_ratios = Vec::new();
    for n in [3_000u32, 10_000, 30_000] {
        let stb = col(AlgorithmKind::Sawtooth, n);
        let lb = col(AlgorithmKind::LogBackoff, n);
        let beb = col(AlgorithmKind::Beb, n);
        assert!(
            lb / stb > 1.0,
            "n={n}: LB/STB = {:.2} should exceed 1",
            lb / stb
        );
        assert!(
            beb / stb < 1.0,
            "n={n}: BEB/STB = {:.2} should stay below 1",
            beb / stb
        );
        beb_ratios.push(beb / stb);
    }
    let spread = beb_ratios.iter().cloned().fold(f64::MIN, f64::max)
        / beb_ratios.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        spread < 1.5,
        "BEB/STB should be flat, ratios {beb_ratios:?}"
    );
}

/// Growth-rate fits: measured/bound ratios stay within a small band over a
/// 16× range of n for the Θ(n) algorithms.
#[test]
fn linear_algorithms_grow_linearly() {
    let trials = 5;
    for (kind, metric) in [
        (AlgorithmKind::Sawtooth, "cw"),
        (AlgorithmKind::Beb, "collisions"),
    ] {
        let ratios: Vec<f64> = [1_000u32, 4_000, 16_000]
            .iter()
            .map(|&n| {
                let measured = abstract_median(kind, n, trials, &|m| {
                    if metric == "cw" {
                        m.cw_slots
                    } else {
                        m.collisions
                    }
                });
                measured / n as f64
            })
            .collect();
        let spread = ratios.iter().cloned().fold(f64::MIN, f64::max)
            / ratios.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 1.25,
            "{kind:?} {metric} per-n ratios not flat: {ratios:?}"
        );
    }
}

/// The super-linear collision algorithms really are super-linear: LB's
/// collisions per n grow with n.
#[test]
fn lb_collisions_are_superlinear() {
    let trials = 5;
    let per_n = |n: u32| {
        abstract_median(AlgorithmKind::LogBackoff, n, trials, &|m| m.collisions) / n as f64
    };
    let small = per_n(1_000);
    let large = per_n(16_000);
    assert!(
        large > small * 1.15,
        "LB collisions/n should grow: {small:.3} → {large:.3}"
    );
}

/// Windowed and residual semantics agree on the big picture (CW-slot
/// ordering of BEB vs STB) even though their executions differ.
#[test]
fn residual_semantics_ablation() {
    let trials = 7;
    let n = 600;
    let residual = |kind: AlgorithmKind| {
        let xs: Vec<f64> = (0..trials)
            .map(|t| {
                let mut config = ResidualConfig::paper(kind);
                config.truncation = Truncation::unbounded();
                let mut sim = ResidualSim::new(config);
                let mut rng = trial_rng(experiment_tag("abs-residual"), kind, n, t);
                sim.run(n, &mut rng).cw_slots as f64
            })
            .collect();
        median(&xs)
    };
    let windowed = |kind| abstract_median(kind, n, trials, &|m| m.cw_slots);
    assert!(residual(AlgorithmKind::Sawtooth) < residual(AlgorithmKind::Beb));
    assert!(windowed(AlgorithmKind::Sawtooth) < windowed(AlgorithmKind::Beb));
}
