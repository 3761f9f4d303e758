//! Acceptance tests for the headline shapes of the paper's MAC figures
//! (Figures 3–13 and 18–19, §III-B's decomposition).
//!
//! These use more trials than the unit tests so the medians are stable, and
//! they encode exactly the claims the reproduction stands on: if any of
//! these fail, the repository no longer reproduces the paper.

use contention_resolution::prelude::*;
use contention_stats::summary::median;

/// Median of `f` over trials `0..trials` on the `(tag, kind, n, trial)`
/// RNG streams.
fn mac_median(
    tag: &str,
    kind: AlgorithmKind,
    payload: u32,
    n: u32,
    trials: u32,
    f: &dyn Fn(&MacRun) -> f64,
) -> f64 {
    let config = MacConfig::paper(kind, payload);
    let xs: Vec<f64> = (0..trials)
        .map(|t| {
            let mut rng = trial_rng(experiment_tag(tag), kind, n, t);
            f(&MacSim::run(&config, n, &mut rng))
        })
        .collect();
    median(&xs)
}

/// Result 1: CW slots at n = 150 (64 B): STB < LB < BEB and LLB < BEB,
/// with decreases in the neighbourhood the paper reports.
#[test]
fn result1_cw_slot_ordering() {
    let trials = 11;
    let cw = |kind| {
        mac_median("acceptance", kind, 64, 150, trials, &|r| {
            r.metrics.cw_slots as f64
        })
    };
    let beb = cw(AlgorithmKind::Beb);
    let lb = cw(AlgorithmKind::LogBackoff);
    let llb = cw(AlgorithmKind::LogLogBackoff);
    let stb = cw(AlgorithmKind::Sawtooth);
    assert!(stb < lb && lb < beb, "STB {stb} < LB {lb} < BEB {beb}");
    assert!(llb < beb, "LLB {llb} < BEB {beb}");
    // Decrease magnitudes: paper −83 % (STB) and −49 % (LLB); accept a wide
    // band since our CW accounting is residual-timer based.
    let stb_dec = 100.0 * (beb - stb) / beb;
    let llb_dec = 100.0 * (beb - llb) / beb;
    assert!(stb_dec > 40.0, "STB decrease only {stb_dec:.1}%");
    assert!(llb_dec > 15.0, "LLB decrease only {llb_dec:.1}%");
}

/// Result 2: total time at n = 150 reverses the ordering — BEB wins, and
/// larger payloads widen the gap.
#[test]
fn result2_total_time_reversal() {
    let trials = 11;
    let tt = |kind, payload| {
        mac_median("acceptance", kind, payload, 150, trials, &|r| {
            r.metrics.total_time.as_micros_f64()
        })
    };
    let beb64 = tt(AlgorithmKind::Beb, 64);
    let lb64 = tt(AlgorithmKind::LogBackoff, 64);
    let llb64 = tt(AlgorithmKind::LogLogBackoff, 64);
    let stb64 = tt(AlgorithmKind::Sawtooth, 64);
    assert!(beb64 < lb64, "BEB {beb64} < LB {lb64}");
    assert!(beb64 < llb64, "BEB {beb64} < LLB {llb64}");
    assert!(beb64 < stb64, "BEB {beb64} < STB {stb64}");
    // LLB is BEB's closest competitor (paper: +5.6 % vs +19.3 %/+26.5 %).
    assert!(llb64 < lb64 && llb64 < stb64, "LLB must be closest to BEB");

    let beb1024 = tt(AlgorithmKind::Beb, 1024);
    let stb1024 = tt(AlgorithmKind::Sawtooth, 1024);
    let gap64 = (stb64 - beb64) / beb64;
    let gap1024 = (stb1024 - beb1024) / beb1024;
    assert!(
        gap1024 > gap64,
        "1024 B gap {gap1024:.3} should exceed 64 B gap {gap64:.3}"
    );
}

/// Figure 4: the CW-slot ordering of Result 1 survives a 1024 B payload —
/// STB still needs far fewer CW slots than BEB at n = 100.
#[test]
fn fig4_cw_slot_ordering_at_1024_bytes() {
    let cw = |kind| {
        mac_median("fig4-bench", kind, 1024, 100, 7, &|r| {
            r.metrics.cw_slots as f64
        })
    };
    let beb = cw(AlgorithmKind::Beb);
    let stb = cw(AlgorithmKind::Sawtooth);
    assert!(stb < beb, "STB {stb} < BEB {beb}");
}

/// Figure 6's stragglers: BEB finishes its first n/2 packets within less
/// than half of its CW slots, so the last packets account for the bulk.
#[test]
fn fig6_stragglers_dominate_beb_cw_slots() {
    let config = MacConfig::paper(AlgorithmKind::Beb, 64);
    let mut rng = trial_rng(experiment_tag("fig6-bench"), AlgorithmKind::Beb, 100, 0);
    let m = MacSim::run(&config, 100, &mut rng).metrics;
    assert!(
        m.half_cw_slots * 2 < m.cw_slots,
        "first n/2 took {} of {} CW slots",
        m.half_cw_slots,
        m.cw_slots
    );
}

/// Figures 9–10: stragglers do not explain Result 2, because BEB also
/// completes the first n/2 packets before STB does.
#[test]
fn fig9_beb_leads_on_the_first_half() {
    let half = |kind| {
        mac_median("fig9-bench", kind, 64, 100, 9, &|r| {
            r.metrics.half_time.as_micros_f64()
        })
    };
    let beb = half(AlgorithmKind::Beb);
    let stb = half(AlgorithmKind::Sawtooth);
    assert!(beb < stb, "BEB half time {beb} µs < STB {stb} µs");
}

/// Figure 11's shape: BEB suffers the fewest worst-station ACK timeouts
/// (≈ 9–12 at n = 150), STB the most.
#[test]
fn fig11_ack_timeout_ordering() {
    let trials = 11;
    let to = |kind| {
        mac_median("acceptance", kind, 64, 150, trials, &|r| {
            r.metrics.max_ack_timeouts() as f64
        })
    };
    let beb = to(AlgorithmKind::Beb);
    let lb = to(AlgorithmKind::LogBackoff);
    let stb = to(AlgorithmKind::Sawtooth);
    assert!(beb <= lb && beb <= stb, "BEB {beb}, LB {lb}, STB {stb}");
    assert!(
        (5.0..=20.0).contains(&beb),
        "BEB max ACK timeouts {beb} out of band"
    );
    assert!(
        stb >= 1.5 * beb,
        "STB ({stb}) should be well above BEB ({beb})"
    );
}

/// Result 7: BEST-OF-k beats BEB by a margin in the paper's ballpark, and
/// estimation never collapses below n/2.
#[test]
fn result7_best_of_k() {
    let trials = 9;
    let n = 150;
    let tt = |kind| {
        mac_median("acceptance", kind, 64, n, trials, &|r| {
            r.metrics.total_time.as_micros_f64()
        })
    };
    let beb = tt(AlgorithmKind::Beb);
    for k in [3u32, 5] {
        let bok = tt(AlgorithmKind::BestOfK { k });
        let dec = 100.0 * (beb - bok) / beb;
        assert!(
            dec > 10.0,
            "Best-of-{k} only {dec:.1}% better than BEB (paper ≈ 25%)"
        );
    }
    let config = MacConfig::paper(AlgorithmKind::BestOfK { k: 5 }, 64);
    for t in 0..trials {
        let mut rng = trial_rng(
            experiment_tag("acceptance-est"),
            AlgorithmKind::BestOfK { k: 5 },
            n,
            t,
        );
        let run = MacSim::run(&config, n, &mut rng);
        let min_est = run
            .estimates
            .iter()
            .flatten()
            .min()
            .copied()
            .expect("estimates");
        assert!(min_est >= n / 2, "estimate {min_est} collapsed below n/2");
    }
}

/// §III-B: the measured decomposition lower-bounds total time, and
/// transmissions dominate ACK-timeout waiting.
#[test]
fn decomposition_lower_bound() {
    let phy = Phy80211g::paper_defaults();
    for payload in [64u32, 1024] {
        let config = MacConfig::paper(AlgorithmKind::Beb, payload);
        for t in 0..5 {
            let mut rng = trial_rng(
                experiment_tag("acceptance-decomp"),
                AlgorithmKind::Beb,
                150,
                t,
            );
            let run = MacSim::run(&config, 150, &mut rng);
            let d = Decomposition::from_measurements(
                &phy,
                payload,
                run.metrics.collisions,
                run.metrics.max_ack_timeout_time(),
                run.metrics.cw_slots,
            );
            assert!(
                d.lower_bound() <= run.metrics.total_time,
                "payload {payload} trial {t}: bound {} > total {}",
                d.lower_bound(),
                run.metrics.total_time
            );
            assert!(
                d.transmission > d.ack_timeouts,
                "transmission must dominate"
            );
        }
    }
}
