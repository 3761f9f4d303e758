//! Integration tests for the long-lived-traffic extension (§VIII).

use contention_resolution::prelude::*;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicMetrics, DynamicSim};
use contention_stats::summary::median;

fn run_median(config: DynamicConfig, trials: u32) -> DynamicMetrics {
    // Median-of-trials on the latency; other fields from the median trial.
    let mut runs: Vec<DynamicMetrics> = (0..trials)
        .map(|t| {
            let mut rng = trial_rng(experiment_tag("dyn-int"), config.algorithm, 0, t);
            DynamicSim::run(&config, 0, &mut rng)
        })
        .collect();
    runs.sort_by(|a, b| {
        a.mean_latency()
            .partial_cmp(&b.mean_latency())
            .expect("finite")
    });
    runs.swap_remove(runs.len() / 2)
}

/// Under light load every algorithm clears everything with low latency.
#[test]
fn light_load_is_easy_for_everyone() {
    let arrivals = ArrivalProcess::PoissonSingles { rate: 0.005 };
    for kind in AlgorithmKind::PAPER_SET {
        let m = run_median(DynamicConfig::abstract_model(kind, arrivals), 3);
        assert_eq!(m.completed, m.offered, "{kind}: {m:?}");
        assert!(m.mean_latency() < 20.0, "{kind}: {m:?}");
    }
}

/// The §VIII answer: with unit (A2) costs the challengers stay competitive
/// with BEB on bursty streams; with 802.11g costs BEB wins and the deficits
/// multiply. Since arrivals keep wall-clock time while timers freeze, heavy
/// collision costs concentrate the load onto the scarce idle slots — enough
/// to push SAWTOOTH past its stability boundary entirely.
#[test]
fn collision_cost_amplifies_deficits_on_streams() {
    let arrivals = ArrivalProcess::PoissonBursts {
        rate: 0.000_6,
        size: 50,
    };
    let trials = 5;
    let run = |kind: AlgorithmKind, mac_costs: bool| {
        let config = if mac_costs {
            DynamicConfig::mac_costs(kind, arrivals, 64)
        } else {
            DynamicConfig::abstract_model(kind, arrivals)
        };
        let lats: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = trial_rng(experiment_tag("dyn-amp"), kind, 0, t);
                DynamicSim::run(&config, 0, &mut rng).mean_latency()
            })
            .collect();
        let comps: Vec<f64> = (0..trials)
            .map(|t| {
                let mut rng = trial_rng(experiment_tag("dyn-amp"), kind, 0, t);
                DynamicSim::run(&config, 0, &mut rng).completion_rate()
            })
            .collect();
        (median(&lats), median(&comps))
    };
    let (beb_a2, _) = run(AlgorithmKind::Beb, false);
    let (beb_mac, beb_mac_done) = run(AlgorithmKind::Beb, true);
    assert!(beb_mac_done > 0.99, "BEB should still clear this load");

    // LB completes everything but its latency deficit vs BEB multiplies.
    let (lb_a2, _) = run(AlgorithmKind::LogBackoff, false);
    let (lb_mac, lb_mac_done) = run(AlgorithmKind::LogBackoff, true);
    assert!(lb_mac_done > 0.99, "LB still completes at this load");
    let a2_ratio = lb_a2 / beb_a2;
    let mac_ratio = lb_mac / beb_mac;
    assert!(
        mac_ratio > 1.0,
        "LB: should trail BEB under 802.11g costs (ratio {mac_ratio:.2})"
    );
    assert!(
        mac_ratio > a2_ratio,
        "LB: 802.11g costs should amplify the deficit \
         (A2 ratio {a2_ratio:.2}, MAC ratio {mac_ratio:.2})"
    );

    // STB's failure mode is starker: it stays fine under unit costs but the
    // same wall-time load saturates it outright once collisions cost 17
    // slots — completion collapses instead of latency merely growing.
    let (_, stb_a2_done) = run(AlgorithmKind::Sawtooth, false);
    let (_, stb_mac_done) = run(AlgorithmKind::Sawtooth, true);
    assert!(stb_a2_done > 0.99, "STB clears the A2 version of this load");
    assert!(
        stb_mac_done < 0.5,
        "STB: 802.11g collision costs should saturate it (completion {stb_mac_done:.3})"
    );
}

/// Throughput saturates below the channel's physical ceiling when every
/// exchange occupies `success_cost` slots.
#[test]
fn throughput_respects_channel_capacity() {
    let config = DynamicConfig::mac_costs(
        AlgorithmKind::Beb,
        ArrivalProcess::PoissonSingles { rate: 0.05 },
        64,
    );
    let m = run_median(config, 3);
    // success_cost = 13 slots ⇒ at most 1/13 ≈ 0.077 packets/slot ever.
    assert!(m.throughput() <= 1.0 / 13.0 + 1e-9, "{m:?}");
    assert!(m.throughput() > 0.0);
}

/// Burst size at fixed offered load matters: one big burst is harder than
/// spread singles for a collision-prone algorithm.
#[test]
fn burstiness_hurts() {
    let kind = AlgorithmKind::LogBackoff;
    let singles = run_median(
        DynamicConfig::abstract_model(kind, ArrivalProcess::PoissonSingles { rate: 0.02 }),
        5,
    );
    let bursts = run_median(
        DynamicConfig::abstract_model(
            kind,
            ArrivalProcess::PoissonBursts {
                rate: 0.000_25,
                size: 80,
            },
        ),
        5,
    );
    assert!(
        bursts.mean_latency() > singles.mean_latency() * 2.0,
        "bursty {bursts:?} vs smooth {singles:?}"
    );
}
