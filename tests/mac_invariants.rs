//! Cross-configuration invariants of the MAC simulator.

use contention_resolution::prelude::*;

fn all_configs() -> Vec<(String, MacConfig)> {
    let mut configs = Vec::new();
    for kind in AlgorithmKind::PAPER_SET {
        configs.push((format!("{kind}/64"), MacConfig::paper(kind, 64)));
        configs.push((format!("{kind}/1024"), MacConfig::paper(kind, 1024)));
        // Retries rejoin while an EIFS deferral is still running.
        let mut long_timeout = MacConfig::paper(kind, 64);
        long_timeout.phy.ack_timeout = Nanos::from_micros(300);
        configs.push((format!("{kind}/64/ackto300"), long_timeout));
    }
    let mut rts = MacConfig::paper(AlgorithmKind::Beb, 256);
    rts.rts_cts = true;
    configs.push(("BEB/rts".into(), rts));
    let mut no_eifs = MacConfig::paper(AlgorithmKind::LogBackoff, 64);
    no_eifs.use_eifs = false;
    configs.push(("LB/no-eifs".into(), no_eifs));
    configs.push((
        "BestOf5/64".into(),
        MacConfig::paper(AlgorithmKind::BestOfK { k: 5 }, 64),
    ));
    configs
}

/// Conservation laws that must hold for every completed run.
#[test]
fn conservation_laws() {
    for (name, config) in all_configs() {
        for (n, trial) in [(1u32, 0u32), (7, 1), (40, 2), (90, 3), (150, 4)] {
            let mut rng = trial_rng(experiment_tag("mac-inv"), config.algorithm, n, trial);
            let run = MacSim::run(&config, n, &mut rng);
            let m = &run.metrics;
            assert_eq!(m.successes, n, "{name} n={n}: incomplete");
            assert!(
                m.attempts_balance(),
                "{name} n={n}: attempts ≠ successes + timeouts"
            );
            assert_eq!(
                m.colliding_stations + run.probe_corruptions,
                m.total_ack_timeouts(),
                "{name} n={n}: collision participants must equal ACK timeouts"
            );
            assert!(m.half_time <= m.total_time, "{name} n={n}");
            assert!(m.half_cw_slots <= m.cw_slots, "{name} n={n}");
            for (i, s) in m.stations.iter().enumerate() {
                let done = s.success_time.expect("completed run");
                assert!(
                    done <= m.total_time,
                    "{name} n={n}: station {i} finished late"
                );
                assert!(
                    s.attempts >= 1,
                    "{name} n={n}: station {i} never transmitted"
                );
                assert_eq!(
                    s.attempts,
                    s.ack_timeouts + 1,
                    "{name} n={n}: station {i} attempt/timeout mismatch"
                );
            }
        }
    }
}

/// The batch's total time always exceeds the physical floor: every packet
/// must be transmitted once, serially, at minimum cost.
#[test]
fn total_time_exceeds_serial_floor() {
    let phy = Phy80211g::paper_defaults();
    for kind in AlgorithmKind::PAPER_SET {
        let config = MacConfig::paper(kind, 64);
        for n in [5u32, 25, 60] {
            let mut rng = trial_rng(experiment_tag("mac-floor"), kind, n, 0);
            let run = MacSim::run(&config, n, &mut rng);
            let floor = phy.success_exchange_time(64) * n as u64;
            assert!(
                run.metrics.total_time > floor,
                "{kind} n={n}: total {} under serial floor {floor}",
                run.metrics.total_time
            );
        }
    }
}

/// Traces are physically consistent across algorithms: no station does two
/// things at once, failed transmissions equal ACK timeouts, and with no
/// BEST-OF-k probe on the air no lone frame is corrupted.
#[test]
fn traces_are_consistent() {
    for kind in AlgorithmKind::PAPER_SET {
        let mut config = MacConfig::paper(kind, 64);
        config.capture_trace = true;
        let mut rng = trial_rng(experiment_tag("mac-trace-inv"), kind, 30, 0);
        let run = MacSim::run(&config, 30, &mut rng);
        let trace = run.trace.expect("trace");
        assert!(
            trace.first_overlap().is_none(),
            "{kind}: {:?}",
            trace.first_overlap()
        );
        let fails = trace
            .spans
            .iter()
            .filter(|s| matches!(s.kind, contention_mac::SpanKind::DataFail))
            .count() as u64;
        assert_eq!(fails, run.metrics.total_ack_timeouts(), "{kind}");
        assert_eq!(run.probe_corruptions, 0, "{kind}");
    }
}

/// Determinism across the public entry point: same config + seed ⇒ same
/// metrics, different seed ⇒ (almost surely) different metrics.
#[test]
fn determinism_and_seed_sensitivity() {
    let config = MacConfig::paper(AlgorithmKind::LogLogBackoff, 64);
    let run = |trial: u32| {
        let mut rng = trial_rng(experiment_tag("mac-det"), config.algorithm, 50, trial);
        MacSim::run(&config, 50, &mut rng).metrics
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

/// The EIFS rule only adds time: disabling it can never slow a run down in
/// median over several trials.
#[test]
fn eifs_ablation_direction() {
    let median_tt = |use_eifs: bool| {
        let mut config = MacConfig::paper(AlgorithmKind::Sawtooth, 64);
        config.use_eifs = use_eifs;
        let mut xs: Vec<f64> = (0..9)
            .map(|t| {
                let mut rng = trial_rng(experiment_tag("mac-eifs"), config.algorithm, 80, t);
                MacSim::run(&config, 80, &mut rng)
                    .metrics
                    .total_time
                    .as_micros_f64()
            })
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        xs[xs.len() / 2]
    };
    assert!(median_tt(false) < median_tt(true));
}
