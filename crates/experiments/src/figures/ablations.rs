//! Ablations beyond the paper's figures, probing the design choices the
//! paper discusses in §V:
//!
//! * [`ack_timeout`] — §V-B: "values below [the] threshold will lead a
//!   station to consider its packet lost before the ACK can be received...
//!   unnecessary retransmissions and, ultimately, poor throughput."
//! * [`eifs`] — the 802.11 EIFS rule's contribution to collision cost.
//! * [`truncation`] — §V-B: the CWmax = 1024 truncation "is rarely reached
//!   ... and does not seem to have any noticeable impact".
//! * [`semantics`] — windowed (theory) vs residual-timer (802.11) execution
//!   of the same schedules in the abstract model.
//! * [`ack_loss`] — §III-B: "an ACK might be lost due to wireless effects
//!   ... the same costs hold": failure injection.
//! * [`polynomial`] — the quadratic-backoff baseline from the related work
//!   ([53]) dropped into the single-batch setting.
//!
//! Every ablation streams its trials through the generic sweep engine
//! ([`single_stats`]), varying only the config fields under study and
//! retaining only the metrics its table prints.

use crate::figures::shared::{paper_algorithms, single_stats};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::table::render;
use contention_core::algorithm::AlgorithmKind;
use contention_core::params::Phy80211g;
use contention_core::schedule::Truncation;
use contention_core::time::Nanos;
use contention_core::util::percent_change;
use contention_mac::{MacConfig, MacSim};
use contention_slotted::residual::ResidualConfig;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::{ResidualSim, WindowedSim};

/// Medians of (total time µs, total ACK timeouts, successes) over one MAC
/// cell streamed through the engine.
fn mac_medians(
    experiment: &'static str,
    config: &MacConfig,
    n: u32,
    trials: u32,
    opts: &Options,
) -> (f64, f64, f64) {
    let stats = single_stats::<MacSim>(
        experiment,
        *config,
        n,
        trials,
        opts,
        &[Metric::TotalTimeUs, Metric::AckTimeouts, Metric::Successes],
    );
    (
        stats.raw_median(Metric::TotalTimeUs),
        stats.raw_median(Metric::AckTimeouts),
        stats.raw_median(Metric::Successes),
    )
}

/// ACK-timeout sweep: the cliff sits at SIFS + ACK airtime (≈ 38 µs with
/// Table I's parameters); below it, the sender declares failure while its
/// ACK is still on the air and the batch never completes.
pub fn ack_timeout(opts: &Options) -> Report {
    let n = 60;
    let trials = opts.trials_or(5, 15);
    let phy = Phy80211g::paper_defaults();
    let cliff = phy.sifs + phy.ack_time();
    let mut report = Report::new("ablation — ACK-timeout duration (BEB, 64 B, n = 60)");
    report.line(format!(
        "ACK arrives SIFS + ACK = {cliff} after the data frame; timeouts below that \
         can never observe success (§V-B)."
    ));
    let mut rows = Vec::new();
    for timeout_us in [30u64, 36, 39, 45, 55, 75, 100, 150] {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
        config.phy.ack_timeout = Nanos::from_micros(timeout_us);
        config.max_sim_time = Nanos::from_millis(500);
        let (total, timeouts, successes) = mac_medians("ablate-ackto", &config, n, trials, opts);
        rows.push(vec![
            format!("{timeout_us}"),
            format!("{successes:.0}/{n}"),
            if successes as u32 == n {
                format!("{total:.0}")
            } else {
                "—".into()
            },
            format!("{timeouts:.0}"),
        ]);
    }
    report.line(render(
        &[
            "ACK timeout µs".into(),
            "completed".into(),
            "total µs".into(),
            "ACK timeouts".into(),
        ],
        &rows,
    ));
    report.line(
        "below the cliff nothing completes (every attempt self-aborts); above it, \
         growing the timeout only adds per-collision waiting.",
    );
    report.rows_csv(
        "ablate_ack_timeout",
        std::iter::once(vec![
            "ack_timeout_us".to_string(),
            "completed".to_string(),
            "total_us".to_string(),
            "ack_timeouts".to_string(),
        ])
        .chain(rows.iter().map(|r| {
            vec![
                r[0].clone(),
                r[1].replace('/', ":"),
                r[2].replace('—', ""),
                r[3].clone(),
            ]
        }))
        .collect(),
    );
    report
}

/// EIFS on/off for every algorithm: EIFS charges every bystander of a
/// collision an extra SIFS+ACK of deferral, amplifying exactly the cost the
/// paper says A2 ignores.
pub fn eifs(opts: &Options) -> Report {
    let n = 150;
    let trials = opts.trials_or(5, 20);
    let mut report = Report::new("ablation — the 802.11 EIFS rule (64 B, n = 150)");
    let mut rows = Vec::new();
    let mut beb: [f64; 2] = [0.0; 2];
    for alg in paper_algorithms() {
        let mut cells = [0.0f64; 2];
        for (i, use_eifs) in [false, true].into_iter().enumerate() {
            let mut config = MacConfig::paper(alg, 64);
            config.use_eifs = use_eifs;
            let (total, _, _) = mac_medians(
                if use_eifs {
                    "ablate-eifs-on"
                } else {
                    "ablate-eifs-off"
                },
                &config,
                n,
                trials,
                opts,
            );
            cells[i] = total;
        }
        if alg == AlgorithmKind::Beb {
            beb = cells;
        }
        rows.push(vec![
            alg.label(),
            format!("{:.0}", cells[0]),
            format!("{:+.1}%", percent_change(cells[0], beb[0])),
            format!("{:.0}", cells[1]),
            format!("{:+.1}%", percent_change(cells[1], beb[1])),
        ]);
    }
    report.line(render(
        &[
            "algorithm".into(),
            "EIFS off µs".into(),
            "vs BEB".into(),
            "EIFS on µs".into(),
            "vs BEB".into(),
        ],
        &rows,
    ));
    report.line(
        "EIFS widens every challenger's deficit: it multiplies the per-collision \
         penalty that the abstract model prices at zero.",
    );
    report
}

/// Truncation ablation in the abstract model: §V-B says CWmax = 1024 is
/// rarely reached at n = 150 and has no noticeable impact.
pub fn truncation(opts: &Options) -> Report {
    let n = 150;
    let trials = opts.trials_or(9, 30);
    let mut report = Report::new("ablation — CW truncation in the abstract model (BEB, n = 150)");
    let mut rows = Vec::new();
    for (label, trunc) in [
        ("unbounded", Truncation::unbounded()),
        ("CWmax=1024 (Table I)", Truncation::paper()),
        (
            "CWmax=256",
            Truncation {
                cw_min: 1,
                cw_max: 256,
            },
        ),
    ] {
        let mut config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
        config.truncation = trunc;
        let stats = single_stats::<WindowedSim>(
            "ablate-trunc",
            config,
            n,
            trials,
            opts,
            &[Metric::CwSlots, Metric::Collisions],
        );
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", stats.raw_median(Metric::CwSlots)),
            format!("{:.0}", stats.raw_median(Metric::Collisions)),
        ]);
    }
    report.line(render(
        &["truncation".into(), "CW slots".into(), "collisions".into()],
        &rows,
    ));
    report.line(
        "1024 matches unbounded (it is rarely reached at n = 150, §V-B); forcing \
         CWmax down to 256 ≈ 1.7n begins to cost extra collisions.",
    );
    report
}

/// Windowed (Figure 2) vs residual-timer (802.11 DCF) semantics for the
/// same schedules, in the same A0–A2 collision model.
pub fn semantics(opts: &Options) -> Report {
    let n = 150;
    let trials = opts.trials_or(9, 30);
    let mut report =
        Report::new("ablation — windowed vs residual-timer semantics (abstract model, n = 150)");
    let mut rows = Vec::new();
    const SEM_METRICS: [Metric; 2] = [Metric::CwSlots, Metric::Collisions];
    for alg in paper_algorithms() {
        let windowed = single_stats::<WindowedSim>(
            "ablate-sem-w",
            WindowedConfig::truncated_model(alg),
            n,
            trials,
            opts,
            &SEM_METRICS,
        );
        let residual = single_stats::<ResidualSim>(
            "ablate-sem-r",
            ResidualConfig::paper(alg),
            n,
            trials,
            opts,
            &SEM_METRICS,
        );
        rows.push(vec![
            alg.label(),
            format!("{:.0}", windowed.raw_median(Metric::CwSlots)),
            format!("{:.0}", windowed.raw_median(Metric::Collisions)),
            format!("{:.0}", residual.raw_median(Metric::CwSlots)),
            format!("{:.0}", residual.raw_median(Metric::Collisions)),
        ]);
    }
    report.line(render(
        &[
            "algorithm".into(),
            "windowed CW".into(),
            "windowed coll.".into(),
            "residual CW".into(),
            "residual coll.".into(),
        ],
        &rows,
    ));
    report.line(
        "residual timers finish sooner (no wait-out-the-window) but leave the \
         collision ordering intact — the paper's findings are not an artifact \
         of which semantics the MAC layer uses.",
    );
    report
}

/// ACK-loss failure injection: lost ACKs are misdiagnosed as collisions and
/// charged the full §III-B costs.
pub fn ack_loss(opts: &Options) -> Report {
    let n = 100;
    let trials = opts.trials_or(5, 15);
    let mut report = Report::new("ablation — ACK-loss failure injection (BEB, 64 B, n = 100)");
    let mut rows = Vec::new();
    for loss_pct in [0u32, 2, 5, 10, 20] {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
        config.ack_loss_prob = loss_pct as f64 / 100.0;
        config.max_sim_time = Nanos::from_millis(5_000);
        let stats = single_stats::<MacSim>(
            "ablate-loss",
            config,
            n,
            trials,
            opts,
            &[
                Metric::TotalTimeUs,
                Metric::AckTimeouts,
                Metric::CollidingStations,
            ],
        );
        rows.push(vec![
            format!("{loss_pct}%"),
            format!("{:.0}", stats.raw_median(Metric::TotalTimeUs)),
            format!("{:.0}", stats.raw_median(Metric::AckTimeouts)),
            format!("{:.0}", stats.raw_median(Metric::CollidingStations)),
        ]);
    }
    report.line(render(
        &[
            "ACK loss".into(),
            "total µs".into(),
            "ACK timeouts".into(),
            "collision participants".into(),
        ],
        &rows,
    ));
    report.line(
        "the gap between timeouts and true collision participants is the injected \
         loss: the sender cannot tell them apart (ACK timeout ≈ collision, §III-B) \
         and pays retransmission + timeout + window growth either way.",
    );
    report
}

/// Quadratic/cubic polynomial backoff dropped into the single-batch setting.
pub fn polynomial(opts: &Options) -> Report {
    let n = 150;
    let trials = opts.trials_or(5, 20);
    let mut report = Report::new("ablation — polynomial backoff baselines (64 B, n = 150)");
    let mut rows = Vec::new();
    let mut beb_total = 0.0;
    let algorithms = [
        AlgorithmKind::Beb,
        AlgorithmKind::Polynomial { degree: 2 },
        AlgorithmKind::Polynomial { degree: 3 },
        AlgorithmKind::Sawtooth,
    ];
    for alg in algorithms {
        let config = MacConfig::paper(alg, 64);
        let stats = single_stats::<MacSim>(
            "ablate-poly",
            config,
            n,
            trials,
            opts,
            &[Metric::TotalTimeUs, Metric::CwSlots, Metric::Collisions],
        );
        let t = stats.raw_median(Metric::TotalTimeUs);
        if alg == AlgorithmKind::Beb {
            beb_total = t;
        }
        rows.push(vec![
            alg.label(),
            format!("{:.0}", stats.raw_median(Metric::CwSlots)),
            format!("{:.0}", stats.raw_median(Metric::Collisions)),
            format!("{t:.0}"),
            format!("{:+.1}%", percent_change(t, beb_total)),
        ]);
    }
    report.line(render(
        &[
            "algorithm".into(),
            "CW slots".into(),
            "collisions".into(),
            "total µs".into(),
            "vs BEB".into(),
        ],
        &rows,
    ));
    report.line(
        "polynomial backoff grows windows far too slowly for a burst: it hoards \
         collisions exactly as the collision-cost model predicts (quadratic is \
         a non-bursty-traffic design, per the related work [53]).",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        }
    }

    #[test]
    fn ack_timeout_cliff_blocks_completion() {
        let r = ack_timeout(&opts());
        // Below the ≈38 µs cliff, the batch must not complete.
        let row30 = r
            .body
            .lines()
            .find(|l| l.trim_start().starts_with("30 "))
            .unwrap();
        assert!(row30.contains("—"), "30 µs should never complete: {row30}");
        // At the 75 µs default, it must complete.
        let row75 = r
            .body
            .lines()
            .find(|l| l.trim_start().starts_with("75 "))
            .unwrap();
        assert!(row75.contains("60/60"), "75 µs should complete: {row75}");
    }

    #[test]
    fn truncation_at_1024_is_noise() {
        let r = truncation(&Options {
            trials: Some(9),
            threads: Some(2),
            ..Options::default()
        });
        assert!(r.body.contains("unbounded"));
        assert!(r.body.contains("CWmax=1024"));
    }

    #[test]
    fn semantics_table_covers_all_algorithms() {
        let r = semantics(&opts());
        for alg in ["BEB", "LB", "LLB", "STB"] {
            assert!(r.body.contains(alg), "missing {alg}");
        }
    }

    #[test]
    fn polynomial_hoards_collisions() {
        let r = polynomial(&opts());
        assert!(r.body.contains("POLY(2)"));
        // Quadratic backoff must be slower than BEB on a burst.
        let line = r.body.lines().find(|l| l.contains("POLY(2)")).unwrap();
        assert!(line.contains('+'), "POLY(2) should trail BEB: {line}");
    }
}
