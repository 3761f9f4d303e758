//! Softened collisions / noisy channel — the arXiv:2408.11275 regime.
//!
//! The paper under reproduction prices collisions at their full 802.11 cost;
//! *Softening the Impact of Collisions in Contention Resolution* asks the
//! complementary question: what if a collision of `k` senders still delivers
//! one frame with probability `p_recover(k)`? This experiment sweeps that
//! recovery probability through the abstract windowed semantics
//! ([`WindowedSim`] over a [`ChannelModel`]) and, separately, through the
//! softened 802.11g MAC path — always against the collision-is-fatal
//! baseline at `p = 0`, which is the paper's channel: `softened(0.0)` is
//! [`ChannelModel::is_ideal`], so it runs the same path as every other
//! abstract figure.
//!
//! All three panels run through the generic sweep engine; the recovery
//! probability and noise rate live in the *config*, so the trial RNG streams
//! are shared across channel settings (common random numbers — the paired
//! comparisons are tighter than independent sampling would give).

use crate::aggregate::Series;
use crate::figures::shared::{paper_algorithms, single_stats};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::table::{render, render_series};
use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::util::percent_change;
use contention_mac::{MacConfig, MacSim};
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::WindowedSim;

/// The recovery-probability x-axis shared by the abstract and MAC panels.
const P_GRID: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 0.95];

/// Per-slot erasure rates for the noise panel.
const NOISE_GRID: [f64; 4] = [0.0, 0.1, 0.25, 0.4];

pub fn run(opts: &Options) -> Report {
    let mut report = Report::new(
        "softened collisions — CW slots / total time vs recovery probability (arXiv:2408.11275)",
    );

    // ── Panel 1: abstract windowed semantics, CW slots vs p_recover ──────
    let n = opts.pick(150u32, 2_000);
    let trials = opts.trials_or(8, 30);
    let series: Vec<Series> = paper_algorithms()
        .iter()
        .map(|&alg| Series {
            name: alg.label(),
            points: P_GRID
                .iter()
                .map(|&p| {
                    let stats = single_stats::<WindowedSim>(
                        "soften-abs",
                        WindowedConfig {
                            channel: ChannelModel::softened(p),
                            ..WindowedConfig::abstract_model(alg)
                        },
                        n,
                        trials,
                        opts,
                        &[Metric::CwSlots],
                    );
                    stats.point(p, Metric::CwSlots)
                })
                .collect(),
        })
        .collect();
    report.line(format!(
        "abstract windowed semantics, n = {n}: median CW slots vs recovery probability \
         (p = 0 is the fatal-collision baseline ≡ WindowedSim)"
    ));
    report.line(render_series("p_recover", &series));
    for s in &series {
        let fatal = s.at(0.0).median;
        let best = s.final_median();
        report.line(format!(
            "  {}: p=0.95 cuts CW slots {:+.1}% vs fatal",
            s.name,
            percent_change(best, fatal)
        ));
    }
    report.series_csv("soften_abstract_cw_slots", "p_recover", &series);

    // ── Panel 2: noise-only channel — erasures slow the drain ────────────
    let noise_trials = opts.trials_or(8, 30);
    let mut noise_rows = Vec::new();
    let mut noise_series = Series {
        name: "BEB".to_string(),
        points: Vec::new(),
    };
    for &noise in &NOISE_GRID {
        let stats = single_stats::<WindowedSim>(
            "soften-noise",
            WindowedConfig {
                channel: ChannelModel::noisy(noise),
                ..WindowedConfig::abstract_model(AlgorithmKind::Beb)
            },
            n,
            noise_trials,
            opts,
            &[Metric::CwSlots, Metric::Collisions],
        );
        let point = stats.point(noise, Metric::CwSlots);
        noise_rows.push(vec![
            format!("{noise:.2}"),
            format!("{:.0}", point.median),
            format!("{:.0}", stats.raw_median(Metric::Collisions)),
        ]);
        noise_series.points.push(point);
    }
    report.line(format!(
        "\nnoise-only channel (collisions fatal), BEB, n = {n}: erasures force retries"
    ));
    report.line(render(
        &[
            "noise".to_string(),
            "CW slots".to_string(),
            "collisions".to_string(),
        ],
        &noise_rows,
    ));
    report.series_csv("soften_noise_cw_slots", "noise", &[noise_series]);

    // ── Panel 3: the 802.11g MAC path with softened collisions ───────────
    let mac_n = opts.pick(40u32, 100);
    let mac_trials = opts.trials_or(5, 20);
    let mut mac_rows = Vec::new();
    let mut fatal_time = 0.0;
    for &p in &[0.0, 0.5, 0.95] {
        let stats = single_stats::<MacSim>(
            "soften-mac",
            MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::softened(p)),
            mac_n,
            mac_trials,
            opts,
            &[Metric::TotalTimeUs, Metric::AckTimeouts],
        );
        let total = stats.raw_median(Metric::TotalTimeUs);
        if p == 0.0 {
            fatal_time = total;
        }
        mac_rows.push(vec![
            format!("{p:.2}"),
            format!("{total:.0}"),
            format!("{:+.1}%", percent_change(total, fatal_time)),
            format!("{:.0}", stats.raw_median(Metric::AckTimeouts)),
        ]);
    }
    report.line(format!(
        "\nMAC simulator (802.11g DCF, BEB, 64 B, n = {mac_n}): capture softening vs total time"
    ));
    report.line(render(
        &[
            "p_recover".to_string(),
            "total time (µs)".to_string(),
            "vs fatal".to_string(),
            "ACK timeouts".to_string(),
        ],
        &mac_rows,
    ));
    report.line(
        "softening shrinks the collision cost the headline figures price in — the gap \
         between the abstract and MAC rankings narrows as p_recover grows",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options {
            trials: Some(4),
            threads: Some(2),
            ..Options::default()
        }
    }

    #[test]
    fn soften_report_has_all_three_panels() {
        let r = run(&opts());
        assert!(r.body.contains("abstract windowed semantics"));
        assert!(r.body.contains("noise-only channel"));
        assert!(r.body.contains("MAC simulator"));
        assert_eq!(r.csv.len(), 2);
    }

    #[test]
    fn recovery_helps_beb_in_the_report() {
        // p = 0.95 must not be *worse* than fatal for BEB by any margin a
        // 4-trial quick run could produce.
        let r = run(&opts());
        let line = r
            .body
            .lines()
            .find(|l| l.trim_start().starts_with("BEB:"))
            .expect("BEB summary line");
        assert!(line.contains('-'), "expected a reduction: {line}");
    }
}
