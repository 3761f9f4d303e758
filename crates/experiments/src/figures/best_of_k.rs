//! Figures 18 and 19 — the BEST-OF-k size-estimation approach (§VI).

use crate::aggregate::{series_per_algorithm, Series, SeriesPoint, StatsCell};
use crate::figures::shared::{fold_grid, uniform_grid, SweepHooks};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::table::render_series;
use contention_core::algorithm::AlgorithmKind;
use contention_core::util::percent_change;
use contention_mac::{MacConfig, MacSim};

fn algorithms() -> Vec<AlgorithmKind> {
    vec![
        AlgorithmKind::Beb,
        AlgorithmKind::BestOfK { k: 3 },
        AlgorithmKind::BestOfK { k: 5 },
    ]
}

/// One shared sweep stream feeds both figures, mirroring the paper's
/// 20-trial runs.
fn sweep(opts: &Options) -> Vec<StatsCell> {
    let grid = uniform_grid(
        algorithms(),
        opts.mac_ns(),
        opts.trials_or(6, 20),
        &[Metric::MedianEstimate, Metric::TotalTimeUs],
    );
    fold_grid::<MacSim>(
        "fig18-19",
        MacConfig::paper(AlgorithmKind::Beb, 64),
        &grid,
        opts,
        &SweepHooks::none(),
    )
}

/// Figure 18: the estimates of n. Best-of-3 is noisier than Best-of-5, and
/// only overestimates occur — which is what keeps fixed backoff
/// collision-frugal.
pub fn fig18(opts: &Options) -> Report {
    let cells = sweep(opts);
    let estimators = &algorithms()[1..];
    let mut series = series_per_algorithm(&cells, estimators, Metric::MedianEstimate);
    // The paper plots the true size alongside the estimates.
    let truth = Series {
        name: "True size".to_string(),
        points: series[0]
            .points
            .iter()
            .map(|p| SeriesPoint {
                x: p.x,
                median: p.x,
                ci_low: p.x,
                ci_high: p.x,
                kept: 0,
                dropped: 0,
            })
            .collect(),
    };
    series.push(truth);

    let mut report = Report::new("Figure 18 — BEST-OF-k estimates of n (MAC sim)");
    report.line(render_series("n", &series));
    // The folklore guarantee bounds the *under*estimate at Ω(n / log n);
    // empirically the paper sees only overestimates. Our estimates are
    // powers of two and stations decide in a correlated way (they all hear
    // the same probe rounds), so a median can land one granularity step
    // below n; quantify both facts instead of a bare pass/fail.
    let mut never_collapses = true;
    let mut over = 0usize;
    let mut total = 0usize;
    let mut worst_ratio = f64::INFINITY;
    for s in &series[..2] {
        for p in &s.points {
            total += 1;
            if p.median >= p.x {
                over += 1;
            }
            if p.median < p.x / 2.0 {
                never_collapses = false;
            }
            worst_ratio = worst_ratio.min(p.median / p.x);
        }
    }
    report.line(format!(
        "underestimate bound (never below n/2): {}; {over}/{total} points overestimate; \
         worst estimate/n ratio {worst_ratio:.2} — i.e. within one power-of-two step \
         (paper: only overestimates occur)",
        if never_collapses { "holds" } else { "VIOLATED" },
    ));
    report.series_csv("fig18_estimates", "n", &series);
    report
}

/// Figure 19: total time of BEB vs Best-of-3 vs Best-of-5 (64 B payload).
/// The paper reports decreases of 26.0 % (k = 3) and 24.7 % (k = 5).
pub fn fig19(opts: &Options) -> Report {
    let cells = sweep(opts);
    let series = series_per_algorithm(&cells, &algorithms(), Metric::TotalTimeUs);
    let mut report = Report::new("Figure 19 — total time: BEB vs BEST-OF-k (64 B payload)");
    report.line(render_series("n", &series));
    let beb = series[0].final_median();
    let max_n = series[0].points.last().expect("points").x;
    for s in &series[1..] {
        report.line(format!(
            "{} vs BEB at n={max_n}: {:+.1}% (paper: −26.0% for k=3, −24.7% for k=5)",
            s.name,
            percent_change(s.final_median(), beb)
        ));
    }
    report.series_csv("fig19_best_of_k_total_time", "n", &series);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options {
            trials: Some(5),
            threads: Some(2),
            ..Options::default()
        }
    }

    #[test]
    fn estimates_respect_the_underestimate_bound() {
        let r = fig18(&opts());
        assert!(r.body.contains("(never below n/2): holds"), "{}", r.body);
    }

    #[test]
    fn best_of_k_beats_beb_at_150() {
        let r = fig19(&opts());
        for line in r.body.lines().filter(|l| l.contains("vs BEB at n=150")) {
            assert!(line.contains('-'), "Best-of-k should beat BEB: {line}");
        }
    }
}
