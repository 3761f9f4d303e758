//! Figures 5, 15 and 16 — the abstract (A0–A2 only) simulator.
//!
//! Each figure is split into `*_cells` (the sweep, cell-range aware for
//! process sharding) and `*_report` (pure function of the folded cells);
//! Figures 15 and 16 share one large-n sweep, so they share its grid too.

use crate::aggregate::{series_per_algorithm, Series, SeriesPoint, StatsCell};
use crate::figures::shared::{fold_grid, paper_algorithms, report_from_series, SweepHooks};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;
use crate::table::render_series;
use contention_core::algorithm::AlgorithmKind;
use contention_sim::engine::folded;
use contention_sim::sched::CostSpec;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::WindowedSim;

pub fn fig5_grid(opts: &Options) -> GridMeta {
    GridMeta {
        algorithms: paper_algorithms(),
        ns: opts.mac_ns(),
        trials: opts.trials_or(12, 50),
        metrics: vec![Metric::CwSlots],
        cost: CostSpec::NLogN,
    }
}

pub fn fig5_cells(opts: &Options, hooks: &SweepHooks) -> Vec<StatsCell> {
    fold_grid::<WindowedSim>(
        "fig5",
        WindowedConfig::abstract_model(AlgorithmKind::Beb),
        &fig5_grid(opts),
        opts,
        hooks,
    )
}

pub fn fig5_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    let series = series_per_algorithm(cells, &paper_algorithms(), Metric::CwSlots);
    report_from_series(
        "Figure 5 — CW slots vs n (abstract simulator, assumptions A0–A2 only)",
        "fig5_cw_slots_abstract",
        Metric::CwSlots,
        &series,
        "BEB separates; LLB/LB/STB overlap at small n",
    )
}

/// Figure 5: CW slots from the abstract simulator over the paper's n grid.
///
/// This is the "simple Java simulation" — it roughly agrees with the NS3
/// numbers in magnitude and in BEB's separation, though the newer algorithms
/// do not separate cleanly at this scale (§III-A1).
pub fn fig5(opts: &Options) -> Report {
    fig5_report(opts, &fig5_cells(opts, &SweepHooks::none()))
}

/// The large-n grid of §V-A, shared by Figures 15 and 16. The paper runs
/// n ≤ 10⁵ in increments of 400 with 200 trials on a cluster; `--full` uses
/// increments of 8 000 with a couple dozen trials, quick mode stays below
/// n = 2·10⁴.
pub fn large_n_grid(opts: &Options) -> GridMeta {
    let ns: Vec<u32> = if opts.full {
        (1..=12).map(|i| i * 8_000).collect()
    } else {
        vec![2_000, 6_000, 12_000, 20_000]
    };
    GridMeta {
        algorithms: paper_algorithms(),
        ns,
        trials: opts.trials_or(8, 24),
        metrics: vec![Metric::CwSlots, Metric::Collisions],
        cost: CostSpec::NLogN,
    }
}

pub fn large_n_cells(opts: &Options, hooks: &SweepHooks) -> Vec<StatsCell> {
    fold_grid::<WindowedSim>(
        "fig15-16",
        WindowedConfig::abstract_model(AlgorithmKind::Beb),
        &large_n_grid(opts),
        opts,
        hooks,
    )
}

pub fn fig15_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    let series = series_per_algorithm(cells, &paper_algorithms(), Metric::CwSlots);
    let mut report = report_from_series(
        "Figure 15 — CW slots at large n (abstract simulator)",
        "fig15_large_n_cw_slots",
        Metric::CwSlots,
        &series,
        "STB best; LLB below LB at large n (asymptotics kick in)",
    );
    let max_n = series[0].points.last().expect("points").x;
    let lb = series[1].final_median();
    let llb = series[2].final_median();
    report.line(format!(
        "ordering flip check at n={max_n}: LLB {llb:.0} vs LB {lb:.0} → LLB {} LB",
        if llb < lb { "beats" } else { "still trails" }
    ));
    report
}

/// Figure 15: CW slots at large n — STB pulls ahead and LLB finally
/// outperforms LB, as the asymptotics (Table II) demand (§V-A(i)).
pub fn fig15(opts: &Options) -> Report {
    fig15_report(opts, &large_n_cells(opts, &SweepHooks::none()))
}

/// Figure 16: ratio of median collision counts vs STB (§V-A(ii)–(iii)):
/// LB/STB exceeds 1 quickly, LLB/STB crawls upward, BEB/STB stays flat.
pub fn fig16(opts: &Options) -> Report {
    fig16_report(opts, &large_n_cells(opts, &SweepHooks::none()))
}

pub fn fig16_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    let ns: Vec<u32> = {
        let mut v: Vec<u32> = cells.iter().map(|c| c.n).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let numerators = [
        AlgorithmKind::LogBackoff,
        AlgorithmKind::LogLogBackoff,
        AlgorithmKind::Beb,
    ];
    let series: Vec<Series> = numerators
        .iter()
        .map(|&alg| Series {
            name: format!("{}/STB", alg.label()),
            points: ns
                .iter()
                .map(|&n| {
                    let num = folded(cells, alg, n)
                        .acc
                        .point(n as f64, Metric::Collisions)
                        .median;
                    let den = folded(cells, AlgorithmKind::Sawtooth, n)
                        .acc
                        .point(n as f64, Metric::Collisions)
                        .median
                        .max(1.0);
                    let ratio = num / den;
                    SeriesPoint {
                        x: n as f64,
                        median: ratio,
                        ci_low: ratio,
                        ci_high: ratio,
                        kept: 0,
                        dropped: 0,
                    }
                })
                .collect(),
        })
        .collect();
    let mut report =
        Report::new("Figure 16 — ratio of median collisions vs STB (abstract simulator)");
    report.line(render_series("n", &series));
    report.line(format!(
        "LB/STB at largest n: {:.2} (paper: exceeds 1 quickly); BEB/STB: {:.2} (paper: flat, ≈ constant)",
        series[0].final_median(),
        series[2].final_median()
    ));
    report.series_csv("fig16_collision_ratios", "n", &series);
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
    fn fig5_runs_and_orders_beb_worst() {
        let r = fig5(&opts());
        let pct = r.body.lines().find(|l| l.starts_with("vs BEB")).unwrap();
        assert!(pct.contains("STB -"), "{pct}");
    }

    #[test]
    fn fig16_ratios_behave() {
        let r = fig16(&opts());
        assert!(r.body.contains("LB/STB"));
        assert!(r.body.contains("BEB/STB"));
    }
}
