//! Sweeps shared by several figures — all on the engine's streaming path.
//!
//! The paper generates Figures 3, 6, 7, 9, 11 and 12 from the same 64 B NS3
//! runs (and 4, 8, 10 from the 1024 B runs); we mirror that by deriving
//! those figures from one shared sweep *stream* per payload (same experiment
//! tag ⇒ same RNG streams ⇒ mutually consistent numbers within a `repro`
//! invocation), with each figure folding out only the metrics it plots.

use crate::aggregate::{
    final_percent_vs_first, series_per_algorithm, MetricStats, Series, StatsCell,
};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::{Metric, TrialSummary};
use crate::table::render_series;
use contention_core::algorithm::AlgorithmKind;
use contention_mac::{MacConfig, MacSim};
use contention_sim::engine::{Simulator, Sweep, TrialRange};
use contention_sim::monitor::{SnapshotCadence, SweepMonitor};
use contention_sim::sched::CostSpec;

/// The paper's four head-to-head algorithms.
pub fn paper_algorithms() -> Vec<AlgorithmKind> {
    AlgorithmKind::PAPER_SET.to_vec()
}

/// Execution seams the CLI threads into a shardable figure's sweep. One
/// struct (rather than a parameter per seam) because every shardable
/// `*_cells` function forwards it untouched to [`fold_grid`].
#[derive(Default, Clone, Copy)]
pub struct SweepHooks<'a> {
    /// Run only these trial ranges (`repro shard`, `repro resume`, a
    /// `repro work` lease); `None` runs the whole grid.
    pub plan: Option<&'a [TrialRange]>,
    /// Snapshot the in-flight accumulators on this cadence into this sink
    /// (`--checkpoint`).
    pub monitor: Option<(SnapshotCadence, &'a dyn SweepMonitor<MetricStats>)>,
}

impl SweepHooks<'_> {
    /// No seams attached: the plain full-grid run.
    pub fn none() -> SweepHooks<'static> {
        SweepHooks::default()
    }
}

/// Runs (part of) one grid on any backend, folded down to the grid's
/// metrics — the single engine-facing entry point every production sweep
/// rides, so the grid description (what `repro shard` partitions and what
/// the artifact records) and the sweep that executes can never disagree.
/// `hooks` carries the execution seams: the plan (shard cells, resume
/// holes, lease ranges) and the checkpoint monitor.
pub fn fold_grid<S: Simulator>(
    experiment: &'static str,
    config: S::Config,
    grid: &GridMeta,
    opts: &Options,
    hooks: &SweepHooks,
) -> Vec<StatsCell>
where
    TrialSummary: From<S::Output>,
{
    // The grid's cost table rides along so the engine can taper claims and
    // start heavy cells first; it cannot affect any result bit.
    let costs = grid.cell_trial_costs();
    Sweep::<S> {
        experiment,
        config,
        algorithms: grid.algorithms.clone(),
        ns: grid.ns.clone(),
        trials: grid.trials,
        exec: opts.exec(),
    }
    .run_fold_monitored(
        MetricStats::collector(&grid.metrics),
        hooks.plan,
        hooks.monitor,
        Some(&costs),
    )
}

/// A grid without a cost estimate: every cell weighs the same, so claims
/// run in grid order. What the single-panel figures and ablations sweep.
pub fn uniform_grid(
    algorithms: Vec<AlgorithmKind>,
    ns: Vec<u32>,
    trials: u32,
    metrics: &[Metric],
) -> GridMeta {
    GridMeta {
        algorithms,
        ns,
        trials,
        metrics: metrics.to_vec(),
        cost: CostSpec::Uniform,
    }
}

/// The grid every standard MAC figure sweeps (payload-independent).
pub fn mac_grid(opts: &Options, metrics: &[Metric]) -> GridMeta {
    GridMeta {
        algorithms: paper_algorithms(),
        ns: opts.mac_ns(),
        trials: opts.trials_or(8, 30),
        metrics: metrics.to_vec(),
        // A MAC trial simulates Θ(log n) backoff windows of Θ(n) slots.
        cost: CostSpec::NLogN,
    }
}

/// The shared MAC sweep for one payload size, folded down to `metrics`,
/// with the CLI's execution seams attached.
pub fn mac_stats_range(
    opts: &Options,
    payload: u32,
    metrics: &[Metric],
    hooks: &SweepHooks,
) -> Vec<StatsCell> {
    let experiment: &'static str = match payload {
        64 => "mac-64",
        1024 => "mac-1024",
        12 => "mac-12",
        _ => "mac-other",
    };
    fold_grid::<MacSim>(
        experiment,
        MacConfig::paper(AlgorithmKind::Beb, payload),
        &mac_grid(opts, metrics),
        opts,
        hooks,
    )
}

/// The shared MAC sweep for one payload size, folded down to `metrics`.
pub fn mac_stats(opts: &Options, payload: u32, metrics: &[Metric]) -> Vec<StatsCell> {
    mac_stats_range(opts, payload, metrics, &SweepHooks::none())
}

/// A one-cell sweep: all trials of a single `(config, n)` pair, streamed
/// through [`fold_grid`] into the requested metric buffers. The ablations
/// use this to vary config fields the grid dimensions don't cover.
pub fn single_stats<S: Simulator>(
    experiment: &'static str,
    config: S::Config,
    n: u32,
    trials: u32,
    opts: &Options,
    metrics: &[Metric],
) -> MetricStats
where
    TrialSummary: From<S::Output>,
{
    let grid = uniform_grid(vec![S::algorithm(&config)], vec![n], trials, metrics);
    let mut cells = fold_grid::<S>(experiment, config, &grid, opts, &SweepHooks::none());
    cells.remove(0).acc
}

/// Builds the standard figure report from already-folded cells — the step
/// `repro merge` re-runs on reassembled shard state, so it must (and does)
/// depend only on the cells, never on how they were executed.
pub fn standard_mac_figure_from_cells(
    title: &str,
    csv_name: &str,
    metric: Metric,
    cells: &[StatsCell],
    paper_percents: &str,
) -> Report {
    let series = series_per_algorithm(cells, &paper_algorithms(), metric);
    report_from_series(title, csv_name, metric, &series, paper_percents)
}

/// Builds the standard figure report: a per-algorithm series table over `n`
/// plus the paper's percent-change-vs-BEB line at the largest `n`.
pub fn standard_mac_figure(
    opts: &Options,
    title: &str,
    csv_name: &str,
    payload: u32,
    metric: Metric,
    paper_percents: &str,
) -> Report {
    let cells = mac_stats(opts, payload, &[metric]);
    standard_mac_figure_from_cells(title, csv_name, metric, &cells, paper_percents)
}

/// Renders series + percent line into a [`Report`].
pub fn report_from_series(
    title: &str,
    csv_name: &str,
    metric: Metric,
    series: &[Series],
    paper_percents: &str,
) -> Report {
    let mut report = Report::new(title);
    report.line(format!("metric: {}", metric.label()));
    report.line(render_series("n", series));
    let max_n = series[0].points.last().expect("non-empty").x;
    let pct = final_percent_vs_first(series);
    let rendered: Vec<String> = pct
        .iter()
        .map(|(name, p)| format!("{name} {p:+.1}%"))
        .collect();
    report.line(format!(
        "vs BEB at n={max_n}: {}   (paper: {paper_percents})",
        rendered.join(", ")
    ));
    report.series_csv(csv_name, "n", series);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> Options {
        Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        }
    }

    #[test]
    fn shared_sweep_covers_grid() {
        let opts = tiny_opts();
        let cells = mac_stats(&opts, 64, &[Metric::CwSlots]);
        assert_eq!(cells.len(), 4 * opts.mac_ns().len());
        assert!(cells
            .iter()
            .all(|c| c.acc.sample(Metric::CwSlots).len() == 3));
    }

    #[test]
    fn standard_figure_produces_table_and_percents() {
        let r = standard_mac_figure(
            &tiny_opts(),
            "test figure",
            "test_fig",
            64,
            Metric::CwSlots,
            "-49.4% / -68.2% / -83.0%",
        );
        assert!(r.body.contains("BEB"));
        assert!(r.body.contains("vs BEB at n=150"));
        assert_eq!(r.csv.len(), 1);
    }
}
