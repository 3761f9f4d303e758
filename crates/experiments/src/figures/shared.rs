//! Sweeps shared by several figures — all on the engine's streaming path.
//!
//! The paper generates Figures 3, 6, 7, 9, 11 and 12 from the same 64 B NS3
//! runs (and 4, 8, 10 from the 1024 B runs); we mirror that by deriving
//! those figures from one [`SweepDef`] per payload (same experiment tag ⇒
//! same RNG streams ⇒ mutually consistent numbers within a `repro`
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
use contention_sim::monitor::Monitor;
use contention_sim::sched::CostSpec;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::WindowedSim;

/// The paper's four head-to-head algorithms.
pub fn paper_algorithms() -> Vec<AlgorithmKind> {
    AlgorithmKind::PAPER_SET.to_vec()
}

/// Execution seams the CLI threads into a shardable figure's sweep. One
/// struct (rather than a parameter per seam) because every split row's
/// `cells` half forwards it untouched, through [`SweepDef::fold`], to
/// [`fold_grid`].
#[derive(Default, Clone, Copy)]
pub struct SweepHooks<'a> {
    /// Run only these trial ranges (`repro shard`, `repro resume`, a
    /// `repro work` lease); `None` runs the whole grid.
    pub plan: Option<&'a [TrialRange]>,
    /// Snapshot the in-flight accumulators on this cadence into this sink
    /// (`--checkpoint`).
    pub monitor: Option<Monitor<'a, MetricStats>>,
}

impl SweepHooks<'_> {
    /// No seams attached: the plain full-grid run.
    pub fn none() -> SweepHooks<'static> {
        SweepHooks::default()
    }
}

/// Runs (part of) one grid on any backend, folded down to the grid's
/// metrics — the single engine-facing entry point every production sweep
/// rides, so the grid description (what `repro shard` and `repro serve`
/// cut into leases and what the artifact records) and the sweep that
/// executes can never disagree. `hooks` carries the execution seams: the
/// plan (resume holes, a shard's or a work lease's ranges) and the
/// checkpoint monitor.
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
    // The grid's cost table rides along so the engine can start heavy cells
    // first; it cannot affect any result bit.
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

/// One distinct sweep: the RNG tag its trial streams derive from, the
/// backend and config its trials run on, and its grid shape. Every figure
/// folding from one definition sees the same trials, each keeping only the
/// metrics it reads, so `repro all` runs a definition once for all of them
/// ([`SharedSweeps`](crate::figures::sharding::SharedSweeps)).
///
/// Definitions are `static`s and are told apart by address ([`SweepDef::is`]),
/// never by tag; a registry test keeps the tags unique, since two
/// definitions with one tag would draw the same streams.
pub struct SweepDef {
    /// The experiment tag every trial's RNG stream derives from.
    pub tag: &'static str,
    /// The grid under the given options, folding the given metrics.
    pub(crate) shape: fn(&Options, &[Metric]) -> GridMeta,
    /// Runs (the hooks' part of) a grid of this shape on the definition's
    /// backend and config under the given tag.
    pub(crate) run: fn(&'static str, &GridMeta, &Options, &SweepHooks) -> Vec<StatsCell>,
}

impl SweepDef {
    /// The grid this sweep covers under `opts`, folding `metrics`.
    pub fn grid(&self, opts: &Options, metrics: &[Metric]) -> GridMeta {
        (self.shape)(opts, metrics)
    }

    /// Runs the sweep folded down to `metrics`, with the CLI's execution
    /// seams attached.
    pub fn fold(&self, opts: &Options, metrics: &[Metric], hooks: &SweepHooks) -> Vec<StatsCell> {
        (self.run)(self.tag, &self.grid(opts, metrics), opts, hooks)
    }

    /// True when `other` is this very definition.
    pub fn is(&self, other: &SweepDef) -> bool {
        std::ptr::eq(self, other)
    }
}

/// The MAC sweep of one payload under the paper's 802.11g parameters: the
/// `run` of [`MAC_12`], [`MAC_64`], [`MAC_1024`] and the BEST-OF-k sweep.
pub(crate) fn mac_paper<const PAYLOAD: u32>(
    tag: &'static str,
    grid: &GridMeta,
    opts: &Options,
    hooks: &SweepHooks,
) -> Vec<StatsCell> {
    fold_grid::<MacSim>(
        tag,
        MacConfig::paper(AlgorithmKind::Beb, PAYLOAD),
        grid,
        opts,
        hooks,
    )
}

/// The abstract (A0–A2) windowed sweep: the `run` of every abstract-model
/// figure sweep.
pub(crate) fn abstract_windowed(
    tag: &'static str,
    grid: &GridMeta,
    opts: &Options,
    hooks: &SweepHooks,
) -> Vec<StatsCell> {
    fold_grid::<WindowedSim>(
        tag,
        WindowedConfig::abstract_model(AlgorithmKind::Beb),
        grid,
        opts,
        hooks,
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

/// The standard MAC sweep of the 12 B minimum payload (§V-B). Each payload
/// is its own definition with its own tag, so no two payloads can ever
/// draw the same streams.
pub static MAC_12: SweepDef = SweepDef {
    tag: "mac-12",
    shape: mac_grid,
    run: mac_paper::<12>,
};

/// The standard MAC sweep of the 64 B payload: Figures 3, 6, 7, 9, 11, 12.
pub static MAC_64: SweepDef = SweepDef {
    tag: "mac-64",
    shape: mac_grid,
    run: mac_paper::<64>,
};

/// The standard MAC sweep of the 1024 B payload: Figures 4, 8, 10.
pub static MAC_1024: SweepDef = SweepDef {
    tag: "mac-1024",
    shape: mac_grid,
    run: mac_paper::<1024>,
};

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
        let cells = MAC_64.fold(&opts, &[Metric::CwSlots], &SweepHooks::none());
        assert_eq!(cells.len(), 4 * opts.mac_ns().len());
        assert!(cells
            .iter()
            .all(|c| c.acc.sample(Metric::CwSlots).len() == 3));
    }

    #[test]
    fn standard_figure_produces_table_and_percents() {
        let opts = tiny_opts();
        let r = standard_mac_figure_from_cells(
            "test figure",
            "test_fig",
            Metric::CwSlots,
            &MAC_64.fold(&opts, &[Metric::CwSlots], &SweepHooks::none()),
            "-49.4% / -68.2% / -83.0%",
        );
        assert!(r.body.contains("BEB"));
        assert!(r.body.contains("vs BEB at n=150"));
        assert_eq!(r.csv.len(), 1);
    }
}
