//! §V-A at full scale — the streaming sweep the paper ran on a cluster.
//!
//! The paper's large-n evaluation pushes the abstract simulator to n = 10⁵
//! stations with hundreds of trials per cell on four 16-core Xeon nodes.
//! This experiment runs that regime in one process on the engine's
//! stream-and-fold path: workers take one trial at a time, the heaviest
//! cells first, from an on-the-fly cursor and each trial folds into flat
//! per-metric buffers ([`MetricStats`]), so a cell retains
//! `trials × metrics × 8` bytes no matter how large `n` gets. The default grid reaches the paper's n = 10⁵;
//! `--full` extends it to 10⁶ — a regime the collect-everything pipeline
//! was never asked to survive.
//!
//! [`MetricStats`]: crate::aggregate::MetricStats
//!
//! BEB vs STB is the headline pair out here: Θ(n lg n) vs Θ(n) CW slots
//! (Table II), so the gap must widen with n.

use crate::aggregate::{series_per_algorithm, StatsCell};
use crate::figures::shared::{abstract_windowed, SweepDef};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;
use crate::table::render_series;
use contention_core::algorithm::AlgorithmKind;
use contention_core::util::percent_change;
use contention_sim::sched::CostSpec;

/// The abstract-model sweep of BEB vs STB up to the paper's ceiling.
pub static SWEEP: SweepDef = SweepDef {
    tag: "scale",
    shape,
    run: abstract_windowed,
};

fn shape(opts: &Options, metrics: &[Metric]) -> GridMeta {
    // Default: the paper's ceiling, n = 12 500 … 10⁵. --full: n up to 10⁶.
    let ns: Vec<u32> = if opts.full {
        (1..=10).map(|i| i * 100_000).collect()
    } else {
        (1..=8).map(|i| i * 12_500).collect()
    };
    GridMeta {
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns,
        trials: opts.trials_or(5, 25),
        metrics: metrics.to_vec(),
        // Windowed backoff runs Θ(log n) windows of Θ(n) slots; the 80×
        // spread across this grid's n axis is exactly what cost-balanced
        // sharding exists for.
        cost: CostSpec::NLogN,
    }
}

pub fn report(opts: &Options, cells: &[StatsCell]) -> Report {
    let g = shape(opts, &[]);
    let (algorithms, ns, trials) = (g.algorithms, g.ns, g.trials);

    let max_n = *ns.last().expect("non-empty grid");
    let retained: usize = cells.iter().map(|c| c.acc.retained_bytes()).sum();
    let mut report = Report::new(format!(
        "§V-A at scale — BEB vs STB CW slots, abstract simulator, n up to {max_n}"
    ));
    let cw = series_per_algorithm(cells, &algorithms, Metric::CwSlots);
    report.line(render_series("n", &cw));
    let beb = cw[0].final_median();
    let stb = cw[1].final_median();
    report.line(format!(
        "STB vs BEB at n={max_n}: {:+.1}% CW slots (Table II: Θ(n) vs Θ(n lg n) — \
         the gap widens with n)",
        percent_change(stb, beb)
    ));
    let collisions = series_per_algorithm(cells, &algorithms, Metric::Collisions);
    report.line(format!(
        "collisions at n={max_n}: BEB {:.0} vs STB {:.0}",
        collisions[0].final_median(),
        collisions[1].final_median()
    ));
    report.line(format!(
        "streamed {} trials through workers claiming one at a time; aggregation \
         retained {} bytes ({} cells × {trials} trials × {} metrics × 8 B) — independent of n",
        cells.len() * trials as usize,
        retained,
        cells.len(),
        cells[0].acc.metrics().len(),
    ));
    report.series_csv("scale_cw_slots", "n", &cw);
    report.series_csv("scale_collisions", "n", &collisions);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::run;

    #[test]
    fn scale_grid_reaches_1e5_and_stb_wins() {
        let opts = Options {
            trials: Some(2),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("scale", &opts);
        assert!(r.title.contains("n up to 100000"), "{}", r.title);
        let pct = r
            .body
            .lines()
            .find(|l| l.starts_with("STB vs BEB"))
            .expect("percent line");
        assert!(pct.contains('-'), "STB must beat BEB at n=1e5: {pct}");
        assert_eq!(r.csv.len(), 2);
    }

    #[test]
    fn retained_bytes_are_reported_and_small() {
        let opts = Options {
            trials: Some(2),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("scale", &opts);
        // 16 cells × 2 trials × 2 metrics × 8 B = 512 bytes.
        assert!(r.body.contains("retained 512 bytes"), "{}", r.body);
    }
}
