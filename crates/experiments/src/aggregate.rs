//! The paper's reporting pipeline: outlier filter → median → 95 % CI —
//! fed by the sweep engine's streaming fold seam.
//!
//! [`MetricStats`] is the accumulator every figure's sweep folds into
//! ([`fold_grid`](crate::figures::shared::fold_grid)): it extracts *only the
//! requested metrics* from each trial's summary into flat per-trial `f64`
//! buffers (one [`StreamingSample`] per metric), so a cell retains
//! `trials × requested-metrics × 8` bytes instead of `trials ×
//! size_of::<TrialSummary>()`. The buffers are position-addressed by trial
//! index, so the fold is bit-identical across thread counts and plans.

use crate::summary::{Metric, TrialSummary};
use contention_core::algorithm::AlgorithmKind;
use contention_core::util::percent_change;
use contention_sim::engine::{Accumulator, FoldedCell};
use contention_stats::ci::median_ci95;
use contention_stats::outliers::without_outliers;
use contention_stats::stream::StreamingSample;
use contention_stats::summary::median;

/// One plotted point: median with its 95 % confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    pub x: f64,
    pub median: f64,
    pub ci_low: f64,
    pub ci_high: f64,
    /// Trials surviving the outlier filter.
    pub kept: usize,
    /// Trials discarded by the outlier filter.
    pub dropped: usize,
}

/// A named series (one line of a figure).
#[derive(Debug, Clone)]
pub struct Series {
    pub name: String,
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// The point at a given x (panics if absent — figures always share grids).
    pub fn at(&self, x: f64) -> SeriesPoint {
        *self
            .points
            .iter()
            .find(|p| p.x == x)
            .unwrap_or_else(|| panic!("series {} has no point at {x}", self.name))
    }

    /// Median at the largest x — the value the paper quotes percentages at
    /// (`n = 150` in most figures).
    pub fn final_median(&self) -> f64 {
        self.points.last().expect("non-empty series").median
    }
}

/// Streams the requested metrics of one cell into flat per-trial buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricStats {
    metrics: Vec<Metric>,
    samples: Vec<StreamingSample>,
}

impl MetricStats {
    /// A collector retaining `metrics` over `trials` trials.
    pub fn new(metrics: &[Metric], trials: u32) -> MetricStats {
        MetricStats {
            metrics: metrics.to_vec(),
            samples: metrics
                .iter()
                .map(|_| StreamingSample::new(trials as usize))
                .collect(),
        }
    }

    /// The `init` closure `Sweep::run_fold_monitored` wants: one collector
    /// per cell over the given metrics.
    pub fn collector(
        metrics: &[Metric],
    ) -> impl FnMut(AlgorithmKind, u32, u32) -> MetricStats + '_ {
        move |_alg, _n, trials| MetricStats::new(metrics, trials)
    }

    /// The buffer of one metric. Panics if the metric wasn't requested at
    /// construction.
    fn buffer(&self, metric: Metric) -> &StreamingSample {
        let i = self
            .metrics
            .iter()
            .position(|&m| m == metric)
            .unwrap_or_else(|| panic!("metric {metric:?} was not collected"));
        &self.samples[i]
    }

    /// The per-trial values of one metric, in trial order. Panics if the
    /// metric wasn't requested at construction.
    pub fn sample(&self, metric: Metric) -> &[f64] {
        self.buffer(metric).values()
    }

    /// This collector narrowed to `metrics`, in that order, every buffer
    /// copied bit for bit. Each metric has its own position-addressed
    /// buffer, so the result equals what a fold of the same trials over
    /// just `metrics` holds. Panics if a metric wasn't collected.
    pub fn project(&self, metrics: &[Metric]) -> MetricStats {
        MetricStats {
            metrics: metrics.to_vec(),
            samples: metrics.iter().map(|&m| self.buffer(m).clone()).collect(),
        }
    }

    /// Outlier-filtered median + CI of one metric at a given x.
    pub fn point(&self, x: f64, metric: Metric) -> SeriesPoint {
        aggregate_values(x, self.sample(metric))
    }

    /// Median of one metric without the outlier filter — the ablations
    /// report raw medians.
    pub fn raw_median(&self, metric: Metric) -> f64 {
        median(self.sample(metric))
    }

    /// Bytes retained by this cell's buffers.
    pub fn retained_bytes(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.len() * StreamingSample::BYTES_PER_TRIAL)
            .sum()
    }

    /// The metrics this collector retains, in buffer order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The per-metric buffers, raw (NaN sentinels included) — what a
    /// partial-state shard artifact serializes.
    pub fn raw_samples(&self) -> &[StreamingSample] {
        &self.samples
    }

    /// Trials recorded: a trial counts once every metric buffer holds it.
    pub(crate) fn recorded(&self) -> usize {
        self.samples
            .iter()
            .map(StreamingSample::filled)
            .min()
            .unwrap_or(0)
    }

    /// True once every (trial, metric) slot has been recorded.
    pub fn is_complete(&self) -> bool {
        self.samples.iter().all(|s| s.is_complete())
    }

    /// Rebuilds a (possibly partial) collector from its buffers — the
    /// deserialization side of [`MetricStats::raw_samples`].
    pub fn from_parts(metrics: Vec<Metric>, samples: Vec<StreamingSample>) -> MetricStats {
        assert_eq!(
            metrics.len(),
            samples.len(),
            "one buffer per metric required"
        );
        assert!(
            samples.windows(2).all(|w| w[0].len() == w[1].len()),
            "metric buffers must agree on the trial count"
        );
        MetricStats { metrics, samples }
    }

    /// Fallible merge across shard boundaries: unions each metric's filled
    /// trials, erroring (instead of panicking) on mismatched metric lists
    /// or a (trial, metric) slot both operands filled.
    pub fn try_merge(&mut self, other: MetricStats) -> Result<(), String> {
        if self.metrics != other.metrics {
            return Err(format!(
                "cannot merge cells collecting different metrics ({:?} vs {:?})",
                self.metrics, other.metrics
            ));
        }
        for ((metric, mine), theirs) in self
            .metrics
            .iter()
            .zip(&mut self.samples)
            .zip(other.samples)
        {
            mine.try_merge(theirs)
                .map_err(|e| format!("metric {}: {e}", metric.key()))?;
        }
        Ok(())
    }

    /// Duplicate-tolerant merge for the work-distribution seam (at-least-
    /// once delivery): metric-wise [`StreamingSample::try_merge_dedup`].
    /// Bit-identical re-deliveries of a trial are discarded; conflicting
    /// ones error.
    pub fn try_merge_dedup(&mut self, other: MetricStats) -> Result<(), String> {
        if self.metrics != other.metrics {
            return Err(format!(
                "cannot merge cells collecting different metrics ({:?} vs {:?})",
                self.metrics, other.metrics
            ));
        }
        for ((metric, mine), theirs) in self
            .metrics
            .iter()
            .zip(&mut self.samples)
            .zip(other.samples)
        {
            mine.try_merge_dedup(theirs)
                .map_err(|e| format!("metric {}: {e}", metric.key()))?;
        }
        Ok(())
    }
}

impl Accumulator<TrialSummary> for MetricStats {
    fn record(&mut self, trial: u32, value: TrialSummary) {
        for (metric, sample) in self.metrics.iter().zip(&mut self.samples) {
            sample.record(trial as usize, metric.extract(&value));
        }
    }
}

/// The folded cell type every figure consumes.
pub type StatsCell = FoldedCell<MetricStats>;

/// Aggregates raw per-trial values at a given x.
pub fn aggregate_values(x: f64, raw: &[f64]) -> SeriesPoint {
    assert!(!raw.is_empty(), "no trials to aggregate");
    let kept = without_outliers(raw);
    let dropped = raw.len() - kept.len();
    let med = median(&kept);
    let (lo, hi) = median_ci95(&kept);
    SeriesPoint {
        x,
        median: med,
        ci_low: lo,
        ci_high: hi,
        kept: kept.len(),
        dropped,
    }
}

/// Builds one series per algorithm for a metric, over the sweep's n grid.
pub fn series_per_algorithm(
    cells: &[StatsCell],
    algorithms: &[AlgorithmKind],
    metric: Metric,
) -> Vec<Series> {
    algorithms
        .iter()
        .map(|&alg| Series {
            name: alg.label(),
            points: cells
                .iter()
                .filter(|c| c.algorithm == alg)
                .map(|c| c.acc.point(c.n as f64, metric))
                .collect(),
        })
        .collect()
}

/// The paper's headline statistic: percent change of each challenger vs the
/// first series (BEB) at the largest x. Returns `(name, percent)` pairs.
pub fn final_percent_vs_first(series: &[Series]) -> Vec<(String, f64)> {
    let baseline = series.first().expect("at least one series").final_median();
    series
        .iter()
        .skip(1)
        .map(|s| (s.name.clone(), percent_change(s.final_median(), baseline)))
        .collect()
}

/// Pairs up per-trial values of two samples (same trial index — the engine's
/// position-addressed buffers guarantee alignment) and returns the
/// differences `a − b`; the Fig 14 scatter.
pub fn paired_differences(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "paired cells need equal trial counts");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::algorithm::AlgorithmKind::*;

    fn summary(n: u32, cw: f64) -> TrialSummary {
        TrialSummary {
            n,
            successes: n,
            cw_slots: cw,
            half_cw_slots: 0.0,
            total_time_us: cw * 10.0,
            half_time_us: 0.0,
            collisions: 0.0,
            colliding_stations: 0.0,
            ack_timeouts: 0.0,
            max_ack_timeouts: 0.0,
            max_ack_timeout_time_us: 0.0,
            median_estimate: 0.0,
            ..TrialSummary::default()
        }
    }

    fn cell_with(alg: AlgorithmKind, n: u32, values: &[f64]) -> StatsCell {
        let mut acc =
            MetricStats::new(&[Metric::CwSlots, Metric::TotalTimeUs], values.len() as u32);
        for (t, &v) in values.iter().enumerate() {
            acc.record(t as u32, summary(n, v));
        }
        StatsCell {
            algorithm: alg,
            n,
            acc,
        }
    }

    #[test]
    fn aggregation_filters_and_brackets() {
        let mut vals: Vec<f64> = (0..29).map(|i| 100.0 + i as f64).collect();
        vals.push(1e6); // gross outlier
        let c = cell_with(Beb, 10, &vals);
        let p = c.acc.point(10.0, Metric::CwSlots);
        assert_eq!(p.dropped, 1);
        assert_eq!(p.kept, 29);
        assert!(p.ci_low <= p.median && p.median <= p.ci_high);
        assert!(p.median < 200.0);
    }

    #[test]
    fn series_building_and_percentages() {
        let cells = vec![
            cell_with(Beb, 10, &[100.0, 100.0, 100.0, 100.0]),
            cell_with(Beb, 20, &[200.0, 200.0, 200.0, 200.0]),
            cell_with(Sawtooth, 10, &[50.0, 50.0, 50.0, 50.0]),
            cell_with(Sawtooth, 20, &[40.0, 40.0, 40.0, 40.0]),
        ];
        let series = series_per_algorithm(&cells, &[Beb, Sawtooth], Metric::CwSlots);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].at(20.0).median, 200.0);
        let pct = final_percent_vs_first(&series);
        assert_eq!(pct, vec![("STB".to_string(), -80.0)]);
    }

    #[test]
    fn stats_extract_only_requested_metrics() {
        let c = cell_with(Beb, 5, &[10.0, 20.0]);
        assert_eq!(c.acc.sample(Metric::CwSlots), &[10.0, 20.0]);
        assert_eq!(c.acc.sample(Metric::TotalTimeUs), &[100.0, 200.0]);
        assert_eq!(c.acc.raw_median(Metric::CwSlots), 15.0);
        assert_eq!(c.acc.retained_bytes(), 2 * 2 * 8);
    }

    #[test]
    fn merge_of_disjoint_trial_ranges_matches_sequential_fold() {
        let metrics = [Metric::CwSlots, Metric::TotalTimeUs];
        let values = [10.0, 20.0, 30.0, 40.0, 50.0];
        let mut sequential = MetricStats::new(&metrics, values.len() as u32);
        let mut lo = MetricStats::new(&metrics, values.len() as u32);
        let mut hi = MetricStats::new(&metrics, values.len() as u32);
        for (t, &v) in values.iter().enumerate() {
            sequential.record(t as u32, summary(9, v));
            let shard = if t < 2 { &mut lo } else { &mut hi };
            shard.record(t as u32, summary(9, v));
        }
        assert!(!lo.is_complete());
        lo.try_merge(hi).unwrap();
        assert!(lo.is_complete());
        assert_eq!(lo, sequential);
    }

    #[test]
    fn merge_rejects_mismatched_metrics_and_overlap() {
        let mut a = MetricStats::new(&[Metric::CwSlots], 2);
        let b = MetricStats::new(&[Metric::Collisions], 2);
        let err = a.try_merge(b).unwrap_err();
        assert!(err.contains("different metrics"), "{err}");
        let mut c = MetricStats::new(&[Metric::CwSlots], 2);
        let mut d = MetricStats::new(&[Metric::CwSlots], 2);
        c.record(0, summary(5, 1.0));
        d.record(0, summary(5, 2.0));
        let err = c.try_merge(d).unwrap_err();
        assert!(err.contains("cw_slots") && err.contains("trial 0"), "{err}");
    }

    #[test]
    fn parts_round_trip_preserves_partial_state() {
        let mut acc = MetricStats::new(&[Metric::CwSlots, Metric::Collisions], 3);
        acc.record(1, summary(7, 5.0));
        let rebuilt = MetricStats::from_parts(acc.metrics().to_vec(), acc.raw_samples().to_vec());
        assert_eq!(rebuilt.metrics(), acc.metrics());
        for (r, a) in rebuilt.raw_samples().iter().zip(acc.raw_samples()) {
            let bits = |s: &contention_stats::stream::StreamingSample| {
                s.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(r), bits(a));
        }
    }

    #[test]
    #[should_panic(expected = "one buffer per metric")]
    fn from_parts_rejects_shape_mismatch() {
        let _ = MetricStats::from_parts(vec![Metric::CwSlots], vec![]);
    }

    #[test]
    #[should_panic(expected = "was not collected")]
    fn unrequested_metric_panics() {
        let c = cell_with(Beb, 5, &[10.0]);
        let _ = c.acc.sample(Metric::Collisions);
    }

    #[test]
    fn paired_differences_align_trials() {
        let a = [10.0, 20.0];
        let b = [4.0, 25.0];
        assert_eq!(paired_differences(&a, &b), vec![6.0, -5.0]);
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn empty_cell_panics() {
        let c = MetricStats::new(&[Metric::CwSlots], 0);
        let _ = c.point(1.0, Metric::CwSlots);
    }
}
