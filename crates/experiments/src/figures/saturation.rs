//! Saturation phase diagram — offered load sweep on the dynamic engine.
//!
//! The batch experiments fix the workload and vary `n`; this one fixes the
//! channel (802.11g costs, 64 B payload) and sweeps the *offered load* from
//! well under capacity to past it, asking where each algorithm's dynamic
//! behaviour transitions from "stable queue, bounded latency" to
//! "saturated: completion collapses and latency is set by the drain window".
//!
//! The engine's `n` axis carries the load in **per-mille of channel
//! capacity** ([`DynAxis::LoadPerMille`]): `n = 900` means arrivals at 90 %
//! of the `1/success_cost` packets-per-slot the channel could serve
//! back-to-back, so `n = 1000` is the nominal phase boundary before any
//! collision overhead. The interesting finding is how far *below* 1000 each
//! backoff algorithm's real boundary sits — collision cost eats capacity,
//! and it eats different amounts per algorithm.
//!
//! Riding the standard grid makes the sweep shardable: `repro shard
//! saturation` / `repro merge` reproduce this report byte-for-byte.

use crate::aggregate::StatsCell;
use crate::figures::shared::{fold_grid, paper_algorithms, SweepDef};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;
use crate::table::render;
use contention_core::algorithm::AlgorithmKind;
use contention_sim::sched::CostSpec;
use contention_slotted::dynamic::{ArrivalProcess, DynAxis, DynamicConfig, DynamicSim};

/// A cell counts as "stable" when its median completion rate is at least
/// this; the phase boundary is the largest swept load that still clears it.
const STABLE_COMPLETION: f64 = 0.98;

fn config(opts: &Options) -> DynamicConfig {
    // The configured rate is a placeholder — the LoadPerMille axis rescales
    // it per cell. Horizon/drain are sized so full mode resolves the
    // boundary with steady-state confidence while quick mode stays fast.
    let (horizon, drain) = if opts.full {
        (60_000, 60_000)
    } else {
        (12_000, 12_000)
    };
    DynamicConfig {
        axis: DynAxis::LoadPerMille,
        horizon_slots: horizon,
        drain_slots: drain,
        ..DynamicConfig::mac_costs(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.001 },
            64,
        )
    }
}

/// Swept loads in per-mille of channel capacity.
fn loads(opts: &Options) -> Vec<u32> {
    if opts.full {
        vec![50, 100, 150, 200, 250, 300, 400, 500, 600, 800, 1000, 1200]
    } else {
        vec![100, 200, 300, 400, 600, 800, 1000]
    }
}

/// The offered-load sweep for every paper algorithm on 802.11g costs.
pub static SWEEP: SweepDef = SweepDef {
    tag: "saturation",
    shape: |opts, metrics| GridMeta {
        algorithms: paper_algorithms(),
        ns: loads(opts),
        trials: opts.trials_or(3, 10),
        metrics: metrics.to_vec(),
        // The load axis is per-mille of capacity: arrivals (and so work per
        // trial) grow linearly along it.
        cost: CostSpec::LinearN,
    },
    run: |tag, grid, opts, hooks| fold_grid::<DynamicSim>(tag, config(opts), grid, opts, hooks),
};

pub fn report(opts: &Options, cells: &[StatsCell]) -> Report {
    let cfg = config(opts);
    let loads = loads(opts);
    let mut report =
        Report::new("saturation phase diagram — offered load sweep, 802.11g costs (64 B payload)");
    report.line(format!(
        "load axis: per-mille of channel capacity (1/{} packets per slot); \
         horizon {} slots + drain {} slots; median of {} trials",
        cfg.success_cost,
        cfg.horizon_slots,
        cfg.drain_slots,
        SWEEP.grid(opts, &[]).trials
    ));

    let at = |alg: AlgorithmKind, n: u32, metric: Metric| -> f64 {
        cells
            .iter()
            .find(|c| c.algorithm == alg && c.n == n)
            .expect("grid cell present")
            .acc
            .raw_median(metric)
    };

    let mut csv = vec![vec![
        "algorithm".to_string(),
        "load_permille".to_string(),
        "throughput_pkts_per_slot".to_string(),
        "completion".to_string(),
        "p50_latency_slots".to_string(),
        "p99_latency_slots".to_string(),
        "mean_latency_slots".to_string(),
    ]];
    let mut boundaries = Vec::new();
    for alg in paper_algorithms() {
        let mut rows = Vec::new();
        let mut boundary: Option<u32> = None;
        for &load in &loads {
            let throughput = at(alg, load, Metric::Throughput);
            let completion = at(alg, load, Metric::CompletionRate);
            let p50 = at(alg, load, Metric::P50LatencySlots);
            let p99 = at(alg, load, Metric::P99LatencySlots);
            let mean = at(alg, load, Metric::MeanLatencySlots);
            if completion >= STABLE_COMPLETION {
                boundary = Some(boundary.map_or(load, |b: u32| b.max(load)));
            }
            rows.push(vec![
                format!("{load}"),
                format!("{throughput:.5}"),
                format!("{:.1}%", completion * 100.0),
                format!("{p50:.0}"),
                format!("{p99:.0}"),
            ]);
            csv.push(vec![
                alg.label(),
                format!("{load}"),
                format!("{throughput:.6}"),
                format!("{completion:.4}"),
                format!("{p50:.1}"),
                format!("{p99:.1}"),
                format!("{mean:.1}"),
            ]);
        }
        report.line(format!("{}:", alg.label()));
        report.line(render(
            &[
                "load ‰".into(),
                "throughput".into(),
                "done".into(),
                "p50 lat".into(),
                "p99 lat".into(),
            ],
            &rows,
        ));
        boundaries.push((alg.label(), boundary));
    }
    let rendered: Vec<String> = boundaries
        .iter()
        .map(|(name, b)| match b {
            Some(load) => format!("{name} ≤{load}‰"),
            None => format!("{name} <{}‰", loads[0]),
        })
        .collect();
    report.line(format!(
        "phase boundary (largest load with median completion ≥ {:.0}%): {}",
        STABLE_COMPLETION * 100.0,
        rendered.join(", ")
    ));
    report.rows_csv("saturation_phase", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::sharding::find_shardable;
    use crate::figures::shared::SweepHooks;
    use crate::figures::tests::run;

    #[test]
    fn saturation_report_shows_boundary_and_all_algorithms() {
        let opts = Options {
            trials: Some(2),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("saturation", &opts);
        assert!(r.body.contains("phase boundary"), "{}", r.body);
        for alg in paper_algorithms() {
            assert!(r.body.contains(&alg.label()), "{}", r.body);
        }
        assert_eq!(r.csv.len(), 1);
    }

    #[test]
    fn phase_boundary_sits_between_the_load_extremes() {
        let opts = Options {
            trials: Some(2),
            threads: Some(2),
            ..Options::default()
        };
        let entry = find_shardable("saturation").expect("a split row");
        let cells = (entry.cells)(&opts, &SweepHooks::none());
        let completion = |alg, load| {
            cells
                .iter()
                .find(|c| c.algorithm == alg && c.n == load)
                .unwrap()
                .acc
                .raw_median(Metric::CompletionRate)
        };
        for alg in paper_algorithms() {
            assert!(
                completion(alg, 100) >= STABLE_COMPLETION,
                "{alg:?} unstable at 10% load"
            );
            assert!(
                completion(alg, 1000) < STABLE_COMPLETION,
                "{alg:?} stable at nominal capacity — collision cost should forbid that"
            );
        }
    }
}
