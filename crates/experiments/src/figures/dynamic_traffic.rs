//! §VIII extension — long-lived bursty traffic.
//!
//! The paper's concluding question: does the collision-cost finding survive
//! when traffic is a *stream* of bursts rather than one batch? We run the
//! dynamic slotted simulator twice per algorithm over Poisson-timed bursts:
//!
//! * with **unit costs** (the A0–A2 world where a collision costs one slot),
//!   where the theory's CW-slot ordering should govern latency; and
//! * with **802.11g costs** (success ≈ 13 slots, collision ≈ 17 slots for a
//!   64 B payload), where the paper's collision-cost argument predicts BEB
//!   regains the lead.
//!
//! The two cost models are the sweep's `n` axis ([`DynAxis::CostPreset`]:
//! `n = 0` unit, `n = 1` MAC), so the whole figure is one engine grid —
//! shardable, checkpointable, and resumable like the batch figures.

use crate::aggregate::StatsCell;
use crate::figures::shared::{fold_grid, paper_algorithms, SweepDef};
use crate::figures::Report;
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;
use crate::table::render;
use contention_core::algorithm::AlgorithmKind;
use contention_core::util::percent_change;
use contention_sim::sched::CostSpec;
use contention_slotted::dynamic::{ArrivalProcess, DynAxis, DynamicConfig, DynamicSim};

fn arrivals(opts: &Options) -> ArrivalProcess {
    ArrivalProcess::PoissonBursts {
        rate: if opts.full { 0.000_5 } else { 0.000_8 },
        size: 60,
    }
}

fn config(opts: &Options) -> DynamicConfig {
    DynamicConfig {
        axis: DynAxis::CostPreset { payload_bytes: 64 },
        ..DynamicConfig::abstract_model(AlgorithmKind::Beb, arrivals(opts))
    }
}

/// Poisson bursts under both cost presets for every paper algorithm.
pub static SWEEP: SweepDef = SweepDef {
    tag: "dynamic",
    shape: |opts, metrics| GridMeta {
        algorithms: paper_algorithms(),
        ns: vec![0, 1],
        trials: opts.trials_or(5, 15),
        metrics: metrics.to_vec(),
        // The axis is a two-point cost-preset selector, not a size: both
        // cells simulate the same horizon.
        cost: CostSpec::Uniform,
    },
    run: |tag, grid, opts, hooks| fold_grid::<DynamicSim>(tag, config(opts), grid, opts, hooks),
};

pub fn report(opts: &Options, cells: &[StatsCell]) -> Report {
    let trials = SWEEP.grid(opts, &[]).trials;
    let arrivals = arrivals(opts);
    let mut report =
        Report::new("§VIII extension — long-lived bursty traffic (Poisson bursts of 60 packets)");
    report.line(format!(
        "offered load {:.3} packets/slot; mean packet latency in slots (median of {trials} trials)",
        arrivals.offered_load()
    ));

    let at = |alg: AlgorithmKind, n: u32, metric: Metric| -> f64 {
        cells
            .iter()
            .find(|c| c.algorithm == alg && c.n == n)
            .expect("grid cell present")
            .acc
            .raw_median(metric)
    };

    let mut rows = Vec::new();
    let mut beb = [0.0f64; 2];
    let mut winners: [Option<(String, f64)>; 2] = [None, None];
    for alg in paper_algorithms() {
        let lat_unit = at(alg, 0, Metric::MeanLatencySlots);
        let done_unit = at(alg, 0, Metric::CompletionRate);
        let lat_mac = at(alg, 1, Metric::MeanLatencySlots);
        let done_mac = at(alg, 1, Metric::CompletionRate);
        if alg == AlgorithmKind::Beb {
            beb = [lat_unit, lat_mac];
        }
        for (slot, lat) in [(0usize, lat_unit), (1, lat_mac)] {
            if winners[slot]
                .as_ref()
                .map(|(_, best)| lat < *best)
                .unwrap_or(true)
            {
                winners[slot] = Some((alg.label(), lat));
            }
        }
        rows.push(vec![
            alg.label(),
            format!("{lat_unit:.0}"),
            format!("{:+.0}%", percent_change(lat_unit, beb[0])),
            format!("{:.0}%", done_unit * 100.0),
            format!("{lat_mac:.0}"),
            format!("{:+.0}%", percent_change(lat_mac, beb[1])),
            format!("{:.0}%", done_mac * 100.0),
        ]);
    }
    report.line(render(
        &[
            "algorithm".into(),
            "A2 latency".into(),
            "vs BEB".into(),
            "done".into(),
            "802.11g latency".into(),
            "vs BEB".into(),
            "done".into(),
        ],
        &rows,
    ));
    let a2_winner = winners[0].clone().expect("ran").0;
    let mac_winner = winners[1].clone().expect("ran").0;
    report.line(format!(
        "unit-cost (A2) winner: {a2_winner}; 802.11g-cost winner: {mac_winner} — the \
         single-batch reversal {} to long-lived bursty traffic.",
        if mac_winner == "BEB" && a2_winner != "BEB" {
            "extends"
        } else {
            "partially extends"
        }
    ));
    report.rows_csv(
        "dynamic_bursty_latency",
        std::iter::once(vec![
            "algorithm".to_string(),
            "a2_latency_slots".to_string(),
            "a2_completion".to_string(),
            "mac_latency_slots".to_string(),
            "mac_completion".to_string(),
        ])
        .chain(rows.iter().map(|r| {
            vec![
                r[0].clone(),
                r[1].clone(),
                r[3].replace('%', ""),
                r[4].clone(),
                r[6].replace('%', ""),
            ]
        }))
        .collect(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::run;

    #[test]
    fn dynamic_report_runs_and_names_winners() {
        let opts = Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("dynamic", &opts);
        assert!(r.body.contains("winner"));
        assert!(r.body.contains("802.11g"));
    }
}
