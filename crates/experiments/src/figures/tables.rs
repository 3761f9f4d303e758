//! Tables I, II and III. Tables II and III fold from the one [`GROWTH`]
//! sweep.

use crate::aggregate::StatsCell;
use crate::figures::shared::{abstract_windowed, paper_algorithms, uniform_grid, SweepDef};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use crate::table::render;
use contention_core::algorithm::AlgorithmKind;
use contention_core::bounds::{collisions_bound, cw_slots_bound};
use contention_core::params::Phy80211g;
use contention_sim::engine::folded;

/// Table I: the 802.11g parameter set plus the frame times derived from it.
pub fn table1(_opts: &Options) -> Report {
    let p = Phy80211g::paper_defaults();
    let mut report = Report::new("Table I — experimental parameters (IEEE 802.11g)");
    let rows: Vec<Vec<String>> = vec![
        vec![
            "Data rate".into(),
            format!("{} Mbit/s", p.data_rate_bps / 1_000_000),
        ],
        vec!["Slot duration".into(), p.slot.to_string()],
        vec!["SIFS".into(), p.sifs.to_string()],
        vec!["DIFS".into(), p.difs.to_string()],
        vec!["ACK timeout".into(), p.ack_timeout.to_string()],
        vec!["Preamble".into(), p.preamble.to_string()],
        vec![
            "Packet overhead".into(),
            format!("{} bytes", p.header_overhead_bytes),
        ],
        vec![
            "CW min / max".into(),
            format!("{} / {}", p.cw_min, p.cw_max),
        ],
        vec!["RTS/CTS".into(), "off".into()],
    ];
    report.line(render(&["parameter".into(), "value".into()], &rows));
    report.line("derived frame times:");
    report.line(format!(
        "  64 B payload data frame : {} (paper: ≈19 µs + 20 µs preamble)",
        p.data_frame_time(64)
    ));
    report.line(format!(
        "  1024 B payload data frame: {} (paper: ≈161 µs + 20 µs preamble)",
        p.data_frame_time(1024)
    ));
    report.line(format!("  ACK frame                : {}", p.ack_time()));
    report.line(format!(
        "  RTS / CTS                : {} / {}",
        p.rts_time(),
        p.cts_time()
    ));
    report
}

/// The geometric n grid of the growth checks, so ratio flatness is
/// meaningful.
fn growth_ns(opts: &Options) -> Vec<u32> {
    if opts.full {
        vec![100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800]
    } else {
        vec![100, 400, 1_600, 6_400]
    }
}

/// The growth-check sweep shared by Tables II and III: the abstract model
/// over `growth_ns`; each table folds out only its own metric.
pub static GROWTH: SweepDef = SweepDef {
    tag: "growth-tables",
    shape: |opts, metrics| {
        uniform_grid(
            paper_algorithms(),
            growth_ns(opts),
            opts.trials_or(8, 30),
            metrics,
        )
    },
    run: abstract_windowed,
};

/// The Θ-shape each algorithm is supposed to follow.
fn formula(kind: AlgorithmKind, what: &str) -> String {
    match (kind, what) {
        (AlgorithmKind::Beb, "cw") => "Θ(n lg n)".into(),
        (AlgorithmKind::LogBackoff, "cw") => "Θ(n lg n / lg lg n)".into(),
        (AlgorithmKind::LogLogBackoff, "cw") => "Θ(n lg lg n / lg lg lg n)".into(),
        (AlgorithmKind::Sawtooth, "cw") => "Θ(n)".into(),
        (AlgorithmKind::Beb, _) => "O(n)".into(),
        (AlgorithmKind::LogBackoff, _) => "Θ(n lg n / lg lg n)".into(),
        (AlgorithmKind::LogLogBackoff, _) => "Θ(n lg lg n / lg lg lg n)".into(),
        (AlgorithmKind::Sawtooth, _) => "Θ(n)".into(),
        _ => "—".into(),
    }
}

/// Builds the measured/bound ratio table for a metric + bound function.
fn growth_table(
    title: &str,
    csv_name: &str,
    what: &str,
    metric: Metric,
    bound: fn(AlgorithmKind, u64) -> f64,
    opts: &Options,
    cells: &[StatsCell],
) -> Report {
    let ns = growth_ns(opts);
    let mut report = Report::new(title);
    let mut header = vec!["algorithm".to_string(), "guarantee".to_string()];
    for &n in &ns {
        header.push(format!("n={n}"));
    }
    header.push("flatness".to_string());
    let mut rows = Vec::new();
    let mut csv_rows = vec![header.clone()];
    for &alg in &AlgorithmKind::PAPER_SET {
        let ratios: Vec<f64> = ns
            .iter()
            .map(|&n| {
                let measured = folded(cells, alg, n).acc.point(n as f64, metric).median;
                measured / bound(alg, n as u64)
            })
            .collect();
        // Flatness over the upper half of the grid, where the asymptotics
        // should already hold: max ratio / min ratio, 1.0 = perfectly flat.
        let tail = &ratios[ratios.len() / 2..];
        let flat = tail.iter().cloned().fold(f64::MIN, f64::max)
            / tail.iter().cloned().fold(f64::MAX, f64::min);
        let mut row = vec![alg.label(), formula(alg, what)];
        for r in &ratios {
            row.push(format!("{r:.2}"));
        }
        row.push(format!("{flat:.2}"));
        csv_rows.push(row.clone());
        rows.push(row);
    }
    report.line(render(&header, &rows));
    report.line(
        "cells are measured-median / bound(n); a flat row (flatness near 1) means the \
         measured growth matches the guarantee's shape",
    );
    report.rows_csv(csv_name, csv_rows);
    report
}

/// Table II: CW-slot guarantees vs measured growth (abstract model).
pub fn table2_report(opts: &Options, cells: &[StatsCell]) -> Report {
    growth_table(
        "Table II — CW-slot guarantees vs measured growth (abstract simulator)",
        "table2_cw_growth",
        "cw",
        Metric::CwSlots,
        cw_slots_bound,
        opts,
        cells,
    )
}

/// Table III: collision bounds vs measured growth (abstract model).
pub fn table3_report(opts: &Options, cells: &[StatsCell]) -> Report {
    let mut report = growth_table(
        "Table III — collision bounds vs measured growth (abstract simulator)",
        "table3_collision_growth",
        "collisions",
        Metric::Collisions,
        collisions_bound,
        opts,
        cells,
    );
    report.line(
        "total-time column of Table III: T_A = Θ(C_A·P + W_A); see `repro model` \
         for the packet-size threshold analysis",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::run;

    #[test]
    fn table1_prints_all_parameters() {
        let r = table1(&Options::default());
        for needle in [
            "54 Mbit/s",
            "9µs",
            "16µs",
            "34µs",
            "75µs",
            "20µs",
            "1 / 1024",
        ] {
            assert!(r.body.contains(needle), "missing {needle}: {}", r.body);
        }
    }

    #[test]
    fn growth_tables_have_flat_beb_and_stb_rows() {
        let opts = Options {
            trials: Some(5),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("table3", &opts);
        assert!(r.body.contains("O(n)"));
        assert!(r.body.contains("flatness"));
    }
}
