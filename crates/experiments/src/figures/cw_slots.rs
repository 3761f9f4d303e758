//! Figures 3, 4 and 6 — contention-window slots in the MAC simulator.

use crate::aggregate::{series_per_algorithm, StatsCell};
use crate::figures::shared::{
    paper_algorithms, report_from_series, standard_mac_figure_from_cells,
};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;

/// Figure 3: CW slots, 64 B payload. The theory's prediction (Table II) —
/// each newer algorithm beats BEB — must hold here (Result 1).
pub fn fig3_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 3 — CW slots vs n (MAC sim, 64 B payload)",
        "fig3_cw_slots_64",
        Metric::CwSlots,
        cells,
        "LLB -49.4%, LB -68.2%, STB -83.0%",
    )
}

/// Figure 4: CW slots, 1024 B payload.
pub fn fig4_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 4 — CW slots vs n (MAC sim, 1024 B payload)",
        "fig4_cw_slots_1024",
        Metric::CwSlots,
        cells,
        "LLB -54.2%, LB -69.9%, STB -84.2%",
    )
}

/// Figure 6: CW slots needed to finish the first n/2 packets (64 B).
///
/// The paper's two observations: (1) the *remaining* n/2 packets account for
/// the bulk of the CW slots; (2) the improvement over BEB shrinks for the
/// first half (stragglers hurt BEB most). We print the half-completion table
/// plus the half/full ratio that supports observation (1).
pub fn fig6_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    let half = series_per_algorithm(cells, &paper_algorithms(), Metric::HalfCwSlots);
    let full = series_per_algorithm(cells, &paper_algorithms(), Metric::CwSlots);
    let mut report = report_from_series(
        "Figure 6 — CW slots to finish n/2 packets (MAC sim, 64 B payload)",
        "fig6_half_cw_slots_64",
        Metric::HalfCwSlots,
        &half,
        "LLB -25.0%, LB -56.4%, STB -77.7%",
    );
    report.line("share of CW slots consumed by the first n/2 packets (at largest n):");
    for (h, f) in half.iter().zip(&full) {
        let ratio = h.final_median() / f.final_median().max(1.0);
        report.line(format!(
            "  {:>4}: {:.0}%  (remaining n/2 packets take the other {:.0}%)",
            h.name,
            100.0 * ratio,
            100.0 * (1.0 - ratio)
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::run;

    fn opts() -> Options {
        Options {
            trials: Some(4),
            threads: Some(2),
            ..Options::default()
        }
    }

    #[test]
    fn fig3_orders_algorithms_as_theory_predicts() {
        let r = run("fig3", &opts());
        // The percent line must show all three challengers negative.
        let pct_line = r.body.lines().find(|l| l.starts_with("vs BEB")).unwrap();
        assert!(pct_line.contains("LB -"), "{pct_line}");
        assert!(pct_line.contains("STB -"), "{pct_line}");
    }

    #[test]
    fn fig6_reports_half_share() {
        let r = run("fig6", &opts());
        assert!(r.body.contains("share of CW slots"));
        assert!(r.body.contains("BEB"));
    }
}
