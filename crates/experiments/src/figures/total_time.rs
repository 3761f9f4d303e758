//! Figures 7–10 — total time and half-completion time in the MAC simulator.
//!
//! These are the paper's headline reversal: the ordering of Figures 3–6
//! flips once the cost of collisions is measured (Result 2).

use crate::aggregate::StatsCell;
use crate::figures::shared::standard_mac_figure_from_cells;
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;

/// Figure 7: total time, 64 B payload.
pub fn fig7_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 7 — total time vs n (MAC sim, 64 B payload)",
        "fig7_total_time_64",
        Metric::TotalTimeUs,
        cells,
        "LLB +5.6%, LB +19.3%, STB +26.5% (ordering reversed!)",
    )
}

/// Figure 8: total time, 1024 B payload (larger packets favour BEB more).
pub fn fig8_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 8 — total time vs n (MAC sim, 1024 B payload)",
        "fig8_total_time_1024",
        Metric::TotalTimeUs,
        cells,
        "LLB +9.1%, LB +25.4%, STB +35.4%",
    )
}

/// Figure 9: time until n/2 packets complete, 64 B — stragglers are *not*
/// the explanation; BEB leads on the first half too.
pub fn fig9_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 9 — time for n/2 packets vs n (MAC sim, 64 B payload)",
        "fig9_half_time_64",
        Metric::HalfTimeUs,
        cells,
        "LLB +13.1%, LB +17.3%, STB +25.4%",
    )
}

/// Figure 10: time until n/2 packets complete, 1024 B.
pub fn fig10_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 10 — time for n/2 packets vs n (MAC sim, 1024 B payload)",
        "fig10_half_time_1024",
        Metric::HalfTimeUs,
        cells,
        "LLB +10.1%, LB +16.6%, STB +26.6%",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::tests::run;

    #[test]
    fn fig7_shows_the_reversal() {
        let opts = Options {
            trials: Some(5),
            threads: Some(2),
            ..Options::default()
        };
        let r = run("fig7", &opts);
        let pct_line = r.body.lines().find(|l| l.starts_with("vs BEB")).unwrap();
        // The strongly-separated challengers must be *slower* than BEB in
        // total time (LLB sits within noise of BEB at few trials, so it is
        // asserted only in the integration tests with more trials).
        assert!(
            pct_line.contains(", LB +") || pct_line.starts_with("vs BEB at n=150: LB +"),
            "{pct_line}"
        );
        assert!(pct_line.contains("STB +"), "{pct_line}");
    }
}
