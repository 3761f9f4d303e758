//! Figures 11 and 12 — per-station ACK-timeout diagnostics (64 B payload).
//!
//! These figures are the paper's "important hint" (§III-B): the newer
//! algorithms incur substantially more ACK timeouts — i.e. collisions — and
//! each one forces a costly retransmission.

use crate::aggregate::StatsCell;
use crate::figures::shared::standard_mac_figure_from_cells;
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;

/// Figure 11: maximum number of ACK timeouts suffered by any station.
pub fn fig11_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 11 — max ACK timeouts per station vs n (MAC sim, 64 B payload)",
        "fig11_max_ack_timeouts_64",
        Metric::MaxAckTimeouts,
        cells,
        "BEB ≈ 9 at n=150; STB worst despite its O(n) collision bound (§V-A(ii))",
    )
}

/// Figure 12: ACK-timeout waiting time of the station from Figure 11.
pub fn fig12_report(_opts: &Options, cells: &[StatsCell]) -> Report {
    standard_mac_figure_from_cells(
        "Figure 12 — max time waiting for ACK timeouts vs n (MAC sim, 64 B payload)",
        "fig12_max_ack_timeout_time_64",
        Metric::MaxAckTimeoutTimeUs,
        cells,
        "order-of-magnitude below transmission time; BEB ≈ 1,100 µs at n=150",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::series_per_algorithm;
    use crate::figures::shared::{paper_algorithms, SweepHooks, MAC_64};

    #[test]
    fn beb_has_fewest_max_ack_timeouts() {
        let opts = Options {
            trials: Some(5),
            threads: Some(2),
            ..Options::default()
        };
        let cells = MAC_64.fold(&opts, &[Metric::MaxAckTimeouts], &SweepHooks::none());
        let series = series_per_algorithm(&cells, &paper_algorithms(), Metric::MaxAckTimeouts);
        let beb = series[0].final_median();
        for s in &series[1..] {
            assert!(
                s.final_median() >= beb,
                "{} ({}) should suffer at least BEB's max ACK timeouts ({beb})",
                s.name,
                s.final_median()
            );
        }
    }

    #[test]
    fn timeout_time_is_75us_per_timeout() {
        let opts = Options {
            trials: Some(3),
            threads: Some(2),
            ..Options::default()
        };
        let cells = MAC_64.fold(
            &opts,
            &[Metric::MaxAckTimeouts, Metric::MaxAckTimeoutTimeUs],
            &SweepHooks::none(),
        );
        for c in &cells {
            let counts = c.acc.sample(Metric::MaxAckTimeouts);
            let times = c.acc.sample(Metric::MaxAckTimeoutTimeUs);
            for (count, time) in counts.iter().zip(times) {
                assert!(
                    (time - 75.0 * count).abs() < 1e-6,
                    "timeout time must be 75 µs × count"
                );
            }
        }
    }
}
