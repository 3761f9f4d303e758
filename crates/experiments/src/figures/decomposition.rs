//! §III-B — decomposing where total time goes (Result 3).
//!
//! The paper's back-of-the-envelope: for BEB at n = 150 (64 B payload), the
//! time lost to (I) collided transmissions, (II) ACK timeouts and (III) CW
//! slots lower-bounds total time at ≈22 237 µs, with transmission time
//! dominating ACK timeouts by an order of magnitude. We measure the same
//! three components directly.

use crate::figures::shared::{fold_grid, uniform_grid, SweepHooks};
use crate::figures::Report;
use crate::options::Options;
use crate::summary::Metric;
use contention_core::algorithm::AlgorithmKind;
use contention_core::model::{CostModel, Decomposition};
use contention_core::params::Phy80211g;
use contention_core::time::Nanos;
use contention_mac::{MacConfig, MacSim};

pub fn run(opts: &Options) -> Report {
    let n = 150;
    let payload = 64;
    let grid = uniform_grid(
        vec![AlgorithmKind::Beb],
        vec![n],
        opts.trials_or(8, 30),
        &[
            Metric::Collisions,
            Metric::CwSlots,
            Metric::MaxAckTimeoutTimeUs,
            Metric::TotalTimeUs,
        ],
    );
    let cells = fold_grid::<MacSim>(
        "decomp",
        MacConfig::paper(AlgorithmKind::Beb, payload),
        &grid,
        opts,
        &SweepHooks::none(),
    );
    let cell = &cells[0].acc;
    let x = n as f64;
    let collisions = cell.point(x, Metric::Collisions).median;
    let cw_slots = cell.point(x, Metric::CwSlots).median;
    let max_to_time = cell.point(x, Metric::MaxAckTimeoutTimeUs).median;
    let total = cell.point(x, Metric::TotalTimeUs).median;

    let phy = Phy80211g::paper_defaults();
    let measured = Decomposition::from_measurements(
        &phy,
        payload,
        collisions as u64,
        Nanos::from_micros(max_to_time as u64),
        cw_slots as u64,
    );
    let paper = Decomposition::paper_example_beb_n150();

    let mut report = Report::new(format!(
        "§III-B — total-time decomposition, BEB, n = {n}, {payload} B payload"
    ));
    report.line(format!(
        "measured medians: {collisions:.0} disjoint collisions, {cw_slots:.0} CW slots, \
         worst-station ACK-timeout time {max_to_time:.0} µs"
    ));
    report.line("");
    report.line(format!(
        "(I)   collided transmission time : {:>9.0} µs   (paper: 13,163 µs)",
        measured.transmission.as_micros_f64()
    ));
    report.line(format!(
        "(II)  ACK-timeout waiting        : {:>9.0} µs   (paper: ≈1,100 µs)",
        measured.ack_timeouts.as_micros_f64()
    ));
    report.line(format!(
        "(III) CW slots                   : {:>9.0} µs   (paper: 7,974 µs)",
        measured.cw_slots.as_micros_f64()
    ));
    report.line(format!(
        "lower bound                      : {:>9.0} µs   (paper: 22,237 µs)",
        measured.lower_bound().as_micros_f64()
    ));
    report.line(format!(
        "measured total time              : {total:>9.0} µs"
    ));
    report.line("");
    let holds = measured.lower_bound().as_micros_f64() <= total;
    report.line(format!(
        "lower bound ≤ measured total: {}",
        if holds {
            "holds"
        } else {
            "VIOLATED — investigate"
        }
    ));
    report.line(format!(
        "transmission dominates ACK timeouts by {:.1}× (paper: an order of magnitude)",
        measured.transmission.as_micros_f64() / measured.ack_timeouts.as_micros_f64().max(1.0)
    ));
    let model = CostModel::for_payload(&phy, payload);
    let model_large = CostModel::for_payload(&phy, 1024);
    report.line(format!(
        "one disjoint collision costs {:.1} CW slots at 64 B and {:.1} at 1024 B \
         — why optimizing CW slots at the expense of collisions backfires (Result 4)",
        model.collision_cost_in_slots(),
        model_large.collision_cost_in_slots()
    ));
    report.line(format!(
        "paper's worked example total: {} (ours recomputes it from Table I: see \
         contention-core::model tests)",
        paper.lower_bound()
    ));
    report.rows_csv(
        "decomp_beb_n150",
        vec![
            vec!["component".into(), "measured_us".into(), "paper_us".into()],
            vec![
                "transmission".into(),
                format!("{:.0}", measured.transmission.as_micros_f64()),
                "13163".into(),
            ],
            vec![
                "ack_timeouts".into(),
                format!("{:.0}", measured.ack_timeouts.as_micros_f64()),
                "1100".into(),
            ],
            vec![
                "cw_slots".into(),
                format!("{:.0}", measured.cw_slots.as_micros_f64()),
                "7974".into(),
            ],
            vec![
                "lower_bound".into(),
                format!("{:.0}", measured.lower_bound().as_micros_f64()),
                "22237".into(),
            ],
            vec!["measured_total".into(), format!("{total:.0}"), "—".into()],
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_holds_against_measured_total() {
        let opts = Options {
            trials: Some(5),
            threads: Some(2),
            ..Options::default()
        };
        let r = run(&opts);
        assert!(
            r.body.contains("lower bound ≤ measured total: holds"),
            "{}",
            r.body
        );
    }
}
