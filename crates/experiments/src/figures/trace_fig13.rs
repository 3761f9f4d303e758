//! Figure 13 — an execution trace of BEB with 20 stations.
//!
//! The paper uses this trace to argue "ACK timeout ≈ collision": every thin
//! red line (ACK-timeout wait) follows a transmission that overlapped another
//! one; every non-overlapping transmission gets its ACK. We render the same
//! picture in ASCII and verify the claim mechanically.

use crate::figures::Report;
use crate::options::Options;
use contention_core::algorithm::AlgorithmKind;
use contention_mac::{MacConfig, MacSim, SpanKind};
use contention_sim::engine::run_trial;

/// Runs the trace trial (through the engine's canonical single-trial path)
/// and renders it.
pub fn fig13(opts: &Options) -> Report {
    let n = 20;
    let kind = AlgorithmKind::Beb;
    let mut config = MacConfig::paper(kind, 64);
    config.capture_trace = true;
    let run = run_trial::<MacSim>("fig13", &config, n, 0);
    let trace = run.trace.expect("trace was requested");

    let mut report = Report::new("Figure 13 — execution of BEB with 20 stations (64 B payload)");
    report.line("legend: █ data (ACKed)   ▓ data (collided)   a ACK   - ACK-timeout wait");
    let width = opts.pick(100, 160);
    report.line(trace.render_ascii(width));

    let failures = trace
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::DataFail)
        .count() as u64;
    report.line(format!(
        "total time {:.0} µs; {} disjoint collisions involving {} station-transmissions; \
         {} ACK timeouts",
        run.metrics.total_time.as_micros_f64(),
        run.metrics.collisions,
        run.metrics.colliding_stations,
        run.metrics.total_ack_timeouts(),
    ));
    report.line(format!(
        "ACK timeout ≈ collision check: every failed transmission overlapped another \
         ({} failures = {} colliding station-transmissions; probe corruptions: {})",
        failures, run.metrics.colliding_stations, run.probe_corruptions
    ));

    // CSV of the raw spans for external plotting.
    let mut rows = vec![vec![
        "station".to_string(),
        "kind".to_string(),
        "start_us".to_string(),
        "end_us".to_string(),
    ]];
    for span in &trace.spans {
        rows.push(vec![
            span.station.to_string(),
            format!("{:?}", span.kind),
            format!("{:.3}", span.start.as_micros_f64()),
            format!("{:.3}", span.end.as_micros_f64()),
        ]);
    }
    report.rows_csv("fig13_trace_spans", rows);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_report_confirms_ack_timeout_collision_identity() {
        let r = fig13(&Options::default());
        assert!(r.body.contains("probe corruptions: 0"));
        assert!(r.body.contains('█'));
        // 21 rows of timeline (20 stations + axis) exist in the body.
        assert!(r.body.lines().filter(|l| l.contains('|')).count() >= 20);
    }
}
