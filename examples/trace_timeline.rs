//! Figure 13 live: an ASCII execution trace of BEB with 20 stations.
//!
//! Thick blocks are transmissions (█ acknowledged, ▓ collided), `a` marks the
//! AP's ACK, and `-` the ACK-timeout wait after a collision. Every ▓ block
//! vertically overlaps another ▓ block — "virtually all ACK failures result
//! from a collision".
//!
//! ```text
//! cargo run --release --example trace_timeline [-- n width]
//! ```

use contention_resolution::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let width: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(120);

    let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
    config.capture_trace = true;
    let mut rng = trial_rng(experiment_tag("trace-timeline"), AlgorithmKind::Beb, n, 0);
    let run = MacSim::run(&config, n, &mut rng);
    let trace = run.trace.expect("trace requested");

    println!("execution of BEB with {n} stations (64 B payload)");
    println!("legend: █ data ACKed   ▓ data collided   a ACK   - ACK-timeout wait\n");
    print!("{}", trace.render_ascii(width));
    println!(
        "\ntotal time {:.0} µs, {} disjoint collisions, {} ACK timeouts, \
         station timelines overlap-free: {}",
        run.metrics.total_time.as_micros_f64(),
        run.metrics.collisions,
        run.metrics.total_ack_timeouts(),
        trace.first_overlap().is_none()
    );
}
