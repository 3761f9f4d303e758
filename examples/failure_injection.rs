//! Failure injection: lose ACKs to "wireless effects" and watch stations
//! misdiagnose them as collisions — the paper's point that a sender cannot
//! tell the difference, so the same §III-B costs apply either way.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use contention_resolution::prelude::*;

fn main() {
    let n = 60;
    println!(
        "{:>10} {:>12} {:>14} {:>16} {:>14}",
        "ACK loss", "total µs", "collisions", "ACK timeouts", "attempts"
    );
    for loss in [0.0, 0.02, 0.05, 0.10, 0.20] {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
        config.ack_loss_prob = loss;
        let mut rng = trial_rng(
            experiment_tag("failure-injection"),
            AlgorithmKind::Beb,
            n,
            0,
        );
        let run = MacSim::run(&config, n, &mut rng);
        let m = &run.metrics;
        assert_eq!(m.successes, n);
        println!(
            "{:>9.0}% {:>12.0} {:>14} {:>16} {:>14}",
            loss * 100.0,
            m.total_time.as_micros_f64(),
            m.collisions,
            m.total_ack_timeouts(),
            m.total_attempts()
        );
    }
    println!(
        "\nwith loss injected, ACK timeouts exceed true collisions: the extra\n\
         timeouts are clean transmissions whose ACK vanished — yet the sender\n\
         pays the full collision-detection price (retransmission + timeout)\n\
         and doubles its window, exactly as the paper's A2 critique predicts."
    );
}
