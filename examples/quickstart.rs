//! Quickstart: run one single-batch trial on both simulators and see the
//! paper's central finding in miniature.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use contention_resolution::prelude::*;

fn main() {
    let n = 100;
    println!("single batch of {n} stations, 64 B payload\n");

    println!("{:-^72}", " abstract model (assumptions A0-A2 only) ");
    println!(
        "{:>5} {:>12} {:>14} {:>10}",
        "alg", "CW slots", "collisions", "attempts"
    );
    for kind in AlgorithmKind::PAPER_SET {
        let config = WindowedConfig::abstract_model(kind);
        let t = run_trial::<WindowedSim>("quickstart-abs", &config, n, 0);
        // Every attempt either succeeded or timed out.
        let attempts = t.successes as f64 + t.ack_timeouts;
        println!(
            "{:>5} {:>12} {:>14} {:>10}",
            kind.label(),
            t.cw_slots,
            t.collisions,
            attempts
        );
    }
    println!("→ in the abstract model the newer algorithms clearly beat BEB on CW slots.\n");

    println!(
        "{:-^72}",
        " IEEE 802.11g DCF simulator (what NS3 measures) "
    );
    println!(
        "{:>5} {:>12} {:>14} {:>14} {:>12}",
        "alg", "CW slots", "total time", "collisions", "max ACK-TO"
    );
    for kind in AlgorithmKind::PAPER_SET {
        let config = MacConfig::paper(kind, 64);
        let mut rng = trial_rng(experiment_tag("quickstart-mac"), kind, n, 0);
        let run = MacSim::run(&config, n, &mut rng);
        let m = &run.metrics;
        assert_eq!(m.successes, n);
        println!(
            "{:>5} {:>12} {:>14} {:>14} {:>12}",
            kind.label(),
            m.cw_slots,
            format!("{:.0}µs", m.total_time.as_micros_f64()),
            m.collisions,
            m.max_ack_timeouts()
        );
    }
    println!(
        "→ once collision detection costs real time (transmission + ACK timeout),\n  \
         the ordering reverses: BEB wins on total time. That is the paper's Result 2."
    );
}
