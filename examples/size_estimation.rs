//! The §VI size-estimation approach: probe the channel, estimate n, then run
//! fixed backoff at the estimate (Figures 18–19 in miniature).
//!
//! ```text
//! cargo run --release --example size_estimation
//! ```

use contention_resolution::prelude::*;
use contention_stats::summary::median;

fn main() {
    let trials = 9;
    println!(
        "{:>5} {:>14} {:>14} {:>12} {:>12} {:>12}",
        "n", "est(k=3)", "est(k=5)", "BEB µs", "Bo3 µs", "Bo5 µs"
    );
    for n in [25u32, 50, 100, 150] {
        let mut row: Vec<String> = vec![format!("{n:>5}")];
        // Median station estimate for each k.
        for k in [3u32, 5] {
            let kind = AlgorithmKind::BestOfK { k };
            let config = MacConfig::paper(kind, 64);
            let per_trial: Vec<f64> = (0..trials)
                .map(|t| {
                    let mut rng = trial_rng(experiment_tag("size-est"), kind, n, t);
                    let run = MacSim::run(&config, n, &mut rng);
                    let mut est: Vec<f64> =
                        run.estimates.iter().flatten().map(|&w| w as f64).collect();
                    est.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    est[est.len() / 2]
                })
                .collect();
            row.push(format!("{:>14.0}", median(&per_trial)));
        }
        // Total time for BEB and both Best-of-k variants.
        for kind in [
            AlgorithmKind::Beb,
            AlgorithmKind::BestOfK { k: 3 },
            AlgorithmKind::BestOfK { k: 5 },
        ] {
            let config = MacConfig::paper(kind, 64);
            let per_trial: Vec<f64> = (0..trials)
                .map(|t| {
                    let mut rng = trial_rng(experiment_tag("size-est-tt"), kind, n, t);
                    MacSim::run(&config, n, &mut rng)
                        .metrics
                        .total_time
                        .as_micros_f64()
                })
                .collect();
            row.push(format!("{:>12.0}", median(&per_trial)));
        }
        println!("{}", row.join(" "));
    }
    println!(
        "\nestimates overestimate n (2^i granularity), so fixed backoff at the\n\
         estimate rarely collides — beating BEB by ~25-35% (paper: ~25%)."
    );

    // Show the analytical side too.
    let spec = BestOfKSpec::paper(5);
    println!(
        "analytic check: for n = 150, the first phase with majority-clear probability\n\
         over 1/2 is i = {} (estimate 2^i = {}), and the whole estimation phase costs\n\
         at most {} — negligible next to the backoff stage.",
        spec.typical_phase(150),
        spec.estimate_for_phase(spec.typical_phase(150)),
        spec.max_duration()
    );
}
