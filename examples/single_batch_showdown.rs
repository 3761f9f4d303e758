//! A miniature of the paper's Figures 3 and 7: sweep the batch size and
//! watch the CW-slot winner lose on total time.
//!
//! ```text
//! cargo run --release --example single_batch_showdown [-- n_max trials]
//! ```

use contention_resolution::prelude::*;
use contention_stats::summary::median;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_max: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(150);
    let trials: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(9);
    let ns: Vec<u32> = (1..=5).map(|i| i * n_max / 5).filter(|&n| n > 0).collect();

    for metric in ["CW slots", "total time (µs)"] {
        println!("{metric} (median of {trials} trials, 64 B payload)");
        print!("{:>6}", "n");
        for kind in AlgorithmKind::PAPER_SET {
            print!("{:>12}", kind.label());
        }
        println!();
        for &n in &ns {
            print!("{n:>6}");
            for kind in AlgorithmKind::PAPER_SET {
                let config = MacConfig::paper(kind, 64);
                let xs: Vec<f64> = (0..trials)
                    .map(|t| {
                        let mut rng = trial_rng(experiment_tag("showdown"), kind, n, t);
                        let run = MacSim::run(&config, n, &mut rng);
                        if metric == "CW slots" {
                            run.metrics.cw_slots as f64
                        } else {
                            run.metrics.total_time.as_micros_f64()
                        }
                    })
                    .collect();
                print!("{:>12.0}", median(&xs));
            }
            println!();
        }
        println!();
    }
    println!(
        "the CW-slot column order (STB best) and the total-time order (BEB best)\n\
         disagree — assumption A2 hides the cost of collisions."
    );
}
