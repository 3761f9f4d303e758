//! Refactor-guard golden fixture for the MAC hot-path overhaul.
//!
//! The indexed event queue, the incremental medium bookkeeping and the
//! per-worker scratch arena are all *performance* changes: none of them may
//! move a single bit of any simulation result. This test pins that claim
//! directly — [`TrialSummary`] outputs for a matrix of `(config, n, trial)`
//! seeds, recorded with the pre-refactor simulator, rendered with every
//! `f64` as its exact bit pattern so float formatting cannot hide drift.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test hot_path_golden
//! ```

use contention_resolution::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "tests/golden/hot_path_summaries.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// Bit-exact rendering: floats as hex bit patterns, integers as decimals.
fn render(label: &str, n: u32, trial: u32, t: &TrialSummary) -> String {
    let mut line = format!("{label} n={n} trial={trial}");
    let mut field = |name: &str, x: f64| {
        let _ = write!(line, " {name}={:016x}", x.to_bits());
    };
    field("cw", t.cw_slots);
    field("hcw", t.half_cw_slots);
    field("tt", t.total_time_us);
    field("ht", t.half_time_us);
    field("col", t.collisions);
    field("cst", t.colliding_stations);
    field("ato", t.ack_timeouts);
    field("mato", t.max_ack_timeouts);
    field("matt", t.max_ack_timeout_time_us);
    field("est", t.median_estimate);
    let _ = write!(line, " succ={}", t.successes);
    line
}

/// The seed matrix: every MAC code path the refactor touches (plain DCF,
/// RTS/CTS, EIFS off, softened channel, BEST-OF-k estimation, truncation
/// valve) plus the windowed reference backend.
fn generate() -> String {
    let mut out = String::new();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    let mac =
        |push: &mut dyn FnMut(String), label: &str, config: &MacConfig, n: u32, trial: u32| {
            let t: TrialSummary = run_trial::<MacSim>("hot-path-golden", config, n, trial).into();
            push(render(&format!("mac/{label}"), n, trial, &t));
        };

    for kind in AlgorithmKind::PAPER_SET {
        let config = MacConfig::paper(kind, 64);
        for n in [1u32, 2, 20, 60] {
            for trial in 0..3 {
                mac(&mut push, &format!("paper64/{kind}"), &config, n, trial);
            }
        }
    }
    let big = MacConfig::paper(AlgorithmKind::Beb, 1024);
    mac(&mut push, "paper1024/BEB", &big, 40, 0);
    let mut rts = MacConfig::paper(AlgorithmKind::LogBackoff, 1024);
    rts.rts_cts = true;
    for trial in 0..3 {
        mac(&mut push, "rtscts/LB", &rts, 25, trial);
    }
    let mut no_eifs = MacConfig::paper(AlgorithmKind::Beb, 64);
    no_eifs.use_eifs = false;
    mac(&mut push, "noeifs/BEB", &no_eifs, 30, 0);
    let soft = MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::softened(0.7));
    for trial in 0..3 {
        mac(&mut push, "soft0.7/BEB", &soft, 30, trial);
    }
    let noisy = MacConfig::with_channel(
        AlgorithmKind::Sawtooth,
        64,
        ChannelModel {
            recovery: Recovery::Geometric { base: 0.5 },
            noise: 0.05,
        },
    );
    mac(&mut push, "geo-noise/STB", &noisy, 25, 1);
    let bok = MacConfig::paper(AlgorithmKind::BestOfK { k: 3 }, 64);
    for trial in 0..2 {
        mac(&mut push, "bestof3", &bok, 35, trial);
    }
    let mut valve = MacConfig::paper(AlgorithmKind::Beb, 64);
    valve.max_sim_time = Nanos::from_millis(2);
    mac(&mut push, "valve2ms/BEB", &valve, 40, 0);
    let mut loss = MacConfig::paper(AlgorithmKind::Beb, 64);
    loss.ack_loss_prob = 0.3;
    mac(&mut push, "ackloss0.3/BEB", &loss, 20, 0);

    for kind in AlgorithmKind::PAPER_SET {
        let config = WindowedConfig::abstract_model(kind);
        for (n, trial) in [(1u32, 0u32), (100, 0), (100, 1), (2000, 0)] {
            let t = run_trial::<WindowedSim>("hot-path-golden", &config, n, trial);
            push(render(&format!("windowed/{kind}"), n, trial, &t));
        }
    }
    out
}

#[test]
fn summaries_are_bit_identical_to_the_pre_refactor_fixture() {
    let got = generate();
    let path = fixture_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); REGEN_GOLDEN=1 to create",
            FIXTURE
        )
    });
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first divergence at fixture line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "fixture line count changed"
        );
        panic!("fixture diverged");
    }
}
