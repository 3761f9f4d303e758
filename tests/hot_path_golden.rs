//! Refactor-guard golden fixture for the MAC hot-path overhaul.
//!
//! The indexed event queue, the incremental medium bookkeeping and the
//! per-worker scratch arena are all *performance* changes: none of them may
//! move a single bit of any simulation result. This test pins that claim
//! directly — [`TrialSummary`] outputs for a matrix of `(config, n, trial)`
//! seeds, recorded with the pre-refactor simulator, rendered with every
//! `f64` as its exact bit pattern so float formatting cannot hide drift.
//!
//! The rows after the windowed block pin the MAC kernel where its
//! per-busy-period work dominates (n = 150 and 300), the EIFS, RTS/CTS,
//! softened, BEST-OF-k and valve paths at n = 150, and a 300 µs ACK timeout
//! whose retries rejoin during an EIFS deferral and tie with the stations the
//! global DIFS resumes. They were recorded with the freeze-and-resume kernel
//! the idle-slot clock replaced, on one reused arena, and they also fold every
//! [`StationMetrics`] field, which no `TrialSummary` field reads.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test hot_path_golden
//! ```

use contention_resolution::mac::MacScratch;
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

/// Per-field sums over the stations, plus an order-sensitive FNV-1a fold of
/// every field of every station (an unfinished station's `success_time`
/// folds as `u64::MAX`).
fn render_stations(stations: &[StationMetrics]) -> String {
    let mut sums = [0u64; 5];
    let mut fold = 0xcbf2_9ce4_8422_2325u64;
    for s in stations {
        let fields = [
            s.attempts as u64,
            s.ack_timeouts as u64,
            s.ack_timeout_time.as_nanos(),
            s.success_time.map_or(u64::MAX, Nanos::as_nanos),
            s.backoff_slots,
        ];
        for (sum, x) in sums.iter_mut().zip(fields) {
            *sum = sum.wrapping_add(x);
            fold = (fold ^ x).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let [att, ato, atot, succt, bo] = sums;
    format!(" att={att} ato={ato} atot={atot} succt={succt} bo={bo} fold={fold:016x}")
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

    let mut scratch = MacScratch::default();
    let mut mac_stations = |label: &str, config: &MacConfig, n: u32, trial: u32| {
        let run = run_trial_with::<MacSim>("hot-path-golden", config, n, trial, &mut scratch);
        let stations = render_stations(&run.metrics.stations);
        let t: TrialSummary = run.into();
        push(render(&format!("mac/{label}"), n, trial, &t) + &stations);
    };
    for kind in AlgorithmKind::PAPER_SET {
        let config = MacConfig::paper(kind, 64);
        for (n, trial) in [(150u32, 0u32), (150, 1), (300, 0)] {
            mac_stations(&format!("paper64/{kind}"), &config, n, trial);
        }
    }
    mac_stations("rtscts/LB", &rts, 150, 0);
    mac_stations("noeifs/BEB", &no_eifs, 150, 0);
    mac_stations("soft0.7/BEB", &soft, 150, 0);
    mac_stations("bestof3", &bok, 150, 0);
    mac_stations("valve2ms/BEB", &valve, 150, 0);
    // Each trial has a retry that resumed before an EIFS-delayed global DIFS
    // and then expired in the same instant as a station that DIFS resumed.
    for (kind, trials) in [
        (AlgorithmKind::Beb, [3u32, 4]),
        (AlgorithmKind::LogBackoff, [3, 10]),
        (AlgorithmKind::LogLogBackoff, [2, 10]),
        (AlgorithmKind::Sawtooth, [4, 6]),
    ] {
        let mut config = MacConfig::paper(kind, 64);
        config.phy.ack_timeout = Nanos::from_micros(300);
        for trial in trials {
            mac_stations(&format!("ackto300/{kind}"), &config, 60, trial);
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
