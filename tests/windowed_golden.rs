//! The windowed simulator against a plain per-station reference loop, and
//! that loop against a fixture recorded on the pre-overhaul simulator.
//!
//! [`reference`] runs the windowed semantics one station at a time, with no
//! optimisation at all. It must reproduce the fixture at full
//! `BatchMetrics` resolution: every aggregate field as its exact bit pattern
//! plus an FNV-1a digest of the complete per-station table, for an
//! `(algorithm × channel × n × trial)` matrix.
//!
//! `WindowedSim` runs one count-only loop that never identifies a station,
//! on an occupancy path for the ideal channel and a sorted path for lossy
//! ones. Its `TrialSummary` must equal the summary of the reference run on
//! the same stream, every field by bit pattern, and it must leave the
//! generator at the same word, although the occupancy path skips the draws
//! of saturated windows. Three tests check this:
//!
//! * a proptest over random schedules and valves on the ideal channel, and
//!   one over random channels;
//! * a fixed matrix at each of the occupancy path's switch points (count
//!   table ↔ bitmaps at 2048 slots, count table ↔ sorted draws and
//!   bitmaps ↔ sorted draws at 64 × alive, width 1, the valve,
//!   non-power-of-two widths, saturated count tables, sorted windows over
//!   2²¹ slots) and at n up to 10⁵;
//! * a fixed matrix of 3024 trials over the fixture's channels and a heavy
//!   noise rate, every schedule shape, truncation and the valve.
//!
//! Valve-truncated (`max_windows`) configurations are deliberately absent
//! from the fixture: their diagnostics are the one documented behavioral
//! exception of the overhaul (see `valve_truncation_reports_elapsed_slots`
//! in `crates/slotted/src/windowed.rs`). The matrices compare them.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test windowed_golden
//! ```

use contention_resolution::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "tests/golden/windowed_noisy_metrics.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// FNV-1a over the full per-station table, folding every field in as raw
/// bits so no station-level drift can hide behind the aggregates.
fn station_digest(stations: &[StationMetrics]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |x: u64| {
        for b in x.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for s in stations {
        fold(s.attempts as u64);
        fold(s.ack_timeouts as u64);
        fold(s.ack_timeout_time.as_nanos());
        fold(match s.success_time {
            // 1-tagged so Some(0) can never alias None.
            Some(t) => t.as_nanos().wrapping_mul(2) | 1,
            None => 0,
        });
        fold(s.backoff_slots);
    }
    hash
}

/// Bit-exact rendering of one `BatchMetrics`.
fn render(label: &str, n: u32, trial: u32, m: &BatchMetrics) -> String {
    let mut line = format!("{label} n={n} trial={trial}");
    let _ = write!(
        line,
        " succ={} tt={:016x} ht={:016x} cw={:016x} hcw={:016x} col={:016x} cst={:016x} st={:016x}",
        m.successes,
        m.total_time.as_nanos(),
        m.half_time.as_nanos(),
        m.cw_slots,
        m.half_cw_slots,
        m.collisions,
        m.colliding_stations,
        station_digest(&m.stations),
    );
    line
}

/// The per-station reference. Each window draws every alive station's slot
/// with `gen_range`, in station order, stable-sorts the draws by slot, and
/// lets the channel decide each occupied slot in ascending slot order; a
/// delivered slot's winner is its `winner`-th draw. Every attempt that does
/// not win times out.
fn reference(config: &WindowedConfig, n: u32, rng: &mut SmallRng) -> BatchMetrics {
    let mut schedule = config
        .algorithm
        .schedule(config.truncation)
        .expect("a static window schedule");
    let mut m = BatchMetrics {
        n,
        stations: vec![StationMetrics::default(); n as usize],
        ..BatchMetrics::default()
    };
    let mut alive: Vec<u32> = (0..n).collect();
    let mut won = vec![false; n as usize];
    let (mut elapsed, mut windows) = (0u64, 0u32);
    while !alive.is_empty() && (config.max_windows == 0 || windows < config.max_windows) {
        windows += 1;
        let width = schedule.next_window();
        let mut draws: Vec<(u32, u32)> = alive
            .iter()
            .map(|&station| (rng.gen_range(0..width), station))
            .collect();
        draws.sort_by_key(|&(slot, _)| slot);
        for group in draws.chunk_by(|a, b| a.0 == b.0) {
            let k = group.len() as u32;
            if k >= 2 {
                m.collisions += 1;
                m.colliding_stations += u64::from(k);
            }
            if let SlotFate::Delivered { winner } = config.channel.sample_slot(k, rng) {
                let (slot, station) = group[winner as usize];
                won[station as usize] = true;
                m.successes += 1;
                let at_slot = elapsed + u64::from(slot) + 1;
                m.stations[station as usize].success_time = Some(config.slot * at_slot);
                if m.successes == n.div_ceil(2) {
                    m.half_cw_slots = at_slot;
                }
                if m.successes == n {
                    m.cw_slots = at_slot;
                }
            }
        }
        for &(slot, station) in &draws {
            let s = &mut m.stations[station as usize];
            s.attempts += 1;
            s.ack_timeouts += u32::from(!won[station as usize]);
            s.backoff_slots += u64::from(slot);
        }
        alive.retain(|&station| !won[station as usize]);
        elapsed += u64::from(width);
    }
    // A valve-truncated run reports the span of every window it opened.
    let span = if alive.is_empty() {
        m.cw_slots
    } else {
        elapsed
    };
    m.total_time = config.slot * span;
    m.half_time = config.slot * m.half_cw_slots;
    m
}

/// The channel matrix: the ideal (paper) channel, every recovery family and
/// an independent noise rate — each one drives a different draw shape
/// through `sample_slot`.
fn channels() -> Vec<(&'static str, ChannelModel)> {
    vec![
        ("ideal", ChannelModel::ideal()),
        ("soft0.5", ChannelModel::softened(0.5)),
        ("noise0.25", ChannelModel::noisy(0.25)),
        (
            "geo0.6-noise0.1",
            ChannelModel {
                recovery: Recovery::Geometric { base: 0.6 },
                noise: 0.1,
            },
        ),
        (
            "capture3-0.9",
            ChannelModel {
                recovery: Recovery::Capture { max_k: 3, p: 0.9 },
                noise: 0.0,
            },
        ),
    ]
}

/// The algorithm set: the paper's four schedules (BEB/STB emit power-of-two
/// windows, LB/LLB emit non-power-of-two ones) plus a fixed non-power-of-two
/// window, so both integer-range sampling shapes are pinned. The fixed
/// window never grows, so its batch sizes must stay below the window width —
/// `FIXED(7)` with dozens of stations would practically never finish.
fn algorithms() -> Vec<(AlgorithmKind, &'static [u32])> {
    let mut algs: Vec<(AlgorithmKind, &'static [u32])> = AlgorithmKind::PAPER_SET
        .iter()
        .map(|&kind| (kind, &[1u32, 2, 9, 83, 400] as &[u32]))
        .collect();
    algs.push((AlgorithmKind::Fixed { window: 7 }, &[1, 2, 5]));
    algs
}

fn over(kind: AlgorithmKind, channel: ChannelModel) -> WindowedConfig {
    WindowedConfig {
        channel,
        ..WindowedConfig::abstract_model(kind)
    }
}

fn generate() -> String {
    let mut out = String::new();
    let mut push = |label: String, config: &WindowedConfig, n: u32, trial: u32| {
        let mut rng = trial_rng(
            experiment_tag("windowed-golden"),
            config.algorithm,
            n,
            trial,
        );
        out.push_str(&render(&label, n, trial, &reference(config, n, &mut rng)));
        out.push('\n');
    };

    for (chan_label, channel) in channels() {
        for (kind, ns) in algorithms() {
            for &n in ns {
                for trial in 0..2 {
                    let label = format!("noisy/{chan_label}/{kind}");
                    push(label, &over(kind, channel), n, trial);
                }
            }
        }
    }

    // The ideal channel again. The simulator's former per-station entry
    // point recorded these lines on a caller-built stream; they repeat the
    // `ideal` lines above apart from the label.
    for (kind, ns) in algorithms() {
        for &n in ns {
            for trial in 0..2 {
                let config = WindowedConfig::abstract_model(kind);
                push(format!("sampled/ideal/{kind}"), &config, n, trial);
            }
        }
    }

    // Truncated (CWmin/CWmax-clamped) windows keep widths small forever.
    for kind in AlgorithmKind::PAPER_SET {
        let config = WindowedConfig {
            truncation: Truncation::paper(),
            ..over(kind, ChannelModel::softened(0.3))
        };
        for trial in 0..2 {
            push(format!("trunc/soft0.3/{kind}"), &config, 120, trial);
        }
    }

    // A thin slice through the paper model's former per-station entry point;
    // these lines repeat `ideal` lines too.
    for kind in AlgorithmKind::PAPER_SET {
        let config = WindowedConfig::abstract_model(kind);
        for (n, trial) in [(1u32, 0u32), (83, 1), (400, 0)] {
            push(format!("windowed/{kind}"), &config, n, trial);
        }
    }

    out
}

#[test]
fn batch_metrics_are_bit_identical_to_the_pre_overhaul_fixture() {
    let got = generate();
    let path = fixture_path();
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {FIXTURE} ({e}); REGEN_GOLDEN=1 to create"));
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

/// Every field of a summary as a bit pattern: `n`, then each metric in
/// field order (no `==` on floats, so even a sign-of-zero drift fails).
fn summary_bits(t: &TrialSummary) -> (u32, [u64; 20]) {
    (t.n, Metric::ALL.map(|m| m.extract(t).to_bits()))
}

/// One trial through the simulator and through the reference on the same
/// RNG stream: each summary with its generator after the trial. Equal
/// generators mean the count-only loop's skips land on the reference's
/// word, even in a trial's last window. Every reference run must balance
/// its attempts: each one either succeeded or timed out.
fn both_paths(config: WindowedConfig, n: u32, trial: u32) -> [((u32, [u64; 20]), SmallRng); 2] {
    const TAG: &str = "windowed-path-prop";
    let stream = || trial_rng(experiment_tag(TAG), config.algorithm, n, trial);
    let mut counts_rng = stream();
    let counts = <WindowedSim as Simulator>::run(&config, n, &mut counts_rng);
    let mut station_rng = stream();
    let per_station = reference(&config, n, &mut station_rng);
    assert!(
        per_station.attempts_balance(),
        "{config:?} n={n} trial={trial}"
    );
    [
        (summary_bits(&counts), counts_rng),
        (summary_bits(&TrialSummary::from(per_station)), station_rng),
    ]
}

/// Any static window schedule, including truncations that force
/// non-power-of-two widths.
fn arb_algorithm() -> impl Strategy<Value = AlgorithmKind> {
    prop_oneof![
        Just(AlgorithmKind::Beb),
        Just(AlgorithmKind::LogBackoff),
        Just(AlgorithmKind::LogLogBackoff),
        Just(AlgorithmKind::Sawtooth),
        (1u32..=40).prop_map(|window| AlgorithmKind::Fixed { window }),
        (1u32..=3).prop_map(|degree| AlgorithmKind::Polynomial { degree }),
    ]
}

/// Any channel the model can express, noise up to certain erasure: the
/// valve bounds every run.
fn arb_channel() -> impl Strategy<Value = ChannelModel> {
    let recovery = prop_oneof![
        Just(Recovery::None),
        (0.0..=1.0f64).prop_map(|p| Recovery::Constant { p }),
        (0.0..=1.0f64).prop_map(|base| Recovery::Geometric { base }),
        ((1u32..=6), (0.0..=1.0f64)).prop_map(|(max_k, p)| Recovery::Capture { max_k, p }),
    ];
    let noise = prop_oneof![Just(0.0), 0.0..=1.0f64];
    (recovery, noise).prop_map(|(recovery, noise)| ChannelModel { recovery, noise })
}

/// A config whose CWmin/CWmax truncation and valve come from the proptest.
fn truncated(
    kind: AlgorithmKind,
    channel: ChannelModel,
    cw_min: u32,
    cw_pow: u32,
    max_windows: u32,
) -> WindowedConfig {
    WindowedConfig {
        truncation: Truncation {
            cw_min,
            cw_max: cw_min.max(2u32.saturating_pow(cw_pow)),
        },
        // Fixed windows far below n never finish without the valve.
        max_windows,
        ..over(kind, channel)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The count-only loop and the per-station reference agree bit for bit
    /// on every summary field and on the generator's final state, for any
    /// `(n, width schedule, valve)` config on the ideal channel.
    #[test]
    fn count_only_and_per_station_paths_agree(
        n in prop_oneof![0u32..=150, 500u32..=1500],
        kind in arb_algorithm(),
        cw_min in 1u32..=4,
        cw_pow in 4u32..=20,
        max_windows in prop_oneof![Just(200u32), 1u32..=12],
        trial in 0u32..100,
    ) {
        let config = truncated(kind, ChannelModel::ideal(), cw_min, cw_pow, max_windows);
        let [counts, per_station] = both_paths(config, n, trial);
        prop_assert_eq!(counts, per_station);
    }

    /// The same over any channel.
    #[test]
    fn count_only_and_per_station_paths_agree_on_any_channel(
        n in prop_oneof![0u32..=150, 500u32..=1500],
        kind in arb_algorithm(),
        channel in arb_channel(),
        cw_min in 1u32..=4,
        cw_pow in 4u32..=20,
        max_windows in prop_oneof![Just(200u32), 1u32..=12],
        trial in 0u32..100,
    ) {
        let config = truncated(kind, channel, cw_min, cw_pow, max_windows);
        let [counts, per_station] = both_paths(config, n, trial);
        prop_assert_eq!(counts, per_station);
    }
}

/// The same equality over lossy channels: the fixture's five channels and a
/// heavy noise rate, on power-of-two, zone-rejection and polynomial widths,
/// width-1 windows, CWmin/CWmax truncation and the valve, at n up to 2000.
#[test]
fn count_only_and_per_station_paths_agree_on_every_channel() {
    use AlgorithmKind::{Beb, Fixed, LogBackoff, LogLogBackoff, Polynomial, Sawtooth};
    let mut channels = channels();
    channels.push(("noise0.4", ChannelModel::noisy(0.4)));
    let algorithms = [
        Beb,
        LogBackoff,
        LogLogBackoff,
        Sawtooth,
        Polynomial { degree: 2 },
        Fixed { window: 7 },
        Fixed { window: 1 },
    ];
    let mut trials = 0;
    for (label, channel) in channels {
        for kind in algorithms {
            // A fixed window far below n never drains without the valve.
            let valve = if matches!(kind, Fixed { .. }) { 40 } else { 0 };
            for (truncation, max_windows) in [
                (Truncation::unbounded(), valve),
                (Truncation::paper(), valve),
                (Truncation::unbounded(), 4),
            ] {
                let config = WindowedConfig {
                    truncation,
                    max_windows,
                    ..over(kind, channel)
                };
                for n in [1, 2, 9, 83, 400, 2000] {
                    for trial in 0..4 {
                        let [counts, per_station] = both_paths(config, n, trial);
                        assert_eq!(
                            counts, per_station,
                            "{label} {kind} n={n} trial={trial} truncation={truncation:?} \
                             max_windows={max_windows}"
                        );
                        trials += 1;
                    }
                }
            }
        }
    }
    assert_eq!(trials, 3024);
}

/// The same equality at every switch point of the count-only loop, each hit
/// exactly and from either side, and for BEB and STB at n up to 10⁵.
#[test]
fn count_only_and_per_station_paths_agree_at_the_switch_points() {
    use AlgorithmKind::{Beb, LogBackoff, LogLogBackoff, Sawtooth};
    let fixed = |window| WindowedConfig::abstract_model(AlgorithmKind::Fixed { window });
    let mut cases: Vec<(WindowedConfig, u32)> = Vec::new();
    // Count table ↔ bitmaps at 2048 slots; at n = 32 the dense ↔ sparse
    // switch (64 × alive) falls there too, so 2049 slots sort their draws.
    for window in [2047, 2048, 2049] {
        for n in [32, 400, 512, 600, 1000] {
            cases.push((fixed(window), n));
        }
    }
    // Dense ↔ sparse at 64 × alive (the kernel's `DENSE_SLOTS_PER_STATION`):
    // count table ↔ sorted draws below the count-table limit (n = 20 at
    // 1280 slots), bitmaps ↔ sorted draws above it.
    for n in [20, 100, 700] {
        for window in [64 * n - 1, 64 * n, 64 * n + 1] {
            cases.push((fixed(window), n));
        }
    }
    // Dense windows at 4 × alive, in the count table and in the bitmaps.
    for n in [50, 100, 700] {
        for window in [4 * n - 1, 4 * n, 4 * n + 1] {
            cases.push((fixed(window), n));
        }
    }
    // Sorted windows far wider than any slot-indexed table: 2²² slots and a
    // non-power-of-two width above 2²¹.
    for window in [1 << 22, 3 << 20] {
        cases.push((fixed(window), 1000));
    }
    // Empty, lone and paired batches, including width-1 windows.
    for kind in AlgorithmKind::PAPER_SET {
        for n in [0, 1, 2] {
            cases.push((WindowedConfig::abstract_model(kind), n));
        }
    }
    // The valve: survivors, elapsed span and their ACK timeouts.
    for kind in AlgorithmKind::PAPER_SET {
        for max_windows in [3, 9] {
            for n in [2, 40, 300] {
                let config = WindowedConfig {
                    max_windows,
                    ..WindowedConfig::abstract_model(kind)
                };
                cases.push((config, n));
            }
        }
    }
    // CWmin/CWmax-clamped widths, and a small non-power-of-two window.
    for kind in AlgorithmKind::PAPER_SET {
        for n in [9, 83, 400] {
            cases.push((WindowedConfig::truncated_model(kind), n));
        }
    }
    for n in [0, 1, 2, 5] {
        cases.push((fixed(7), n));
    }
    // LB and LLB draw non-power-of-two widths through zone rejection.
    for kind in [LogBackoff, LogLogBackoff] {
        for n in [9, 83, 400, 3000] {
            cases.push((WindowedConfig::abstract_model(kind), n));
        }
    }
    // Count tables that saturate and skip the rest of their draws. Width 2
    // saturates within its first 64-draw check, so n = 64 + 255…257 skips
    // exactly `advance`'s stepping crossover − 1, crossover and crossover +
    // 1 words, and n ≤ 64 skips none; the other cases skip thousands.
    for (window, ns) in [
        (2, &[4u32, 5, 64, 319, 320, 321, 3000] as &[u32]),
        (64, &[3000]),
        (2048, &[40_000]),
    ] {
        for &n in ns {
            let config = WindowedConfig {
                max_windows: 3,
                ..fixed(window)
            };
            cases.push((config, n));
        }
    }
    let mut runs: Vec<(WindowedConfig, u32, u32)> = cases
        .into_iter()
        .flat_map(|(config, n)| (0..8).map(move |trial| (config, n, trial)))
        .collect();
    // Beyond the goldens' n = 3000: skips of up to ≈10⁵ words.
    for kind in [Beb, Sawtooth] {
        for n in [50_000, 100_000] {
            runs.push((WindowedConfig::abstract_model(kind), n, 0));
        }
    }
    for (config, n, trial) in runs {
        let [counts, per_station] = both_paths(config, n, trial);
        assert_eq!(
            counts, per_station,
            "{} n={n} trial={trial} truncation={:?} max_windows={}",
            config.algorithm, config.truncation, config.max_windows
        );
    }
}
