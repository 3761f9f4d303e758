//! Refactor-guard golden fixture for the dynamic-engine overhaul, plus a
//! statistical-equivalence suite against the pre-overhaul engine.
//!
//! The streaming arrival generator, the calendar bucket queue, the window
//! lookup tables and the log-bucketed latency histogram are *performance*
//! changes; from this commit forward none of them may move a single bit of
//! any [`DynamicMetrics`]. The fixture pins a matrix of `(config, n, trial)`
//! outputs with every `f64` rendered as its exact bit pattern.
//!
//! Regenerate (only when an *intentional* semantic change lands) with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test dynamic_golden
//! ```
//!
//! ## Regeneration log
//!
//! * **Engine overhaul (this fixture's birth).** The fixture was first
//!   recorded *after* the streaming rewrite because the overhaul fixed a
//!   semantic bug in the old engine: it ingested the entire arrival
//!   schedule on its first iteration, while `busy_total` was still zero,
//!   silently reinterpreting wall-clock arrival times as idle-slot
//!   coordinates. Busy periods then postponed *arrivals* along with timers,
//!   so offered load per idle slot could never exceed the per-wall-slot
//!   load and collision counts were invariant to the cost model. Bit-level
//!   compatibility with that engine is therefore impossible and undesired;
//!   the [`stat_eq`] module below documents exactly which aggregates
//!   carried over (unit-cost rows) and which changed (802.11g rows).

use contention_resolution::prelude::*;
use contention_slotted::dynamic::{
    ArrivalProcess, DynAxis, DynamicConfig, DynamicMetrics, DynamicScratch, DynamicSim,
};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "tests/golden/dynamic_metrics.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

/// Bit-exact rendering: floats as hex bit patterns, integers as decimals.
fn render(label: &str, n: u32, trial: u32, m: &DynamicMetrics) -> String {
    let mut line = format!("{label} n={n} trial={trial}");
    let _ = write!(
        line,
        " off={} done={} wall={} col={} maxlat={}",
        m.offered,
        m.completed,
        m.wall_slots,
        m.collisions,
        m.max_latency()
    );
    let mut field = |name: &str, x: f64| {
        let _ = write!(line, " {name}={:016x}", x.to_bits());
    };
    field("thr", m.throughput());
    field("mean", m.mean_latency());
    field("p50", m.p50_latency());
    field("p95", m.p95_latency());
    field("p99", m.p99_latency());
    line
}

/// The seed matrix: both arrival processes, both cost presets, both resolve
/// axes and the scratch-cached engine entry point. Horizons are shortened
/// so the whole matrix stays fast; the semantics under test don't depend
/// on horizon length.
fn generate() -> String {
    let mut out = String::new();
    let mut scratch = DynamicScratch::default();
    let mut push = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    let short = |config: DynamicConfig| DynamicConfig {
        horizon_slots: 8_000,
        drain_slots: 24_000,
        ..config
    };
    let mut case =
        |push: &mut dyn FnMut(String), label: &str, config: &DynamicConfig, n: u32, trial: u32| {
            let m = run_trial_with::<DynamicSim>("dynamic-golden", config, n, trial, &mut scratch);
            push(render(&format!("dyn/{label}"), n, trial, &m));
        };

    for kind in AlgorithmKind::PAPER_SET {
        let singles = ArrivalProcess::PoissonSingles { rate: 0.01 };
        let bursts = ArrivalProcess::PoissonBursts {
            rate: 0.000_8,
            size: 30,
        };
        for (proc_label, process) in [("singles", singles), ("bursts", bursts)] {
            let unit = short(DynamicConfig::abstract_model(kind, process));
            let mac = short(DynamicConfig::mac_costs(kind, process, 64));
            for trial in 0..3 {
                case(
                    &mut push,
                    &format!("unit-{proc_label}/{kind}"),
                    &unit,
                    0,
                    trial,
                );
                case(
                    &mut push,
                    &format!("mac64-{proc_label}/{kind}"),
                    &mac,
                    0,
                    trial,
                );
            }
        }
    }

    // The resolve axes the saturation and dynamic figures ride on: the
    // load-per-mille rescale and the n→cost-preset switch.
    let load_axis = DynamicConfig {
        axis: DynAxis::LoadPerMille,
        ..short(DynamicConfig::mac_costs(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.001 },
            64,
        ))
    };
    for n in [100u32, 400, 1000] {
        case(&mut push, "load-axis/BEB", &load_axis, n, 0);
    }
    let preset_axis = DynamicConfig {
        axis: DynAxis::CostPreset { payload_bytes: 64 },
        ..short(DynamicConfig::abstract_model(
            AlgorithmKind::LogLogBackoff,
            ArrivalProcess::PoissonBursts {
                rate: 0.000_8,
                size: 30,
            },
        ))
    };
    for n in [0u32, 1] {
        case(&mut push, "cost-axis/LLB", &preset_axis, n, 0);
    }
    out
}

#[test]
fn dynamic_metrics_are_bit_identical_to_the_fixture() {
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

/// Statistical equivalence against the **pre-overhaul** engine.
///
/// The table below was recorded by running the old heap-based engine (the
/// tree this overhaul replaced) over 10 trials of tag `dyn-stat-eq` for
/// each (algorithm, process, cost) cell and averaging. The new engine must
/// reproduce the *unit-cost* rows statistically: those rows never enter a
/// busy period (`success_cost = collision_cost = 1`), which is exactly the
/// regime where the old engine's arrival handling was correct.
///
/// The 802.11g rows are **documented as changed**. The old engine ingested
/// all arrivals while `busy_total` was zero, so wall-clock arrival times
/// were treated as idle-slot coordinates: busy periods postponed arrivals,
/// the per-idle-slot load never rose above the per-wall-slot load, and
/// latencies absorbed every busy slot since the (misplaced) arrival. The
/// new engine keeps arrivals on the wall clock, so under 802.11g costs the
/// same nominal load concentrates onto scarce idle slots — singles-mac
/// latency drops from ~3000 recorded slots to the physical ~14 (one
/// 13-slot exchange), and SAWTOOTH's completion genuinely collapses on
/// bursty mac traffic instead of sailing through. Instead of matching
/// those rows we assert the invariants the fix restores.
mod stat_eq {
    use super::*;

    const TRIALS: u32 = 10;

    /// `(algorithm, process, costs, offered, completion, throughput,
    /// mean_latency)` — 10-trial means from the pre-overhaul engine.
    #[rustfmt::skip]
    const RECORDED: [(&str, &str, &str, f64, f64, f64, f64); 16] = [
        ("beb", "singles", "unit",  499.300, 1.000000, 0.00998600,     0.0428),
        ("beb", "singles", "mac",   499.300, 1.000000, 0.00892779,  3035.7500),
        ("beb", "bursts",  "unit", 1209.000, 1.000000, 0.02417784,    83.3517),
        ("beb", "bursts",  "mac",  1209.000, 1.000000, 0.01432738, 17832.5898),
        ("lb",  "singles", "unit",  516.600, 1.000000, 0.01033200,     0.0316),
        ("lb",  "singles", "mac",   516.600, 1.000000, 0.00919767,  3138.6586),
        ("lb",  "bursts",  "unit", 1161.000, 1.000000, 0.02320742,    94.0726),
        ("lb",  "bursts",  "mac",  1161.000, 1.000000, 0.01143655, 26485.7311),
        ("llb", "singles", "unit",  511.500, 1.000000, 0.01023000,     0.0504),
        ("llb", "singles", "mac",   511.500, 1.000000, 0.00911534,  3117.2334),
        ("llb", "bursts",  "unit", 1191.000, 1.000000, 0.02382000,    79.1138),
        ("llb", "bursts",  "mac",  1191.000, 1.000000, 0.01323276, 20886.8072),
        ("stb", "singles", "unit",  496.000, 1.000000, 0.00992000,     0.5575),
        ("stb", "singles", "mac",   496.000, 1.000000, 0.00888259,  3016.8806),
        ("stb", "bursts",  "unit", 1221.000, 1.000000, 0.02437071,   143.4554),
        ("stb", "bursts",  "mac",  1221.000, 1.000000, 0.00963994, 39284.2195),
    ];

    fn algorithm(key: &str) -> AlgorithmKind {
        match key {
            "beb" => AlgorithmKind::Beb,
            "lb" => AlgorithmKind::LogBackoff,
            "llb" => AlgorithmKind::LogLogBackoff,
            "stb" => AlgorithmKind::Sawtooth,
            other => panic!("unknown algorithm key {other}"),
        }
    }

    fn process(key: &str) -> ArrivalProcess {
        match key {
            "singles" => ArrivalProcess::PoissonSingles { rate: 0.01 },
            "bursts" => ArrivalProcess::PoissonBursts {
                rate: 0.000_8,
                size: 30,
            },
            other => panic!("unknown process key {other}"),
        }
    }

    fn config(alg: &str, proc_key: &str, costs: &str) -> DynamicConfig {
        match costs {
            "unit" => DynamicConfig::abstract_model(algorithm(alg), process(proc_key)),
            "mac" => DynamicConfig::mac_costs(algorithm(alg), process(proc_key), 64),
            other => panic!("unknown cost key {other}"),
        }
    }

    /// Per-trial metrics under the same tag/trial numbering the recording
    /// used, plus the 10-trial means the table rows aggregate.
    fn trials(config: &DynamicConfig) -> (Vec<DynamicMetrics>, f64, f64, f64) {
        let mut scratch = DynamicScratch::default();
        let runs: Vec<DynamicMetrics> = (0..TRIALS)
            .map(|t| run_trial_with::<DynamicSim>("dyn-stat-eq", config, 0, t, &mut scratch))
            .collect();
        let mean = |f: &dyn Fn(&DynamicMetrics) -> f64| {
            runs.iter().map(f).sum::<f64>() / runs.len() as f64
        };
        let offered = mean(&|m| m.offered as f64);
        let completion = mean(&|m| m.completion_rate());
        let latency = mean(&|m| m.mean_latency());
        (runs, offered, completion, latency)
    }

    /// Unit-cost rows: the regime where old and new engines agree. The
    /// engines draw different RNG streams (the overhaul forks a dedicated
    /// arrival RNG), so equivalence is statistical, not bit-level: offered
    /// load within sampling noise of the recorded mean, full completion,
    /// and latencies within a tolerance calibrated against both engines.
    #[test]
    fn unit_cost_rows_match_the_pre_overhaul_engine() {
        for &(alg, proc_key, costs, offered, completion, _thr, latency) in &RECORDED {
            if costs != "unit" {
                continue;
            }
            let (_, got_offered, got_completion, got_latency) =
                trials(&config(alg, proc_key, costs));
            let offered_tol = if proc_key == "singles" { 0.10 } else { 0.20 };
            assert!(
                (got_offered - offered).abs() <= offered * offered_tol,
                "{alg}/{proc_key}: offered {got_offered:.1} vs recorded {offered:.1}"
            );
            assert_eq!(got_completion, completion, "{alg}/{proc_key}: completion");
            if proc_key == "singles" {
                // Near-zero latencies: compare absolutely, not relatively.
                assert!(
                    got_latency < 2.0,
                    "{alg}/{proc_key}: latency {got_latency:.3} vs recorded {latency:.3}"
                );
            } else {
                assert!(
                    (got_latency - latency).abs() <= latency * 0.25,
                    "{alg}/{proc_key}: latency {got_latency:.2} vs recorded {latency:.2}"
                );
            }
        }
    }

    /// 802.11g rows: assert the invariants the semantic fix restores
    /// instead of the recorded aggregates (see the module docs for why
    /// those aggregates were artifacts of the old arrival handling).
    #[test]
    fn mac_cost_rows_satisfy_the_corrected_semantics() {
        for &(alg, proc_key, costs, ..) in &RECORDED {
            if costs != "mac" {
                continue;
            }
            let (unit_runs, _, _, unit_latency) = trials(&config(alg, proc_key, "unit"));
            let (mac_runs, _, mac_completion, mac_latency) = trials(&config(alg, proc_key, "mac"));

            // The arrival RNG is forked before any timer draw, so per trial
            // the offered load is *exactly* cost-independent — the property
            // the old engine only appeared to have because it moved the
            // arrivals instead.
            for (t, (u, m)) in unit_runs.iter().zip(&mac_runs).enumerate() {
                assert_eq!(
                    u.offered, m.offered,
                    "{alg}/{proc_key} trial {t}: offered load must not depend on costs"
                );
            }
            assert!(
                mac_latency > unit_latency,
                "{alg}/{proc_key}: 802.11g latency {mac_latency:.2} should exceed \
                 unit-cost latency {unit_latency:.2}"
            );
            if alg == "stb" && proc_key == "bursts" {
                // The headline behaviour change: SAWTOOTH saturates on
                // bursty 802.11g traffic the old engine cleared at 100 %.
                assert!(
                    mac_completion < 0.5,
                    "stb/bursts under 802.11g should collapse (got {mac_completion:.3})"
                );
            } else {
                assert_eq!(mac_completion, 1.0, "{alg}/{proc_key}: completion");
            }
        }
    }
}
