//! The `repro bench` harness: pins the MAC hot-path performance trajectory.
//!
//! Measures single-threaded wall time per trial on the workloads that
//! dominate `repro --full` (the MAC simulator's event queue and medium
//! bookkeeping), plus microbenchmarks of those two structures in isolation.
//! Every workload routes through [`contention_sim::engine::run_trial`], so a
//! benched trial is bit-identical to the corresponding sweep trial.
//!
//! The harness compares each measurement against [`BASELINE`] — the same
//! workloads measured on the pre-overhaul simulator (`BinaryHeap` +
//! `HashSet` lazy-cancellation queue, rescan-based medium, per-trial
//! allocation of all scratch state) — and emits the whole comparison as a
//! `BENCH_mac.json` artifact so the perf trajectory is tracked in one place
//! from PR 4 forward. Absolute numbers are machine-dependent; the
//! *speedups* are the quantity the artifact exists to record.
//!
//! `--quick` shrinks samples and iteration counts to smoke-test levels: CI
//! runs it on every push to keep the harness and the JSON schema from
//! rotting, without pretending CI wall time is a measurement.

use crate::figures::shared::{fold_grid, SweepHooks};
use crate::figures::Report;
use crate::jsonout::{escape, num};
use crate::options::Options;
use crate::shard::GridMeta;
use crate::summary::Metric;
use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::time::Nanos;
use contention_mac::medium::{ActiveTx, Medium, TxKind, TxSource};
use contention_mac::{MacConfig, MacSim};
use contention_sim::engine::{run_trial_with, Simulator};
use contention_sim::event::EventQueue;
use contention_sim::sched::CostSpec;
use contention_slotted::dynamic::{ArrivalProcess, DynamicConfig, DynamicSim};
use contention_slotted::noisy::NoisyConfig;
use contention_slotted::windowed::WindowedConfig;
use contention_slotted::{NoisySim, WindowedSim};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Schema tag written into `BENCH_mac.json`; bump on breaking layout change.
pub const SCHEMA: &str = "bench_mac/v1";

/// Pre-overhaul reference numbers (ns per iteration), measured on this
/// repository at the PR 3 tree (commit 887e040) with the same harness,
/// single-threaded, release profile. Recorded here so every future
/// `BENCH_mac.json` carries the trajectory's origin with it.
pub const BASELINE: &[(&str, f64)] = &[
    ("mac_fig5_cw", BASELINE_MAC_FIG5),
    ("mac_fig13_trace", BASELINE_MAC_FIG13),
    ("mac_soften", BASELINE_MAC_SOFTEN),
    ("windowed_fig5_abstract", BASELINE_WINDOWED),
    ("windowed_scale_n1e5", BASELINE_WINDOWED_SCALE),
    ("noisy_soften_sampled", BASELINE_NOISY_SOFTEN),
    ("event_queue_churn", BASELINE_QUEUE),
    ("medium_busy_periods", BASELINE_MEDIUM),
    ("dynamic_saturation", BASELINE_DYN_SATURATION),
    ("dynamic_bursty_drain", BASELINE_DYN_DRAIN),
    ("sched_tail_scale8", BASELINE_SCHED_TAIL),
];
const BASELINE_MAC_FIG5: f64 = 1_320_000.0;
const BASELINE_MAC_FIG13: f64 = 55_900.0;
const BASELINE_MAC_SOFTEN: f64 = 301_500.0;
const BASELINE_WINDOWED: f64 = 2_293_000.0;
// The two windowed/noisy additions were measured at the PR 5 tree (commit
// 3345fc6), immediately before the windowed hot-path overhaul — the windowed
// loop was untouched between PR 3 and PR 5, so the trajectory origin is the
// same simulator.
const BASELINE_WINDOWED_SCALE: f64 = 39_800_000.0;
const BASELINE_NOISY_SOFTEN: f64 = 9_220_000.0;
const BASELINE_QUEUE: f64 = 1_128_000.0;
const BASELINE_MEDIUM: f64 = 88_900.0;
// The dynamic-engine workloads were measured at the PR 7 tree (commit
// f5656c0), immediately before the streaming overhaul: global `BinaryHeap`
// timer queue, fully materialised arrival schedule, per-packet `Schedule`
// state and a sorted-`Vec` latency collector.
// The drain workload runs *unit* costs on purpose: with 802.11g costs the
// overhaul also fixed the old engine's arrival handling (arrivals used to
// be postponed by busy periods), so mac-cost trials are not
// work-equivalent across the two engines and cannot pin a speedup. Unit
// costs never enter a busy period, where both engines do identical work.
const BASELINE_DYN_SATURATION: f64 = 147_263_517.0;
const BASELINE_DYN_DRAIN: f64 = 2_105_455.0;
// The scheduler-tail workload was measured at the PR 8 tree (commit
// f1575ac), immediately before the cost-aware runtime: fixed-size batch
// claims from the atomic cursor, grid-order claiming, no worker-count cap,
// and a fresh `thread::scope` (8 spawns + joins) for every one of the
// workload's twenty-four sub-sweeps. The grid and trial set are identical
// on both sides — only the runtime around them changed.
const BASELINE_SCHED_TAIL: f64 = 12_419_817.0;

/// One benchmark workload. `make` builds the iteration closure fresh per
/// measurement; the closure owns its scratch arena (exactly like one engine
/// worker), so the warm-up sample populates the arena and the timed samples
/// see the engine's steady-state per-trial cost. Each call executes
/// iteration `i` and returns a checksum (kept live so the optimizer cannot
/// delete the work).
struct Workload {
    name: &'static str,
    desc: &'static str,
    /// Iterations per sample (full mode); quick mode divides this down.
    iters: u64,
    /// Minimum speedup vs [`BASELINE`] this workload must sustain (0 = no
    /// target). Full-mode `repro bench` fails acceptance below this.
    target_speedup: f64,
    make: fn() -> Box<dyn FnMut(u64) -> u64>,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "mac_fig5_cw",
            desc: "MAC CW-slots trial (BEB, 64 B, n=100) — the fig3/fig5 panel workload",
            iters: 8,
            target_speedup: 0.0,
            make: || {
                let mut scratch = <MacSim as Simulator>::Scratch::default();
                let config = MacConfig::paper(AlgorithmKind::Beb, 64);
                Box::new(move |i| {
                    run_trial_with::<MacSim>(
                        "bench-mac-fig5",
                        &config,
                        100,
                        (i % 8) as u32,
                        &mut scratch,
                    )
                    .metrics
                    .cw_slots
                })
            },
        },
        Workload {
            name: "mac_fig13_trace",
            desc: "MAC trace trial (BEB, 64 B, n=20, spans recorded) — the fig13 workload",
            iters: 64,
            target_speedup: 0.0,
            make: || {
                let mut scratch = <MacSim as Simulator>::Scratch::default();
                let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
                config.capture_trace = true;
                Box::new(move |i| {
                    let run = run_trial_with::<MacSim>(
                        "bench-mac-fig13",
                        &config,
                        20,
                        (i % 8) as u32,
                        &mut scratch,
                    );
                    run.trace.map(|t| t.spans.len() as u64).unwrap_or(0)
                })
            },
        },
        Workload {
            name: "mac_soften",
            desc: "MAC softened-channel trial (BEB, 64 B, n=60, p=0.5) — the soften panel",
            iters: 16,
            target_speedup: 0.0,
            make: || {
                let mut scratch = <MacSim as Simulator>::Scratch::default();
                let config =
                    MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::softened(0.5));
                Box::new(move |i| {
                    run_trial_with::<MacSim>(
                        "bench-mac-soften",
                        &config,
                        60,
                        (i % 8) as u32,
                        &mut scratch,
                    )
                    .metrics
                    .collisions
                })
            },
        },
        Workload {
            name: "windowed_fig5_abstract",
            desc: "abstract windowed trial (BEB, n=10^4) — the fig5 abstract workload",
            iters: 16,
            // Hot-path-overhaul acceptance: the fused-draw/occupancy loop
            // must keep this ≥4× over the PR 3 loop.
            target_speedup: 4.0,
            make: || {
                let mut scratch = <WindowedSim as Simulator>::Scratch::default();
                let config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
                Box::new(move |i| {
                    run_trial_with::<WindowedSim>(
                        "bench-windowed",
                        &config,
                        10_000,
                        (i % 8) as u32,
                        &mut scratch,
                    )
                    .cw_slots
                })
            },
        },
        Workload {
            name: "windowed_scale_n1e5",
            desc: "abstract windowed trial (BEB, n=10^5) — the scale sweep's per-shard profile",
            iters: 4,
            target_speedup: 0.0,
            make: || {
                let mut scratch = <WindowedSim as Simulator>::Scratch::default();
                let config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
                Box::new(move |i| {
                    run_trial_with::<WindowedSim>(
                        "bench-windowed-scale",
                        &config,
                        100_000,
                        (i % 4) as u32,
                        &mut scratch,
                    )
                    .cw_slots
                })
            },
        },
        Workload {
            name: "noisy_soften_sampled",
            desc: "noisy-channel trial (BEB, n=10^4, p=0.5) — the sampled resolution path",
            iters: 8,
            target_speedup: 0.0,
            make: || {
                let mut scratch = <NoisySim as Simulator>::Scratch::default();
                let config =
                    NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::softened(0.5));
                Box::new(move |i| {
                    run_trial_with::<NoisySim>(
                        "bench-noisy-soften",
                        &config,
                        10_000,
                        (i % 8) as u32,
                        &mut scratch,
                    )
                    .collisions
                })
            },
        },
        Workload {
            name: "dynamic_saturation",
            desc: "dynamic near-saturation trial (BEB, unit costs, rate 0.9) — the \
                   saturation sweep's hottest cell shape",
            iters: 10,
            // Streaming-overhaul acceptance: lazy arrivals + calendar queue
            // + histogram latencies must keep this ≥3× over the PR 7 engine.
            target_speedup: 3.0,
            make: || {
                let mut scratch = <DynamicSim as Simulator>::Scratch::default();
                let config = DynamicConfig {
                    horizon_slots: 20_000,
                    drain_slots: 20_000,
                    ..DynamicConfig::abstract_model(
                        AlgorithmKind::Beb,
                        ArrivalProcess::PoissonSingles { rate: 0.9 },
                    )
                };
                Box::new(move |i| {
                    let m = run_trial_with::<DynamicSim>(
                        "bench-dyn-sat",
                        &config,
                        0,
                        (i % 8) as u32,
                        &mut scratch,
                    );
                    m.completed.wrapping_add(m.collisions)
                })
            },
        },
        Workload {
            name: "dynamic_bursty_drain",
            desc: "dynamic bursty drain trial (BEB, unit costs, bursts of 60) — the \
                   dynamic-traffic figure's arrival shape",
            iters: 20,
            target_speedup: 3.0,
            make: || {
                let mut scratch = <DynamicSim as Simulator>::Scratch::default();
                let config = DynamicConfig::abstract_model(
                    AlgorithmKind::Beb,
                    ArrivalProcess::PoissonBursts {
                        rate: 0.000_8,
                        size: 60,
                    },
                );
                Box::new(move |i| {
                    let m = run_trial_with::<DynamicSim>(
                        "bench-dyn-drain",
                        &config,
                        0,
                        (i % 8) as u32,
                        &mut scratch,
                    );
                    m.completed.wrapping_add(m.collisions)
                })
            },
        },
        Workload {
            name: "sched_tail_scale8",
            desc: "twenty-four short 8-thread sub-sweeps over a heterogeneous windowed grid — \
                   scheduling overhead, pool reuse and tail idle",
            iters: 4,
            // Cost-aware-runtime acceptance: tapered claiming + the
            // persistent worker pool must keep this ≥1.3× over the
            // fixed-batch scheduler that respawned threads per sub-sweep.
            target_speedup: 1.3,
            make: || Box::new(|_| sched_tail_pass()),
        },
        Workload {
            name: "event_queue_churn",
            desc: "event queue schedule/cancel/pop churn, 4k live events",
            iters: 64,
            target_speedup: 0.0,
            make: || Box::new(|i| queue_churn(4096, i)),
        },
        Workload {
            name: "medium_busy_periods",
            desc: "medium busy-period churn, alternating clean frames and 3-way collisions",
            iters: 256,
            target_speedup: 0.0,
            make: || Box::new(|i| medium_churn(2048, i)),
        },
    ]
}

/// One pass of the scheduler-tail workload: many short 8-thread sub-sweeps
/// over a heterogeneous (scale-shaped) `n` ladder, the shape a figure run
/// presents to the runtime — per-trial cost spanning an order of magnitude
/// across the grid, and a fresh sweep (worker spin-up + join) every
/// fraction of a millisecond. What this times is the *runtime*, not the
/// simulator: claim scheduling, thread startup, and the idle tail behind
/// the heaviest cells. The grid is deliberately light so the runtime's
/// fixed per-sub-sweep costs are the signal, not the noise.
fn sched_tail_pass() -> u64 {
    const SUB_SWEEPS: usize = 24;
    // A windowed grid's n·log n cost table drives tapered claims and
    // heaviest-first order, as in every production sweep.
    let grid = GridMeta {
        algorithms: vec![AlgorithmKind::Beb, AlgorithmKind::Sawtooth],
        ns: vec![25, 50, 100, 200, 400],
        trials: 2,
        metrics: vec![Metric::CwSlots],
        cost: CostSpec::NLogN,
    };
    let opts = Options {
        threads: Some(8),
        ..Options::default()
    };
    let mut checksum = 0u64;
    for _ in 0..SUB_SWEEPS {
        let cells = fold_grid::<WindowedSim>(
            "bench-sched-tail",
            WindowedConfig::abstract_model(AlgorithmKind::Beb),
            &grid,
            &opts,
            &SweepHooks::none(),
        );
        for cell in &cells {
            for sample in cell.acc.raw_samples() {
                for v in sample.raw() {
                    checksum = checksum.wrapping_add(v.to_bits());
                }
            }
        }
    }
    checksum
}

/// Schedule `live` events, then repeatedly pop one + schedule one + cancel
/// one — the MAC simulator's steady-state queue traffic shape.
fn queue_churn(live: u64, salt: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    // Deterministic pseudo-times (keep the queue well mixed, no RNG needed).
    let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next_time = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut tokens = Vec::with_capacity(live as usize);
    for p in 0..live {
        tokens.push(q.schedule_after(Nanos(next_time()), p));
    }
    let mut checksum = 0u64;
    for p in 0..live {
        let (at, payload) = q.pop().expect("queue is non-empty");
        checksum = checksum.wrapping_add(at.as_nanos()).wrapping_add(payload);
        let t = q.schedule_after(Nanos(next_time()), p);
        // Cancel a mid-age token half the time, the fresh one otherwise.
        let victim = if p % 2 == 0 {
            tokens[(p as usize + tokens.len() / 2) % tokens.len()]
        } else {
            t
        };
        if q.cancel(victim) {
            checksum = checksum.wrapping_add(1);
        }
        let idx = p as usize % tokens.len();
        tokens[idx] = t;
    }
    while q.pop().is_some() {}
    checksum
}

/// Alternate clean singleton frames with 3-way collisions — the two busy
/// period shapes that dominate a contended MAC run.
fn medium_churn(periods: u64, salt: u64) -> u64 {
    let mut m = Medium::new();
    let mut id = (salt as u32).wrapping_mul(1 << 20);
    let mut t = 0u64;
    let mut checksum = 0u64;
    let frame = |id: u32, station: u32, start: u64, end: u64| ActiveTx {
        id,
        source: TxSource::Station(station),
        kind: TxKind::Data,
        for_station: None,
        tag: 0,
        start: Nanos(start),
        end: Nanos(end),
        corrupted: false,
        overlaps: 0,
    };
    for p in 0..periods {
        if p % 2 == 0 {
            m.start_tx(frame(id, 0, t, t + 10));
            let (tx, period) = m.end_tx(id, Nanos(t + 10));
            checksum += u64::from(!tx.corrupted) + u64::from(period.is_some());
            id += 1;
        } else {
            for s in 0..3u32 {
                m.start_tx(frame(id + s, s, t, t + 10));
            }
            for s in 0..3u32 {
                let (tx, period) = m.end_tx(id + s, Nanos(t + 10));
                checksum += u64::from(tx.corrupted)
                    + period.map(|p| p.corrupted_contenders as u64).unwrap_or(0);
            }
            id += 3;
        }
        t += 20;
    }
    checksum
}

/// One measured workload result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub name: &'static str,
    pub desc: &'static str,
    pub samples: usize,
    pub iters_per_sample: u64,
    pub ns_per_iter: f64,
    pub baseline_ns_per_iter: Option<f64>,
    /// Minimum speedup this workload must sustain (0 = no target).
    pub target_speedup: f64,
}

impl BenchResult {
    /// Baseline time over current time (> 1 means faster than pre-overhaul).
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ns_per_iter.map(|b| b / self.ns_per_iter)
    }

    /// Whether the measurement clears its acceptance target (vacuously true
    /// without one).
    pub fn meets_target(&self) -> bool {
        self.target_speedup <= 0.0 || self.speedup().is_some_and(|s| s >= self.target_speedup)
    }
}

/// Measures one workload: one warm-up sample, then `samples` timed samples;
/// the reported figure is the *fastest* sample's ns/iteration. The
/// workloads are deterministic and allocation-free in steady state, so
/// their true cost is a constant per machine — external interference (a
/// shared or virtualized host, another tenant's burst) only ever adds
/// time, making the minimum the estimator least polluted by neighbors and
/// the only one stable enough to gate acceptance (`target_speedup`) on.
/// (The recorded baselines were measured as medians on an otherwise-idle
/// machine, where median and min agree to a few percent.)
fn measure(w: &Workload, samples: usize, iters: u64) -> BenchResult {
    let mut run = (w.make)();
    let mut checksum = 0u64;
    let mut timings: Vec<f64> = Vec::with_capacity(samples);
    for sample in 0..=samples {
        let start = Instant::now();
        for i in 0..iters {
            checksum = checksum.wrapping_add(run(i));
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        if sample > 0 {
            timings.push(elapsed / iters as f64);
        }
    }
    std::hint::black_box(checksum);
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let baseline = BASELINE
        .iter()
        .find(|(n, _)| *n == w.name)
        .map(|&(_, ns)| ns);
    BenchResult {
        name: w.name,
        desc: w.desc,
        samples,
        iters_per_sample: iters,
        ns_per_iter: timings[0],
        baseline_ns_per_iter: baseline,
        target_speedup: w.target_speedup,
    }
}

/// Runs every workload. Quick mode cuts iteration counts and samples to
/// smoke-test levels.
pub fn run_all(quick: bool) -> Vec<BenchResult> {
    let samples = if quick { 2 } else { 7 };
    workloads()
        .iter()
        .map(|w| {
            let iters = if quick { (w.iters / 8).max(1) } else { w.iters };
            measure(w, samples, iters)
        })
        .collect()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders `BENCH_mac.json` (round-trip-exact numbers via [`crate::jsonout`],
/// schema-stable keys).
pub fn bench_json(results: &[BenchResult], quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    out.push_str(
        "  \"baseline_provenance\": \"pre-overhaul simulator at PR 3 (commit 887e040): \
         BinaryHeap+HashSet event queue, rescanning medium, per-trial allocation of all \
         scratch state (the engine then had no arena, so trials were measured fresh)\",\n",
    );
    out.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"name\": \"{}\",", escape(r.name));
        let _ = writeln!(out, "      \"desc\": \"{}\",", escape(r.desc));
        let _ = writeln!(out, "      \"samples\": {},", r.samples);
        let _ = writeln!(out, "      \"iters_per_sample\": {},", r.iters_per_sample);
        let _ = writeln!(out, "      \"ns_per_iter\": {},", num(r.ns_per_iter));
        let _ = writeln!(
            out,
            "      \"baseline_ns_per_iter\": {},",
            r.baseline_ns_per_iter.map(num).unwrap_or("null".into())
        );
        let _ = writeln!(
            out,
            "      \"speedup\": {},",
            r.speedup().map(num).unwrap_or("null".into())
        );
        let _ = writeln!(
            out,
            "      \"target_speedup\": {}",
            if r.target_speedup > 0.0 {
                num(r.target_speedup)
            } else {
                "null".into()
            }
        );
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The `repro bench` subcommand: measure, report, and (with `--json`) write
/// the `BENCH_mac.json` artifact into `--out DIR` (default: the current
/// directory). An unwritable destination is an `Err`, not a panic — and it
/// is detected *before* the measurement pass, not after it.
pub fn run(opts: &Options) -> Result<Report, String> {
    let quick = opts.quick;
    // Probe the artifact destination up front so a bad --out cannot waste a
    // full measurement pass (same fail-fast rule as the figure runners).
    let json_path = if opts.json {
        let dir = opts
            .out_dir
            .clone()
            .unwrap_or_else(|| Path::new(".").to_path_buf());
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create bench output dir {}: {e}", dir.display()))?;
        let path = dir.join("BENCH_mac.json");
        std::fs::write(&path, "").map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Some(path)
    } else {
        None
    };
    let results = run_all(quick);
    let mut report = Report::new(if quick {
        "Benchmarks — MAC hot path (quick smoke mode; timings are not measurements)"
    } else {
        "Benchmarks — MAC hot path vs pre-overhaul baseline"
    });
    report.line(format!(
        "{:<24} {:>12} {:>14} {:>9}",
        "workload", "ns/iter", "baseline", "speedup"
    ));
    for r in &results {
        report.line(format!(
            "{:<24} {:>12} {:>14} {:>9}",
            r.name,
            fmt_ns(r.ns_per_iter),
            r.baseline_ns_per_iter.map(fmt_ns).unwrap_or("-".into()),
            r.speedup()
                .map(|s| format!("{s:.2}×"))
                .unwrap_or("-".into()),
        ));
    }
    if let Some(path) = json_path {
        std::fs::write(&path, bench_json(&results, quick))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.line(format!("\nwrote {}", path.display()));
    }
    // Acceptance targets are enforced in full mode only — quick mode is a
    // schema smoke test, not a measurement, so a noisy CI box cannot flake
    // the gate. (CI separately checks a relaxed floor on the quick numbers.)
    let missed: Vec<&BenchResult> = results.iter().filter(|r| !r.meets_target()).collect();
    if !missed.is_empty() {
        let mut msg = String::from("bench acceptance failed:");
        for r in &missed {
            let _ = write!(
                msg,
                " {} at {} (target ≥{:.1}×);",
                r.name,
                r.speedup()
                    .map(|s| format!("{s:.2}×"))
                    .unwrap_or("-".into()),
                r.target_speedup,
            );
        }
        if quick {
            report.line(format!("\nnote (quick mode, not enforced): {msg}"));
        } else {
            // Show the measurements before failing — a missed target is
            // exactly when the table matters most.
            report.print();
            return Err(msg);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_measures_every_workload() {
        let results = run_all(true);
        assert_eq!(results.len(), workloads().len());
        for r in &results {
            assert!(r.ns_per_iter > 0.0, "{}", r.name);
            assert!(
                r.baseline_ns_per_iter.is_some(),
                "{} lacks baseline",
                r.name
            );
        }
    }

    #[test]
    fn json_schema_is_stable() {
        let results = run_all(true);
        let json = bench_json(&results, true);
        for key in [
            "\"schema\": \"bench_mac/v1\"",
            "\"mode\": \"quick\"",
            "\"baseline_provenance\"",
            "\"workloads\"",
            "\"ns_per_iter\"",
            "\"baseline_ns_per_iter\"",
            "\"speedup\"",
            "\"target_speedup\"",
            "\"mac_fig5_cw\"",
            "\"mac_fig13_trace\"",
            "\"windowed_scale_n1e5\"",
            "\"noisy_soften_sampled\"",
            "\"dynamic_saturation\"",
            "\"dynamic_bursty_drain\"",
            "\"sched_tail_scale8\"",
        ] {
            assert!(json.contains(key), "missing {key} in\n{json}");
        }
    }

    #[test]
    fn workload_checksums_are_deterministic() {
        // Same iteration on a cold and a warmed arena: the arena may only
        // move memory, never results.
        for w in workloads() {
            let mut cold = (w.make)();
            let mut warmed = (w.make)();
            warmed(0);
            warmed(5);
            assert_eq!(cold(3), warmed(3), "{}", w.name);
        }
    }

    /// Manual measurement helper (not a test of anything): prints the
    /// full-mode estimate for the scheduler-tail workload so baselines can
    /// be recorded from the exact harness that will enforce them.
    #[test]
    #[ignore = "manual baseline measurement helper"]
    fn measure_sched_tail() {
        let all = workloads();
        let w = all
            .iter()
            .find(|w| w.name == "sched_tail_scale8")
            .expect("workload exists");
        let r = measure(w, 7, w.iters);
        eprintln!("sched_tail_scale8: {} ns/iter", r.ns_per_iter);
    }

    #[test]
    fn baseline_covers_every_workload_exactly_once() {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(BASELINE.len(), names.len());
        for (name, ns) in BASELINE {
            assert!(names.contains(name), "stale baseline entry {name}");
            assert!(*ns > 0.0);
        }
    }
}
