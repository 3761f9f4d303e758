//! Residual-timer execution of a single batch under A0–A2.
//!
//! 802.11's DCF does not wait out windows: after every failure a station
//! draws a fresh timer uniformly from `[0, CW−1]` (CW grown per its
//! algorithm) and transmits when the countdown expires. This module runs that
//! semantics inside the *abstract* collision model — no carrier sensing, no
//! transmission time, no ACKs — so that the effect of window semantics can be
//! separated from the effect of collision cost when interpreting the MAC
//! simulator's results.
//!
//! Implementation: a min-heap of absolute transmission slots. All stations
//! popped at the same slot form the transmission set; singletons succeed,
//! larger sets collide and redraw.

use contention_core::algorithm::AlgorithmKind;
use contention_core::metrics::{BatchMetrics, StationMetrics};
use contention_core::params::SLOT;
use contention_core::schedule::{Backoff, Truncation};
use contention_sim::engine::Simulator;
use rand::rngs::SmallRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration for one residual-timer run. Times are `cw_slots` of
/// Table I's 9 µs [`SLOT`].
#[derive(Debug, Clone, Copy)]
pub struct ResidualConfig {
    /// Which backoff algorithm every station runs.
    pub algorithm: AlgorithmKind,
    /// Window clamping; Table I's 1/1024 by default, because this semantics
    /// exists to mirror the MAC layer.
    pub truncation: Truncation,
    /// Abort valve in transmission events (0 = unlimited).
    pub max_events: u64,
}

impl ResidualConfig {
    pub fn paper(algorithm: AlgorithmKind) -> ResidualConfig {
        ResidualConfig {
            algorithm,
            truncation: Truncation::paper(),
            max_events: 0,
        }
    }
}

/// Reusable per-worker state for the residual-timer loop: the event heap and
/// the per-event transmission set keep their high-water capacity from trial
/// to trial, and the [`Backoff`] table of each `(algorithm, truncation)` is
/// built once per worker. A fresh (`Default`) scratch behaves identically —
/// reuse may only move memory, never results.
#[derive(Default)]
pub struct ResidualScratch {
    /// Pending transmissions as `(absolute slot, station)`, earliest first.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// The equal-slot transmission set of the current event.
    group: Vec<u32>,
    /// The table of every `(algorithm, truncation)` run on this scratch.
    tables: Vec<Backoff>,
}

/// The residual-timer backend of the generic sweep engine; a lone trial
/// runs through [`Simulator::run`].
pub struct ResidualSim;

/// The residual-timer trial loop over a caller-owned scratch arena.
///
/// RNG discipline: timers are drawn in station order (initially) and in
/// group order (after a collision). Every station walks the same schedule,
/// so its backoff stage is the ACK timeouts it has taken, and its timer is
/// drawn through that stage's entry of the algorithm's [`Backoff`] table:
/// the values and words of a `gen_range(0..cw)` (a `cw` of 1 consumes no
/// randomness).
fn run_residual(
    config: &ResidualConfig,
    scratch: &mut ResidualScratch,
    n: u32,
    rng: &mut SmallRng,
) -> BatchMetrics {
    let ResidualScratch {
        heap,
        group,
        tables,
    } = scratch;
    let timers =
        Backoff::cached(tables, config.algorithm, config.truncation).unwrap_or_else(|| {
            panic!(
                "{} has no static window schedule; use the MAC simulator",
                config.algorithm
            )
        });
    let mut metrics = BatchMetrics {
        n,
        stations: vec![StationMetrics::default(); n as usize],
        ..BatchMetrics::default()
    };
    if n == 0 {
        return metrics;
    }
    let half_target = n.div_ceil(2);

    // Heap of (transmission slot, station), earliest first. Stations are
    // pushed in index order, so equal-slot groups are deterministic.
    heap.clear();
    for (station, s) in metrics.stations.iter_mut().enumerate() {
        let timer = timers.sample(0, rng);
        s.backoff_slots += timer;
        heap.push(Reverse((timer, station as u32)));
    }

    let mut events: u64 = 0;
    while let Some(&Reverse((slot, _))) = heap.peek() {
        if config.max_events != 0 && events >= config.max_events {
            break;
        }
        events += 1;

        group.clear();
        while let Some(&Reverse((s, station))) = heap.peek() {
            if s != slot {
                break;
            }
            heap.pop();
            group.push(station);
        }

        if group.len() == 1 {
            let station = group[0];
            let s = &mut metrics.stations[station as usize];
            s.attempts += 1;
            s.success_time = Some(SLOT * (slot + 1));
            metrics.successes += 1;
            if metrics.successes == half_target {
                metrics.half_cw_slots = slot + 1;
            }
            if metrics.successes == n {
                metrics.cw_slots = slot + 1;
            }
        } else {
            metrics.collisions += 1;
            metrics.colliding_stations += group.len() as u64;
            for &station in group.iter() {
                let s = &mut metrics.stations[station as usize];
                s.attempts += 1;
                s.ack_timeouts += 1;
                let timer = timers.sample(s.ack_timeouts, rng);
                s.backoff_slots += timer;
                // Redraw counts from the slot after the collision.
                heap.push(Reverse((slot + 1 + timer, station)));
            }
        }
    }

    metrics.total_time = SLOT * metrics.cw_slots;
    metrics.half_time = SLOT * metrics.half_cw_slots;
    metrics
}

/// Plugs the residual-timer semantics into the generic sweep engine.
impl Simulator for ResidualSim {
    type Config = ResidualConfig;
    type Output = BatchMetrics;
    type Scratch = ResidualScratch;
    const NAME: &'static str = "residual";

    fn algorithm(config: &ResidualConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &ResidualConfig, algorithm: AlgorithmKind) -> ResidualConfig {
        ResidualConfig {
            algorithm,
            ..*config
        }
    }

    fn run_with(
        config: &ResidualConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut ResidualScratch,
    ) -> BatchMetrics {
        run_residual(config, scratch, n, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::rng::{experiment_tag, trial_rng};

    fn run_once(kind: AlgorithmKind, n: u32, trial: u32) -> BatchMetrics {
        let mut rng = trial_rng(experiment_tag("residual-test"), kind, n, trial);
        ResidualSim::run(&ResidualConfig::paper(kind), n, &mut rng)
    }

    #[test]
    fn all_packets_finish() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(kind, 100, 0);
            assert_eq!(m.successes, 100, "{kind}");
        }
    }

    #[test]
    fn accounting_invariants() {
        for trial in 0..5 {
            let m = run_once(AlgorithmKind::LogLogBackoff, 75, trial);
            assert!(m.attempts_balance());
            assert!(m.colliding_stations >= 2 * m.collisions);
            assert!(m.half_cw_slots <= m.cw_slots);
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = run_once(AlgorithmKind::Beb, 90, 3);
        let b = run_once(AlgorithmKind::Beb, 90, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn single_station_first_slot() {
        // One BEB station draws from CW=1, i.e. timer 0 → succeeds in slot 0
        // (reported 1-based).
        let m = run_once(AlgorithmKind::Beb, 1, 0);
        assert_eq!(m.cw_slots, 1);
        assert_eq!(m.collisions, 0);
    }

    #[test]
    fn residual_timers_still_order_algorithms_by_cw_slots() {
        // The semantics change must not flip Table II's ordering of BEB vs
        // STB at moderate scale. Untruncated windows: near CWmax saturation
        // (n approaching 1024) STB's backon cycles are pathological under
        // the cap, which is a truncation artifact, not a semantics question.
        let med = |kind: AlgorithmKind| -> u64 {
            let mut xs: Vec<u64> = (0..9)
                .map(|t| {
                    let mut config = ResidualConfig::paper(kind);
                    config.truncation = Truncation::unbounded();
                    let mut rng = trial_rng(experiment_tag("residual-test"), kind, 800, t);
                    ResidualSim::run(&config, 800, &mut rng).cw_slots
                })
                .collect();
            xs.sort_unstable();
            xs[4]
        };
        assert!(med(AlgorithmKind::Sawtooth) < med(AlgorithmKind::Beb));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // Heap, group and timer-table reuse may move memory, never results —
        // including across trials of different algorithms on one scratch.
        let mut scratch = ResidualScratch::default();
        for kind in [AlgorithmKind::LogBackoff, AlgorithmKind::Beb] {
            let config = ResidualConfig::paper(kind);
            for trial in 0..4 {
                let tag = experiment_tag("residual-test");
                let mut rng = trial_rng(tag, kind, 60, trial);
                let reused = run_residual(&config, &mut scratch, 60, &mut rng);
                let mut rng = trial_rng(tag, kind, 60, trial);
                let fresh = run_residual(&config, &mut ResidualScratch::default(), 60, &mut rng);
                assert_eq!(reused, fresh, "{kind} trial {trial}");
            }
        }
    }

    #[test]
    fn max_events_valve() {
        let mut config = ResidualConfig::paper(AlgorithmKind::Beb);
        config.max_events = 3;
        let mut rng = trial_rng(experiment_tag("valve"), AlgorithmKind::Beb, 200, 0);
        let m = ResidualSim::run(&config, 200, &mut rng);
        assert!(m.successes < 200);
    }

    #[test]
    #[should_panic(expected = "no static window schedule")]
    fn best_of_k_is_rejected() {
        let _ = run_once(AlgorithmKind::BestOfK { k: 5 }, 10, 0);
    }
}
