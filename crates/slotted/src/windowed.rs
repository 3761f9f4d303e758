//! Aligned-window execution of a single batch under A0–A2.
//!
//! All stations arrive at slot 0 running the same algorithm, so at every
//! point the alive stations are in the same window of the same size (a
//! station that fails waits until the end of the window — Figure 2). Each
//! window resolves as one balls-into-bins round: stations pick slots
//! uniformly; singleton slots succeed, multi-occupancy slots are disjoint
//! collisions.
//!
//! Two loops run these semantics, on the same RNG word stream:
//!
//! * **Sweeps run a count-only loop** (the [`Simulator`] impl, whose output
//!   is a [`TrialSummary`]). Under A0–A2 stations are exchangeable, so a
//!   window's outcome depends only on the multiset of drawn slots: the loop
//!   tracks how many stations are alive and how full each slot is, never
//!   which station drew what. Every abstract-model figure plots only such
//!   aggregates. The window's density picks where the draws are counted: a
//!   window of at most [`DENSE_SLOTS_PER_STATION`] slots per alive station
//!   counts into a slot table (a count table up to 2048 slots, occupancy
//!   bitmaps above), and a sparser one sorts its draws and reads the
//!   outcome from their runs. So the loop's memory follows the alive count,
//!   never the window's width. Once every slot of a power-of-two window of
//!   at most 2048 slots holds two draws, the outcome is fixed (every slot
//!   collides), so the loop skips the window's remaining draws with
//!   [`SmallRng::advance`], which leaves the generator exactly where
//!   drawing them would.
//! * **[`WindowedSim::run`] returns per-station [`BatchMetrics`]** through
//!   [`NoisySim`]'s loop over [`ChannelModel::ideal`], which samples slot
//!   fates without consuming randomness.
//!
//! The count-only summary equals `TrialSummary::from` the per-station run,
//! bit for bit, and both loops leave the generator at the same word; unit
//! tests here and in `noisy.rs`, and the proptest and switch-point matrix in
//! `tests/windowed_golden.rs`, pin this.

use crate::noisy::{window_schedule, NoisyConfig, NoisySim};
use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::metrics::BatchMetrics;
use contention_core::rng::UniformBelow;
use contention_core::schedule::{Truncation, WindowSchedule};
use contention_core::time::Nanos;
use contention_sim::engine::Simulator;
use contention_sim::summary::TrialSummary;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

/// Configuration for one abstract windowed run.
#[derive(Debug, Clone, Copy)]
pub struct WindowedConfig {
    /// Which backoff algorithm every station runs.
    pub algorithm: AlgorithmKind,
    /// Window clamping. The abstract model is unbounded by default
    /// (§V-B notes the 1024 cap "differs from the abstract model").
    pub truncation: Truncation,
    /// Slot duration used only to express `total_time = cw_slots × slot`.
    pub slot: Nanos,
    /// Safety valve: abort after this many windows (0 = no limit). A run
    /// that trips the valve returns with `successes < n`.
    pub max_windows: u32,
}

impl WindowedConfig {
    /// Abstract-model defaults for an algorithm: unbounded windows, 9 µs
    /// slots.
    pub fn abstract_model(algorithm: AlgorithmKind) -> WindowedConfig {
        WindowedConfig {
            algorithm,
            truncation: Truncation::unbounded(),
            slot: Nanos::from_micros(9),
            max_windows: 0,
        }
    }

    /// Same, but clamped to the 802.11g CWmin/CWmax of Table I.
    pub fn truncated_model(algorithm: AlgorithmKind) -> WindowedConfig {
        WindowedConfig {
            truncation: Truncation::paper(),
            ..WindowedConfig::abstract_model(algorithm)
        }
    }

    /// The same run expressed as a noisy-channel config over the ideal
    /// channel — the per-station loop [`WindowedSim::run`] delegates to.
    pub fn as_noisy(&self) -> NoisyConfig {
        NoisyConfig {
            algorithm: self.algorithm,
            truncation: self.truncation,
            slot: self.slot,
            channel: ChannelModel::ideal(),
            max_windows: self.max_windows,
        }
    }
}

/// The aligned-window simulator. Sweeps run its count-only loop; the
/// inherent [`run`](WindowedSim::run) returns per-station metrics.
pub struct WindowedSim {
    inner: NoisySim,
}

impl WindowedSim {
    /// Builds a simulator; panics for algorithms without a static window
    /// schedule (BEST-OF-k belongs to the MAC simulator).
    pub fn new(config: WindowedConfig) -> WindowedSim {
        WindowedSim {
            inner: NoisySim::new(config.as_noisy()),
        }
    }

    /// Runs one single-batch trial of `n` stations with per-station detail:
    /// the noisy-channel loop over the ideal channel.
    pub fn run<R: Rng>(&mut self, n: u32, rng: &mut R) -> BatchMetrics {
        self.inner.run(n, rng)
    }
}

/// A window of at most this many slots per alive station is dense: it
/// counts its draws into a slot-indexed table, whose set-up and final sweep
/// cost O(width) = O(alive) here, and whose bitmaps take at most 16 B per
/// alive station. A sparser window sorts its draws instead, in
/// O(alive log alive) and with no slot-indexed state at all. Sorting costs
/// several times more per draw than a bitmap does, so the split sits at
/// the top of the 16–64 range: on a 2-vCPU Xeon VM, quick `repro scale`
/// spent ≈3 % of its kernel cycles sorting at 16, ≈1.3 % at 32 and under
/// 1 % at 64.
const DENSE_SLOTS_PER_STATION: u64 = 64;

/// Dense windows track occupancy as plain `u32` counts up to this many
/// slots (an 8 KB, L1-resident table) and as `seen`/`dup` bitmaps above it.
/// Counts win at small widths, where the bitmaps' read-modify-write chains
/// pile onto a handful of words and serialize on store forwarding; bitmaps
/// win at large widths, where a count table would fall out of L1 but the
/// `width/8`-byte bitmaps never do.
const DENSE_COUNTS_MAX_SLOTS: usize = 2048;

/// A saturating count-table window tests for saturation once per this many
/// draws: a test per draw costs more than the few words a coarser test
/// draws past the moment of saturation.
const SATURATION_CHECK_DRAWS: u64 = 64;

/// Reusable per-worker occupancy buffers of the count-only loop. Every
/// buffer is sized by the alive count, never by the window alone: the count
/// table holds at most [`DENSE_COUNTS_MAX_SLOTS`] entries, the bitmaps at
/// most 16 B per alive station and the sorted draws 4 B. All keep their
/// high-water capacity from trial to trial, so steady-state trials do not
/// touch the allocator. A fresh (`Default`) scratch behaves identically —
/// reuse may only move memory, never results.
#[derive(Default)]
pub struct WindowedScratch {
    /// Dense windows up to [`DENSE_COUNTS_MAX_SLOTS`] slots: draws per slot.
    counts: Vec<u32>,
    /// Wider dense windows: slot-occupancy bitmaps (`seen` = drawn at least
    /// once, `dup` = drawn at least twice), `width/8` bytes each so they
    /// stay cache-resident. Collided slots = |dup|, singleton slots =
    /// |seen| − |dup|.
    seen: Vec<u64>,
    dup: Vec<u64>,
    /// Sparse windows (over [`DENSE_SLOTS_PER_STATION`] slots per alive
    /// station): the slots drawn, sorted. A run of one is a singleton, a
    /// longer run a collided slot.
    drawn: Vec<u32>,
}

/// Which table holds the last window's occupancy.
#[derive(Clone, Copy)]
enum Occupancy {
    /// Width 1: every alive station is in slot 0.
    Lone,
    Counts,
    /// Every slot holds two or more draws: no singleton to look up, and the
    /// count table holds only the draws made before the skip.
    Saturated,
    Bitmaps,
    /// The sorted draws of a sparse window.
    Sorted,
}

/// Draws `alive` slots uniform in `[0, span)`, one word each in stream
/// order, and hands each to `mark`. Power-of-two spans take the word's low
/// bits straight from the generator; other spans reduce through one
/// [`UniformBelow`] built for the window. Either way the values and the
/// words consumed are exactly those of `alive` calls to
/// `rng.gen_range(0..span)`, as in the per-station loop. The count table's
/// saturating windows draw through it in chunks and skip what is left.
#[inline]
fn draw_slots(rng: &mut SmallRng, span: u64, alive: u64, mut mark: impl FnMut(usize)) {
    if span.is_power_of_two() {
        let mask = span - 1;
        for _ in 0..alive {
            mark((rng.next_u64() & mask) as usize);
        }
    } else {
        let draw = UniformBelow::new(span);
        for _ in 0..alive {
            mark(draw.sample(rng) as usize);
        }
    }
}

impl WindowedScratch {
    /// Draws one window of `width` slots for `alive ≥ 1` stations and
    /// returns `(collided slots, singleton slots, occupancy)`. Width 1
    /// consumes no RNG word (everyone lands in slot 0, as `gen_range(0..1)`
    /// does without drawing). A power-of-two window of at most
    /// [`DENSE_COUNTS_MAX_SLOTS`] slots stops drawing once every slot holds
    /// two draws and advances the generator past the rest, returning
    /// `(width, 0, Saturated)`; every window leaves the generator where
    /// `alive` draws would.
    fn resolve(&mut self, rng: &mut SmallRng, width: u32, alive: u64) -> (u64, u64, Occupancy) {
        let span = width as u64;
        let wslots = width as usize;
        if width == 1 {
            return (
                u64::from(alive >= 2),
                u64::from(alive == 1),
                Occupancy::Lone,
            );
        }
        let WindowedScratch {
            counts,
            seen,
            dup,
            drawn,
        } = self;
        if span > DENSE_SLOTS_PER_STATION * alive {
            // Sparse windows (width ≫ alive, the resolution tail): sorting
            // the draws touches only them, however wide the window.
            drawn.clear();
            draw_slots(rng, span, alive, |slot| drawn.push(slot as u32));
            drawn.sort_unstable();
            let (mut collided, mut singles) = (0u64, 0u64);
            for run in drawn.chunk_by(|a, b| a == b) {
                collided += u64::from(run.len() >= 2);
                singles += u64::from(run.len() == 1);
            }
            (collided, singles, Occupancy::Sorted)
        } else if wslots <= DENSE_COUNTS_MAX_SLOTS {
            // Dense windows — the collision-heavy early and middle windows
            // that carry most of a trial's draws. Every per-draw step is
            // branch-free, which wins exactly where slot occupancy makes
            // branches unpredictable.
            counts.clear();
            counts.resize(wslots, 0);
            if span.is_power_of_two() && alive >= 2 * span {
                // Enough draws to put two in every slot. Once every slot
                // holds two, the outcome is fixed — every slot collides,
                // none succeeds — and the remaining draws only move the
                // generator, so it jumps past them. Only power-of-two
                // widths: elsewhere zone rejection makes the number of
                // words left unknowable.
                let mut full = 0u64;
                let mut left = alive;
                while left > 0 {
                    let chunk = left.min(SATURATION_CHECK_DRAWS);
                    draw_slots(rng, span, chunk, |slot| {
                        counts[slot] += 1;
                        full += u64::from(counts[slot] == 2);
                    });
                    left -= chunk;
                    if full == span {
                        rng.advance(left);
                        return (span, 0, Occupancy::Saturated);
                    }
                }
            } else {
                draw_slots(rng, span, alive, |slot| counts[slot] += 1);
            }
            let (mut collided, mut singles) = (0u64, 0u64);
            for &c in counts.iter() {
                collided += u64::from(c >= 2);
                singles += u64::from(c == 1);
            }
            (collided, singles, Occupancy::Counts)
        } else {
            let words = wslots.div_ceil(64);
            seen.clear();
            seen.resize(words, 0);
            dup.clear();
            dup.resize(words, 0);
            draw_slots(rng, span, alive, |slot| {
                let (idx, bit) = (slot >> 6, 1u64 << (slot & 63));
                dup[idx] |= seen[idx] & bit;
                seen[idx] |= bit;
            });
            let (mut occupied, mut collided) = (0u64, 0u64);
            for (&s, &d) in seen.iter().zip(dup.iter()) {
                occupied += u64::from(s.count_ones());
                collided += u64::from(d.count_ones());
            }
            (collided, occupied - collided, Occupancy::Bitmaps)
        }
    }

    /// The `rank`-th smallest (0-based) singleton slot of the last window.
    fn nth_singleton(&self, occupancy: Occupancy, rank: u64) -> u64 {
        match occupancy {
            Occupancy::Lone => 0,
            Occupancy::Counts => self
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == 1)
                .nth(rank as usize)
                .map(|(slot, _)| slot as u64)
                .expect("rank below the singleton count"),
            Occupancy::Saturated => unreachable!("a saturated window has no singletons"),
            Occupancy::Bitmaps => {
                let mut rank = rank as u32;
                for (idx, (&s, &d)) in self.seen.iter().zip(self.dup.iter()).enumerate() {
                    let mut singles = s & !d;
                    let here = singles.count_ones();
                    if rank < here {
                        for _ in 0..rank {
                            singles &= singles - 1;
                        }
                        return idx as u64 * 64 + u64::from(singles.trailing_zeros());
                    }
                    rank -= here;
                }
                unreachable!("rank below the singleton count")
            }
            Occupancy::Sorted => self
                .drawn
                .chunk_by(|a, b| a == b)
                .filter(|run| run.len() == 1)
                .nth(rank as usize)
                .map(|run| u64::from(run[0]))
                .expect("rank below the singleton count"),
        }
    }

    /// The largest slot drawn in the last window — in the final window,
    /// where every draw is a singleton, the last success.
    fn max_drawn(&self, occupancy: Occupancy) -> u64 {
        let last = match occupancy {
            Occupancy::Lone => Some(0),
            Occupancy::Counts => self.counts.iter().rposition(|&c| c != 0),
            Occupancy::Saturated => unreachable!("a saturated window has no singletons"),
            Occupancy::Bitmaps => self
                .seen
                .iter()
                .rposition(|&w| w != 0)
                .map(|idx| idx * 64 + 63 - self.seen[idx].leading_zeros() as usize),
            Occupancy::Sorted => self.drawn.last().map(|&slot| slot as usize),
        };
        last.expect("the window drew at least one slot") as u64
    }
}

/// The count-only loop: one trial of `n` stations, tracking the alive count
/// and the per-window occupancy only.
///
/// Every summary field follows from those counts:
///
/// * successes are the singleton slots, collisions the slots drawn twice or
///   more, and colliding stations `alive − singletons` per window;
/// * `cw_slots` ends at the final window's largest slot (every draw there is
///   a singleton), and `half_cw_slots` at the `(⌈n/2⌉ − prior)`-th smallest
///   singleton of the one window that crosses ⌈n/2⌉ successes;
/// * on the ideal channel every failed attempt is a collision, so the ACK
///   timeouts total the colliding stations;
/// * a station attempts every window until it wins, so the most ACK
///   timeouts any station took is `windows_run − 1` (a last-window winner),
///   or `windows_run` for the survivors when the valve stopped the trial.
fn run_counts(
    config: &WindowedConfig,
    n: u32,
    rng: &mut SmallRng,
    scratch: &mut WindowedScratch,
) -> TrialSummary {
    let mut schedule = window_schedule(config.algorithm, config.truncation);
    let n64 = n as u64;
    let half_target = n64.div_ceil(2);
    let mut alive = n64;
    let (mut collisions, mut colliding_stations) = (0u64, 0u64);
    let (mut cw_slots, mut half_cw_slots) = (0u64, 0u64);
    let mut slots_before_window = 0u64;
    let mut windows_run = 0u32;

    while alive > 0 {
        if config.max_windows != 0 && windows_run >= config.max_windows {
            break;
        }
        windows_run += 1;
        let width = schedule.next_window();
        let (collided, singles, occupancy) = scratch.resolve(rng, width, alive);
        collisions += collided;
        colliding_stations += alive - singles;
        let prior = n64 - alive;
        if prior < half_target && prior + singles >= half_target {
            let rank = half_target - prior - 1;
            half_cw_slots = slots_before_window + scratch.nth_singleton(occupancy, rank) + 1;
        }
        if singles == alive {
            cw_slots = slots_before_window + scratch.max_drawn(occupancy) + 1;
        }
        alive -= singles;
        slots_before_window += width as u64;
    }

    let (elapsed, max_ack_timeouts) = if alive == 0 {
        // `n = 0` runs no window at all.
        (cw_slots, windows_run.saturating_sub(1))
    } else {
        // Valve-truncated: report the span of every window opened, as the
        // per-station loop does.
        (slots_before_window, windows_run)
    };
    TrialSummary {
        n,
        successes: (n64 - alive) as u32,
        cw_slots: cw_slots as f64,
        half_cw_slots: half_cw_slots as f64,
        total_time_us: (config.slot * elapsed).as_micros_f64(),
        half_time_us: (config.slot * half_cw_slots).as_micros_f64(),
        collisions: collisions as f64,
        colliding_stations: colliding_stations as f64,
        ack_timeouts: colliding_stations as f64,
        max_ack_timeouts: max_ack_timeouts as f64,
        ..TrialSummary::default()
    }
}

/// Plugs the windowed semantics into the generic sweep engine: every sweep
/// and every `run_trial` of `WindowedSim` runs the count-only loop.
impl Simulator for WindowedSim {
    type Config = WindowedConfig;
    type Output = TrialSummary;
    type Scratch = WindowedScratch;
    const NAME: &'static str = "windowed";

    fn algorithm(config: &WindowedConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &WindowedConfig, algorithm: AlgorithmKind) -> WindowedConfig {
        WindowedConfig {
            algorithm,
            ..*config
        }
    }

    fn run_with(
        config: &WindowedConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut WindowedScratch,
    ) -> TrialSummary {
        run_counts(config, n, rng, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::rng::{experiment_tag, trial_rng};

    fn run_once(kind: AlgorithmKind, n: u32, trial: u32) -> BatchMetrics {
        let mut sim = WindowedSim::new(WindowedConfig::abstract_model(kind));
        let mut rng = trial_rng(experiment_tag("windowed-test"), kind, n, trial);
        sim.run(n, &mut rng)
    }

    #[test]
    fn all_packets_finish() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(kind, 100, 0);
            assert_eq!(m.successes, 100, "{kind}");
            assert!(m.stations.iter().all(|s| s.success_time.is_some()));
        }
    }

    #[test]
    fn single_station_succeeds_immediately_under_beb() {
        // BEB's first window has size 1: the lone station transmits in the
        // first slot and succeeds.
        let m = run_once(AlgorithmKind::Beb, 1, 0);
        assert_eq!(m.cw_slots, 1);
        assert_eq!(m.collisions, 0);
        assert_eq!(m.stations[0].attempts, 1);
    }

    #[test]
    fn two_stations_collide_until_separated() {
        let m = run_once(AlgorithmKind::Beb, 2, 1);
        assert_eq!(m.successes, 2);
        // Both stations must collide in the size-1 window at least once.
        assert!(m.collisions >= 1);
        assert!(m.stations.iter().all(|s| s.attempts >= 2));
    }

    #[test]
    fn half_metrics_precede_full_metrics() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(kind, 60, 2);
            assert!(m.half_cw_slots <= m.cw_slots, "{kind}");
            assert!(m.half_cw_slots > 0);
        }
    }

    #[test]
    fn collision_accounting_is_consistent() {
        for trial in 0..5 {
            let m = run_once(AlgorithmKind::LogBackoff, 80, trial);
            // Every disjoint collision involves ≥ 2 stations.
            assert!(m.colliding_stations >= 2 * m.collisions);
            // Station-level collision events equal total ACK timeouts.
            assert_eq!(m.colliding_stations, m.total_ack_timeouts());
            // Attempts = successes + failures.
            assert!(m.attempts_balance());
        }
    }

    #[test]
    fn deterministic_under_same_seed() {
        let a = run_once(AlgorithmKind::Sawtooth, 120, 7);
        let b = run_once(AlgorithmKind::Sawtooth, 120, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn stb_uses_fewer_cw_slots_than_beb_at_scale() {
        // Table II at a size where the asymptotics already bite; median of a
        // few trials to dodge per-trial noise.
        let med = |kind: AlgorithmKind| -> u64 {
            let mut xs: Vec<u64> = (0..9).map(|t| run_once(kind, 2_000, t).cw_slots).collect();
            xs.sort_unstable();
            xs[4]
        };
        let beb = med(AlgorithmKind::Beb);
        let stb = med(AlgorithmKind::Sawtooth);
        assert!(stb < beb, "STB ({stb}) should beat BEB ({beb}) on CW slots");
    }

    #[test]
    fn max_windows_valve_truncates() {
        let mut config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
        config.max_windows = 1;
        let mut sim = WindowedSim::new(config);
        let mut rng = trial_rng(experiment_tag("valve"), AlgorithmKind::Beb, 50, 0);
        let m = sim.run(50, &mut rng);
        // 50 stations in a single width-1 window cannot all succeed.
        assert!(m.successes < 50);
        // The delegated loop's valve exception rides along: one width-1
        // window elapsed, so `total_time` is one slot, not 0.
        assert_eq!(m.total_time, config.slot);
        // The count-only loop reports the same: every station survived one
        // window, taking one ACK timeout.
        let mut rng = trial_rng(experiment_tag("valve"), AlgorithmKind::Beb, 50, 0);
        let t = <WindowedSim as Simulator>::run(&config, 50, &mut rng);
        assert_eq!(t.successes, 0);
        assert_eq!(t.total_time_us, config.slot.as_micros_f64());
        assert_eq!(t.max_ack_timeouts, 1.0);
        assert_eq!(t.ack_timeouts, 50.0);
    }

    #[test]
    fn zero_stations_is_a_noop() {
        let m = run_once(AlgorithmKind::Beb, 0, 0);
        assert_eq!(m.successes, 0);
        assert_eq!(m.cw_slots, 0);
        assert_eq!(m.collisions, 0);
        let config = WindowedConfig::abstract_model(AlgorithmKind::Beb);
        let mut rng = trial_rng(experiment_tag("windowed-test"), AlgorithmKind::Beb, 0, 0);
        let t = <WindowedSim as Simulator>::run(&config, 0, &mut rng);
        assert_eq!(t, TrialSummary::default());
    }

    #[test]
    #[should_panic(expected = "no static window schedule")]
    fn best_of_k_is_rejected() {
        let _ = WindowedSim::new(WindowedConfig::abstract_model(AlgorithmKind::BestOfK {
            k: 3,
        }));
    }
}
