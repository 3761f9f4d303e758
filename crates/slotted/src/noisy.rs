//! Aligned-window execution over a noisy channel with softened collisions.
//!
//! Same window semantics as [`crate::windowed::WindowedSim`] (all stations
//! arrive at slot 0, windows are globally aligned, a failed station waits out
//! the window), but assumption A1 is replaced by a
//! [`ChannelModel`]: a slot carrying `k ≥ 2` transmissions still delivers one
//! of them with probability `p_recover(k)`, and any slot can be erased by
//! noise — the regime of *Softening the Impact of Collisions in Contention
//! Resolution* (arXiv:2408.11275).
//!
//! RNG discipline: each window first draws every alive station's slot (in
//! alive order), then resolves occupied slots in ascending slot order
//! through [`ChannelModel::sample_slot`]. Because the ideal channel samples
//! without consuming randomness, the `p = 0` / zero-noise configuration *is*
//! assumption A1 with the identical RNG stream. That makes this loop the
//! per-station reference for the paper model too:
//! [`WindowedSim::run`](crate::windowed::WindowedSim::run) is this loop over
//! [`ChannelModel::ideal`]. A `WindowedSim` *sweep* is not: it runs the
//! count-only loop of [`crate::windowed`], which draws the same words and is
//! tested to yield the same `TrialSummary` as this loop, bit for bit.

use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::{ChannelModel, SlotFate};
use contention_core::metrics::{BatchMetrics, StationMetrics};
use contention_core::rng::UniformBelow;
use contention_core::schedule::{Schedule, Truncation, WindowSchedule};
use contention_core::time::Nanos;
use contention_sim::engine::Simulator;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration for one noisy-channel windowed run.
#[derive(Debug, Clone, Copy)]
pub struct NoisyConfig {
    /// Which backoff algorithm every station runs.
    pub algorithm: AlgorithmKind,
    /// Window clamping; unbounded by default to mirror the abstract model.
    pub truncation: Truncation,
    /// Slot duration used only to express `total_time = cw_slots × slot`.
    pub slot: Nanos,
    /// The channel: collision softening + per-slot noise.
    pub channel: ChannelModel,
    /// Safety valve: abort after this many windows (0 = no limit). Unlike
    /// the fatal-collision model, a noisy channel with `noise = 1` would
    /// never finish, so long-running noisy sweeps should set this.
    pub max_windows: u32,
}

impl NoisyConfig {
    /// Abstract-model geometry (unbounded windows, 9 µs slots) over an
    /// arbitrary channel.
    pub fn abstract_model(algorithm: AlgorithmKind, channel: ChannelModel) -> NoisyConfig {
        NoisyConfig {
            algorithm,
            truncation: Truncation::unbounded(),
            slot: Nanos::from_micros(9),
            channel,
            max_windows: 0,
        }
    }

    /// The degenerate configuration: ideal channel, i.e. exactly
    /// [`crate::windowed::WindowedConfig::abstract_model`] semantics.
    pub fn fatal(algorithm: AlgorithmKind) -> NoisyConfig {
        NoisyConfig::abstract_model(algorithm, ChannelModel::ideal())
    }
}

/// Slot-indexed buffers above this many entries are released at the end of
/// a trial (see [`shed_pathological`]): a sharded sweep parks its workers
/// for long stretches, and one pathological (huge-window) trial must not pin
/// that window's high-water memory for the rest of the shard. 2²¹ entries
/// keeps every window the paper's grids produce allocation-free while
/// capping the retained slot state at 16 MB per worker.
const MAX_RETAINED_SLOT_ENTRIES: usize = 1 << 21;

/// Releases a slot-indexed buffer beyond [`MAX_RETAINED_SLOT_ENTRIES`]; the
/// loop calls it on every such buffer at the end of every trial (a no-op
/// for ordinary widths).
fn shed_pathological<T>(buf: &mut Vec<T>) {
    if buf.capacity() > MAX_RETAINED_SLOT_ENTRIES {
        buf.truncate(MAX_RETAINED_SLOT_ENTRIES);
        buf.shrink_to(MAX_RETAINED_SLOT_ENTRIES);
    }
}

/// Epoch-stamped per-slot draw counts: a slot drawn in the current window
/// holds `stamp | count`, where `stamp = epoch << 32`. A stale stamp reads
/// as count 0, so neither window turnover nor buffer growth ever has to
/// reset slots. The counting-sort group-by's occupancy table.
#[derive(Default)]
struct SlotCounts {
    state: Vec<u64>,
    /// The current window's stamp. Persistent across trials (resetting it
    /// would alias stale stamps); on the 2³²-window wraparound the whole
    /// buffer is cleared once instead.
    stamp: u64,
}

impl SlotCounts {
    /// Opens a window of `width` empty slots.
    fn open(&mut self, width: usize) {
        let mut epoch = ((self.stamp >> 32) as u32).wrapping_add(1);
        if epoch == 0 {
            // Stamp 0 is about to become live again.
            self.state.iter_mut().for_each(|s| *s = 0);
            epoch = 1;
        }
        self.stamp = (epoch as u64) << 32;
        if self.state.len() < width {
            // Fresh entries carry stamp 0 = stale, i.e. count 0: growth
            // needs no re-zeroing of previously grown regions either.
            self.state.resize(width, 0);
        }
    }

    /// Counts one more draw of `slot` in the open window.
    #[inline]
    fn bump(&mut self, slot: u64) {
        let entry = &mut self.state[slot as usize];
        *entry = (*entry).max(self.stamp) + 1;
    }

    /// The open window's counts of its first `width` slots, in slot order.
    fn counts(&self, width: usize) -> impl Iterator<Item = u32> + '_ {
        let stamp = self.stamp;
        self.state[..width]
            .iter()
            .map(move |&e| if e >= stamp { e as u32 } else { 0 })
    }

    fn shed(&mut self) {
        shed_pathological(&mut self.state);
    }
}

/// Reusable per-worker buffers for the per-station loop; all keep their
/// high-water capacity from trial to trial (slot-indexed ones up to
/// [`MAX_RETAINED_SLOT_ENTRIES`]). A fresh (`Default`) scratch behaves
/// identically — reuse may only move memory, never results.
#[derive(Default)]
pub struct NoisyScratch {
    /// Per-slot draw counts for the counting-sort group-by.
    slot_counts: SlotCounts,
    alive: Vec<u32>,
    /// Slot drawn by each alive station this window (alive order; the
    /// drawer of entry `i` is `alive[i]`).
    slots: Vec<u32>,
    /// Per-station backoff-slot accumulators, station-indexed. The only
    /// per-station state the window loop touches: `attempts`/`ack_timeouts`
    /// need no accumulator, because a station attempts every window until
    /// it exits by winning — both counts derive from its exit window.
    backoff: Vec<u64>,
    /// `(slot << 32) | draw index`, grouped ascending — packed so plain
    /// `u64` order is exactly (slot, draw order).
    order: Vec<u64>,
    /// Counting-sort group-by: scatter cursor per slot.
    slot_offsets: Vec<u32>,
    /// Which draws won their slot, for the compaction pass.
    won: Vec<bool>,
}

/// The noisy-channel aligned-window simulator, with per-station output.
///
/// Each window's draws are grouped by slot and every occupied slot is
/// resolved through [`ChannelModel::sample_slot`]. Over the ideal channel
/// this is the paper model's per-station reference: `WindowedSim::run`
/// delegates here, and the count-only loop that `WindowedSim` sweeps run is
/// tested to reproduce this loop's `TrialSummary` bit for bit.
pub struct NoisySim {
    config: NoisyConfig,
    schedule: Schedule,
    scratch: NoisyScratch,
}

impl NoisySim {
    /// Builds a simulator; panics for algorithms without a static window
    /// schedule (BEST-OF-k belongs to the MAC simulator).
    pub fn new(config: NoisyConfig) -> NoisySim {
        NoisySim {
            config,
            schedule: window_schedule(config.algorithm, config.truncation),
            scratch: NoisyScratch::default(),
        }
    }

    /// Runs one single-batch trial of `n` stations.
    pub fn run<R: Rng>(&mut self, n: u32, rng: &mut R) -> BatchMetrics {
        self.schedule.reset();
        run_windows(&self.config, &mut self.schedule, &mut self.scratch, n, rng)
    }
}

/// The schedule an algorithm prescribes under `truncation`; panics for
/// algorithms without one.
pub(crate) fn window_schedule(algorithm: AlgorithmKind, truncation: Truncation) -> Schedule {
    algorithm.schedule(truncation).unwrap_or_else(|| {
        panic!("{algorithm} has no static window schedule; use the MAC simulator")
    })
}

/// The per-station windowed loop over caller-owned scratch buffers.
/// `schedule` must be freshly built or reset.
///
/// Structure (every outcome bit-identical to the straightforward loop it
/// replaced — the windowed golden fixture pins this):
///
/// * **One reduction per window.** Each window builds one [`UniformBelow`]
///   for its width and draws every alive station's slot through it, in
///   alive order: the values and words of per-draw `gen_range` calls
///   (a rejected word is replaced by the next; width 1 consumes nothing),
///   without a division per draw.
/// * **Counting-sort group-by.** When the window is at most 4× the alive
///   set, same-slot groups are formed by prefix-summed scatter over
///   epoch-stamped [`SlotCounts`] in O(alive + width) instead of
///   `sort_unstable`; wider windows sort packed `(slot << 32) | index`
///   keys, whose plain `u64` order is exactly the (slot, draw index) order.
/// * **Compaction.** Failures are written back into `alive` in order — no
///   `done` table, no `retain` pass.
/// * **Compact per-station accumulation.** The loop touches one `u64`
///   backoff accumulator per draw instead of the 40-byte
///   [`StationMetrics`]; `attempts` and `ack_timeouts` are derived once per
///   trial from each station's exit window (a station attempts every window
///   until it exits by winning, and every attempt except a final winning
///   one times out).
fn run_windows<R: Rng>(
    config: &NoisyConfig,
    schedule: &mut Schedule,
    scratch: &mut NoisyScratch,
    n: u32,
    rng: &mut R,
) -> BatchMetrics {
    let mut metrics = BatchMetrics {
        n,
        stations: vec![StationMetrics::default(); n as usize],
        ..BatchMetrics::default()
    };
    if n == 0 {
        return metrics;
    }

    let half_target = n.div_ceil(2);
    let NoisyScratch {
        slot_counts,
        alive,
        slots,
        backoff,
        order,
        slot_offsets,
        won,
    } = scratch;
    alive.clear();
    alive.extend(0..n);
    backoff.clear();
    backoff.resize(n as usize, 0);
    let mut slots_before_window: u64 = 0;
    let mut windows_run: u32 = 0;

    while !alive.is_empty() {
        if config.max_windows != 0 && windows_run >= config.max_windows {
            break;
        }
        windows_run += 1;
        let width = schedule.next_window();
        let span = width as u64;
        let wslots = width as usize;
        let alive_n = alive.len();
        // Width-bounded O(width) sweeps (a prefix sum) are worth buying
        // while they stay within a small factor of the draw count.
        let counting = wslots <= 4 * alive_n;
        if counting {
            slot_counts.open(wslots);
        }

        // Draw pass: sequential station accumulators, occupancy counts when
        // the counting-sort group-by applies…
        slots.clear();
        let draw = UniformBelow::new(span);
        for &station in alive.iter() {
            let slot = draw.sample(rng);
            slots.push(slot as u32);
            backoff[station as usize] += slot;
            if counting {
                slot_counts.bump(slot);
            }
        }

        // …then group same-slot draws in (slot, draw order) order.
        order.clear();
        if counting {
            // Prefix-summed scatter: O(alive + width), no comparisons.
            slot_offsets.clear();
            slot_offsets.reserve(wslots);
            let mut running = 0u32;
            for count in slot_counts.counts(wslots) {
                slot_offsets.push(running);
                running += count;
            }
            order.resize(alive_n, 0);
            for (i, &slot) in slots.iter().enumerate() {
                let cursor = &mut slot_offsets[slot as usize];
                order[*cursor as usize] = ((slot as u64) << 32) | i as u64;
                *cursor += 1;
            }
        } else {
            order.extend(
                slots
                    .iter()
                    .enumerate()
                    .map(|(i, &slot)| ((slot as u64) << 32) | i as u64),
            );
            order.sort_unstable();
        }

        // Resolve each occupied slot through the channel in ascending slot
        // order (the RNG contract), recording winners; successes arrive in
        // slot order, so the half/full targets are direct.
        won.clear();
        won.resize(alive_n, false);
        let mut group_start = 0usize;
        while group_start < order.len() {
            let slot = (order[group_start] >> 32) as u32;
            let mut group_end = group_start + 1;
            while group_end < order.len() && (order[group_end] >> 32) as u32 == slot {
                group_end += 1;
            }
            let k = (group_end - group_start) as u32;
            let fate = config.channel.sample_slot(k, rng);
            if k >= 2 {
                metrics.collisions += 1;
                metrics.colliding_stations += k as u64;
            }
            if let SlotFate::Delivered { winner } = fate {
                let draw_idx = order[group_start + winner as usize] as u32 as usize;
                won[draw_idx] = true;
                let station = alive[draw_idx];
                metrics.successes += 1;
                let at_slot = slots_before_window + slot as u64 + 1;
                let s = &mut metrics.stations[station as usize];
                s.success_time = Some(config.slot * at_slot);
                s.attempts = windows_run;
                if metrics.successes == half_target {
                    metrics.half_cw_slots = at_slot;
                }
                if metrics.successes == n {
                    metrics.cw_slots = at_slot;
                }
            }
            group_start = group_end;
        }

        // Compaction pass in alive order: losers (collision loss or noise
        // erasure — the station learns it in-slot under A2 and waits out
        // the window) stay alive; their ACK timeouts are reconstructed by
        // the end-of-trial fold.
        let mut kept = 0usize;
        for i in 0..alive_n {
            if !won[i] {
                alive[kept] = alive[i];
                kept += 1;
            }
        }
        alive.truncate(kept);

        slots_before_window += span;
    }

    if alive.is_empty() {
        metrics.total_time = config.slot * metrics.cw_slots;
    } else {
        // Valve-truncated: `cw_slots` never fired, but the run did consume
        // every window it opened — report that elapsed span rather than 0,
        // mirroring the MAC valve's `max_sim_time` exception.
        metrics.total_time = config.slot * slots_before_window;
    }
    metrics.half_time = config.slot * metrics.half_cw_slots;

    // Fold the backoff accumulators into the per-station table and derive
    // the attempt counts: a station attempts every window until it exits by
    // winning (winners had `attempts` stamped with their exit window at the
    // success site; survivors attempted them all), and every attempt except
    // a final winning one took an ACK timeout.
    for (station, &b) in backoff.iter().enumerate() {
        let s = &mut metrics.stations[station];
        s.backoff_slots = b;
        if s.success_time.is_some() {
            s.ack_timeouts = s.attempts - 1;
        } else {
            s.attempts = windows_run;
            s.ack_timeouts = windows_run;
        }
    }
    slot_counts.shed();
    shed_pathological(slot_offsets);
    metrics
}

/// Plugs the noisy-channel semantics into the generic sweep engine.
impl Simulator for NoisySim {
    type Config = NoisyConfig;
    type Output = BatchMetrics;
    const NAME: &'static str = "noisy";

    fn algorithm(config: &NoisyConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &NoisyConfig, algorithm: AlgorithmKind) -> NoisyConfig {
        NoisyConfig {
            algorithm,
            ..*config
        }
    }

    type Scratch = NoisyScratch;

    fn run_with(
        config: &NoisyConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut NoisyScratch,
    ) -> BatchMetrics {
        let mut schedule = window_schedule(config.algorithm, config.truncation);
        run_windows(config, &mut schedule, scratch, n, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowed::{WindowedConfig, WindowedSim};
    use contention_core::channel::Recovery;
    use contention_core::rng::{experiment_tag, trial_rng};
    use contention_sim::summary::{Metric, TrialSummary};

    fn run_once(config: NoisyConfig, n: u32, trial: u32) -> BatchMetrics {
        let mut sim = NoisySim::new(config);
        let mut rng = trial_rng(experiment_tag("noisy-test"), config.algorithm, n, trial);
        sim.run(n, &mut rng)
    }

    #[test]
    fn all_packets_finish_with_softening() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(
                NoisyConfig::abstract_model(kind, ChannelModel::softened(0.5)),
                100,
                0,
            );
            assert_eq!(m.successes, 100, "{kind}");
            assert!(m.stations.iter().all(|s| s.success_time.is_some()));
            assert!(m.attempts_balance(), "{kind}");
        }
    }

    #[test]
    fn degenerate_channel_replays_windowed_sim_exactly() {
        // The acceptance-criterion regression in miniature: ideal channel ⇒
        // the full BatchMetrics (not just the summary) match WindowedSim
        // draw for draw.
        for kind in AlgorithmKind::PAPER_SET {
            for trial in 0..3 {
                let n = 80;
                let noisy = run_once(NoisyConfig::fatal(kind), n, trial);
                let mut sim = WindowedSim::new(WindowedConfig::abstract_model(kind));
                let mut rng = trial_rng(experiment_tag("noisy-test"), kind, n, trial);
                let windowed = sim.run(n, &mut rng);
                assert_eq!(noisy, windowed, "{kind} trial {trial}");
            }
        }
    }

    #[test]
    fn count_only_loop_matches_the_sampled_loop_bit_for_bit() {
        // The ideal channel draws nothing here, so the count-only loop that
        // `WindowedSim` sweeps run must reproduce this loop's summary
        // exactly — same outcomes from the same RNG stream.
        for kind in AlgorithmKind::PAPER_SET {
            for trial in 0..3 {
                let n = 90;
                let config = WindowedConfig::abstract_model(kind);
                let mut rng = trial_rng(experiment_tag("noisy-paths"), kind, n, trial);
                let counts = <WindowedSim as Simulator>::run(&config, n, &mut rng);
                let mut rng = trial_rng(experiment_tag("noisy-paths"), kind, n, trial);
                let sampled = TrialSummary::from(NoisySim::new(config.as_noisy()).run(n, &mut rng));
                let bits = |t: &TrialSummary| Metric::ALL.map(|m| m.extract(t).to_bits());
                assert_eq!(counts.n, sampled.n, "{kind} trial {trial}");
                assert_eq!(bits(&counts), bits(&sampled), "{kind} trial {trial}");
            }
        }
    }

    #[test]
    fn certain_recovery_finishes_faster_than_fatal() {
        // With p = 1 every collision still delivers a packet, so the batch
        // drains at least as fast as under fatal collisions, usually faster.
        let med = |channel: ChannelModel| -> u64 {
            let mut xs: Vec<u64> = (0..9)
                .map(|t| {
                    run_once(
                        NoisyConfig::abstract_model(AlgorithmKind::Beb, channel),
                        400,
                        t,
                    )
                    .cw_slots
                })
                .collect();
            xs.sort_unstable();
            xs[4]
        };
        let fatal = med(ChannelModel::ideal());
        let soft = med(ChannelModel::softened(1.0));
        assert!(soft < fatal, "softened {soft} should beat fatal {fatal}");
    }

    #[test]
    fn noise_slows_the_batch_down() {
        let med = |channel: ChannelModel| -> u64 {
            let mut xs: Vec<u64> = (0..9)
                .map(|t| {
                    run_once(
                        NoisyConfig::abstract_model(AlgorithmKind::Beb, channel),
                        200,
                        t,
                    )
                    .cw_slots
                })
                .collect();
            xs.sort_unstable();
            xs[4]
        };
        assert!(med(ChannelModel::noisy(0.4)) > med(ChannelModel::ideal()));
    }

    #[test]
    fn recovered_collisions_still_count_as_collisions() {
        let m = run_once(
            NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::softened(1.0)),
            50,
            1,
        );
        assert!(m.collisions > 0);
        // Every disjoint collision involves ≥ 2 participants…
        assert!(m.colliding_stations >= 2 * m.collisions);
        // …and with p = 1 exactly one participant per collision is rescued,
        // so failures = participants − collisions (no noise in this config).
        assert_eq!(m.total_ack_timeouts(), m.colliding_stations - m.collisions);
    }

    #[test]
    fn noise_failures_are_not_collisions() {
        // A lone station on a noisy channel fails repeatedly without a
        // single collision being recorded.
        let m = run_once(
            NoisyConfig::abstract_model(
                AlgorithmKind::Fixed { window: 4 },
                ChannelModel::noisy(0.7),
            ),
            1,
            0,
        );
        assert_eq!(m.successes, 1);
        assert_eq!(m.collisions, 0);
        assert_eq!(m.colliding_stations, 0);
        assert_eq!(m.total_ack_timeouts(), m.stations[0].ack_timeouts as u64);
    }

    #[test]
    fn max_windows_valve_truncates() {
        let mut config = NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::noisy(1.0));
        config.max_windows = 25;
        let m = run_once(config, 10, 0);
        // Full noise: nothing can ever succeed; the valve must stop the run.
        assert_eq!(m.successes, 0);
        // Stations attempted every window the valve allowed, timing out in
        // each one.
        assert!(m.stations.iter().all(|s| s.attempts == 25));
        assert!(m.stations.iter().all(|s| s.ack_timeouts == 25));
    }

    #[test]
    fn valve_truncation_reports_elapsed_slots() {
        // `cw_slots` never fires on a truncated run, but the run still
        // consumed every window it opened: unbounded BEB widths are
        // 1, 2, 4, …, so 25 windows span exactly 2²⁵ − 1 slots, and
        // `total_time` must report that span (× the 9 µs abstract slot)
        // rather than 0 — mirroring the MAC valve's `max_sim_time`
        // exception.
        let mut config = NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::noisy(1.0));
        config.max_windows = 25;
        let m = run_once(config, 10, 0);
        assert_eq!(m.cw_slots, 0);
        assert_eq!(m.total_time, Nanos::from_micros(9) * ((1u64 << 25) - 1));
        // An untruncated run keeps the completion-time identity.
        let m = run_once(
            NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::ideal()),
            10,
            0,
        );
        assert_eq!(m.total_time, Nanos::from_micros(9) * m.cw_slots);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let config = NoisyConfig::abstract_model(
            AlgorithmKind::Sawtooth,
            ChannelModel {
                recovery: Recovery::Geometric { base: 0.6 },
                noise: 0.1,
            },
        );
        let a = run_once(config, 120, 7);
        let b = run_once(config, 120, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_stations_is_a_noop() {
        let m = run_once(NoisyConfig::fatal(AlgorithmKind::Beb), 0, 0);
        assert_eq!(m.successes, 0);
        assert_eq!(m.cw_slots, 0);
    }

    #[test]
    #[should_panic(expected = "no static window schedule")]
    fn best_of_k_is_rejected() {
        let _ = NoisySim::new(NoisyConfig::fatal(AlgorithmKind::BestOfK { k: 3 }));
    }
}
