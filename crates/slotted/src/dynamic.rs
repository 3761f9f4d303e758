//! Dynamic (long-lived) traffic under a slotted channel with explicit
//! collision cost — the paper's §VIII question: *"Does this change when we
//! consider … long-lived bursty traffic?"*
//!
//! Packets arrive at Poisson instants, one at a time or in bursts (see
//! [`ArrivalProcess`]), and each runs its own backoff schedule, truncated at
//! the paper's CWmax ([`Truncation::paper`]), with residual timers. The
//! channel is slotted, but — unlike the pure A0–A2 model — a transmission
//! *occupies* the channel for a configurable number of slots:
//!
//! * `success_cost` slots for a successful transmission (data + SIFS + ACK
//!   in slot units), and
//! * `collision_cost` slots for a collision (data + ACK timeout in slot
//!   units — the §III-B cost that A2 prices at one slot).
//!
//! While the channel is occupied all backoff timers freeze, exactly like
//! DCF's carrier-sense freeze. Setting both costs to 1 recovers the abstract
//! model; setting them from [`contention_core::model::CostModel`] gives a
//! dynamic-traffic version of the paper's total-time accounting.
//!
//! Implementation notes (the heavy-traffic engine):
//!
//! * Timers are kept in *idle-slot coordinates* (a global clock that only
//!   ticks when the channel is free), so freezing is free: a busy period
//!   simply advances the wall clock without advancing the idle clock. An
//!   event due at idle-coordinate `x` fires at wall slot `x + busy_total`,
//!   where `busy_total` is the busy time accumulated before it — monotone
//!   because busy time only grows.
//! * Arrivals are **streamed** from a lazy inter-arrival generator (with its
//!   own RNG stream forked off the trial RNG), so memory never scales with
//!   `horizon × rate` — only with the instantaneous backlog. Streaming also
//!   fixes a semantic bug in the pre-streaming engine: that code ingested
//!   the *entire* arrival schedule on its first loop iteration (the heap was
//!   still empty, so the ingestion bound was `u64::MAX`) with
//!   `busy_total = 0`, which silently reinterpreted arrival times as
//!   idle-slot coordinates. Busy periods therefore postponed *arrivals*
//!   right along with the backoff timers — the offered load per idle slot
//!   never exceeded the offered load per wall slot, no matter how busy the
//!   channel was, and a packet's reported latency absorbed every busy slot
//!   accumulated between its arrival coordinate and its completion. With
//!   wall-time arrivals the channel really saturates: under 802.11g costs a
//!   sustained 39 % wall-time load is a multiple of that per *idle* slot,
//!   which is why collision-fragile schedules (SAWTOOTH in particular) now
//!   collapse under loads the old engine sailed through.
//! * Per-packet state is a slab entry holding its arrival wall slot. The
//!   backoff stage rides in the packet's queue entry, `(id, stage)`: a
//!   collided timer reads it from the entry it was popped from, steps it
//!   with [`Backoff::next_stage`], which folds it into the table's cycle so
//!   the draw never divides, and pushes the new entry.
//! * Timers live in a calendar `BucketQueue`, making push/pop O(1)
//!   amortized instead of the old global `BinaryHeap`'s O(log backlog). Its
//!   ring has one bucket per slot of the paper's CWmax (1024): a redraw
//!   always lands within CWmax slots of the collision, inside the ring, and
//!   the ring stays small enough to sit in L1. An arrival after a longer
//!   idle stretch waits in an overflow heap.
//! * Latencies stream into a fixed-footprint
//!   [`contention_stats::histogram::LatencyHistogram`] — no per-packet
//!   latency vector, no end-of-trial sort.
//!
//! All reusable state lives in [`DynamicScratch`], threaded through
//! [`contention_sim::engine::Simulator::Scratch`], so steady-state trials
//! allocate nothing but their output.

use contention_core::algorithm::AlgorithmKind;
use contention_core::schedule::{Backoff, Truncation};
use contention_sim::summary::TrialSummary;
use contention_stats::histogram::LatencyHistogram;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How packets arrive: Poisson instants at `rate` per wall slot, each
/// bringing one packet or a burst of `size`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Independent packets at `rate` packets per wall slot (Poisson).
    PoissonSingles { rate: f64 },
    /// Bursts of `size` simultaneous packets, burst instants Poisson at
    /// `rate` bursts per wall slot — the paper's bursty regime, repeated.
    PoissonBursts { rate: f64, size: u32 },
}

impl ArrivalProcess {
    /// Stationary offered load in packets per wall slot.
    pub fn offered_load(&self) -> f64 {
        match *self {
            ArrivalProcess::PoissonSingles { rate } => rate,
            ArrivalProcess::PoissonBursts { rate, size } => rate * size as f64,
        }
    }

    /// The same process shape rescaled so [`ArrivalProcess::offered_load`]
    /// equals `load` (packets per slot).
    pub fn with_offered_load(&self, load: f64) -> ArrivalProcess {
        assert!(load > 0.0, "offered load must be positive");
        match *self {
            ArrivalProcess::PoissonSingles { .. } => ArrivalProcess::PoissonSingles { rate: load },
            ArrivalProcess::PoissonBursts { size, .. } => ArrivalProcess::PoissonBursts {
                rate: load / size as f64,
                size,
            },
        }
    }
}

/// What the sweep engine's `n` axis means for a dynamic run.
///
/// Dynamic traffic has no station count, so the grid axis is repurposed —
/// which lets dynamic experiments ride the same `GridMeta`/shard/checkpoint
/// machinery (and `trial_rng(_, _, n, trial)` stream derivation) as the
/// batch figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DynAxis {
    /// `n` carries no meaning; sweeps use the legacy `ns: vec![0]` shape.
    Ignored,
    /// `n` selects the cost model: 0 = unit costs (the abstract A2 pricing),
    /// 1 = 802.11g costs for `payload_bytes`.
    CostPreset { payload_bytes: u32 },
    /// `n` is offered load in per-mille of the channel's success capacity
    /// (`1/success_cost` packets per slot): the arrival process is rescaled
    /// so its stationary rate is `(n/1000) / success_cost`. `n = 1000` is
    /// the saturation boundary; `n = 0` leaves the configured rate as-is.
    LoadPerMille,
}

/// Configuration of a dynamic-traffic run. Windows follow the paper's
/// truncation ([`Truncation::paper`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    pub algorithm: AlgorithmKind,
    pub arrivals: ArrivalProcess,
    /// Wall slots during which arrivals occur; the run then drains (up to
    /// `drain_slots` more wall slots) so latecomers can finish.
    pub horizon_slots: u64,
    pub drain_slots: u64,
    /// Channel occupancy of a successful transmission, in slots (≥ 1).
    pub success_cost: u64,
    /// Channel occupancy of a collision, in slots (≥ 1).
    pub collision_cost: u64,
    /// How sweeps interpret the engine's `n` for this config.
    pub axis: DynAxis,
}

impl DynamicConfig {
    /// Pure abstract model: both costs are one slot.
    pub fn abstract_model(algorithm: AlgorithmKind, arrivals: ArrivalProcess) -> DynamicConfig {
        DynamicConfig {
            algorithm,
            arrivals,
            horizon_slots: 50_000,
            drain_slots: 200_000,
            success_cost: 1,
            collision_cost: 1,
            axis: DynAxis::Ignored,
        }
    }

    /// Costs from the paper's 802.11g numbers for a given payload:
    /// success ≈ ⌈(DIFS + data + SIFS + ACK)/slot⌉, collision ≈
    /// ⌈(DIFS + data + ACK-timeout)/slot⌉.
    pub fn mac_costs(
        algorithm: AlgorithmKind,
        arrivals: ArrivalProcess,
        payload_bytes: u32,
    ) -> DynamicConfig {
        let (success_cost, collision_cost) = mac_cost_slots(payload_bytes);
        DynamicConfig {
            success_cost,
            collision_cost,
            ..DynamicConfig::abstract_model(algorithm, arrivals)
        }
    }

    /// The concrete config a sweep cell `(config, n)` runs, applying the
    /// [`DynAxis`] interpretation of `n`.
    pub fn resolve(&self, n: u32) -> DynamicConfig {
        match self.axis {
            DynAxis::Ignored => *self,
            DynAxis::CostPreset { payload_bytes } => {
                let (success_cost, collision_cost) = match n {
                    0 => (1, 1),
                    1 => mac_cost_slots(payload_bytes),
                    _ => panic!("CostPreset axis takes n ∈ {{0, 1}}, got {n}"),
                };
                DynamicConfig {
                    success_cost,
                    collision_cost,
                    ..*self
                }
            }
            DynAxis::LoadPerMille => {
                if n == 0 {
                    *self
                } else {
                    let load = (n as f64 / 1000.0) / self.success_cost as f64;
                    DynamicConfig {
                        arrivals: self.arrivals.with_offered_load(load),
                        ..*self
                    }
                }
            }
        }
    }

    /// Panics unless the config is runnable (the old `DynamicSim::new`
    /// asserts, factored out so sweeps validate once, not once per trial).
    fn validate(&self) {
        assert!(self.success_cost >= 1 && self.collision_cost >= 1);
        assert!(
            !matches!(self.algorithm, AlgorithmKind::BestOfK { .. }),
            "{} has no static window schedule",
            self.algorithm
        );
        assert!(
            self.arrivals.offered_load() > 0.0,
            "arrival rate must be positive"
        );
    }
}

/// 802.11g per-transmission slot costs for a payload (shared by
/// [`DynamicConfig::mac_costs`] and the [`DynAxis::CostPreset`] axis).
fn mac_cost_slots(payload_bytes: u32) -> (u64, u64) {
    let phy = contention_core::params::Phy80211g::paper_defaults();
    let success = phy.difs + phy.success_exchange_time(payload_bytes);
    let collision = phy.difs + phy.collision_exchange_time(payload_bytes);
    let to_slots = |d: contention_core::time::Nanos| {
        contention_core::util::div_ceil_u64(d.as_nanos(), phy.slot.as_nanos()).max(1)
    };
    (to_slots(success), to_slots(collision))
}

/// Aggregate results of a dynamic run.
///
/// Latency statistics come from a log-bucketed [`LatencyHistogram`]: the
/// mean and max are exact, percentiles are nearest-rank with `< 1/64`
/// relative error (exact below 128 slots).
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicMetrics {
    /// Packets that arrived during the horizon.
    pub offered: u64,
    /// Packets that completed before the drain deadline.
    pub completed: u64,
    /// Wall slots the run covered (arrival horizon + drain actually used).
    pub wall_slots: u64,
    /// Disjoint collisions.
    pub collisions: u64,
    latency: LatencyHistogram,
}

impl DynamicMetrics {
    /// Fraction of offered packets that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Throughput: completed packets per wall slot.
    pub fn throughput(&self) -> f64 {
        if self.wall_slots == 0 {
            0.0
        } else {
            self.completed as f64 / self.wall_slots as f64
        }
    }

    /// Exact mean packet latency (arrival → end of successful exchange) in
    /// wall slots, over completed packets.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Median latency in wall slots (nearest rank).
    pub fn p50_latency(&self) -> f64 {
        self.latency.percentile(0.50) as f64
    }

    /// 95th-percentile latency in wall slots (nearest rank).
    pub fn p95_latency(&self) -> f64 {
        self.latency.percentile(0.95) as f64
    }

    /// 99th-percentile latency in wall slots (nearest rank).
    pub fn p99_latency(&self) -> f64 {
        self.latency.percentile(0.99) as f64
    }

    /// Largest observed latency (exact).
    pub fn max_latency(&self) -> u64 {
        self.latency.max()
    }
}

impl From<DynamicMetrics> for TrialSummary {
    fn from(m: DynamicMetrics) -> TrialSummary {
        TrialSummary {
            n: 0,
            successes: m.completed.min(u32::MAX as u64) as u32,
            collisions: m.collisions as f64,
            offered: m.offered as f64,
            completion_rate: m.completion_rate(),
            wall_slots: m.wall_slots as f64,
            mean_latency_slots: m.mean_latency(),
            p50_latency_slots: m.p50_latency(),
            p95_latency_slots: m.p95_latency(),
            p99_latency_slots: m.p99_latency(),
            max_latency_slots: m.max_latency() as f64,
            throughput_pkts_per_slot: m.throughput(),
            ..TrialSummary::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar bucket queue over idle-slot coordinates.
// ---------------------------------------------------------------------------

/// Near-future window: coordinates in `[base, base + RING)` go into ring
/// buckets, farther timers wait in an overflow heap. The window is the
/// paper's CWmax wide, the truncation the engine runs: a redraw after a
/// collision at `x` lands in `[x + 1, x + CWmax]`, inside the window the
/// pop leaves, so only an arrival after a long idle stretch overflows.
const RING: u64 = 1024;
const RING_WORDS: usize = (RING as usize) / 64;

/// A queued timer: its packet, and the backoff stage it was drawn at,
/// folded into the schedule's cycle by [`Backoff::next_stage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Timer {
    id: u32,
    stage: u32,
}

/// Calendar queue of timers keyed by idle-slot coordinate.
///
/// O(1) amortized push and pop-min: a `RING`-bucket ring indexed by
/// `coord mod RING` with an occupancy bitmap for the min scan, plus a
/// `BinaryHeap` for coordinates beyond the ring window, which moves into
/// the ring as soon as the window reaches it. The smallest coordinate is
/// cached, so `peek` reads a field. Entries at the same coordinate pop as
/// one group, in push order (deterministic).
#[derive(Debug)]
struct BucketQueue {
    ring: Vec<Vec<Timer>>,
    occupied: [u64; RING_WORDS],
    /// Smallest coordinate the ring can currently hold: every live entry
    /// is at or past `base`, and every overflow entry at or past
    /// `base + RING`.
    base: u64,
    /// Smallest live coordinate.
    min: Option<u64>,
    /// Timers beyond the ring window, by coordinate, then push order.
    overflow: BinaryHeap<Reverse<(u64, u64, Timer)>>,
    /// Timers pushed into `overflow` so far: its push order.
    overflowed: u64,
}

impl Default for BucketQueue {
    fn default() -> Self {
        BucketQueue {
            ring: (0..RING).map(|_| Vec::new()).collect(),
            occupied: [0; RING_WORDS],
            base: 0,
            min: None,
            overflow: BinaryHeap::new(),
            overflowed: 0,
        }
    }
}

impl BucketQueue {
    /// Reset to empty, retaining every allocation.
    fn clear(&mut self) {
        for w in 0..RING_WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                self.ring[w * 64 + b].clear();
                bits &= bits - 1;
            }
            self.occupied[w] = 0;
        }
        self.base = 0;
        self.min = None;
        self.overflow.clear();
        self.overflowed = 0;
    }

    #[inline]
    fn push(&mut self, coord: u64, timer: Timer) {
        debug_assert!(coord >= self.base, "cannot schedule into the past");
        if coord - self.base < RING {
            self.insert(coord, timer);
        } else {
            self.overflow.push(Reverse((coord, self.overflowed, timer)));
            self.overflowed += 1;
        }
        self.min = Some(self.min.map_or(coord, |m| m.min(coord)));
    }

    #[inline]
    fn insert(&mut self, coord: u64, timer: Timer) {
        let i = (coord % RING) as usize;
        self.ring[i].push(timer);
        self.occupied[i / 64] |= 1u64 << (i % 64);
    }

    /// Smallest live coordinate, if any.
    #[inline]
    fn peek(&self) -> Option<u64> {
        self.min
    }

    /// Replaces `group` with every entry at the minimum coordinate, in push
    /// order, and returns that coordinate.
    fn pop_group(&mut self, group: &mut Vec<Timer>) -> Option<u64> {
        let x = self.min?;
        if x - self.base >= RING {
            // Only reachable with an empty ring: jump the window forward.
            self.base = x;
            self.promote();
        }
        let i = (x % RING) as usize;
        group.clear();
        std::mem::swap(group, &mut self.ring[i]);
        self.occupied[i / 64] &= !(1u64 << (i % 64));
        self.base = x + 1;
        self.promote();
        self.min = self
            .next_ring_coord()
            .or_else(|| self.overflow.peek().map(|&Reverse((c, _, _))| c));
        Some(x)
    }

    /// Moves the overflow timers the ring window now reaches into the ring,
    /// in push order, ahead of any later push at their coordinates.
    fn promote(&mut self) {
        while let Some(&Reverse((coord, _, timer))) = self.overflow.peek() {
            if coord - self.base >= RING {
                break;
            }
            self.overflow.pop();
            self.insert(coord, timer);
        }
    }

    /// Smallest coordinate present in the ring (bitmap scan from `base`).
    fn next_ring_coord(&self) -> Option<u64> {
        let start = (self.base % RING) as usize;
        let (w0, b0) = (start / 64, start % 64);
        let mut word = self.occupied[w0] & (u64::MAX << b0);
        let mut wi = w0;
        for _ in 0..=RING_WORDS {
            if word != 0 {
                let bit = wi * 64 + word.trailing_zeros() as usize;
                let delta = (bit + RING as usize - start) % RING as usize;
                return Some(self.base + delta as u64);
            }
            wi = (wi + 1) % RING_WORDS;
            word = self.occupied[wi];
            if wi == w0 {
                // Wrapped all the way around: only the bits below the
                // starting offset remain unexamined.
                word &= !(u64::MAX << b0);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Streaming arrival generation.
// ---------------------------------------------------------------------------

/// Lazy arrival stream: yields `(wall slot, packet count)` batches in
/// nondecreasing wall order until the horizon, drawing from its own RNG so
/// the arrival sequence is independent of event-loop draw interleaving.
struct ArrivalGen {
    /// Arrival instants per wall slot, and packets per instant.
    rate: f64,
    size: u32,
    horizon: f64,
    rng: SmallRng,
    t: f64,
}

impl ArrivalGen {
    fn new(process: ArrivalProcess, horizon_slots: u64, rng: SmallRng) -> ArrivalGen {
        let (rate, size) = match process {
            ArrivalProcess::PoissonSingles { rate } => (rate, 1),
            ArrivalProcess::PoissonBursts { rate, size } => (rate, size),
        };
        ArrivalGen {
            rate,
            size,
            horizon: horizon_slots as f64,
            rng,
            t: 0.0,
        }
    }

    /// Advances the exponential clock; `None` once past the horizon (and
    /// ever after: the clock only moves forward).
    fn next(&mut self) -> Option<(u64, u32)> {
        self.t += exp_sample(&mut self.rng, self.rate);
        if self.t >= self.horizon {
            None
        } else {
            Some((self.t as u64, self.size))
        }
    }

    /// Counts the packets remaining in the stream (after the deadline cut).
    fn drain_count(&mut self) -> u64 {
        let mut total = 0u64;
        while let Some((_, count)) = self.next() {
            total += count as u64;
        }
        total
    }
}

/// Exponential inter-arrival sample with the given rate (events per slot).
fn exp_sample(rng: &mut SmallRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

/// Reusable per-worker state for dynamic trials: the packet slab (bounded by
/// the instantaneous backlog, not by total arrivals), the calendar queue,
/// the latency histogram, and the [`Backoff`] table of every algorithm the
/// worker has run.
#[derive(Default)]
pub struct DynamicScratch {
    state: DynState,
    tables: Vec<Backoff>,
}

#[derive(Default)]
struct DynState {
    /// The slab: each live packet's arrival wall slot, by packet id.
    arrivals: Vec<u64>,
    /// Ids of completed packets, reused last freed first.
    free: Vec<u32>,
    queue: BucketQueue,
    group: Vec<Timer>,
    hist: LatencyHistogram,
}

/// The dynamic-traffic backend of the generic sweep engine. A trial runs
/// through [`Simulator::run`](contention_sim::engine::Simulator::run) or a
/// sweep; either applies the [`DynAxis`] interpretation of `n`, which
/// leaves a [`DynAxis::Ignored`] config exactly as given.
pub struct DynamicSim;

fn run_streaming(
    cfg: &DynamicConfig,
    backoff: &Backoff,
    state: &mut DynState,
    rng: &mut SmallRng,
) -> DynamicMetrics {
    let DynState {
        arrivals,
        free,
        queue,
        group,
        hist,
    } = state;
    arrivals.clear();
    free.clear();
    queue.clear();
    group.clear();
    hist.clear();

    // Arrivals stream from their own generator, forked off the trial RNG up
    // front: the arrival sequence for a seed is fixed regardless of how many
    // timer draws the event loop interleaves (so e.g. unit-cost and
    // MAC-cost runs of one seed see identical traffic).
    let arrival_rng = SmallRng::seed_from_u64(rng.next_u64());
    let mut gen = ArrivalGen::new(cfg.arrivals, cfg.horizon_slots, arrival_rng);
    let mut pending = gen.next();

    let deadline = cfg.horizon_slots + cfg.drain_slots;
    let mut busy_total: u64 = 0;
    let mut last_idle: u64 = 0;
    let mut wall_now: u64 = 0;
    let mut offered: u64 = 0;
    let mut collisions: u64 = 0;

    loop {
        // Ingest every arrival batch due before the next transmission event
        // (all of them if no timer is pending).
        while let Some((wall, count)) = pending {
            let next_event_wall = match queue.peek() {
                Some(x) => x + busy_total,
                None => u64::MAX,
            };
            if wall > next_event_wall {
                break;
            }
            pending = gen.next();
            offered += count as u64;
            // A packet arriving during a busy period starts counting at the
            // end of that period; its idle coordinate floor is the current
            // idle clock.
            let idle_coord = wall.saturating_sub(busy_total).max(last_idle);
            for _ in 0..count {
                let id = match free.pop() {
                    Some(id) => {
                        arrivals[id as usize] = wall;
                        id
                    }
                    None => {
                        arrivals.push(wall);
                        (arrivals.len() - 1) as u32
                    }
                };
                let timer = backoff.sample(0, rng);
                queue.push(idle_coord + timer, Timer { id, stage: 0 });
            }
        }

        let Some(x) = queue.peek() else {
            break; // Everything completed.
        };
        wall_now = x + busy_total;
        if wall_now > deadline {
            break; // Drain deadline: whatever is left is incomplete.
        }
        queue.pop_group(group);
        last_idle = x + 1;
        if let [Timer { id, .. }] = group[..] {
            busy_total += cfg.success_cost - 1;
            // Success is observed at the end of the exchange.
            let done_wall = wall_now + cfg.success_cost - 1;
            hist.record(done_wall - arrivals[id as usize]);
            free.push(id);
        } else {
            collisions += 1;
            busy_total += cfg.collision_cost - 1;
            for &Timer { id, stage } in group.iter() {
                let stage = backoff.next_stage(stage);
                let timer = backoff.sample(stage, rng);
                queue.push(x + 1 + timer, Timer { id, stage });
            }
        }
    }

    // Packets the loop never ingested still arrived within the horizon.
    if let Some((_, count)) = pending {
        offered += count as u64;
    }
    offered += gen.drain_count();

    DynamicMetrics {
        offered,
        completed: hist.count(),
        wall_slots: wall_now.max(cfg.horizon_slots),
        collisions,
        latency: hist.clone(),
    }
}

/// Plugs the dynamic-traffic simulator into the generic sweep engine.
///
/// A dynamic run has no batch size, so the engine's `n` is reinterpreted per
/// [`DynamicConfig::axis`] ([`DynAxis::Ignored`] keeps the legacy
/// `ns: vec![0]` convention; the `dynamic` figure sweeps cost models and the
/// `saturation` experiment sweeps offered load through the same axis).
impl contention_sim::engine::Simulator for DynamicSim {
    type Config = DynamicConfig;
    type Output = DynamicMetrics;
    type Scratch = DynamicScratch;
    const NAME: &'static str = "dynamic";

    fn algorithm(config: &DynamicConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &DynamicConfig, algorithm: AlgorithmKind) -> DynamicConfig {
        DynamicConfig {
            algorithm,
            ..*config
        }
    }

    fn run_with(
        config: &DynamicConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut DynamicScratch,
    ) -> DynamicMetrics {
        config.validate();
        let resolved = config.resolve(n);
        resolved.validate();
        let backoff = Backoff::cached(&mut scratch.tables, resolved.algorithm, Truncation::paper())
            .expect("validated: the algorithm has a window schedule");
        run_streaming(&resolved, backoff, &mut scratch.state, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::rng::{experiment_tag, trial_rng};
    use contention_sim::engine::Simulator;

    fn run(config: DynamicConfig, trial: u32) -> DynamicMetrics {
        let mut rng = trial_rng(experiment_tag("dynamic-test"), config.algorithm, 0, trial);
        DynamicSim::run(&config, 0, &mut rng)
    }

    #[test]
    fn light_singles_all_complete_quickly() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.01 },
        );
        let m = run(config, 0);
        assert!(m.offered > 100, "horizon should see arrivals: {m:?}");
        assert_eq!(m.completed, m.offered, "{m:?}");
        // At 1% load packets rarely meet: latency stays tiny.
        assert!(m.mean_latency() < 10.0, "{m:?}");
    }

    #[test]
    fn offered_load_accounts_bursts() {
        let p = ArrivalProcess::PoissonBursts {
            rate: 0.001,
            size: 50,
        };
        assert!((p.offered_load() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn overload_fails_to_complete() {
        // Offered load 2 packets/slot with unit costs cannot all clear.
        let mut config = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 2.0 },
        );
        config.horizon_slots = 5_000;
        config.drain_slots = 5_000;
        let m = run(config, 0);
        assert!(m.completion_rate() < 0.9, "{m:?}");
    }

    #[test]
    fn collision_cost_slows_completion() {
        let arrivals = ArrivalProcess::PoissonBursts {
            rate: 0.0005,
            size: 40,
        };
        let cheap = run(
            DynamicConfig::abstract_model(AlgorithmKind::LogBackoff, arrivals),
            1,
        );
        let pricey = run(
            DynamicConfig {
                collision_cost: 13,
                success_cost: 13,
                ..DynamicConfig::abstract_model(AlgorithmKind::LogBackoff, arrivals)
            },
            1,
        );
        // The arrival stream is forked off the trial RNG before any timer
        // draw, so a seed's traffic is identical across cost models.
        assert_eq!(cheap.offered, pricey.offered, "same seed, same arrivals");
        assert!(
            pricey.mean_latency() > cheap.mean_latency(),
            "cheap {cheap:?} vs pricey {pricey:?}"
        );
    }

    #[test]
    fn mac_costs_match_phy_arithmetic() {
        let config = DynamicConfig::mac_costs(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.001 },
            64,
        );
        // DIFS 34 + data 38.96 + SIFS 16 + ACK 22.07 ≈ 111 µs → 13 slots;
        // DIFS 34 + data 38.96 + timeout 75 ≈ 148 µs → 17 slots.
        assert_eq!(config.success_cost, 13);
        assert_eq!(config.collision_cost, 17);
    }

    #[test]
    fn deterministic_per_seed() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::Sawtooth,
            ArrivalProcess::PoissonBursts {
                rate: 0.001,
                size: 20,
            },
        );
        assert_eq!(run(config, 3), run(config, 3));
        assert_ne!(run(config, 3), run(config, 4));
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonBursts {
                rate: 0.0008,
                size: 30,
            },
        );
        let m = run(config, 5);
        // p95 is a bucket lower bound (< 1/64 relative error), so allow the
        // mean that tiny slack.
        assert!(
            m.mean_latency() <= m.p95_latency() * (1.0 + 1.0 / 64.0) + 1e-9,
            "{m:?}"
        );
        assert!(m.p50_latency() <= m.p95_latency(), "{m:?}");
        assert!(m.p95_latency() <= m.p99_latency(), "{m:?}");
        assert!(m.p99_latency() <= m.max_latency() as f64, "{m:?}");
    }

    #[test]
    #[should_panic(expected = "no static window schedule")]
    fn best_of_k_rejected() {
        let _ = run(
            DynamicConfig::abstract_model(
                AlgorithmKind::BestOfK { k: 3 },
                ArrivalProcess::PoissonSingles { rate: 0.1 },
            ),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = run(
            DynamicConfig::abstract_model(
                AlgorithmKind::Beb,
                ArrivalProcess::PoissonSingles { rate: 0.0 },
            ),
            0,
        );
    }

    #[test]
    fn the_ring_is_the_engines_cw_max_wide() {
        // A redraw lands at most CWmax slots past the popped coordinate, so
        // it always fits the window the pop leaves.
        assert_eq!(RING, u64::from(Truncation::paper().cw_max));
    }

    #[test]
    fn bucket_queue_pops_in_coordinate_order_with_push_order_groups() {
        let mut q = BucketQueue::default();
        let timer = |id| Timer { id, stage: id % 3 };
        // Mix near-future, same-coordinate, and far-overflow pushes.
        q.push(5, timer(1));
        q.push(3, timer(2));
        q.push(5, timer(3));
        q.push(RING + 10_000, timer(4)); // overflow
        q.push(3, timer(5));
        q.push(RING + 10_000, timer(0)); // overflow, pushed after id 4
        assert_eq!(q.peek(), Some(3));
        let mut group = Vec::new();
        assert_eq!(q.pop_group(&mut group), Some(3));
        assert_eq!(group, [timer(2), timer(5)]);
        assert_eq!(q.pop_group(&mut group), Some(5));
        assert_eq!(group, [timer(1), timer(3)]);
        // Ring now empty: base must jump to the overflow entries, which
        // keep their push order.
        assert_eq!(q.peek(), Some(RING + 10_000));
        assert_eq!(q.pop_group(&mut group), Some(RING + 10_000));
        assert_eq!(group, [timer(4), timer(0)]);
        assert_eq!(q.pop_group(&mut group), None);
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn bucket_queue_matches_binary_heap_reference() {
        let mut rng = trial_rng(experiment_tag("bucket-queue"), AlgorithmKind::Beb, 0, 0);
        let mut q = BucketQueue::default();
        // Keyed by coordinate, then push order: a group pops in push order.
        let mut reference: BinaryHeap<Reverse<(u64, u64, Timer)>> = BinaryHeap::new();
        let mut cursor = 0u64; // monotone pop frontier, as in the sim
        let mut pushes = 0u64;
        let mut group = Vec::new();
        for _ in 0..4_000 {
            // A few pushes ahead of the frontier (some far into overflow,
            // some just past the ring window)...
            for _ in 0..(rng.next_u32() % 4) {
                let gap = match rng.next_u32() % 10 {
                    0 => RING + rng.next_u64() % 100_000,
                    1 => RING - 2 + rng.next_u64() % 4,
                    _ => rng.next_u64() % RING,
                };
                let timer = Timer {
                    id: rng.next_u32() % 64,
                    stage: rng.next_u32() % 64,
                };
                q.push(cursor + gap, timer);
                reference.push(Reverse((cursor + gap, pushes, timer)));
                pushes += 1;
                let want = reference.peek().map(|&Reverse((c, _, _))| c);
                assert_eq!(q.peek(), want, "cached minimum after a push");
            }
            // ...then drain one coordinate group from each and compare.
            let got = q.pop_group(&mut group);
            let want = reference.peek().map(|&Reverse((c, _, _))| c);
            assert_eq!(got, want);
            let Some(x) = got else { continue };
            let mut ref_group = Vec::new();
            while let Some(&Reverse((c, _, timer))) = reference.peek() {
                if c != x {
                    break;
                }
                reference.pop();
                ref_group.push(timer);
            }
            assert_eq!(group, ref_group, "members at coordinate {x}");
            let want = reference.peek().map(|&Reverse((c, _, _))| c);
            assert_eq!(q.peek(), want, "cached minimum after a pop");
            cursor = x + 1;
        }
    }

    #[test]
    fn load_per_mille_axis_rescales_to_capacity_fraction() {
        // Half the success capacity of a 13-slot channel: singles take the
        // load as their rate; bursts keep their size and divide the load.
        let load = 0.5 / 13.0;
        for (arrivals, want) in [
            (
                ArrivalProcess::PoissonSingles { rate: 0.123 },
                ArrivalProcess::PoissonSingles { rate: load },
            ),
            (
                ArrivalProcess::PoissonBursts {
                    rate: 0.000_8,
                    size: 30,
                },
                ArrivalProcess::PoissonBursts {
                    rate: load / 30.0,
                    size: 30,
                },
            ),
        ] {
            let config = DynamicConfig {
                axis: DynAxis::LoadPerMille,
                ..DynamicConfig::mac_costs(AlgorithmKind::Beb, arrivals, 64)
            };
            let resolved = config.resolve(500).arrivals;
            assert_eq!(resolved, want);
            assert!((resolved.offered_load() - load).abs() < 1e-12);
            // n = 0 keeps the configured rate.
            assert_eq!(config.resolve(0), config);
        }
    }

    #[test]
    fn cost_preset_axis_selects_unit_or_mac() {
        let config = DynamicConfig {
            axis: DynAxis::CostPreset { payload_bytes: 64 },
            ..DynamicConfig::abstract_model(
                AlgorithmKind::Beb,
                ArrivalProcess::PoissonSingles { rate: 0.01 },
            )
        };
        let unit = config.resolve(0);
        assert_eq!((unit.success_cost, unit.collision_cost), (1, 1));
        let mac = config.resolve(1);
        assert_eq!((mac.success_cost, mac.collision_cost), (13, 17));
    }

    #[test]
    fn a_reused_scratch_matches_a_fresh_one() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::LogBackoff,
            ArrivalProcess::PoissonBursts {
                rate: 0.0008,
                size: 25,
            },
        );
        let other = DynamicConfig {
            algorithm: AlgorithmKind::Sawtooth,
            ..config
        };
        let mut scratch = DynamicScratch::default();
        // The scratch meets a second algorithm, then the first again.
        for (config, trial) in [(config, 0u32), (config, 1), (other, 7), (config, 0)] {
            let rng = || trial_rng(experiment_tag("dyn-scratch"), config.algorithm, 0, trial);
            let reused = DynamicSim::run_with(&config, 0, &mut rng(), &mut scratch);
            let fresh = DynamicSim::run(&config, 0, &mut rng());
            assert_eq!(reused, fresh, "{} trial {trial}", config.algorithm);
        }
        assert_eq!(scratch.tables.len(), 2, "one table per algorithm");
    }

    #[test]
    fn trial_summary_conversion_carries_dynamic_fields() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.01 },
        );
        let m = run(config, 2);
        let t = TrialSummary::from(m.clone());
        assert_eq!(t.offered, m.offered as f64);
        assert_eq!(t.completion_rate, m.completion_rate());
        assert_eq!(t.wall_slots, m.wall_slots as f64);
        assert_eq!(t.mean_latency_slots, m.mean_latency());
        assert_eq!(t.p95_latency_slots, m.p95_latency());
        assert_eq!(t.throughput_pkts_per_slot, m.throughput());
        assert_eq!(t.collisions, m.collisions as f64);
        assert_eq!(t.successes as u64, m.completed);
    }
}
