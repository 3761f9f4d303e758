//! Dynamic (long-lived) traffic under a slotted channel with explicit
//! collision cost — the paper's §VIII question: *"Does this change when we
//! consider … long-lived bursty traffic?"*
//!
//! Packets arrive over time (see [`ArrivalProcess`]) and each runs its own
//! backoff schedule with residual timers. The channel is slotted, but —
//! unlike the pure A0–A2 model — a transmission *occupies* the channel for a
//! configurable number of slots:
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
//! * Per-packet state is a slab entry of `{arrival_wall, backoff stage}`;
//!   timers are drawn through a per-config `WindowLookup` table (one
//!   [`UniformBelow`] per stage) instead of a per-packet
//!   [`contention_core::schedule::Schedule`] value.
//! * Timers live in a calendar `BucketQueue` (2048 near-future buckets +
//!   an overflow heap), making push/pop O(1) amortized instead of the old
//!   global `BinaryHeap`'s O(log backlog).
//! * Latencies stream into a fixed-footprint
//!   [`contention_stats::histogram::LatencyHistogram`] — no per-packet
//!   latency vector, no end-of-trial sort.
//!
//! All reusable state lives in [`DynamicScratch`], threaded through
//! [`contention_sim::engine::Simulator::Scratch`], so steady-state trials
//! allocate nothing but their output.

use contention_core::algorithm::AlgorithmKind;
use contention_core::rng::UniformBelow;
use contention_core::schedule::{Truncation, WindowSchedule};
use contention_sim::summary::TrialSummary;
use contention_stats::histogram::LatencyHistogram;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How packets arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Independent packets at `rate` packets per wall slot (Poisson).
    PoissonSingles { rate: f64 },
    /// Bursts of `size` simultaneous packets, burst instants Poisson at
    /// `rate` bursts per wall slot — the paper's bursty regime, repeated.
    PoissonBursts { rate: f64, size: u32 },
    /// One batch of `size` packets at slot 0 and nothing else — the
    /// single-batch drain problem of §III, embedded in the dynamic engine.
    SingleBatch { size: u32 },
    /// Sinusoidally modulated Poisson singles ("diurnal" load): instantaneous
    /// rate `mean_rate · (1 + amplitude · sin(2πt/period))`, sampled by
    /// thinning. `amplitude ∈ [0, 1]`, `period` in slots.
    Diurnal {
        mean_rate: f64,
        amplitude: f64,
        period: f64,
    },
    /// Bursts at Poisson instants with heavy-tailed (Pareto) sizes:
    /// `size = ⌊min_size · U^(−1/alpha)⌋` clamped to `[min_size, max_size]`.
    ParetoBursts {
        rate: f64,
        alpha: f64,
        min_size: u32,
        max_size: u32,
    },
}

impl ArrivalProcess {
    /// Stationary offered load in packets per wall slot.
    ///
    /// [`ArrivalProcess::SingleBatch`] has no stationary rate and returns 0;
    /// [`ArrivalProcess::ParetoBursts`] uses the analytic clamped-Pareto
    /// mean burst size (`min·α/(α−1)` capped at `max`, or `max` for α ≤ 1),
    /// which ignores the floor-discretization — close enough for display and
    /// load rescaling.
    pub fn offered_load(&self) -> f64 {
        match *self {
            ArrivalProcess::PoissonSingles { rate } => rate,
            ArrivalProcess::PoissonBursts { rate, size } => rate * size as f64,
            ArrivalProcess::SingleBatch { .. } => 0.0,
            ArrivalProcess::Diurnal { mean_rate, .. } => mean_rate,
            ArrivalProcess::ParetoBursts {
                rate,
                alpha,
                min_size,
                max_size,
            } => rate * pareto_mean_size(alpha, min_size, max_size),
        }
    }

    /// The same process shape rescaled so [`ArrivalProcess::offered_load`]
    /// equals `load` (packets per slot). Panics for
    /// [`ArrivalProcess::SingleBatch`], which has no rate to scale.
    pub fn with_offered_load(&self, load: f64) -> ArrivalProcess {
        assert!(load > 0.0, "offered load must be positive");
        match *self {
            ArrivalProcess::PoissonSingles { .. } => ArrivalProcess::PoissonSingles { rate: load },
            ArrivalProcess::PoissonBursts { size, .. } => ArrivalProcess::PoissonBursts {
                rate: load / size as f64,
                size,
            },
            ArrivalProcess::SingleBatch { .. } => {
                panic!("SingleBatch has no stationary rate to rescale")
            }
            ArrivalProcess::Diurnal {
                amplitude, period, ..
            } => ArrivalProcess::Diurnal {
                mean_rate: load,
                amplitude,
                period,
            },
            ArrivalProcess::ParetoBursts {
                alpha,
                min_size,
                max_size,
                ..
            } => ArrivalProcess::ParetoBursts {
                rate: load / pareto_mean_size(alpha, min_size, max_size),
                alpha,
                min_size,
                max_size,
            },
        }
    }
}

fn pareto_mean_size(alpha: f64, min_size: u32, max_size: u32) -> f64 {
    if alpha > 1.0 {
        (min_size as f64 * alpha / (alpha - 1.0)).min(max_size as f64)
    } else {
        max_size as f64
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

/// Configuration of a dynamic-traffic run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    pub algorithm: AlgorithmKind,
    pub truncation: Truncation,
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
            truncation: Truncation::paper(),
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
            self.truncation.cw_min <= self.truncation.cw_max,
            "truncation must satisfy cw_min ≤ cw_max"
        );
        assert!(
            !matches!(self.algorithm, AlgorithmKind::BestOfK { .. }),
            "{} has no static window schedule",
            self.algorithm
        );
        match self.arrivals {
            ArrivalProcess::SingleBatch { size } => {
                assert!(size > 0, "batch size must be positive");
            }
            ArrivalProcess::Diurnal {
                amplitude, period, ..
            } => {
                assert!(
                    (0.0..=1.0).contains(&amplitude),
                    "diurnal amplitude must be in [0, 1]"
                );
                assert!(period > 0.0, "diurnal period must be positive");
                assert!(
                    self.arrivals.offered_load() > 0.0,
                    "arrival rate must be positive"
                );
            }
            ArrivalProcess::ParetoBursts {
                alpha,
                min_size,
                max_size,
                ..
            } => {
                assert!(alpha > 0.0, "Pareto alpha must be positive");
                assert!(
                    min_size >= 1 && max_size >= min_size,
                    "Pareto burst sizes must satisfy 1 ≤ min ≤ max"
                );
                assert!(
                    self.arrivals.offered_load() > 0.0,
                    "arrival rate must be positive"
                );
            }
            _ => assert!(
                self.arrivals.offered_load() > 0.0,
                "arrival rate must be positive"
            ),
        }
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
// Window lookup: AlgorithmKind → stage ↦ timer draw, without per-packet
// Schedule state.
// ---------------------------------------------------------------------------

/// Precomputed `stage ↦ timer draw` map for one `(algorithm, truncation)`,
/// shared with the residual-timer batch engine ([`crate::residual`]).
///
/// Every truncated schedule except POLYNOMIAL becomes eventually periodic:
/// the monotone schedules (BEB, LB, LLB, FIXED) end in a constant tail, and
/// SAWTOOTH cycles its saturated descent `CWmax, CWmax/2, …`. Those are
/// stored as a finite prefix plus repeating cycle of [`UniformBelow`] draws,
/// one per window, generated from the *real*
/// [`contention_core::schedule::Schedule`] so the windows are bit-identical
/// to walking a per-packet schedule, and no timer draw builds a reduction.
/// POLYNOMIAL grows without a short period, but is a closed form: evaluated
/// directly and drawn with `gen_range`.
#[derive(Debug, Clone)]
pub(crate) enum WindowLookup {
    Poly {
        degree: u32,
        trunc: Truncation,
    },
    Table {
        prefix: Box<[UniformBelow]>,
        cycle: Box<[UniformBelow]>,
    },
}

/// POLYNOMIAL's window for `stage`: `(stage + 1)^degree`, clamped.
fn poly_window(degree: u32, trunc: Truncation, stage: u32) -> u32 {
    let base = (u64::from(stage) + 1).saturating_pow(degree.max(1));
    trunc.clamp(base.min(u64::from(u32::MAX)) as u32)
}

impl WindowLookup {
    pub(crate) fn build(kind: AlgorithmKind, trunc: Truncation) -> WindowLookup {
        assert!(trunc.cw_min <= trunc.cw_max);
        let draws = |windows: &[u32]| -> Box<[UniformBelow]> {
            windows
                .iter()
                .map(|&w| UniformBelow::new(w.into()))
                .collect()
        };
        match kind {
            AlgorithmKind::Polynomial { degree } => WindowLookup::Poly { degree, trunc },
            AlgorithmKind::Fixed { .. } => {
                let mut s = kind.schedule(trunc).expect("fixed has a schedule");
                WindowLookup::Table {
                    prefix: Box::new([]),
                    cycle: draws(&[s.next_window()]),
                }
            }
            AlgorithmKind::Beb
            | AlgorithmKind::LogBackoff
            | AlgorithmKind::LogLogBackoff
            | AlgorithmKind::Sawtooth => {
                let mut s = kind.schedule(trunc).expect("windowed schedule");
                // The clamped emission once growth saturates; every one of
                // these schedules reaches it (BEB/LB/LLB grow strictly until
                // the clamp, SAWTOOTH's outer window doubles to CWmax).
                let top = trunc.cw_max;
                let mut emitted: Vec<u32> = Vec::new();
                let mut first_top: Option<usize> = None;
                loop {
                    let w = s.next_window();
                    if w == top {
                        if let Some(i0) = first_top {
                            return WindowLookup::Table {
                                prefix: draws(&emitted[..i0]),
                                cycle: draws(&emitted[i0..]),
                            };
                        }
                        first_top = Some(emitted.len());
                    }
                    emitted.push(w);
                    assert!(
                        emitted.len() <= 100_000,
                        "{kind:?} did not saturate within 100k windows"
                    );
                }
            }
            AlgorithmKind::BestOfK { .. } => {
                unreachable!("rejected by the simulators' config checks")
            }
        }
    }

    /// A timer for the `stage`-th transmission attempt (stage 0 = the first
    /// draw): uniform below the window of `Schedule::next_window()` call
    /// `stage + 1`, with the values and words of `gen_range(0..window)`.
    #[inline]
    pub(crate) fn timer<R: Rng>(&self, stage: u32, rng: &mut R) -> u64 {
        match self {
            WindowLookup::Poly { degree, trunc } => {
                rng.gen_range(0..u64::from(poly_window(*degree, *trunc, stage)))
            }
            WindowLookup::Table { prefix, cycle } => {
                let i = stage as usize;
                match prefix.get(i) {
                    Some(draw) => draw.sample(rng),
                    None => cycle[(i - prefix.len()) % cycle.len()].sample(rng),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar bucket queue over idle-slot coordinates.
// ---------------------------------------------------------------------------

const RING_BITS: u32 = 11;
/// Near-future window: coordinates in `[base, base + RING)` go into ring
/// buckets (the paper's CWmax = 1024 redraws always land here); farther
/// timers wait in an overflow heap and are promoted as `base` advances.
const RING: u64 = 1 << RING_BITS;
const RING_WORDS: usize = (RING as usize) / 64;

/// Calendar queue of `(idle-coordinate, packet id)` timers.
///
/// O(1) amortized push and pop-min: a 2048-slot ring of buckets indexed by
/// `coord mod RING` with an occupancy bitmap for constant-time min scans,
/// plus a `BinaryHeap` for coordinates beyond the ring window. Entries at
/// the same coordinate pop as one group, in push order (deterministic).
#[derive(Debug)]
struct BucketQueue {
    ring: Vec<Vec<u32>>,
    occupied: [u64; RING_WORDS],
    /// Smallest coordinate the ring can currently hold; all live entries
    /// have coordinates ≥ `base`.
    base: u64,
    ring_len: usize,
    len: usize,
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for BucketQueue {
    fn default() -> Self {
        BucketQueue {
            ring: (0..RING).map(|_| Vec::new()).collect(),
            occupied: [0; RING_WORDS],
            base: 0,
            ring_len: 0,
            len: 0,
            overflow: BinaryHeap::new(),
        }
    }
}

impl BucketQueue {
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

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
        self.ring_len = 0;
        self.len = 0;
        self.overflow.clear();
    }

    #[inline]
    fn push(&mut self, coord: u64, id: u32) {
        debug_assert!(coord >= self.base, "cannot schedule into the past");
        if coord - self.base < RING {
            let i = (coord % RING) as usize;
            self.ring[i].push(id);
            self.occupied[i / 64] |= 1u64 << (i % 64);
            self.ring_len += 1;
        } else {
            self.overflow.push(Reverse((coord, id)));
        }
        self.len += 1;
    }

    /// Smallest live coordinate, if any.
    fn peek(&self) -> Option<u64> {
        let ring = self.next_ring_coord();
        let over = self.overflow.peek().map(|&Reverse((c, _))| c);
        match (ring, over) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pops every entry at the minimum coordinate into `group` (appended in
    /// push order) and returns that coordinate.
    fn pop_group(&mut self, group: &mut Vec<u32>) -> Option<u64> {
        let target = self.peek()?;
        if target >= self.base + RING {
            // Only reachable with an empty ring: jump the window forward.
            debug_assert_eq!(self.ring_len, 0);
            self.base = target;
        }
        // Promote overflow timers that now fall inside the ring window.
        while let Some(&Reverse((c, id))) = self.overflow.peek() {
            if c - self.base >= RING {
                break;
            }
            self.overflow.pop();
            let i = (c % RING) as usize;
            self.ring[i].push(id);
            self.occupied[i / 64] |= 1u64 << (i % 64);
            self.ring_len += 1;
        }
        let x = self.next_ring_coord().expect("nonempty after promotion");
        debug_assert_eq!(x, target);
        let i = (x % RING) as usize;
        let count = self.ring[i].len();
        group.append(&mut self.ring[i]);
        self.occupied[i / 64] &= !(1u64 << (i % 64));
        self.ring_len -= count;
        self.len -= count;
        self.base = x + 1;
        Some(x)
    }

    /// Smallest coordinate present in the ring (bitmap scan from `base`).
    fn next_ring_coord(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
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
        unreachable!("ring_len > 0 but no occupied bucket")
    }
}

// ---------------------------------------------------------------------------
// Streaming arrival generation.
// ---------------------------------------------------------------------------

/// Lazy arrival stream: yields `(wall slot, packet count)` batches in
/// nondecreasing wall order until the horizon, drawing from its own RNG so
/// the arrival sequence is independent of event-loop draw interleaving.
struct ArrivalGen {
    process: ArrivalProcess,
    horizon: f64,
    rng: SmallRng,
    t: f64,
    done: bool,
}

impl ArrivalGen {
    fn new(process: ArrivalProcess, horizon_slots: u64, rng: SmallRng) -> ArrivalGen {
        ArrivalGen {
            process,
            horizon: horizon_slots as f64,
            rng,
            t: 0.0,
            done: false,
        }
    }

    fn next(&mut self) -> Option<(u64, u32)> {
        if self.done {
            return None;
        }
        let batch = match self.process {
            ArrivalProcess::PoissonSingles { rate } => self.poisson_step(rate).map(|w| (w, 1)),
            ArrivalProcess::PoissonBursts { rate, size } => {
                self.poisson_step(rate).map(|w| (w, size))
            }
            ArrivalProcess::SingleBatch { size } => {
                self.done = true;
                return Some((0, size));
            }
            ArrivalProcess::Diurnal {
                mean_rate,
                amplitude,
                period,
            } => loop {
                // Thinning: sample at the peak rate, accept proportionally.
                let peak = mean_rate * (1.0 + amplitude);
                let Some(w) = self.poisson_step(peak) else {
                    break None;
                };
                let instantaneous =
                    1.0 + amplitude * (2.0 * std::f64::consts::PI * self.t / period).sin();
                let accept = instantaneous / (1.0 + amplitude);
                if self.rng.gen_range(0.0..1.0) < accept {
                    break Some((w, 1));
                }
            },
            ArrivalProcess::ParetoBursts {
                rate,
                alpha,
                min_size,
                max_size,
            } => self.poisson_step(rate).map(|w| {
                let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                let raw = (min_size as f64 * u.powf(-1.0 / alpha)).floor();
                let size = if raw >= max_size as f64 {
                    max_size
                } else {
                    (raw as u32).max(min_size)
                };
                (w, size)
            }),
        };
        if batch.is_none() {
            self.done = true;
        }
        batch
    }

    /// Advances the exponential clock; `None` once past the horizon.
    fn poisson_step(&mut self, rate: f64) -> Option<u64> {
        self.t += exp_sample(&mut self.rng, rate);
        if self.t >= self.horizon {
            None
        } else {
            Some(self.t as u64)
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
fn exp_sample<R: Rng>(rng: &mut R, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

// ---------------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------------

const NO_SLOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct PacketSlot {
    arrival_wall: u64,
    /// Backoff stage: how many windows this packet has drawn so far minus
    /// one (stage s draws through `WindowLookup::timer(s, _)`).
    stage: u32,
    /// Free-list link when the slot is vacant.
    next_free: u32,
}

/// Reusable per-worker state for dynamic trials: the packet slab (bounded by
/// the instantaneous backlog, not by total arrivals), the calendar queue,
/// the latency histogram, and the cached per-config window table.
#[derive(Default)]
pub struct DynamicScratch {
    state: DynState,
    plan: Option<CachedPlan>,
}

#[derive(Default)]
struct DynState {
    slab: Vec<PacketSlot>,
    free_head: Option<u32>,
    queue: BucketQueue,
    group: Vec<u32>,
    hist: LatencyHistogram,
}

/// Validation + window-table construction, done once per `(config, n)` cell
/// instead of once per trial (the old `DynamicSim::new(*config)`-per-trial
/// hot-path cost).
struct CachedPlan {
    config: DynamicConfig,
    n: u32,
    resolved: DynamicConfig,
    lookup: WindowLookup,
}

/// The dynamic-traffic simulator (direct API).
///
/// Runs the config exactly as given — the [`DynAxis`] interpretation of `n`
/// only applies when driven through the sweep engine.
pub struct DynamicSim {
    config: DynamicConfig,
    lookup: WindowLookup,
    state: DynState,
}

impl DynamicSim {
    pub fn new(config: DynamicConfig) -> DynamicSim {
        config.validate();
        DynamicSim {
            config,
            lookup: WindowLookup::build(config.algorithm, config.truncation),
            state: DynState::default(),
        }
    }

    /// Runs one trial.
    pub fn run<R: Rng>(&mut self, rng: &mut R) -> DynamicMetrics {
        run_streaming(&self.config, &self.lookup, &mut self.state, rng)
    }
}

fn run_streaming<R: Rng>(
    cfg: &DynamicConfig,
    lookup: &WindowLookup,
    state: &mut DynState,
    rng: &mut R,
) -> DynamicMetrics {
    let DynState {
        slab,
        free_head,
        queue,
        group,
        hist,
    } = state;
    slab.clear();
    *free_head = None;
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
                let id = alloc_slot(slab, free_head, wall);
                let timer = lookup.timer(0, rng);
                queue.push(idle_coord + timer, id);
            }
        }

        let Some(x) = queue.peek() else {
            break; // Everything completed.
        };
        wall_now = x + busy_total;
        if wall_now > deadline {
            break; // Drain deadline: whatever is left is incomplete.
        }
        group.clear();
        queue.pop_group(group);
        last_idle = x + 1;
        if group.len() == 1 {
            let id = group[0];
            busy_total += cfg.success_cost - 1;
            // Success is observed at the end of the exchange.
            let done_wall = wall_now + cfg.success_cost - 1;
            hist.record(done_wall - slab[id as usize].arrival_wall);
            free_slot(slab, free_head, id);
        } else {
            collisions += 1;
            busy_total += cfg.collision_cost - 1;
            for &id in group.iter() {
                let slot = &mut slab[id as usize];
                slot.stage = slot.stage.saturating_add(1);
                let timer = lookup.timer(slot.stage, rng);
                queue.push(x + 1 + timer, id);
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

#[inline]
fn alloc_slot(slab: &mut Vec<PacketSlot>, free_head: &mut Option<u32>, arrival_wall: u64) -> u32 {
    match *free_head {
        Some(id) => {
            let slot = &mut slab[id as usize];
            *free_head = (slot.next_free != NO_SLOT).then_some(slot.next_free);
            slot.arrival_wall = arrival_wall;
            slot.stage = 0;
            slot.next_free = NO_SLOT;
            id
        }
        None => {
            let id = slab.len() as u32;
            slab.push(PacketSlot {
                arrival_wall,
                stage: 0,
                next_free: NO_SLOT,
            });
            id
        }
    }
}

#[inline]
fn free_slot(slab: &mut [PacketSlot], free_head: &mut Option<u32>, id: u32) {
    slab[id as usize].next_free = free_head.unwrap_or(NO_SLOT);
    *free_head = Some(id);
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
        let stale = match &scratch.plan {
            Some(plan) => plan.config != *config || plan.n != n,
            None => true,
        };
        if stale {
            config.validate();
            let resolved = config.resolve(n);
            resolved.validate();
            scratch.plan = Some(CachedPlan {
                config: *config,
                n,
                lookup: WindowLookup::build(resolved.algorithm, resolved.truncation),
                resolved,
            });
        }
        let plan = scratch.plan.as_ref().expect("plan just cached");
        run_streaming(&plan.resolved, &plan.lookup, &mut scratch.state, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::rng::{experiment_tag, trial_rng};
    use contention_sim::engine::Simulator;
    use rand::RngCore;

    fn run(config: DynamicConfig, trial: u32) -> DynamicMetrics {
        let mut sim = DynamicSim::new(config);
        let mut rng = trial_rng(experiment_tag("dynamic-test"), config.algorithm, 0, trial);
        sim.run(&mut rng)
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
        let _ = DynamicSim::new(DynamicConfig::abstract_model(
            AlgorithmKind::BestOfK { k: 3 },
            ArrivalProcess::PoissonSingles { rate: 0.1 },
        ));
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = DynamicSim::new(DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::PoissonSingles { rate: 0.0 },
        ));
    }

    /// The window `lookup` draws below at `stage`.
    fn lookup_window(lookup: &WindowLookup, stage: u32) -> u64 {
        match lookup {
            WindowLookup::Poly { degree, trunc } => poly_window(*degree, *trunc, stage).into(),
            WindowLookup::Table { prefix, cycle } => {
                let i = stage as usize;
                let draw = prefix.get(i);
                draw.unwrap_or_else(|| &cycle[(i - prefix.len()) % cycle.len()])
                    .span()
            }
        }
    }

    #[test]
    fn window_lookup_matches_schedule_everywhere() {
        let truncations = [
            Truncation::paper(),
            Truncation {
                cw_min: 1,
                cw_max: 8,
            },
            Truncation {
                cw_min: 2,
                cw_max: 100,
            },
            Truncation {
                cw_min: 16,
                cw_max: 1000, // non-power-of-two CWmax: the gnarly sawtooth
            },
            Truncation {
                cw_min: 64,
                cw_max: 64,
            },
            Truncation::unbounded(),
        ];
        let kinds = [
            AlgorithmKind::Beb,
            AlgorithmKind::LogBackoff,
            AlgorithmKind::LogLogBackoff,
            AlgorithmKind::Sawtooth,
            AlgorithmKind::Fixed { window: 37 },
            AlgorithmKind::Fixed { window: 100_000 },
            AlgorithmKind::Polynomial { degree: 1 },
            AlgorithmKind::Polynomial { degree: 2 },
            AlgorithmKind::Polynomial { degree: 3 },
        ];
        for trunc in truncations {
            for kind in kinds {
                let lookup = WindowLookup::build(kind, trunc);
                let mut sched = kind.schedule(trunc).expect("windowed");
                let mut rng = trial_rng(experiment_tag("lookup"), kind, 0, 0);
                let mut reference = rng.clone();
                for stage in 0..3000u32 {
                    let window = sched.next_window();
                    assert_eq!(
                        lookup_window(&lookup, stage),
                        u64::from(window),
                        "{kind:?} {trunc:?} stage {stage}"
                    );
                    assert_eq!(
                        lookup.timer(stage, &mut rng),
                        reference.gen_range(0..u64::from(window)),
                        "{kind:?} {trunc:?} stage {stage}"
                    );
                }
                assert_eq!(rng, reference, "{kind:?} {trunc:?}");
            }
        }
    }

    #[test]
    fn bucket_queue_pops_in_coordinate_order_with_push_order_groups() {
        let mut q = BucketQueue::default();
        // Mix near-future, same-coordinate, and far-overflow pushes.
        q.push(5, 1);
        q.push(3, 2);
        q.push(5, 3);
        q.push(RING + 10_000, 4); // overflow
        q.push(3, 5);
        let mut group = Vec::new();
        assert_eq!(q.pop_group(&mut group), Some(3));
        assert_eq!(group, vec![2, 5]);
        group.clear();
        assert_eq!(q.pop_group(&mut group), Some(5));
        assert_eq!(group, vec![1, 3]);
        group.clear();
        // Ring now empty: base must jump to the overflow entry.
        assert_eq!(q.pop_group(&mut group), Some(RING + 10_000));
        assert_eq!(group, vec![4]);
        group.clear();
        assert_eq!(q.pop_group(&mut group), None);
        assert!(q.is_empty());
    }

    #[test]
    fn bucket_queue_matches_binary_heap_reference() {
        let mut rng = trial_rng(experiment_tag("bucket-queue"), AlgorithmKind::Beb, 0, 0);
        let mut q = BucketQueue::default();
        let mut reference: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut cursor = 0u64; // monotone pop frontier, as in the sim
        let mut next_id = 0u32;
        for _ in 0..2_000 {
            // A few pushes ahead of the frontier (some far into overflow)...
            for _ in 0..(rng.next_u32() % 4) {
                let gap = if rng.next_u32().is_multiple_of(10) {
                    RING + rng.next_u64() % 100_000
                } else {
                    rng.next_u64() % 1024
                };
                q.push(cursor + gap, next_id);
                reference.push(Reverse((cursor + gap, next_id)));
                next_id += 1;
            }
            // ...then drain one coordinate group from each and compare.
            let mut group = Vec::new();
            let got = q.pop_group(&mut group);
            let want = reference.peek().map(|&Reverse((c, _))| c);
            assert_eq!(got, want);
            let Some(x) = got else { continue };
            let mut ref_group = Vec::new();
            while let Some(&Reverse((c, id))) = reference.peek() {
                if c != x {
                    break;
                }
                reference.pop();
                ref_group.push(id);
            }
            group.sort_unstable();
            ref_group.sort_unstable();
            assert_eq!(group, ref_group, "members at coordinate {x}");
            cursor = x + 1;
        }
    }

    #[test]
    fn single_batch_is_one_burst_at_slot_zero() {
        let mut config = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::SingleBatch { size: 64 },
        );
        config.horizon_slots = 1;
        config.drain_slots = 500_000;
        let m = run(config, 0);
        assert_eq!(m.offered, 64);
        assert_eq!(m.completed, 64, "{m:?}");
    }

    #[test]
    fn diurnal_mean_rate_matches_poisson_on_average() {
        let flat = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::Diurnal {
                mean_rate: 0.02,
                amplitude: 0.9,
                period: 5_000.0,
            },
        );
        let mut total = 0u64;
        let trials = 8;
        for t in 0..trials {
            total += run(flat, t).offered;
        }
        let mean = total as f64 / trials as f64;
        let expected = 0.02 * 50_000.0;
        assert!(
            (mean - expected).abs() < expected * 0.15,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn pareto_burst_sizes_stay_clamped() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::Beb,
            ArrivalProcess::ParetoBursts {
                rate: 0.001,
                alpha: 1.2,
                min_size: 5,
                max_size: 200,
            },
        );
        let mut rng = trial_rng(experiment_tag("pareto-test"), config.algorithm, 0, 0);
        let arrival_rng = SmallRng::seed_from_u64(rng.next_u64());
        let mut gen = ArrivalGen::new(config.arrivals, config.horizon_slots, arrival_rng);
        let mut seen_any = false;
        while let Some((_, size)) = gen.next() {
            assert!((5..=200).contains(&size), "burst size {size}");
            seen_any = true;
        }
        assert!(seen_any);
    }

    #[test]
    fn load_per_mille_axis_rescales_to_capacity_fraction() {
        let config = DynamicConfig {
            axis: DynAxis::LoadPerMille,
            ..DynamicConfig::mac_costs(
                AlgorithmKind::Beb,
                ArrivalProcess::PoissonSingles { rate: 0.123 },
                64,
            )
        };
        let resolved = config.resolve(500);
        // Half the success capacity of a 13-slot channel.
        let want = 0.5 / 13.0;
        assert!((resolved.arrivals.offered_load() - want).abs() < 1e-12);
        // n = 0 keeps the configured rate.
        assert_eq!(config.resolve(0), config);
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
    fn run_with_matches_direct_api_and_reuses_scratch() {
        let config = DynamicConfig::abstract_model(
            AlgorithmKind::LogBackoff,
            ArrivalProcess::PoissonBursts {
                rate: 0.0008,
                size: 25,
            },
        );
        let mut scratch = DynamicScratch::default();
        let fresh = |trial: u32| {
            let mut rng = trial_rng(experiment_tag("dyn-scratch"), config.algorithm, 0, trial);
            DynamicSim::new(config).run(&mut rng)
        };
        for trial in [0u32, 1, 2, 0] {
            let mut rng = trial_rng(experiment_tag("dyn-scratch"), config.algorithm, 0, trial);
            let via_engine = DynamicSim::run_with(&config, 0, &mut rng, &mut scratch);
            assert_eq!(via_engine, fresh(trial), "trial {trial}");
        }
        // Changing the cell invalidates the cached plan, not the results.
        let other = DynamicConfig {
            algorithm: AlgorithmKind::Sawtooth,
            ..config
        };
        let mut rng = trial_rng(experiment_tag("dyn-scratch"), other.algorithm, 0, 7);
        let a = DynamicSim::run_with(&other, 0, &mut rng, &mut scratch);
        let mut rng = trial_rng(experiment_tag("dyn-scratch"), other.algorithm, 0, 7);
        let b = DynamicSim::new(other).run(&mut rng);
        assert_eq!(a, b);
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
