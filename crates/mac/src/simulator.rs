//! The event-driven DCF simulator.
//!
//! One trial of [`MacSim`] runs a single batch of `n` stations, all arriving
//! at `t = 0` with one packet each, against an access point on an ideal
//! channel. The machinery follows §I-B's description of DCF:
//!
//! ```text
//! station ──DIFS──► backoff countdown ──expiry──► DATA ──┬─ clean ─ SIFS ─ ACK ─► done
//!    ▲  (freezes while medium busy,                      │
//!    │   resumes after DIFS idle)                        └─ collided ─ ACK timeout ─► grow CW, redraw
//!    └────────────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Global contention-window slots are accounted as wall-clock time during
//! which the medium is idle (post-DIFS) and at least one station is counting
//! down, divided by the 9 µs slot — the MAC-level equivalent of the abstract
//! model's slot count.

use crate::config::MacConfig;
use crate::estimation::{EstimState, PhaseOutcome, RoundAction};
use crate::medium::{ActiveTx, Medium, TxKind, TxSource};
use crate::trace::{Span, SpanKind, Trace};
use contention_core::algorithm::AlgorithmKind;
use contention_core::metrics::{BatchMetrics, StationMetrics};
use contention_core::rng::UniformBelow;
use contention_core::schedule::Backoff;
use contention_core::time::Nanos;
use contention_sim::event::{EventQueue, EventToken};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Result of one MAC trial.
#[derive(Debug, Clone)]
pub struct MacRun {
    /// The shared metric set (CW slots, total time, collisions, …).
    pub metrics: BatchMetrics,
    /// Per-station BEST-OF-k estimates (`None` for non-estimating runs).
    pub estimates: Vec<Option<u32>>,
    /// Frames corrupted by a lone probe overlap rather than a station-vs-
    /// station collision (only possible in BEST-OF-k runs).
    pub probe_corruptions: u64,
    /// Execution trace, when `capture_trace` was set.
    pub trace: Option<Trace>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The medium has been idle for a DIFS: every waiting station joins the
    /// cohort, and the cohort's slot clock runs.
    GlobalDifs { gen: u32 },
    /// One station's personal DIFS completed (post-ACK-timeout rejoin).
    PersonalDifs { station: u32, gen: u32 },
    /// A joiner's backoff countdown expired: transmit.
    BackoffExpire { station: u32, gen: u32 },
    /// The slot clock reached the cohort's smallest deadline: every member
    /// due at it transmits.
    CohortExpire,
    /// A frame left the air.
    TxEnd { id: u32 },
    /// The AP starts an ACK (SIFS after a clean data frame). `tag` is the
    /// addressee's attempt generation at scheduling time, so a late ACK for
    /// an abandoned attempt is detectably stale.
    AckStart { station: u32, tag: u32 },
    /// The AP starts a CTS (SIFS after a clean RTS).
    CtsStart { station: u32, tag: u32 },
    /// The station starts its data frame (SIFS after receiving CTS).
    DataStart { station: u32 },
    /// The sender gives up waiting for an ACK/CTS: diagnose a collision.
    AckTimeout { station: u32, gen: u32 },
    /// Boundary of a BEST-OF-k probe round.
    EstimationRound,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Running the BEST-OF-k probe phase.
    Estimating,
    /// Waiting for a DIFS of idle (frozen backoff or fresh arrival).
    WaitDifs,
    /// Counting down: a cohort member, or a joiner with `expiry_at` live.
    Backoff,
    /// Own frame on air.
    Transmitting,
    /// RTS sent, waiting for CTS.
    AwaitingCts,
    /// CTS received, data starts after SIFS.
    PreparingData,
    /// Data sent, waiting for ACK.
    AwaitingAck,
    /// Packet acknowledged.
    Done,
}

struct Station {
    state: State,
    /// Backoff stage: the retries so far, which index the algorithm's
    /// window table.
    stage: u32,
    /// Backoff slots left to count. A cohort member keeps the count it
    /// entered with; its countdown is its deadline on the slot clock.
    remaining: u64,
    /// When a joiner's countdown expires (valid for a joiner in `Backoff`).
    expiry_at: Nanos,
    /// When a joiner's countdown started (valid for a joiner in `Backoff`).
    resume_at: Nanos,
    /// Invalidates this station's own scheduled events (a joiner's expiry,
    /// a personal DIFS, an ACK/CTS timeout) and tags its frames, so a late
    /// ACK or CTS for an abandoned attempt is stale. A cohort member holds
    /// no event of its own and does not bump it. `u32` keeps queue entries
    /// at 32 bytes; a station bumps it a bounded number of times per attempt
    /// and cannot make 2^32 attempts in one trial (each consumes ≥ one 9 µs
    /// slot, far beyond any `max_sim_time`).
    gen: u32,
    /// Token of this station's single pending self-event (backoff expiry,
    /// personal DIFS, or ACK/CTS timeout), for O(log n) cancellation when
    /// the event dies (freeze, resume, ACK arrival). The `gen` checks stay
    /// as a second line of defence; with eager cancellation they never
    /// trigger for these events.
    timer: Option<EventToken>,
    estim: Option<EstimState>,
    estimate: Option<u32>,
    metrics: StationMetrics,
}

/// Reusable per-worker arena for `MacSim::run_with`: the event queue slab,
/// the medium buffers and the station table survive from trial to trial at
/// their high-water capacity, and the [`Backoff`] table of each algorithm
/// and truncation is built once, so steady-state trials allocate nothing but
/// their output. Resetting is O(previous trial's live state); a fresh
/// (`Default`) arena behaves identically — reuse may only move memory,
/// never results (`tests/hot_path_golden.rs` pins this bit-for-bit).
///
/// Backoff freezes on one idle-slot clock. Stations that a global DIFS
/// resumes share its slot phase and count down together, so each is stored
/// once in the cohort, as `(deadline, station)` on the clock; a busy period
/// advances the clock instead of freezing and resuming every member.
#[derive(Default)]
pub struct MacScratch {
    queue: EventQueue<Event>,
    medium: Medium,
    stations: Vec<Station>,
    /// The cohort, smallest `(deadline, station)` first: members due at the
    /// same deadline transmit in station order, as if each global DIFS
    /// restarted their countdowns in station order.
    cohort: BinaryHeap<Reverse<(u64, u32)>>,
    /// Joiners: stations that resumed mid-interval at their own slot phase
    /// (after a retry or a personal DIFS), each behind a real
    /// `BackoffExpire`. The next busy start freezes them into `entrants`.
    joiners: Vec<u32>,
    /// Entrants: stations that became `WaitDifs` since the last global DIFS
    /// (retries, frozen joiners, personal-DIFS waiters); that DIFS moves
    /// them into the cohort. An entry goes stale when its station resumes
    /// on its own first; the state guard skips it.
    entrants: Vec<u32>,
    /// The table of every `(algorithm, truncation)` run on this arena.
    tables: Vec<Backoff>,
}

impl MacScratch {
    fn reset(&mut self) {
        self.queue.reset();
        self.medium.reset();
        self.stations.clear();
        self.cohort.clear();
        self.joiners.clear();
        self.entrants.clear();
    }
}

/// One trial in flight: the arena's buffers, the slot clock, and the
/// tallies. A counting station is either a cohort member, with no event of
/// its own and `deadline - clock` slots left, or a joiner behind a real
/// `BackoffExpire`. A busy period touches only the entrants and the
/// joiners, never every alive station.
struct Sim<'a> {
    config: &'a MacConfig,
    /// The algorithm's window table; `None` for BEST-OF-k, whose stations
    /// draw from their estimates.
    backoff: Option<&'a Backoff>,
    rng: &'a mut SmallRng,
    n: u32,
    queue: &'a mut EventQueue<Event>,
    medium: &'a mut Medium,
    stations: &'a mut Vec<Station>,
    cohort: &'a mut BinaryHeap<Reverse<(u64, u32)>>,
    joiners: &'a mut Vec<u32>,
    entrants: &'a mut Vec<u32>,
    next_tx_id: u32,
    /// Open global CW interval start, if any: opened by the first countdown
    /// of an idle interval, closed by the busy start that ends it.
    cw_open_at: Option<Nanos>,
    /// Accumulated global CW time.
    cw_time: Nanos,
    /// Invalidates the pending GlobalDifs.
    difs_gen: u32,
    /// Token of the pending GlobalDifs, cancelled when the medium turns
    /// busy instead of left to pop stale.
    global_difs: Option<EventToken>,
    /// Idle slots the cohort has counted. Each busy start adds the whole
    /// slots of the idle interval it ends, so a member's slots left are
    /// `deadline - clock`.
    clock: u64,
    /// Start of the running idle interval, the cohort's slot phase; `None`
    /// while the cohort is frozen.
    interval_start: Option<Nanos>,
    /// The pending `CohortExpire`, due when the clock reaches the cohort's
    /// smallest deadline.
    cohort_event: Option<EventToken>,
    /// Softened-collision state for the current busy period. The collision
    /// is resolved *once per period*, at the first corrupted data frame to
    /// end, mirroring `ChannelModel::sample_slot`: one noise draw, one
    /// recovery draw at that frame's multiplicity `k`, one uniform winner
    /// draw in `0..k`. `capture_winner` is the chosen index among the
    /// period's corrupted data frames in end order (`None` = nothing
    /// recovered); `period_corrupted_data` counts them.
    capture_winner: Option<u32>,
    period_corrupted_data: u32,
    // Global tallies.
    successes: u32,
    collisions: u64,
    colliding_stations: u64,
    probe_corruptions: u64,
    half_target: u32,
    half_time: Nanos,
    half_cw_slots: u64,
    total_time: Nanos,
    final_cw_slots: u64,
    done: bool,
    // Estimation phase.
    estimating: u32,
    round_index: u64,
    round_had_busy: bool,
    trace: Option<Trace>,
}

/// The 802.11g DCF backend of the generic sweep engine, and the MAC's one
/// entry point: a lone trial is
/// [`Simulator::run`](contention_sim::engine::Simulator::run), and a sweep
/// worker calls `run_with` on its own [`MacScratch`]. Deterministic for a
/// given `(config, n, rng)`.
pub struct MacSim;

impl contention_sim::engine::Simulator for MacSim {
    type Config = MacConfig;
    type Output = MacRun;
    type Scratch = MacScratch;
    const NAME: &'static str = "mac";

    fn algorithm(config: &MacConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &MacConfig, algorithm: AlgorithmKind) -> MacConfig {
        MacConfig {
            algorithm,
            ..*config
        }
    }

    fn run_with(
        config: &MacConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut MacScratch,
    ) -> MacRun {
        scratch.reset();
        let mut sim = Sim::new(config, n, rng, scratch);
        sim.init();
        sim.run();
        sim.finish()
    }
}

impl From<MacRun> for contention_sim::summary::TrialSummary {
    fn from(run: MacRun) -> contention_sim::summary::TrialSummary {
        contention_sim::summary::TrialSummary::from_metrics(&run.metrics)
            .with_estimates(&run.estimates)
    }
}

impl<'a> Sim<'a> {
    fn new(
        config: &'a MacConfig,
        n: u32,
        rng: &'a mut SmallRng,
        scratch: &'a mut MacScratch,
    ) -> Sim<'a> {
        let MacScratch {
            queue,
            medium,
            stations,
            cohort,
            joiners,
            entrants,
            tables,
        } = scratch;
        Sim {
            config,
            backoff: Backoff::cached(tables, config.algorithm, config.truncation()),
            rng,
            n,
            queue,
            medium,
            stations,
            cohort,
            joiners,
            entrants,
            next_tx_id: 0,
            cw_open_at: None,
            cw_time: Nanos::ZERO,
            difs_gen: 0,
            global_difs: None,
            clock: 0,
            interval_start: None,
            cohort_event: None,
            capture_winner: None,
            period_corrupted_data: 0,
            successes: 0,
            collisions: 0,
            colliding_stations: 0,
            probe_corruptions: 0,
            half_target: n.div_ceil(2),
            half_time: Nanos::ZERO,
            half_cw_slots: 0,
            total_time: Nanos::ZERO,
            final_cw_slots: 0,
            done: n == 0,
            estimating: 0,
            round_index: 0,
            round_had_busy: false,
            trace: config.capture_trace.then(|| {
                let mut trace = Trace::new(n);
                // Typical span volume: a handful per station-attempt.
                trace.spans.reserve(16 * n as usize);
                trace
            }),
        }
    }

    fn init(&mut self) {
        let best_of_k = self.config.best_of_k();
        for _ in 0..self.n {
            let mut station = Station {
                state: State::WaitDifs,
                stage: 0,
                remaining: 0,
                expiry_at: Nanos::MAX,
                resume_at: Nanos::ZERO,
                gen: 0,
                timer: None,
                estim: None,
                estimate: None,
                metrics: StationMetrics::default(),
            };
            if let Some(spec) = best_of_k {
                station.state = State::Estimating;
                station.estim = Some(EstimState::new(spec));
                self.estimating += 1;
            } else {
                self.entrants.push(self.stations.len() as u32);
                station.remaining = self
                    .backoff
                    .expect("non-estimating algorithms have schedules")
                    .sample(0, self.rng);
            }
            self.stations.push(station);
        }
        if best_of_k.is_some() {
            self.queue.schedule(Nanos::ZERO, Event::EstimationRound);
        } else if self.n > 0 {
            self.global_difs = Some(self.queue.schedule(
                self.config.phy.difs,
                Event::GlobalDifs { gen: self.difs_gen },
            ));
        }
    }

    fn run(&mut self) {
        while !self.done {
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            if now > self.config.max_sim_time {
                break;
            }
            match event {
                Event::GlobalDifs { gen } => self.on_global_difs(gen),
                Event::PersonalDifs { station, gen } => self.on_personal_difs(station, gen),
                Event::BackoffExpire { station, gen } => self.on_backoff_expire(station, gen),
                Event::CohortExpire => self.on_cohort_expire(),
                Event::TxEnd { id } => self.on_tx_end(id),
                Event::AckStart { station, tag } => self.on_ack_start(station, tag),
                Event::CtsStart { station, tag } => self.on_cts_start(station, tag),
                Event::DataStart { station } => self.on_data_start(station),
                Event::AckTimeout { station, gen } => self.on_ack_timeout(station, gen),
                Event::EstimationRound => self.on_estimation_round(),
            }
        }
    }

    fn finish(self) -> MacRun {
        // A truncated run reports the valve instant, not "whenever the next
        // event happened to be". (Pre-overhaul code reported the timestamp
        // of the first event past the valve — which could be a *dead*,
        // generation-stale event, making the figure depend on queue
        // internals. Completed runs are unaffected: they use the recorded
        // totals below.)
        let now = Nanos::min(self.queue.now(), self.config.max_sim_time);
        let cw_slots = if self.done {
            self.final_cw_slots
        } else {
            self.cw_slots_now(now)
        };
        let total_time = if self.done { self.total_time } else { now };
        // Members still waiting (valve-truncated runs only) are credited
        // the slots the clock counted up to the last busy start.
        for &Reverse((deadline, station)) in self.cohort.iter() {
            let s = &mut self.stations[station as usize];
            s.metrics.backoff_slots += self.clock - (deadline - s.remaining);
        }
        MacRun {
            metrics: BatchMetrics {
                n: self.n,
                successes: self.successes,
                total_time,
                half_time: self.half_time,
                cw_slots,
                half_cw_slots: self.half_cw_slots,
                collisions: self.collisions,
                colliding_stations: self.colliding_stations,
                stations: self.stations.iter().map(|s| s.metrics).collect(),
            },
            // Only BEST-OF-k runs carry estimates; every other workload
            // keeps this empty — no per-trial `Vec<Option<u32>>` on the
            // paper's hot paths (`TrialSummary::with_estimates` treats
            // "empty" and "all None" identically).
            estimates: if self.config.best_of_k().is_some() {
                self.stations.iter().map(|s| s.estimate).collect()
            } else {
                Vec::new()
            },
            probe_corruptions: self.probe_corruptions,
            trace: self.trace,
        }
    }

    // ------------------------------------------------------------------
    // Contention-window time accounting
    // ------------------------------------------------------------------

    fn cw_slots_now(&self, now: Nanos) -> u64 {
        let mut total = self.cw_time;
        if let Some(open) = self.cw_open_at {
            total += now - open;
        }
        total.div_floor(self.config.phy.slot)
    }

    fn close_cw_interval(&mut self, now: Nanos) {
        if let Some(open) = self.cw_open_at.take() {
            self.cw_time += now - open;
        }
    }

    // ------------------------------------------------------------------
    // Backoff state transitions
    // ------------------------------------------------------------------

    /// Start a joiner's countdown at its own slot phase, behind a real
    /// `BackoffExpire`.
    fn resume_joiner(&mut self, station: u32, now: Nanos) {
        let slot = self.config.phy.slot;
        let s = &mut self.stations[station as usize];
        debug_assert_eq!(s.state, State::WaitDifs);
        debug_assert!(s.timer.is_none(), "joiner resuming with a live timer");
        s.state = State::Backoff;
        s.resume_at = now;
        s.expiry_at = now + slot * s.remaining;
        s.gen += 1;
        let gen = s.gen;
        let expire = Event::BackoffExpire { station, gen };
        s.timer = Some(self.queue.schedule(s.expiry_at, expire));
        self.joiners.push(station);
        self.cw_open_at.get_or_insert(now);
    }

    /// The medium just became busy: close the CW interval, kill the pending
    /// global and personal DIFS, stop the cohort's clock, and freeze the
    /// joiners. A station due at exactly `now` is *not* frozen — it could not
    /// have sensed a transmission that starts in the same instant (its event
    /// fires during this busy period and it transmits into the pileup), which
    /// is precisely how collisions happen. The firing station itself is
    /// already `Transmitting`.
    fn handle_busy_start(&mut self, now: Nanos) {
        self.close_cw_interval(now);
        self.difs_gen += 1;
        if let Some(t) = self.global_difs.take() {
            self.queue.cancel(t);
        }
        self.round_had_busy = true;
        let slot = self.config.phy.slot;
        if let Some(start) = self.interval_start.take() {
            self.clock += (now - start).div_floor(slot);
            let due_now = matches!(self.cohort.peek(), Some(&Reverse((d, _))) if d == self.clock);
            if let Some(t) = self.cohort_event.take_if(|_| !due_now) {
                self.queue.cancel(t);
            }
        }
        // Personal-DIFS waiters are entrants: the global DIFS after this
        // busy period resumes them with the cohort instead.
        for &station in self.entrants.iter() {
            let s = &mut self.stations[station as usize];
            if s.state == State::WaitDifs {
                if let Some(t) = s.timer.take() {
                    self.queue.cancel(t);
                }
            }
        }
        for &station in self.joiners.iter() {
            let s = &mut self.stations[station as usize];
            if s.state != State::Backoff || s.expiry_at <= now {
                continue;
            }
            let consumed = (now - s.resume_at).div_floor(slot);
            debug_assert!(consumed < s.remaining);
            s.remaining -= consumed;
            s.metrics.backoff_slots += consumed;
            s.gen += 1;
            s.state = State::WaitDifs;
            if let Some(t) = s.timer.take() {
                self.queue.cancel(t);
            }
            self.entrants.push(station);
        }
        self.joiners.clear();
    }

    /// Route a station with a drawn timer back into contention at `now`.
    fn enter_difs_path(&mut self, station: u32, now: Nanos) {
        let difs = self.config.phy.difs;
        self.stations[station as usize].state = State::WaitDifs;
        if self.medium.is_busy() {
            self.entrants.push(station);
            return;
        }
        let ready = Nanos::max(now, self.medium.idle_since() + difs);
        if ready == now {
            self.resume_joiner(station, now);
        } else {
            // Waiting out a personal DIFS. The station is also an entrant
            // for the next global DIFS: whichever fires first resumes it (a
            // global DIFS implies at least DIFS of idle, so it can only
            // coincide with or precede `ready`, never skip ahead of it).
            self.entrants.push(station);
            let s = &mut self.stations[station as usize];
            s.gen += 1;
            let gen = s.gen;
            debug_assert!(
                s.timer.is_none(),
                "station re-entering DIFS with a live timer"
            );
            let token = self
                .queue
                .schedule(ready, Event::PersonalDifs { station, gen });
            self.stations[station as usize].timer = Some(token);
        }
    }

    /// Draw the next window after a failure and re-enter contention.
    fn retry(&mut self, station: u32, now: Nanos) {
        let s = &mut self.stations[station as usize];
        // New attempt: invalidate anything addressed to the old one (a late
        // ACK for the abandoned attempt must not complete the new one).
        s.gen += 1;
        s.stage += 1;
        s.remaining = match self.backoff {
            Some(table) => table.sample(s.stage, self.rng),
            None => {
                let estimate = s
                    .estimate
                    .expect("a BEST-OF-k station retries once estimated");
                estimate_draw(self.config, estimate).sample(self.rng)
            }
        };
        self.enter_difs_path(station, now);
    }

    // ------------------------------------------------------------------
    // Frames
    // ------------------------------------------------------------------

    fn start_frame(
        &mut self,
        source: TxSource,
        kind: TxKind,
        for_station: Option<u32>,
        tag: u32,
        duration: Nanos,
    ) -> u32 {
        let now = self.queue.now();
        let id = self.next_tx_id;
        self.next_tx_id += 1;
        let tx = ActiveTx {
            id,
            source,
            kind,
            for_station,
            tag,
            start: now,
            end: now + duration,
            corrupted: false,
            overlaps: 0,
        };
        let became_busy = self.medium.start_tx(tx);
        if became_busy {
            self.handle_busy_start(now);
        }
        self.queue.schedule(now + duration, Event::TxEnd { id });
        id
    }

    fn record_span(&mut self, station: u32, kind: SpanKind, start: Nanos, end: Nanos) {
        if let Some(trace) = &mut self.trace {
            trace.push(Span {
                station,
                kind,
                start,
                end,
            });
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// Entrants join the cohort and its clock runs, behind one event at the
    /// smallest deadline. Scheduled here, that event holds the FIFO place of
    /// expiries this DIFS would restart: a joiner that resumed before it
    /// fires ahead of a tied member, one that resumes after it fires behind.
    fn on_global_difs(&mut self, gen: u32) {
        self.global_difs = None;
        if gen != self.difs_gen {
            return;
        }
        debug_assert!(!self.medium.is_busy(), "GlobalDifs fired while busy");
        debug_assert!(self.interval_start.is_none() && self.cohort_event.is_none());
        let now = self.queue.now();
        for &station in self.entrants.iter() {
            let s = &mut self.stations[station as usize];
            if s.state != State::WaitDifs {
                continue;
            }
            // A pending personal DIFS dies here (the global DIFS beat it).
            if let Some(t) = s.timer.take() {
                self.queue.cancel(t);
            }
            s.state = State::Backoff;
            self.cohort
                .push(Reverse((self.clock + s.remaining, station)));
        }
        self.entrants.clear();
        let Some(&Reverse((first, _))) = self.cohort.peek() else {
            return;
        };
        self.interval_start = Some(now);
        self.cw_open_at.get_or_insert(now);
        let at = now + self.config.phy.slot * (first - self.clock);
        self.cohort_event = Some(self.queue.schedule(at, Event::CohortExpire));
    }

    fn on_personal_difs(&mut self, station: u32, gen: u32) {
        if gen != self.stations[station as usize].gen {
            return;
        }
        self.stations[station as usize].timer = None;
        debug_assert!(!self.medium.is_busy(), "PersonalDifs fired while busy");
        let now = self.queue.now();
        self.resume_joiner(station, now);
    }

    /// Every member due at the smallest deadline transmits, in station
    /// order. Their expiries would sit back to back in the FIFO order, so no
    /// other event can fire between them.
    fn on_cohort_expire(&mut self) {
        self.cohort_event = None;
        let Some(&Reverse((due, _))) = self.cohort.peek() else {
            return;
        };
        while let Some(&Reverse((deadline, station))) = self.cohort.peek() {
            if deadline != due {
                break;
            }
            self.cohort.pop();
            self.transmit(station);
        }
    }

    fn on_backoff_expire(&mut self, station: u32, gen: u32) {
        if gen != self.stations[station as usize].gen {
            return;
        }
        self.stations[station as usize].timer = None;
        debug_assert_eq!(self.stations[station as usize].expiry_at, self.queue.now());
        self.transmit(station);
    }

    /// A countdown reached zero: send the RTS or the data frame.
    fn transmit(&mut self, station: u32) {
        let s = &mut self.stations[station as usize];
        debug_assert_eq!(s.state, State::Backoff);
        s.metrics.backoff_slots += s.remaining;
        s.remaining = 0;
        s.state = State::Transmitting;
        s.metrics.attempts += 1;
        let (kind, duration) = if self.config.rts_cts {
            (TxKind::Rts, self.config.phy.rts_time())
        } else {
            (
                TxKind::Data,
                self.config.phy.data_frame_time(self.config.payload_bytes),
            )
        };
        let tag = self.stations[station as usize].gen;
        self.start_frame(TxSource::Station(station), kind, None, tag, duration);
    }

    fn on_tx_end(&mut self, id: u32) {
        let now = self.queue.now();
        let (tx, period) = self.medium.end_tx(id, now);
        if let Some(p) = period {
            // The medium just went idle. Bystanders that heard only garbage
            // must defer EIFS instead of DIFS (when the EIFS rule is on).
            let ifs = if self.config.use_eifs && p.corrupted_frames > 0 {
                self.config.phy.eifs()
            } else {
                self.config.phy.difs
            };
            self.global_difs = Some(
                self.queue
                    .schedule(now + ifs, Event::GlobalDifs { gen: self.difs_gen }),
            );
            if p.corrupted_contenders >= 2 {
                self.collisions += 1;
                self.colliding_stations += p.corrupted_contenders as u64;
            } else if p.corrupted_contenders == 1 {
                self.probe_corruptions += 1;
            }
        }
        match tx.kind {
            TxKind::Data => self.on_data_end(&tx),
            TxKind::Rts => self.on_rts_end(&tx),
            TxKind::Cts => self.on_cts_end(&tx),
            TxKind::Ack => self.on_ack_end(&tx),
            TxKind::Probe => {
                if let TxSource::Station(st) = tx.source {
                    self.record_span(st, SpanKind::Probe, tx.start, tx.end);
                }
            }
        }
        if period.is_some() {
            // A fresh busy period gets a fresh collision resolution.
            self.capture_winner = None;
            self.period_corrupted_data = 0;
        }
    }

    /// Whether the channel delivered this data frame, mirroring
    /// [`contention_core::channel::ChannelModel::sample_slot`]'s structure.
    ///
    /// A clean frame is the sole occupant of its airtime ("its own slot"):
    /// one noise draw decides it. A collision is resolved once per busy
    /// period, at the first corrupted data frame to end: noise draw, then a
    /// recovery draw at that frame's multiplicity `k = overlaps + 1`, then a
    /// uniform winner among the period's first `k` corrupted data frames (in
    /// end order) — the same three-draw shape, and the same unbiased winner,
    /// as the slotted model. Remaining deviations from the slotted
    /// abstraction are inherent to continuous time and documented on
    /// [`MacConfig::channel`]: chained busy periods resolve at the first
    /// frame's `k`, and a winner index landing on a non-data overlapper
    /// (RTS/probe) wastes the capture. With the ideal channel this reads
    /// `!tx.corrupted` and consumes no randomness.
    fn channel_delivers(&mut self, tx: &ActiveTx) -> bool {
        let channel = self.config.channel;
        let noise_erased =
            |rng: &mut SmallRng, noise: f64| noise > 0.0 && rng.gen_bool(noise.clamp(0.0, 1.0));
        if !tx.corrupted {
            return !noise_erased(self.rng, channel.noise);
        }
        let idx = self.period_corrupted_data;
        self.period_corrupted_data += 1;
        if idx == 0 {
            let k = tx.overlaps + 1;
            let p = channel.p_recover(k);
            self.capture_winner =
                (!noise_erased(self.rng, channel.noise) && p > 0.0 && self.rng.gen_bool(p))
                    .then(|| self.rng.gen_range(0..k));
        }
        self.capture_winner == Some(idx)
    }

    fn on_data_end(&mut self, tx: &ActiveTx) {
        let TxSource::Station(station) = tx.source else {
            panic!("data frames come from stations");
        };
        let now = self.queue.now();
        // The span must reflect the *channel* outcome, not just corruption:
        // a noise-erased clean frame failed, a captured corrupted frame
        // succeeded. (record_span draws no RNG, so deciding delivery first
        // does not perturb the stream.)
        let delivered = self.channel_delivers(tx);
        self.record_span(
            station,
            if delivered {
                SpanKind::DataOk
            } else {
                SpanKind::DataFail
            },
            tx.start,
            tx.end,
        );
        let ack_lost = delivered
            && self.config.ack_loss_prob > 0.0
            && self.rng.gen_bool(self.config.ack_loss_prob);
        if delivered && !ack_lost {
            let tag = self.stations[station as usize].gen;
            self.queue
                .schedule(now + self.config.phy.sifs, Event::AckStart { station, tag });
        }
        let s = &mut self.stations[station as usize];
        s.state = State::AwaitingAck;
        let gen = s.gen;
        let token = self.queue.schedule(
            now + self.config.phy.ack_timeout,
            Event::AckTimeout { station, gen },
        );
        self.stations[station as usize].timer = Some(token);
    }

    fn on_rts_end(&mut self, tx: &ActiveTx) {
        let TxSource::Station(station) = tx.source else {
            panic!("RTS frames come from stations");
        };
        let now = self.queue.now();
        self.record_span(station, SpanKind::Rts, tx.start, tx.end);
        if !tx.corrupted {
            let tag = self.stations[station as usize].gen;
            self.queue
                .schedule(now + self.config.phy.sifs, Event::CtsStart { station, tag });
        }
        let s = &mut self.stations[station as usize];
        s.state = State::AwaitingCts;
        let gen = s.gen;
        let token = self.queue.schedule(
            now + self.config.phy.ack_timeout,
            Event::AckTimeout { station, gen },
        );
        self.stations[station as usize].timer = Some(token);
    }

    fn on_cts_start(&mut self, station: u32, tag: u32) {
        self.start_frame(
            TxSource::AccessPoint,
            TxKind::Cts,
            Some(station),
            tag,
            self.config.phy.cts_time(),
        );
    }

    fn on_cts_end(&mut self, tx: &ActiveTx) {
        let station = tx.for_station.expect("CTS is addressed");
        let now = self.queue.now();
        self.record_span(station, SpanKind::Cts, tx.start, tx.end);
        if tx.corrupted {
            return; // The CTS timeout will fire.
        }
        let s = &mut self.stations[station as usize];
        if s.gen != tx.tag || s.state != State::AwaitingCts {
            return; // Stale CTS: the sender already timed out and moved on.
        }
        s.gen += 1; // Invalidate the CTS timeout...
        if let Some(t) = s.timer.take() {
            self.queue.cancel(t); // ...and remove it from the heap.
        }
        let s = &mut self.stations[station as usize];
        s.state = State::PreparingData;
        self.queue
            .schedule(now + self.config.phy.sifs, Event::DataStart { station });
    }

    fn on_data_start(&mut self, station: u32) {
        let s = &mut self.stations[station as usize];
        debug_assert_eq!(s.state, State::PreparingData);
        s.state = State::Transmitting;
        let tag = s.gen;
        let duration = self.config.phy.data_frame_time(self.config.payload_bytes);
        self.start_frame(
            TxSource::Station(station),
            TxKind::Data,
            None,
            tag,
            duration,
        );
    }

    fn on_ack_start(&mut self, station: u32, tag: u32) {
        // The AP owns the SIFS window; it transmits without sensing.
        self.start_frame(
            TxSource::AccessPoint,
            TxKind::Ack,
            Some(station),
            tag,
            self.config.phy.ack_time(),
        );
    }

    fn on_ack_end(&mut self, tx: &ActiveTx) {
        let station = tx.for_station.expect("ACK is addressed");
        let now = self.queue.now();
        self.record_span(station, SpanKind::Ack, tx.start, tx.end);
        if tx.corrupted {
            return; // Sender never decodes it; its ACK timeout will fire.
        }
        let s = &mut self.stations[station as usize];
        if s.gen != tx.tag || s.state != State::AwaitingAck {
            // Stale ACK: the sender's timeout (configured shorter than
            // SIFS + ACK airtime) fired first and the attempt was abandoned
            // — the §V-B "ACK-timeout below threshold" pathology.
            return;
        }
        s.gen += 1; // Invalidate the ACK timeout...
        if let Some(t) = s.timer.take() {
            self.queue.cancel(t); // ...and remove it from the heap.
        }
        let s = &mut self.stations[station as usize];
        s.state = State::Done;
        s.metrics.success_time = Some(now);
        self.successes += 1;
        if self.successes == self.half_target {
            self.half_time = now;
            self.half_cw_slots = self.cw_slots_now(now);
        }
        if self.successes == self.n {
            self.total_time = now;
            self.final_cw_slots = self.cw_slots_now(now);
            self.done = true;
        }
    }

    fn on_ack_timeout(&mut self, station: u32, gen: u32) {
        if gen != self.stations[station as usize].gen {
            return;
        }
        self.stations[station as usize].timer = None;
        let now = self.queue.now();
        let timeout = self.config.phy.ack_timeout;
        {
            let s = &mut self.stations[station as usize];
            debug_assert!(matches!(s.state, State::AwaitingAck | State::AwaitingCts));
            s.metrics.ack_timeouts += 1;
            s.metrics.ack_timeout_time += timeout;
        }
        self.record_span(station, SpanKind::TimeoutWait, now - timeout, now);
        self.retry(station, now);
    }

    // ------------------------------------------------------------------
    // BEST-OF-k estimation rounds
    // ------------------------------------------------------------------

    fn on_estimation_round(&mut self) {
        let now = self.queue.now();
        // 1. Close out the round that just ended.
        if self.round_index > 0 {
            let round_was_busy = self.round_had_busy;
            for station in 0..self.n {
                if self.stations[station as usize].state != State::Estimating {
                    continue;
                }
                let outcome = self.stations[station as usize]
                    .estim
                    .as_mut()
                    .expect("estimating station has state")
                    .finish_round(round_was_busy);
                if let Some(PhaseOutcome::Decide(window)) = outcome {
                    self.finish_estimation(station, window, now);
                }
            }
        }
        if self.estimating == 0 {
            return;
        }
        // 2. Begin the next round: coin flips in station order.
        self.round_index += 1;
        self.round_had_busy = self.medium.is_busy();
        let probe_time = self.config.phy.frame_time(
            self.config
                .best_of_k()
                .expect("estimation implies spec")
                .dummy_bytes,
        );
        for station in 0..self.n {
            if self.stations[station as usize].state != State::Estimating {
                continue;
            }
            let p = self.stations[station as usize]
                .estim
                .as_ref()
                .expect("estimating station has state")
                .send_probability();
            let send = self.rng.gen_bool(p);
            self.stations[station as usize]
                .estim
                .as_mut()
                .expect("estimating station has state")
                .begin_round(if send {
                    RoundAction::Send
                } else {
                    RoundAction::Sense
                });
            if send {
                let tag = self.stations[station as usize].gen;
                self.start_frame(
                    TxSource::Station(station),
                    TxKind::Probe,
                    None,
                    tag,
                    probe_time,
                );
            }
        }
        let round = self
            .config
            .best_of_k()
            .expect("estimation implies spec")
            .round;
        self.queue.schedule(now + round, Event::EstimationRound);
    }

    fn finish_estimation(&mut self, station: u32, window: u32, now: Nanos) {
        let s = &mut self.stations[station as usize];
        s.estimate = Some(window);
        s.estim = None;
        s.remaining = estimate_draw(self.config, window).sample(self.rng);
        self.estimating -= 1;
        self.enter_difs_path(station, now);
    }
}

/// A BEST-OF-k station's backoff draw: fixed backoff at its estimate, every
/// window the estimate clamped into CWmin/CWmax.
fn estimate_draw(config: &MacConfig, estimate: u32) -> UniformBelow {
    UniformBelow::new(config.truncation().clamp(estimate.max(1)).into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::algorithm::AlgorithmKind;
    use contention_core::rng::{experiment_tag, trial_rng};
    use contention_sim::engine::Simulator;

    fn run(kind: AlgorithmKind, payload: u32, n: u32, trial: u32) -> MacRun {
        let config = MacConfig::paper(kind, payload);
        let mut rng = trial_rng(experiment_tag("mac-test"), kind, n, trial);
        MacSim::run(&config, n, &mut rng)
    }

    #[test]
    fn single_station_timing_is_exact() {
        // n = 1, BEB, 64 B: DIFS + 0 backoff slots (CW = 1 ⇒ timer 0) +
        // DATA(preamble + 128 B) + SIFS + ACK(preamble + 14 B).
        let run = run(AlgorithmKind::Beb, 64, 1, 0);
        let m = &run.metrics;
        assert_eq!(m.successes, 1);
        assert_eq!(m.collisions, 0);
        assert_eq!(m.cw_slots, 0);
        let expected = 34_000 + (20_000 + 18_962) + 16_000 + (20_000 + 2_074);
        assert_eq!(m.total_time.as_nanos(), expected);
        assert_eq!(m.half_time, m.total_time); // ⌈1/2⌉ = 1
        assert!(m.attempts_balance());
    }

    #[test]
    fn two_stations_collide_then_finish() {
        // BEB with CWmin = 1: both transmit immediately and collide; they
        // must eventually separate and both finish.
        let r = run(AlgorithmKind::Beb, 64, 2, 0);
        let m = &r.metrics;
        assert_eq!(m.successes, 2);
        assert!(m.collisions >= 1);
        assert_eq!(m.colliding_stations, m.total_ack_timeouts());
        assert!(m.attempts_balance());
        assert!(m.total_time > Nanos::from_micros(200));
    }

    #[test]
    fn batch_completes_for_every_algorithm() {
        for kind in AlgorithmKind::PAPER_SET {
            let r = run(kind, 64, 40, 1);
            assert_eq!(r.metrics.successes, 40, "{kind}");
            assert!(r.metrics.attempts_balance(), "{kind}");
            assert!(r.metrics.half_time <= r.metrics.total_time, "{kind}");
            assert!(r.metrics.half_cw_slots <= r.metrics.cw_slots, "{kind}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(AlgorithmKind::LogBackoff, 64, 30, 5);
        let b = run(AlgorithmKind::LogBackoff, 64, 30, 5);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn fixed_window_single_station_counts_its_slots() {
        // One station, fixed CW of 64: the drawn timer is the only CW time.
        let config = MacConfig::paper(AlgorithmKind::Fixed { window: 64 }, 64);
        let mut rng = trial_rng(
            experiment_tag("mac-test"),
            AlgorithmKind::Fixed { window: 64 },
            1,
            2,
        );
        let r = MacSim::run(&config, 1, &mut rng);
        let m = &r.metrics;
        assert_eq!(m.successes, 1);
        assert_eq!(m.cw_slots, m.stations[0].backoff_slots);
        // Total time = DIFS + slots·9µs + exchange.
        let exchange = 38_962 + 16_000 + 22_074;
        let expected = 34_000 + m.cw_slots * 9_000 + exchange;
        assert_eq!(m.total_time.as_nanos(), expected);
    }

    #[test]
    fn larger_payloads_take_longer() {
        let small = run(AlgorithmKind::Beb, 64, 30, 3).metrics.total_time;
        let large = run(AlgorithmKind::Beb, 1024, 30, 3).metrics.total_time;
        assert!(large > small);
    }

    #[test]
    fn trace_has_no_station_overlaps_and_covers_all() {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
        config.capture_trace = true;
        let mut rng = trial_rng(experiment_tag("mac-trace"), AlgorithmKind::Beb, 20, 0);
        let r = MacSim::run(&config, 20, &mut rng);
        let trace = r.trace.expect("trace captured");
        assert!(
            trace.first_overlap().is_none(),
            "{:?}",
            trace.first_overlap()
        );
        // Every station shows at least one data span and one ACK span.
        for st in 0..20 {
            let spans = trace.station_spans(st);
            assert!(spans
                .iter()
                .any(|s| matches!(s.kind, SpanKind::DataOk | SpanKind::DataFail)));
            assert!(spans.iter().any(|s| s.kind == SpanKind::Ack));
        }
    }

    #[test]
    fn ack_timeouts_match_trace_failures() {
        let mut config = MacConfig::paper(AlgorithmKind::Sawtooth, 64);
        config.capture_trace = true;
        let mut rng = trial_rng(experiment_tag("mac-trace2"), AlgorithmKind::Sawtooth, 15, 0);
        let r = MacSim::run(&config, 15, &mut rng);
        let trace = r.trace.expect("trace");
        let failed_sends = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::DataFail)
            .count();
        let timeouts = trace
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::TimeoutWait)
            .count();
        assert_eq!(failed_sends as u64, r.metrics.total_ack_timeouts());
        assert_eq!(timeouts as u64, r.metrics.total_ack_timeouts());
    }

    #[test]
    fn rts_cts_mode_completes_and_differs() {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 1024);
        config.rts_cts = true;
        let mut rng = trial_rng(experiment_tag("mac-rts"), AlgorithmKind::Beb, 25, 0);
        let with_rts = MacSim::run(&config, 25, &mut rng);
        assert_eq!(with_rts.metrics.successes, 25);
        assert!(with_rts.metrics.attempts_balance());
        let plain = run(AlgorithmKind::Beb, 1024, 25, 0);
        assert_ne!(with_rts.metrics.total_time, plain.metrics.total_time);
    }

    #[test]
    fn best_of_k_estimates_and_completes() {
        let kind = AlgorithmKind::BestOfK { k: 5 };
        let config = MacConfig::paper(kind, 64);
        let mut rng = trial_rng(experiment_tag("mac-bok"), kind, 50, 0);
        let r = MacSim::run(&config, 50, &mut rng);
        assert_eq!(r.metrics.successes, 50);
        let estimates: Vec<u32> = r.estimates.iter().map(|e| e.expect("estimated")).collect();
        // §VI: the estimate cannot badly underestimate; with 50 stations no
        // station should settle below 32, and most should be ≥ 64.
        assert!(estimates.iter().all(|&w| w >= 16), "{estimates:?}");
        let overestimates = estimates.iter().filter(|&&w| w >= 50).count();
        assert!(overestimates * 10 >= estimates.len() * 8, "{estimates:?}");
    }

    #[test]
    fn ideal_channel_field_changes_nothing() {
        // The channel threading must be invisible for the paper's setup:
        // MacConfig::paper carries ChannelModel::ideal, which consumes no
        // randomness, so results are unchanged from the pre-channel code
        // path (the golden determinism suite pins this workspace-wide).
        use contention_core::channel::ChannelModel;
        let a = run(AlgorithmKind::Beb, 64, 30, 2);
        let b = {
            let config = MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::ideal());
            let mut rng = trial_rng(experiment_tag("mac-test"), AlgorithmKind::Beb, 30, 2);
            MacSim::run(&config, 30, &mut rng)
        };
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn certain_capture_rescues_one_frame_per_collision() {
        use contention_core::channel::ChannelModel;
        let config = MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::softened(1.0));
        let mut rng = trial_rng(experiment_tag("mac-soft"), AlgorithmKind::Beb, 30, 0);
        let r = MacSim::run(&config, 30, &mut rng);
        let m = &r.metrics;
        assert_eq!(m.successes, 30);
        assert!(m.collisions > 0);
        assert!(m.attempts_balance());
        // Capture rescues stations out of collisions, so station-level
        // failures drop below the collision participant count.
        assert!(m.total_ack_timeouts() < m.colliding_stations);
    }

    #[test]
    fn softened_collisions_cut_total_time() {
        use contention_core::channel::ChannelModel;
        let med = |channel: ChannelModel| -> u64 {
            let mut xs: Vec<u64> = (0..7)
                .map(|t| {
                    let config = MacConfig::with_channel(AlgorithmKind::Beb, 64, channel);
                    let mut rng =
                        trial_rng(experiment_tag("mac-soft-time"), AlgorithmKind::Beb, 40, t);
                    MacSim::run(&config, 40, &mut rng)
                        .metrics
                        .total_time
                        .as_nanos()
                })
                .collect();
            xs.sort_unstable();
            xs[3]
        };
        let fatal = med(ChannelModel::ideal());
        let soft = med(ChannelModel::softened(0.9));
        assert!(soft < fatal, "softened {soft} should beat fatal {fatal}");
    }

    #[test]
    fn noise_is_sampled_before_capture() {
        // Same ordering as ChannelModel::sample_slot: full noise erases
        // every data frame before the capture draw can rescue it, even with
        // certain recovery.
        use contention_core::channel::{ChannelModel, Recovery};
        let mut config = MacConfig::with_channel(
            AlgorithmKind::Beb,
            64,
            ChannelModel {
                recovery: Recovery::Constant { p: 1.0 },
                noise: 1.0,
            },
        );
        config.max_sim_time = Nanos::from_millis(20);
        let mut rng = trial_rng(experiment_tag("mac-noise-first"), AlgorithmKind::Beb, 5, 0);
        let r = MacSim::run(&config, 5, &mut rng);
        assert_eq!(r.metrics.successes, 0);
    }

    #[test]
    fn channel_noise_erases_clean_frames() {
        use contention_core::channel::ChannelModel;
        let mut config = MacConfig::with_channel(AlgorithmKind::Beb, 64, ChannelModel::noisy(1.0));
        config.max_sim_time = Nanos::from_millis(20);
        let mut rng = trial_rng(experiment_tag("mac-noise"), AlgorithmKind::Beb, 1, 0);
        let r = MacSim::run(&config, 1, &mut rng);
        // Full noise: the lone station's clean frames are all erased — pure
        // ACK timeouts, zero collisions, no completion.
        assert_eq!(r.metrics.successes, 0);
        assert_eq!(r.metrics.collisions, 0);
        assert!(r.metrics.stations[0].ack_timeouts > 3);
    }

    #[test]
    fn ack_loss_injection_forces_retries() {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
        config.ack_loss_prob = 1.0;
        config.max_sim_time = Nanos::from_millis(20);
        let mut rng = trial_rng(experiment_tag("mac-loss"), AlgorithmKind::Beb, 1, 0);
        let r = MacSim::run(&config, 1, &mut rng);
        // Every ACK lost: the lone station can never finish, and each
        // "failure" is an ACK timeout with zero collisions.
        assert_eq!(r.metrics.successes, 0);
        assert_eq!(r.metrics.collisions, 0);
        assert!(r.metrics.stations[0].ack_timeouts > 3);
    }

    #[test]
    fn zero_stations() {
        let r = run(AlgorithmKind::Beb, 64, 0, 0);
        assert_eq!(r.metrics.successes, 0);
        assert_eq!(r.metrics.total_time, Nanos::ZERO);
    }

    #[test]
    fn valve_truncates_runaway_runs() {
        let mut config = MacConfig::paper(AlgorithmKind::Beb, 64);
        config.max_sim_time = Nanos::from_micros(50); // shorter than DIFS + data
        let mut rng = trial_rng(experiment_tag("mac-valve"), AlgorithmKind::Beb, 10, 0);
        let r = MacSim::run(&config, 10, &mut rng);
        assert!(r.metrics.successes < 10);
    }
}
