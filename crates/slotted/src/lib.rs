//! # contention-slotted
//!
//! The abstract-model simulators: slotted time and nothing of 802.11's
//! timing. The paper's model is exactly the assumptions A0–A2 of §I-A:
//!
//! * **A0** — time is discrete slots, each able to hold one packet.
//! * **A1** — a slot with exactly one transmission succeeds; two or more
//!   collide and all fail.
//! * **A2** — every sender learns the outcome within the slot.
//!
//! This is the model in which the Table II guarantees are proved and is the
//! role the authors' "simple Java simulation" plays (Figures 5, 15, 16).
//! Three execution semantics are provided:
//!
//! * [`windowed::WindowedSim`] — the theory's semantics (Figure 2): globally
//!   aligned windows; a station picks one uniform slot per window and, on
//!   failure, waits out the window before the next (larger) one. Its
//!   [`windowed::WindowedConfig`] carries a
//!   [`contention_core::channel::ChannelModel`]: the ideal channel is A1,
//!   and a lossy one recovers collisions of `k` senders with probability
//!   `p_recover(k)` and erases slots by noise (arXiv:2408.11275). One
//!   count-only loop runs every channel and yields a `TrialSummary`.
//! * [`residual::ResidualSim`] — 802.11-style residual timers in the same
//!   collision model: after each failure a station draws a fresh timer from
//!   its (grown) window and transmits when the countdown hits zero, with no
//!   alignment. This is the ablation separating *window semantics* from
//!   *collision cost* when comparing against the MAC simulator.
//! * [`dynamic::DynamicSim`] — long-lived traffic instead of one batch
//!   (§VIII): packets arrive at Poisson instants, one at a time or in
//!   bursts, each backs off with residual timers, and a success or a
//!   collision occupies the channel for a configurable number of slots.
//!   Its output is latency and throughput, not batch completion.
//!
//! All three are unit structs behind
//! [`contention_sim::engine::Simulator`]: a lone trial is
//! `Simulator::run(&config, n, &mut rng)`, and each worker's scratch keeps
//! one [`contention_core::schedule::Backoff`] table per algorithm it meets,
//! through which every window, timer and slot is drawn.
//!
//! `ResidualSim`'s per-station output is
//! [`contention_core::metrics::BatchMetrics`]; in every batch simulator
//! `total_time` is `cw_slots` × Table I's 9 µs
//! [`contention_core::params::SLOT`] — the total time the abstract model
//! *thinks* an execution takes, which is exactly the quantity the paper
//! shows to be misleading.

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod residual;
pub mod windowed;

pub use dynamic::{
    ArrivalProcess, DynAxis, DynamicConfig, DynamicMetrics, DynamicScratch, DynamicSim,
};
pub use residual::ResidualSim;
pub use windowed::WindowedSim;
