//! # contention-slotted
//!
//! The abstract-model simulator: exactly the assumptions A0–A2 of §I-A and
//! nothing else.
//!
//! * **A0** — time is discrete slots, each able to hold one packet.
//! * **A1** — a slot with exactly one transmission succeeds; two or more
//!   collide and all fail.
//! * **A2** — every sender learns the outcome within the slot.
//!
//! This is the model in which the Table II guarantees are proved and is the
//! role the authors' "simple Java simulation" plays (Figures 5, 15, 16). Two
//! execution semantics are provided:
//!
//! * [`windowed::WindowedSim`] — the theory's semantics (Figure 2): globally
//!   aligned windows; a station picks one uniform slot per window and, on
//!   failure, waits out the window before the next (larger) one. Its sweeps
//!   run a count-only loop that tracks occupancy, not stations, and yield a
//!   `TrialSummary`; its inherent `run` gives per-station detail.
//! * [`residual::ResidualSim`] — 802.11-style residual timers in the same
//!   collision model: after each failure a station draws a fresh timer from
//!   its (grown) window and transmits when the countdown hits zero, with no
//!   alignment. This is the ablation separating *window semantics* from
//!   *collision cost* when comparing against the MAC simulator.
//! * [`noisy::NoisySim`] — windowed semantics with assumption A1 replaced by
//!   a [`contention_core::channel::ChannelModel`]: collisions of `k` senders
//!   are recovered with probability `p_recover(k)` and slots can be erased
//!   by noise (arXiv:2408.11275). With the ideal channel it is
//!   `WindowedSim`'s per-station loop, and its summary equals the
//!   count-only loop's bit for bit.
//!
//! Per-station output is [`contention_core::metrics::BatchMetrics`];
//! `total_time` is defined as `cw_slots × slot` — the total time the
//! abstract model *thinks* an execution takes, which is exactly the quantity
//! the paper shows to be misleading.

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod noisy;
pub mod residual;
pub mod windowed;

pub use dynamic::{
    ArrivalProcess, DynAxis, DynamicConfig, DynamicMetrics, DynamicScratch, DynamicSim,
};
pub use noisy::{NoisyConfig, NoisySim};
pub use residual::ResidualSim;
pub use windowed::WindowedSim;
