//! # contention-core
//!
//! The primary contribution of *"Is Our Model for Contention Resolution
//! Wrong? Confronting the Cost of Collisions"* (Anderton & Young, SPAA 2017),
//! as a library:
//!
//! * [`schedule`] — the contention-window growth schedules under study,
//!   binary exponential backoff, LOG-BACKOFF, LOGLOG-BACKOFF and
//!   SAWTOOTH-BACKOFF, plus fixed backoff and a polynomial ablation: one
//!   stage-indexed [`schedule::Backoff`] table per algorithm and
//!   [`schedule::Truncation`], through which every simulator draws its
//!   backoffs.
//! * [`model`] — the paper's collision-cost model
//!   `T_A = C_A · (P + ρ) + W_A · s` (§III-B) and the total-time
//!   decomposition used in the back-of-the-envelope argument.
//! * [`bounds`] — closed-form asymptotic guarantees from Tables II and III.
//! * [`params`] — the IEEE 802.11g parameter set of Table I.
//! * [`estimate`] — the BEST-OF-k size-estimation specification (§VI).
//! * [`channel`] — channel models: the paper's fatal-collision channel and
//!   the softened-collision / noisy channel of arXiv:2408.11275
//!   (`p_recover(k)` + per-slot erasures), sampled identically by every
//!   simulator.
//! * [`metrics`] — metric types shared by both simulators (CW slots, total
//!   time, disjoint collisions, per-station ACK-timeout accounting).
//! * [`time`] — nanosecond-resolution simulated time.
//! * [`rng`] — deterministic per-trial random-number-generator derivation.
//!
//! The two simulators that consume these types live in sibling crates:
//! `contention-slotted` (the abstract model, assumptions A0–A2 only) and
//! `contention-mac` (a from-scratch event-driven 802.11g DCF simulator that
//! plays the role NS3 plays in the paper).

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod bounds;
pub mod channel;
pub mod estimate;
pub mod metrics;
pub mod model;
pub mod params;
pub mod rng;
pub mod schedule;
pub mod time;
pub mod util;

pub use algorithm::AlgorithmKind;
pub use channel::{ChannelModel, Recovery, SlotFate};
pub use estimate::BestOfKSpec;
pub use metrics::{BatchMetrics, StationMetrics};
pub use model::{CostModel, Decomposition};
pub use params::Phy80211g;
pub use schedule::{Backoff, Truncation};
pub use time::Nanos;
