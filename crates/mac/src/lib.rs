//! # contention-mac
//!
//! A from-scratch, event-driven IEEE 802.11g DCF simulator — the substrate
//! that plays the role NS3 plays in the paper. It models everything the
//! paper's §I-B overview describes:
//!
//! * **DIFS sensing** before backoff begins or resumes; **SIFS** before ACKs.
//! * **Backoff countdown** over 9 µs slots that *freezes* while the medium is
//!   busy and resumes (not restarts) after a DIFS of idle.
//! * **Transmission time** proportional to packet size at 54 Mbit/s, plus a
//!   20 µs preamble — collisions burn real channel time.
//! * **ACKs and ACK timeouts**: success is only learned via an ACK after
//!   SIFS; a collision is only diagnosed after a 75 µs ACK timeout — the
//!   "collision detection" cost at the heart of the paper.
//! * **Contention-window growth** pluggable per algorithm
//!   (BEB / LB / LLB / STB / fixed; `contention-core` schedules).
//! * **RTS/CTS** (optional) with collisions on the small RTS frames instead
//!   of the data frames (§III-B "RTS/CTS").
//! * **BEST-OF-k** (§VI): 35 µs probe rounds with dummy 28 B frames and
//!   channel sensing, then fixed backoff at each station's estimate.
//! * **Failure injection**: an ACK-loss probability exercising the paper's
//!   "ACK timeout ≈ collision" identification.
//!
//! Simplifications relative to NS3, and why they preserve behaviour: the
//! channel is ideal (zero propagation delay over the 40 m grid, perfect
//! carrier sensing, no capture effect), so a transmission fails **iff** it
//! temporally overlaps another — which is the regime the paper demonstrates
//! it operates in (Figure 13: "virtually all ACK failures result from a
//! collision").
//!
//! Entry point: [`MacSim`]'s
//! [`Simulator::run`](contention_sim::engine::Simulator::run) with a
//! [`MacConfig`].

#![forbid(unsafe_code)]

pub mod config;
pub mod estimation;
pub mod medium;
pub mod simulator;
pub mod trace;

pub use config::MacConfig;
pub use simulator::{MacRun, MacScratch, MacSim};
pub use trace::{Span, SpanKind, Trace};
