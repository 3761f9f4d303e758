//! The paper's collision-cost model (§III-B) and total-time decomposition.
//!
//! The central quantitative claim is that total time is approximated by
//!
//! ```text
//! T_A = C_A · (P + ρ) + W_A · s
//! ```
//!
//! where `C_A` is the number of *disjoint collisions*, `P` the packet
//! transmission time, `ρ` the preamble, `W_A` the number of contention-window
//! slots and `s` the slot duration. Abstracting `ρ` and `s` as constants
//! gives `T_A = Θ(C_A · P + W_A)` — total time is driven by collisions
//! (weighted by packet size) at least as much as by CW slots, which is the
//! quantity the newer algorithms optimize.
//!
//! ```
//! use contention_core::model::CostModel;
//! use contention_core::params::Phy80211g;
//!
//! let phy = Phy80211g::paper_defaults();
//! let model = CostModel::for_payload(&phy, 64);
//! // One disjoint collision costs about 4.3 contention-window slots...
//! assert!((model.collision_cost_in_slots() - 4.33).abs() < 0.05);
//! // ...so 100 collisions + 900 slots ≈ 12 ms of wasted channel time.
//! let t = model.total_time(100, 900);
//! assert!((t.as_micros_f64() - 11_996.0).abs() < 10.0);
//! ```

use crate::params::Phy80211g;
use crate::time::Nanos;

/// The `T_A = C_A · (P + ρ) + W_A · s` estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// `P`: serialization time of one data packet (headers included,
    /// preamble excluded).
    pub packet_time: Nanos,
    /// `ρ`: preamble duration.
    pub preamble: Nanos,
    /// `s`: slot duration.
    pub slot: Nanos,
}

impl CostModel {
    /// Model for a given payload under a PHY parameter set.
    pub fn for_payload(phy: &Phy80211g, payload_bytes: u32) -> CostModel {
        CostModel {
            packet_time: phy.bytes_airtime(payload_bytes + phy.header_overhead_bytes),
            preamble: phy.preamble,
            slot: phy.slot,
        }
    }

    /// Predicted total time for an algorithm that suffered `collisions`
    /// disjoint collisions and consumed `cw_slots` contention-window slots.
    pub fn total_time(&self, collisions: u64, cw_slots: u64) -> Nanos {
        (self.packet_time + self.preamble) * collisions + self.slot * cw_slots
    }

    /// The collision-to-slot cost ratio `(P + ρ)/s`: how many CW slots one
    /// disjoint collision is worth. For the paper's 64 B payload this is ≈4.3
    /// and for 1024 B ≈20 — the quantitative reason "backing off slowly is
    /// bad" (Result 4).
    pub fn collision_cost_in_slots(&self) -> f64 {
        (self.packet_time + self.preamble).as_nanos() as f64 / self.slot.as_nanos() as f64
    }
}

/// §III-B's three-way decomposition of where total time goes, used for the
/// back-of-the-envelope lower bound on BEB at `n = 150`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// (I) Transmission time attributable to collisions: disjoint collisions
    /// × (packet + preamble).
    pub transmission: Nanos,
    /// (II) Time stations spend waiting out ACK timeouts.
    pub ack_timeouts: Nanos,
    /// (III) Time spent in contention-window slots.
    pub cw_slots: Nanos,
}

impl Decomposition {
    /// Builds the decomposition from measured quantities.
    ///
    /// * `disjoint_collisions` — number of maximal overlapping-transmission
    ///   groups observed.
    /// * `max_ack_timeout_time` — ACK-timeout waiting time of the worst
    ///   station (what Figure 12 plots).
    /// * `cw_slots` — global contention-window slots consumed.
    pub fn from_measurements(
        phy: &Phy80211g,
        payload_bytes: u32,
        disjoint_collisions: u64,
        max_ack_timeout_time: Nanos,
        cw_slots: u64,
    ) -> Decomposition {
        Decomposition {
            transmission: phy.data_frame_time(payload_bytes) * disjoint_collisions,
            ack_timeouts: max_ack_timeout_time,
            cw_slots: phy.slot * cw_slots,
        }
    }

    /// The conservative lower bound on total time: the three components are
    /// (to first order) non-overlapping channel/station time, and the bound
    /// ignores SIFS/DIFS and all successful transmissions.
    pub fn lower_bound(&self) -> Nanos {
        self.transmission + self.ack_timeouts + self.cw_slots
    }

    /// The paper's worked example (§III-B): BEB at `n = 150`, 64 B payload.
    ///
    /// 75·(9/2) disjoint two-station collisions of (19 µs + 20 µs) each
    /// ≈ 13 163 µs of transmission; ≈1 100 µs of ACK timeouts; 886 CW slots
    /// × 9 µs = 7 974 µs; total ≥ 22 237 µs.
    pub fn paper_example_beb_n150() -> Decomposition {
        Decomposition {
            transmission: Nanos::from_micros(13_163),
            ack_timeouts: Nanos::from_micros(1_100),
            cw_slots: Nanos::from_micros(7_974),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_total_time_formula() {
        let m = CostModel {
            packet_time: Nanos::from_micros(19),
            preamble: Nanos::from_micros(20),
            slot: Nanos::from_micros(9),
        };
        // 10 collisions × 39 µs + 100 slots × 9 µs = 390 + 900 = 1290 µs.
        assert_eq!(m.total_time(10, 100), Nanos::from_micros(1_290));
    }

    #[test]
    fn collision_cost_in_slots_64b_vs_1024b() {
        let phy = Phy80211g::paper_defaults();
        let small = CostModel::for_payload(&phy, 64);
        let large = CostModel::for_payload(&phy, 1024);
        // 64 B: (18.96 + 20)/9 ≈ 4.33; 1024 B: (161.2 + 20)/9 ≈ 20.1.
        assert!((small.collision_cost_in_slots() - 4.33).abs() < 0.05);
        assert!((large.collision_cost_in_slots() - 20.13).abs() < 0.1);
        // Larger packets make collisions relatively more expensive — the
        // §III-A2 observation that bigger payloads favour BEB.
        assert!(large.collision_cost_in_slots() > small.collision_cost_in_slots());
    }

    #[test]
    fn paper_example_reproduces_lower_bound() {
        let d = Decomposition::paper_example_beb_n150();
        assert_eq!(d.lower_bound(), Nanos::from_micros(22_237));
    }

    #[test]
    fn paper_example_from_first_principles() {
        // Recompute §III-B's numbers from the PHY parameters rather than the
        // quoted constants: 337 disjoint collisions (75 pairs × 9/2) at
        // data_frame_time(64) ≈ 38.96 µs ≈ 13 149 µs (paper rounds P to 19 µs
        // giving 13 163 µs), plus 886 slots × 9 µs.
        let phy = Phy80211g::paper_defaults();
        let collisions = (150 / 2) * 9 / 2; // = 337
        let d =
            Decomposition::from_measurements(&phy, 64, collisions, Nanos::from_micros(1_100), 886);
        let lb = d.lower_bound().as_micros_f64();
        assert!((lb - 22_237.0).abs() < 120.0, "lower bound {lb} µs");
    }

    #[test]
    fn transmission_dominates_ack_timeouts() {
        // Result 3: the collision-detection impact is primarily transmission
        // time and CW slots, "with the former dominating" over ACK timeouts.
        let d = Decomposition::paper_example_beb_n150();
        assert!(d.transmission > d.ack_timeouts * 10);
        assert!(d.cw_slots > d.ack_timeouts);
    }
}
