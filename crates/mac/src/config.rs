//! Configuration of one MAC-level experiment.

use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::ChannelModel;
use contention_core::estimate::BestOfKSpec;
use contention_core::params::Phy80211g;
use contention_core::schedule::Truncation;
use contention_core::time::Nanos;

/// Everything the simulator needs besides `n` and a RNG.
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// PHY/MAC constants (Table I).
    pub phy: Phy80211g,
    /// UDP payload size; the paper's headline sizes are 64 B and 1024 B.
    pub payload_bytes: u32,
    /// Backoff algorithm every station runs.
    pub algorithm: AlgorithmKind,
    /// Enable the RTS/CTS exchange (§III-B); off in Table I.
    pub rts_cts: bool,
    /// Apply 802.11's EIFS rule: bystanders of a busy period that ended with
    /// an undecodable (corrupted) frame defer EIFS = SIFS + ACK + DIFS
    /// instead of DIFS. NS3 implements this; it raises the per-collision
    /// cost charged to *every* waiting station.
    pub use_eifs: bool,
    /// Probability an otherwise-clean data frame loses its ACK to "wireless
    /// effects" (failure injection; 0 in the paper's ideal setup).
    pub ack_loss_prob: f64,
    /// The channel model applied to data frames (arXiv:2408.11275
    /// softening). A clean data frame occupies its own airtime and takes
    /// one noise draw, like a singleton slot. A collision is resolved once
    /// per busy period with `ChannelModel::sample_slot`'s three-draw shape:
    /// noise, recovery at multiplicity `k`, uniform winner among the
    /// colliding data frames. [`ChannelModel::ideal`] (the default)
    /// reproduces the paper's channel exactly, consuming no randomness.
    /// Continuous-time caveats (where the MAC necessarily deviates from the
    /// slotted abstraction): `k` is the frame-overlap count of the first
    /// corrupted data frame to end, so a chained busy period mixing
    /// multiplicities resolves at the first frame's `k`; a winner index
    /// landing on a non-data overlapper (RTS/probe) wastes the capture; and
    /// RTS frames are not softened — a corrupted RTS stays lost.
    pub channel: ChannelModel,
    /// Safety valve: abort the trial at this simulated instant. Runs that
    /// trip it return `successes < n`.
    pub max_sim_time: Nanos,
    /// Record a [`crate::trace::Trace`] of every span (Figure 13).
    pub capture_trace: bool,
}

impl MacConfig {
    /// The paper's setup for a given algorithm and payload size.
    pub fn paper(algorithm: AlgorithmKind, payload_bytes: u32) -> MacConfig {
        MacConfig {
            phy: Phy80211g::paper_defaults(),
            payload_bytes,
            algorithm,
            rts_cts: false,
            use_eifs: true,
            ack_loss_prob: 0.0,
            channel: ChannelModel::ideal(),
            max_sim_time: Nanos::from_millis(60_000),
            capture_trace: false,
        }
    }

    /// The paper's setup over a softened/noisy channel.
    pub fn with_channel(
        algorithm: AlgorithmKind,
        payload_bytes: u32,
        channel: ChannelModel,
    ) -> MacConfig {
        MacConfig {
            channel,
            ..MacConfig::paper(algorithm, payload_bytes)
        }
    }

    /// CW clamping derived from the PHY parameters.
    pub fn truncation(&self) -> Truncation {
        Truncation {
            cw_min: self.phy.cw_min,
            cw_max: self.phy.cw_max,
        }
    }

    /// The estimation spec when the algorithm is BEST-OF-k.
    pub fn best_of_k(&self) -> Option<BestOfKSpec> {
        match self.algorithm {
            AlgorithmKind::BestOfK { k } => Some(BestOfKSpec::paper(k)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_defaults() {
        let c = MacConfig::paper(AlgorithmKind::Beb, 64);
        assert_eq!(c.payload_bytes, 64);
        assert!(!c.rts_cts);
        assert_eq!(c.ack_loss_prob, 0.0);
        assert!(c.channel.is_ideal());
        assert_eq!(c.truncation(), Truncation::paper());
        assert!(c.best_of_k().is_none());
    }

    #[test]
    fn with_channel_overrides_only_the_channel() {
        let soft = ChannelModel::softened(0.5);
        let c = MacConfig::with_channel(AlgorithmKind::Beb, 64, soft);
        assert_eq!(c.channel, soft);
        assert_eq!(c.payload_bytes, 64);
        assert!(!c.channel.is_ideal());
    }

    #[test]
    fn best_of_k_spec_surfaces() {
        let c = MacConfig::paper(AlgorithmKind::BestOfK { k: 5 }, 64);
        let spec = c.best_of_k().expect("spec");
        assert_eq!(spec.k, 5);
        assert_eq!(spec.round, Nanos::from_micros(35));
    }
}
