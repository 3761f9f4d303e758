//! The IEEE 802.11g parameter set (Table I of the paper) and frame timing.

use crate::time::Nanos;

/// All PHY/MAC constants the experiments depend on.
///
/// Defaults ([`Phy80211g::paper_defaults`]) reproduce Table I:
///
/// | Parameter | Value |
/// |---|---|
/// | Data rate | 54 Mbit/s |
/// | Slot | 9 µs |
/// | SIFS | 16 µs |
/// | DIFS | 34 µs |
/// | ACK timeout | 75 µs |
/// | Preamble | 20 µs |
/// | Packet overhead | 64 B |
/// | CWmin / CWmax | 1 / 1024 |
/// | RTS/CTS | off |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phy80211g {
    /// Payload+header bit rate, bits per second.
    pub data_rate_bps: u64,
    /// Backoff slot duration.
    pub slot: Nanos,
    /// Short inter-frame space (before an ACK / CTS).
    pub sifs: Nanos,
    /// Distributed inter-frame space (idle sensing before backoff resumes).
    pub difs: Nanos,
    /// How long a sender waits for an ACK, measured from the end of its own
    /// transmission, before diagnosing a collision. NS3's default (75 µs) per
    /// the paper's §II; the standard's formula gives ≈45 µs but values below
    /// ≈55 µs truncate the ACK and perform "markedly poorly".
    pub ack_timeout: Nanos,
    /// PLCP preamble + header time prepended to every frame.
    pub preamble: Nanos,
    /// Upper-layer overhead added to every data payload:
    /// 8 B UDP + 20 B IP + 8 B LLC/SNAP + 28 B MAC = 64 B (§II).
    pub header_overhead_bytes: u32,
    /// ACK frame body (14 B control frame).
    pub ack_bytes: u32,
    /// RTS frame body (20 B, §III-B "RTS/CTS").
    pub rts_bytes: u32,
    /// CTS frame body (14 B).
    pub cts_bytes: u32,
    /// Smallest contention window.
    pub cw_min: u32,
    /// Largest contention window (802.11g truncation).
    pub cw_max: u32,
}

impl Phy80211g {
    /// Table I values.
    pub fn paper_defaults() -> Phy80211g {
        Phy80211g {
            data_rate_bps: 54_000_000,
            slot: Nanos::from_micros(9),
            sifs: Nanos::from_micros(16),
            difs: Nanos::from_micros(34),
            ack_timeout: Nanos::from_micros(75),
            preamble: Nanos::from_micros(20),
            header_overhead_bytes: 64,
            ack_bytes: 14,
            rts_bytes: 20,
            cts_bytes: 14,
            cw_min: 1,
            cw_max: 1024,
        }
    }

    /// Airtime of `bytes` at the data rate, **excluding** the preamble.
    pub fn bytes_airtime(&self, bytes: u32) -> Nanos {
        let bits = bytes as u128 * 8;
        Nanos((bits * 1_000_000_000 / self.data_rate_bps as u128) as u64)
    }

    /// Full on-air duration of a frame with `bytes` of content:
    /// preamble + serialization time.
    pub fn frame_time(&self, bytes: u32) -> Nanos {
        self.preamble + self.bytes_airtime(bytes)
    }

    /// On-air duration of a data packet with the given UDP payload, including
    /// the 64 B header overhead and the preamble.
    ///
    /// §III-B's example: a 64 B payload becomes a 128 B packet taking
    /// "roughly 19 µs plus the associated 20 µs preamble".
    pub fn data_frame_time(&self, payload_bytes: u32) -> Nanos {
        self.frame_time(payload_bytes + self.header_overhead_bytes)
    }

    /// On-air duration of an ACK frame.
    pub fn ack_time(&self) -> Nanos {
        self.frame_time(self.ack_bytes)
    }

    /// On-air duration of an RTS frame.
    pub fn rts_time(&self) -> Nanos {
        self.frame_time(self.rts_bytes)
    }

    /// On-air duration of a CTS frame.
    pub fn cts_time(&self) -> Nanos {
        self.frame_time(self.cts_bytes)
    }

    /// Extended inter-frame space: what a station must wait after sensing a
    /// frame it could not decode (e.g. collision garbage) before it may treat
    /// the medium as contendable again. 802.11 defines
    /// `EIFS = SIFS + ACK transmission time + DIFS`.
    pub fn eifs(&self) -> Nanos {
        self.sifs + self.ack_time() + self.difs
    }

    /// Time consumed by one *successful* data exchange once the medium is
    /// seized: DATA + SIFS + ACK (no RTS/CTS).
    pub fn success_exchange_time(&self, payload_bytes: u32) -> Nanos {
        self.data_frame_time(payload_bytes) + self.sifs + self.ack_time()
    }

    /// Time consumed by one *collided* data attempt once the medium is
    /// seized: DATA + ACK-timeout wait.
    pub fn collision_exchange_time(&self, payload_bytes: u32) -> Nanos {
        self.data_frame_time(payload_bytes) + self.ack_timeout
    }
}

impl Default for Phy80211g {
    fn default() -> Self {
        Phy80211g::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_values() {
        let p = Phy80211g::paper_defaults();
        assert_eq!(p.data_rate_bps, 54_000_000);
        assert_eq!(p.slot, Nanos::from_micros(9));
        assert_eq!(p.sifs, Nanos::from_micros(16));
        assert_eq!(p.difs, Nanos::from_micros(34));
        assert_eq!(p.ack_timeout, Nanos::from_micros(75));
        assert_eq!(p.preamble, Nanos::from_micros(20));
        assert_eq!(p.header_overhead_bytes, 64);
        assert_eq!((p.cw_min, p.cw_max), (1, 1024));
    }

    #[test]
    fn paper_small_packet_airtime() {
        // §III-B: 128 B (64 B payload + 64 B overhead) ≈ 19 µs + 20 µs preamble.
        let p = Phy80211g::paper_defaults();
        let air = p.bytes_airtime(128);
        assert!((air.as_micros_f64() - 18.963).abs() < 0.01, "{air}");
        let full = p.data_frame_time(64);
        assert!((full.as_micros_f64() - 38.963).abs() < 0.01, "{full}");
    }

    #[test]
    fn paper_large_packet_airtime() {
        // §III-B: 1024 B payload → 1088 B ≈ 161 µs (+ 20 µs preamble).
        let p = Phy80211g::paper_defaults();
        let air = p.bytes_airtime(1024 + 64);
        assert!((air.as_micros_f64() - 161.2).abs() < 0.1, "{air}");
    }

    #[test]
    fn ack_fits_inside_ack_timeout() {
        // The §V-B discussion: the ACK must arrive before the timeout fires,
        // i.e. SIFS + ACK airtime < ACK-timeout.
        let p = Phy80211g::paper_defaults();
        assert!(p.sifs + p.ack_time() < p.ack_timeout);
    }

    #[test]
    fn exchange_times_are_consistent() {
        let p = Phy80211g::paper_defaults();
        let s = p.success_exchange_time(64);
        let c = p.collision_exchange_time(64);
        assert_eq!(s, p.data_frame_time(64) + p.sifs + p.ack_time());
        assert_eq!(c, p.data_frame_time(64) + p.ack_timeout);
        // A collision wastes more channel time than a success spends on
        // ACKing — the heart of the paper's argument.
        assert!(c > p.data_frame_time(64) + p.sifs + p.ack_time() - p.preamble);
    }

    #[test]
    fn rts_smaller_than_data() {
        let p = Phy80211g::paper_defaults();
        assert!(p.rts_time() < p.data_frame_time(64));
    }

    #[test]
    fn eifs_is_sifs_ack_difs() {
        let p = Phy80211g::paper_defaults();
        assert_eq!(p.eifs(), p.sifs + p.ack_time() + p.difs);
        assert!(p.eifs() > p.difs);
    }
}
