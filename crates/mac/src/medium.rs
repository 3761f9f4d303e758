//! The shared wireless medium.
//!
//! Ideal single-cell channel: every station (and the AP) hears every
//! transmission instantly. The medium tracks the set of frames currently on
//! air; a frame is *corrupted* iff another frame overlaps it at any point.
//! A maximal interval during which the medium is continuously busy is a
//! *busy period*; a busy period containing two or more corrupted contending
//! frames (data or RTS from stations) is one **disjoint collision** in the
//! paper's sense (§III-B), with multiplicity equal to the number of stations
//! involved.

use contention_core::time::Nanos;

/// Who is transmitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxSource {
    Station(u32),
    AccessPoint,
}

/// What kind of frame is on air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// A data packet (contends for the channel).
    Data,
    /// An RTS frame (contends for the channel in RTS/CTS mode).
    Rts,
    /// A CTS response from the AP.
    Cts,
    /// An acknowledgement from the AP.
    Ack,
    /// A BEST-OF-k dummy probe (no ACK expected, sent without sensing).
    Probe,
}

impl TxKind {
    /// Frames whose corruption constitutes a *collision between stations*.
    pub fn contends(self) -> bool {
        matches!(self, TxKind::Data | TxKind::Rts)
    }
}

/// A frame currently on air.
#[derive(Debug, Clone, Copy)]
pub struct ActiveTx {
    pub id: u32,
    pub source: TxSource,
    pub kind: TxKind,
    /// Station this frame is addressed to (ACK/CTS), if any.
    pub for_station: Option<u32>,
    /// The addressee's attempt generation when this response frame was
    /// scheduled. An ACK/CTS arriving after its station already timed out
    /// and moved on (possible when the ACK timeout is configured shorter
    /// than SIFS + ACK airtime) is detected as stale by comparing this tag.
    pub tag: u32,
    pub start: Nanos,
    pub end: Nanos,
    pub corrupted: bool,
    /// Number of other frames that temporally overlapped this one at any
    /// point — `overlaps + 1` is the collision multiplicity `k` a softened
    /// [`contention_core::channel::ChannelModel`] prices recovery by.
    pub overlaps: u32,
}

/// Outcome summary of a finished busy period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodEnd {
    /// Stations whose contending frame was corrupted this period.
    pub corrupted_contenders: u32,
    /// All frames seen this period (diagnostics).
    pub frames: u32,
    /// Frames of any kind that ended corrupted — bystanders of such a period
    /// could not decode what they heard and must defer for EIFS rather than
    /// DIFS (802.11).
    pub corrupted_frames: u32,
}

/// The medium state machine.
///
/// Busy-period aggregates are maintained *incrementally* — counters bumped
/// as each frame starts and ends — so closing a period is O(1): no list of
/// contenders is kept and nothing is rescanned. The only per-frame list is
/// `active` (frames currently on air), which a single-cell MAC keeps tiny
/// (one busy period's worth of overlapping frames).
pub struct Medium {
    active: Vec<ActiveTx>,
    idle_since: Nanos,
    /// Contending station frames that ended corrupted this busy period.
    period_corrupted_contenders: u32,
    period_frames: u32,
    period_corrupted_frames: u32,
}

impl Medium {
    pub fn new() -> Medium {
        Medium {
            active: Vec::new(),
            idle_since: Nanos::ZERO,
            period_corrupted_contenders: 0,
            period_frames: 0,
            period_corrupted_frames: 0,
        }
    }

    /// Clears all state for a fresh trial, keeping the `active` allocation.
    pub fn reset(&mut self) {
        self.active.clear();
        self.idle_since = Nanos::ZERO;
        self.period_corrupted_contenders = 0;
        self.period_frames = 0;
        self.period_corrupted_frames = 0;
    }

    pub fn is_busy(&self) -> bool {
        !self.active.is_empty()
    }

    /// Start of the current idle interval. Only meaningful when idle.
    pub fn idle_since(&self) -> Nanos {
        debug_assert!(!self.is_busy(), "idle_since queried while busy");
        self.idle_since
    }

    /// Puts a frame on air. Returns `true` when this started a busy period
    /// (the medium was idle). Any overlap corrupts both parties.
    pub fn start_tx(&mut self, tx: ActiveTx) -> bool {
        let was_idle = self.active.is_empty();
        if !was_idle {
            for other in &mut self.active {
                other.corrupted = true;
                other.overlaps += 1;
            }
        }
        let mut tx = tx;
        tx.corrupted = !was_idle;
        tx.overlaps = self.active.len() as u32;
        self.period_frames += 1;
        self.active.push(tx);
        was_idle
    }

    /// Removes a finished frame. Returns it plus, when the medium just went
    /// idle, the busy-period summary.
    pub fn end_tx(&mut self, id: u32, now: Nanos) -> (ActiveTx, Option<PeriodEnd>) {
        let idx = self
            .active
            .iter()
            .position(|t| t.id == id)
            .expect("ending a frame that is not on air");
        let tx = self.active.swap_remove(idx);
        debug_assert_eq!(tx.end, now, "frame ended at the wrong time");
        if tx.corrupted {
            if tx.kind.contends() && matches!(tx.source, TxSource::Station(_)) {
                self.period_corrupted_contenders += 1;
            }
            self.period_corrupted_frames += 1;
        }
        if self.active.is_empty() {
            self.idle_since = now;
            let summary = PeriodEnd {
                corrupted_contenders: self.period_corrupted_contenders,
                frames: self.period_frames,
                corrupted_frames: self.period_corrupted_frames,
            };
            self.period_corrupted_contenders = 0;
            self.period_frames = 0;
            self.period_corrupted_frames = 0;
            (tx, Some(summary))
        } else {
            (tx, None)
        }
    }
}

impl Default for Medium {
    fn default() -> Self {
        Medium::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(id: u32, station: u32, kind: TxKind, start: u64, end: u64) -> ActiveTx {
        ActiveTx {
            id,
            source: TxSource::Station(station),
            kind,
            for_station: None,
            tag: 0,
            start: Nanos::from_micros(start),
            end: Nanos::from_micros(end),
            corrupted: false,
            overlaps: 0,
        }
    }

    #[test]
    fn lone_frame_is_clean() {
        let mut m = Medium::new();
        assert!(m.start_tx(tx(1, 0, TxKind::Data, 0, 10)));
        assert!(m.is_busy());
        let (t, period) = m.end_tx(1, Nanos::from_micros(10));
        assert!(!t.corrupted);
        let p = period.expect("period ended");
        assert_eq!(p.corrupted_contenders, 0);
        assert_eq!(p.frames, 1);
        assert!(!m.is_busy());
        assert_eq!(m.idle_since(), Nanos::from_micros(10));
    }

    #[test]
    fn simultaneous_frames_corrupt_each_other() {
        let mut m = Medium::new();
        assert!(m.start_tx(tx(1, 0, TxKind::Data, 0, 10)));
        assert!(!m.start_tx(tx(2, 1, TxKind::Data, 0, 10)));
        let (t1, p1) = m.end_tx(1, Nanos::from_micros(10));
        assert!(t1.corrupted);
        assert!(p1.is_none(), "medium still busy");
        let (t2, p2) = m.end_tx(2, Nanos::from_micros(10));
        assert!(t2.corrupted);
        let p = p2.expect("period ended");
        assert_eq!(p.corrupted_contenders, 2);
    }

    #[test]
    fn partial_overlap_also_corrupts() {
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, TxKind::Data, 0, 10));
        m.start_tx(tx(2, 1, TxKind::Data, 5, 15));
        let (t1, _) = m.end_tx(1, Nanos::from_micros(10));
        assert!(t1.corrupted);
        let (t2, p) = m.end_tx(2, Nanos::from_micros(15));
        assert!(t2.corrupted);
        assert_eq!(p.unwrap().corrupted_contenders, 2);
    }

    #[test]
    fn probe_corrupting_data_counts_one_contender() {
        // A BEST-OF-k probe landing on a data frame corrupts it, but only
        // one *contender* is involved — not a station-vs-station collision.
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, TxKind::Data, 0, 10));
        m.start_tx(tx(2, 1, TxKind::Probe, 3, 8));
        m.end_tx(2, Nanos::from_micros(8));
        let (t, p) = m.end_tx(1, Nanos::from_micros(10));
        assert!(t.corrupted);
        let p = p.unwrap();
        assert_eq!(p.corrupted_contenders, 1);
        assert_eq!(p.frames, 2);
    }

    #[test]
    fn ack_frames_do_not_contend() {
        let mut m = Medium::new();
        m.start_tx(ActiveTx {
            id: 1,
            source: TxSource::AccessPoint,
            kind: TxKind::Ack,
            for_station: Some(3),
            tag: 0,
            start: Nanos::ZERO,
            end: Nanos::from_micros(5),
            corrupted: false,
            overlaps: 0,
        });
        let (_, p) = m.end_tx(1, Nanos::from_micros(5));
        assert_eq!(p.unwrap().corrupted_contenders, 0);
    }

    #[test]
    fn three_way_collision_multiplicity() {
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, TxKind::Data, 0, 10));
        m.start_tx(tx(2, 1, TxKind::Data, 0, 10));
        m.start_tx(tx(3, 2, TxKind::Data, 0, 10));
        let (t1, _) = m.end_tx(1, Nanos::from_micros(10));
        let (t2, _) = m.end_tx(2, Nanos::from_micros(10));
        let (t3, p) = m.end_tx(3, Nanos::from_micros(10));
        assert_eq!(p.unwrap().corrupted_contenders, 3);
        // Every frame overlapped the other two: multiplicity k = 3 for all.
        for t in [t1, t2, t3] {
            assert_eq!(t.overlaps, 2);
        }
    }

    #[test]
    fn overlap_counts_follow_the_chain_not_the_instant() {
        // Three frames in a chain: 1 overlaps 2, 2 overlaps both, 3 only 2.
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, TxKind::Data, 0, 10));
        m.start_tx(tx(2, 1, TxKind::Data, 8, 20));
        let (t1, _) = m.end_tx(1, Nanos::from_micros(10));
        m.start_tx(tx(3, 2, TxKind::Data, 12, 25));
        let (t2, _) = m.end_tx(2, Nanos::from_micros(20));
        let (t3, _) = m.end_tx(3, Nanos::from_micros(25));
        assert_eq!(t1.overlaps, 1);
        assert_eq!(t2.overlaps, 2);
        assert_eq!(t3.overlaps, 1);
    }

    #[test]
    fn consecutive_periods_are_independent() {
        let mut m = Medium::new();
        m.start_tx(tx(1, 0, TxKind::Data, 0, 10));
        m.start_tx(tx(2, 1, TxKind::Data, 0, 10));
        m.end_tx(1, Nanos::from_micros(10));
        m.end_tx(2, Nanos::from_micros(10));
        // Second period: clean success must not inherit state.
        m.start_tx(tx(3, 2, TxKind::Data, 50, 60));
        let (t, p) = m.end_tx(3, Nanos::from_micros(60));
        assert!(!t.corrupted);
        assert_eq!(p.unwrap().corrupted_contenders, 0);
    }

    #[test]
    #[should_panic(expected = "not on air")]
    fn ending_unknown_frame_panics() {
        let mut m = Medium::new();
        m.end_tx(99, Nanos::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any set of same-length station frames started together,
        /// corruption is all-or-nothing: one frame is clean, two or more
        /// corrupt everybody, and the period multiplicity equals the count.
        #[test]
        fn collision_multiplicity_matches_group(k in 1u32..=12) {
            let mut m = Medium::new();
            for id in 0..k {
                m.start_tx(ActiveTx {
                    id,
                    source: TxSource::Station(id),
                    kind: TxKind::Data,
                    for_station: None,
                    tag: 0,
                    start: Nanos::ZERO,
                    end: Nanos::from_micros(10),
                    corrupted: false,
                    overlaps: 0,
                });
            }
            let mut last_period = None;
            for id in 0..k {
                let (tx, period) = m.end_tx(id, Nanos::from_micros(10));
                prop_assert_eq!(tx.corrupted, k >= 2);
                if id + 1 == k {
                    last_period = period;
                } else {
                    prop_assert!(period.is_none());
                }
            }
            let p = last_period.expect("period closed with the last frame");
            prop_assert_eq!(p.frames, k);
            prop_assert_eq!(p.corrupted_contenders, if k >= 2 { k } else { 0 });
        }

        /// Sequential (non-overlapping) frames never corrupt, regardless of
        /// gaps, and each forms its own busy period.
        #[test]
        fn sequential_frames_stay_clean(
            gaps in prop::collection::vec(0u64..50, 1..20),
        ) {
            let mut m = Medium::new();
            let mut t = 0u64;
            for (i, &gap) in gaps.iter().enumerate() {
                let start = Nanos::from_micros(t);
                let end = Nanos::from_micros(t + 10);
                let became_busy = m.start_tx(ActiveTx {
                    id: i as u32,
                    source: TxSource::Station(i as u32),
                    kind: TxKind::Data,
                    for_station: None,
                    tag: 0,
                    start,
                    end,
                    corrupted: false,
                    overlaps: 0,
                });
                prop_assert!(became_busy);
                let (tx, period) = m.end_tx(i as u32, end);
                prop_assert!(!tx.corrupted);
                prop_assert_eq!(period.expect("idle again").corrupted_contenders, 0);
                t += 10 + gap;
            }
        }
    }
}
