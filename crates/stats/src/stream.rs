//! The streaming per-metric collector for the sweep engine's fold seam.
//!
//! The engine delivers each trial's result to its cell exactly once, but in
//! whatever order the workers finish. [`StreamingSample`] is immune to that
//! order by construction: a position-addressed flat `f64` buffer, where
//! trial `t` writes slot `t`, so the final buffer is in trial order
//! bit-for-bit regardless of scheduling. This is what feeds the paper's
//! outlier → median → CI pipeline, at 8 bytes per (trial, metric) instead
//! of a full per-trial summary.

/// A flat per-trial sample buffer addressed by trial index.
///
/// Unfilled slots hold NaN as a sentinel; [`StreamingSample::values`]
/// asserts completeness, which doubles as an exactly-once check on the
/// engine's delivery. The same sentinel is what makes partial buffers
/// mergeable across processes: a merge unions the filled slots of two
/// buffers and rejects any slot both sides filled, so the exactly-once
/// invariant extends across shard boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSample {
    values: Vec<f64>,
}

impl StreamingSample {
    /// A buffer awaiting `trials` recordings.
    pub fn new(trials: usize) -> StreamingSample {
        StreamingSample {
            values: vec![f64::NAN; trials],
        }
    }

    /// Records trial `trial`'s value. Values must be non-NaN (every metric
    /// is a count or a time) and each slot must be written exactly once.
    pub fn record(&mut self, trial: usize, value: f64) {
        assert!(!value.is_nan(), "metric values must not be NaN");
        let slot = &mut self.values[trial];
        assert!(slot.is_nan(), "trial {trial} recorded twice");
        *slot = value;
    }

    /// Number of slots (trials), filled or not.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True once every trial has been recorded.
    pub fn is_complete(&self) -> bool {
        !self.values.iter().any(|v| v.is_nan())
    }

    /// The complete sample in trial order; panics if any trial is missing.
    pub fn values(&self) -> &[f64] {
        assert!(
            self.is_complete(),
            "sample incomplete: {} of {} trials recorded",
            self.values.iter().filter(|v| !v.is_nan()).count(),
            self.values.len()
        );
        &self.values
    }

    /// Number of trials recorded so far.
    pub fn filled(&self) -> usize {
        self.values.iter().filter(|v| !v.is_nan()).count()
    }

    /// The raw buffer, NaN sentinels included — what a partial-state
    /// artifact serializes (NaN ↔ JSON `null`).
    pub fn raw(&self) -> &[f64] {
        &self.values
    }

    /// Rebuilds a (possibly partial) buffer from its raw image — the
    /// deserialization side of [`StreamingSample::raw`]. NaN slots are
    /// "not yet recorded".
    pub fn from_raw(values: Vec<f64>) -> StreamingSample {
        StreamingSample { values }
    }

    /// Fallible merge: unions the filled slots of `other` into `self`,
    /// erroring (instead of panicking) on a shape mismatch or a slot both
    /// operands filled — for merging untrusted on-disk shard state. Each
    /// slot is written by exactly one operand, and the write is a plain
    /// copy, so merges in any grouping and order give bit-identical state.
    pub fn try_merge(&mut self, other: StreamingSample) -> Result<(), String> {
        if self.values.len() != other.values.len() {
            return Err(format!(
                "cannot merge samples of {} and {} trials",
                self.values.len(),
                other.values.len()
            ));
        }
        for (trial, (slot, value)) in self.values.iter_mut().zip(&other.values).enumerate() {
            if value.is_nan() {
                continue;
            }
            if !slot.is_nan() {
                return Err(format!("trial {trial} recorded by more than one operand"));
            }
            *slot = *value;
        }
        Ok(())
    }

    /// Duplicate-tolerant merge for *at-least-once* delivery — the
    /// work-distribution seam, where an expired-and-reissued lease can
    /// arrive from two workers. Unions `other`'s filled slots into `self`;
    /// a slot both sides filled is discarded as a duplicate *iff* the two
    /// values are bit-identical (position-addressed RNG streams make honest
    /// re-execution reproduce the bits exactly), and is an error otherwise
    /// — a conflicting duplicate means the operands did not run the same
    /// code on the same trial coordinates.
    pub fn try_merge_dedup(&mut self, other: StreamingSample) -> Result<(), String> {
        if self.values.len() != other.values.len() {
            return Err(format!(
                "cannot merge samples of {} and {} trials",
                self.values.len(),
                other.values.len()
            ));
        }
        for (trial, (slot, value)) in self.values.iter_mut().zip(&other.values).enumerate() {
            if value.is_nan() {
                continue;
            }
            if slot.is_nan() {
                *slot = *value;
            } else if slot.to_bits() != value.to_bits() {
                return Err(format!(
                    "trial {trial} recorded conflicting values ({slot} vs {value}) — \
                     operands did not run identical code"
                ));
            }
        }
        Ok(())
    }

    /// Bytes this collector retains per trial: one `f64`.
    pub const BYTES_PER_TRIAL: usize = std::mem::size_of::<f64>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_is_order_independent() {
        let mut forward = StreamingSample::new(4);
        let mut backward = StreamingSample::new(4);
        for t in 0..4 {
            forward.record(t, t as f64 * 1.5);
        }
        for t in (0..4).rev() {
            backward.record(t, t as f64 * 1.5);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.values(), &[0.0, 1.5, 3.0, 4.5]);
    }

    #[test]
    fn completeness_is_tracked() {
        let mut s = StreamingSample::new(2);
        assert!(!s.is_complete());
        s.record(1, 7.0);
        assert!(!s.is_complete());
        s.record(0, 3.0);
        assert!(s.is_complete());
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn double_recording_panics() {
        let mut s = StreamingSample::new(2);
        s.record(0, 1.0);
        s.record(0, 2.0);
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn reading_an_incomplete_sample_panics() {
        let mut s = StreamingSample::new(2);
        s.record(0, 1.0);
        let _ = s.values();
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_values_are_rejected() {
        let mut s = StreamingSample::new(1);
        s.record(0, f64::NAN);
    }

    #[test]
    fn empty_sample_is_trivially_complete() {
        let s = StreamingSample::new(0);
        assert!(s.is_empty());
        assert!(s.is_complete());
        assert!(s.values().is_empty());
    }

    #[test]
    fn dedup_merge_discards_identical_duplicates_and_rejects_conflicts() {
        // Overlapping fills with bit-identical values: the overlap is
        // discarded, the rest folds in.
        let mut a = StreamingSample::new(4);
        a.record(0, 1.0);
        a.record(1, 2.0);
        let mut b = StreamingSample::new(4);
        b.record(1, 2.0);
        b.record(2, 3.0);
        a.try_merge_dedup(b).unwrap();
        assert_eq!(a.raw()[..3], [1.0, 2.0, 3.0]);
        assert_eq!(a.filled(), 3);
        // A conflicting duplicate is an error naming the trial.
        let mut c = StreamingSample::new(4);
        c.record(1, 9.0);
        let err = a.try_merge_dedup(c).unwrap_err();
        assert!(err.contains("trial 1"), "{err}");
        assert!(err.contains("conflicting"), "{err}");
        // Shape mismatches still error like the strict merge.
        assert!(a
            .try_merge_dedup(StreamingSample::new(3))
            .unwrap_err()
            .contains("cannot merge"));
    }

    #[test]
    fn sample_merge_unions_disjoint_fills() {
        let mut evens = StreamingSample::new(4);
        let mut odds = StreamingSample::new(4);
        evens.record(0, 1.0);
        evens.record(2, 3.0);
        odds.record(1, 2.0);
        odds.record(3, 4.0);
        assert_eq!(evens.filled(), 2);
        evens.try_merge(odds).unwrap();
        assert!(evens.is_complete());
        assert_eq!(evens.values(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sample_try_merge_rejects_overlap_and_shape() {
        let mut a = StreamingSample::new(2);
        let mut b = StreamingSample::new(2);
        a.record(0, 1.0);
        b.record(0, 2.0);
        let err = a.clone().try_merge(b).unwrap_err();
        assert!(err.contains("trial 0"), "{err}");
        let err = a.try_merge(StreamingSample::new(3)).unwrap_err();
        assert!(err.contains("2 and 3 trials"), "{err}");
    }

    #[test]
    fn raw_round_trips_partial_buffers() {
        // NaN sentinels defeat PartialEq, so compare the bit images.
        let mut s = StreamingSample::new(3);
        s.record(1, 7.5);
        let rebuilt = StreamingSample::from_raw(s.raw().to_vec());
        let bits = |x: &StreamingSample| x.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rebuilt), bits(&s));
        assert_eq!(rebuilt.filled(), 1);
    }
}
