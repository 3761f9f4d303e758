//! Fixed-footprint log-bucketed latency histogram (HDR-style, base 2 with
//! 64 sub-buckets per octave).
//!
//! The dynamic-traffic engine records one latency per completed packet. A
//! sorted `Vec<u64>` makes percentile queries exact but costs O(completed)
//! memory and an O(k log k) sort per trial — unacceptable once a trial
//! sustains millions of arrivals. This histogram is the streaming
//! replacement: a fixed array of 3 776 counters (~30 KiB) whose bucket
//! boundaries grow geometrically, giving
//!
//! * **exact** values for samples `< 128` (buckets of width 1),
//! * relative error `< 1/64` (~1.6 %) above that,
//! * an **exact** mean (the sum is kept as a `u128`), and
//! * an **exact** maximum (tracked separately from the buckets).
//!
//! Percentiles use the nearest-rank definition: `percentile(q)` is the
//! smallest recorded value `v` such that at least `ceil(q · n)` samples are
//! `≤ v` (reported as the lower bound of `v`'s bucket). This is the
//! *corrected* rank — the pre-histogram implementation truncated
//! `(n · q) as usize`, biasing small-sample percentiles one rank high.

/// Sub-bucket resolution: 2^6 = 64 linear sub-buckets per power of two.
const SUB_BITS: u32 = 6;
const SUBS: u64 = 1 << SUB_BITS;
/// Buckets 0..128 are exact; octaves 7..=63 contribute 64 buckets each.
const BUCKETS: usize = (2 * SUBS as usize) + SUBS as usize * (63 - SUB_BITS as usize);

/// Streaming log-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Bucket index for a sample value.
#[inline]
fn index_of(v: u64) -> usize {
    if v < 2 * SUBS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let sub = (v >> (msb - SUB_BITS)) & (SUBS - 1);
        (((msb - SUB_BITS) as u64) * SUBS + SUBS + sub) as usize
    }
}

/// Lower bound of the bucket at `idx` (the value `percentile` reports).
#[inline]
fn value_of(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < 2 * SUBS {
        idx
    } else {
        let msb = (idx >> SUB_BITS) + SUB_BITS as u64 - 1;
        let sub = idx & (SUBS - 1);
        (SUBS + sub) << (msb - SUB_BITS as u64)
    }
}

impl LatencyHistogram {
    /// An empty histogram. Allocates its counter array once, up front.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile, `q ∈ (0, 1]`: the bucket lower bound of the
    /// `ceil(q · n)`-th smallest sample (0 if empty). Exact for values
    /// `< 128`; relative error `< 1/64` above. `q = 1` returns the exact
    /// maximum.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(idx);
            }
        }
        self.max
    }

    /// Reset to empty without freeing the counter array.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every representable value maps to a bucket whose lower bound is
        // ≤ the value, and bucket lower bounds strictly increase.
        let mut prev = None;
        for idx in 0..BUCKETS {
            let lo = value_of(idx);
            assert_eq!(index_of(lo), idx, "lower bound must map back to bucket");
            if let Some(p) = prev {
                assert!(lo > p, "bucket bounds must increase: {p} !< {lo}");
            }
            prev = Some(lo);
        }
        for v in [0u64, 1, 63, 64, 127, 128, 129, 1000, 1 << 20, u64::MAX] {
            let idx = index_of(v);
            assert!(idx < BUCKETS);
            assert!(value_of(idx) <= v);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..128u64 {
            h.record(v);
        }
        for v in 0..128u64 {
            let q = (v + 1) as f64 / 128.0;
            assert_eq!(h.percentile(q), v, "q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentile_hand_computed_20_samples() {
        // The satellite regression test: 20 samples 1..=20. Nearest rank for
        // p95 is ceil(0.95 · 20) = 19 → the 19th smallest = 19. The
        // pre-overhaul code computed (20 · 0.95) as usize = 19 as a 0-based
        // *index*, returning the 20th smallest (= 20) instead.
        let mut h = LatencyHistogram::new();
        for v in 1..=20u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.95), 19);
        assert_eq!(h.percentile(0.50), 10); // ceil(10.0) = rank 10
        assert_eq!(h.percentile(0.05), 1); // ceil(1.0) = rank 1
        assert_eq!(h.percentile(1.0), 20);
        assert_eq!(h.mean(), 10.5);
        assert_eq!(h.max(), 20);
        assert_eq!(h.count(), 20);
    }

    #[test]
    fn large_values_within_relative_error() {
        let mut h = LatencyHistogram::new();
        let v = 1_000_003u64;
        h.record(v);
        let p = h.percentile(0.5);
        assert!(p <= v);
        assert!((v - p) as f64 / (v as f64) < 1.0 / 64.0, "p={p}");
        assert_eq!(h.max(), v);
        assert_eq!(h.percentile(1.0), v);
    }

    #[test]
    fn clear_resets_without_shrinking() {
        let mut h = LatencyHistogram::new();
        h.record(9);
        h.clear();
        assert_eq!(h, LatencyHistogram::new());
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(0.95), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
    }
}
