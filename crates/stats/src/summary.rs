//! Order statistics and moments of a sample.

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator); 0 for n < 2.
    pub std_dev: f64,
}

impl Summary {
    /// Summarizes a sample. Panics on an empty sample or non-finite values —
    /// the experiment harness never produces either, so this is a bug trap,
    /// not an error path.
    pub fn of(sample: &[f64]) -> Summary {
        assert!(!sample.is_empty(), "empty sample");
        assert!(
            sample.iter().all(|x| x.is_finite()),
            "non-finite value in sample"
        );
        let mut sorted = sample.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let std_dev = if sorted.len() < 2 {
            0.0
        } else {
            let ss: f64 = sorted.iter().map(|x| (x - mean) * (x - mean)).sum();
            (ss / (sorted.len() - 1) as f64).sqrt()
        };
        Summary {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: *sorted.last().expect("non-empty"),
            mean,
            std_dev,
        }
    }

    /// Interquartile range `Q3 − Q1` (the paper's Δ).
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Median of a sample (convenience wrapper).
pub fn median(sample: &[f64]) -> f64 {
    Summary::of(sample).median
}

/// Linear-interpolation quantile of an already-sorted sample
/// (type-7 / NumPy default).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn even_sample_interpolates() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert!((s.iqr() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn singleton() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.iqr(), 0.0);
    }

    #[test]
    fn std_dev_known_value() {
        // Sample {2, 4, 4, 4, 5, 5, 7, 9}: sample std dev = sqrt(32/7).
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_monotone() {
        let sorted: Vec<f64> = (0..37).map(|x| (x * x) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = quantile_sorted(&sorted, i as f64 / 20.0);
            assert!(q >= last);
            last = q;
        }
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 36.0 * 36.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_panics() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }
}
