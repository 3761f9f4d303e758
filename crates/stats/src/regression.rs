//! Ordinary least squares with slope inference.
//!
//! Figure 14 fits "a linear regression model of LLB − BEB on the
//! [payload size]" and reports the slope (≈ +700 µs per extra 100 B) and
//! that it is "statistically significant (p-value less than 0.001)". This
//! module provides exactly that: OLS fit, standard error of the slope, the
//! t statistic, and a two-sided p-value from the Student-t distribution.

use crate::special::two_sided_p;

/// Result of an OLS fit `y ≈ intercept + slope · x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    pub slope: f64,
    pub intercept: f64,
    /// Standard error of the slope estimate.
    pub slope_std_err: f64,
    /// t statistic for H0: slope = 0.
    pub t_statistic: f64,
    /// Two-sided p-value for H0: slope = 0.
    pub p_value: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Residual degrees of freedom (n − 2).
    pub df: usize,
}

/// Fits `y` on `x` by ordinary least squares.
///
/// Requires at least 3 points (otherwise no residual degrees of freedom) and
/// non-constant `x`.
pub fn linear_fit(x: &[f64], y: &[f64]) -> LinearFit {
    assert_eq!(x.len(), y.len(), "x and y must pair up");
    let n = x.len();
    assert!(n >= 3, "need at least 3 points, got {n}");

    let nf = n as f64;
    let mean_x = x.iter().sum::<f64>() / nf;
    let mean_y = y.iter().sum::<f64>() / nf;
    let sxx: f64 = x.iter().map(|xi| (xi - mean_x) * (xi - mean_x)).sum();
    assert!(sxx > 0.0, "x must not be constant");
    let sxy: f64 = x
        .iter()
        .zip(y)
        .map(|(xi, yi)| (xi - mean_x) * (yi - mean_y))
        .sum();

    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;

    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(xi, yi)| {
            let e = yi - (intercept + slope * xi);
            e * e
        })
        .sum();
    let ss_tot: f64 = y.iter().map(|yi| (yi - mean_y) * (yi - mean_y)).sum();
    let df = n - 2;
    let sigma2 = ss_res / df as f64;
    let slope_std_err = (sigma2 / sxx).sqrt();
    let t_statistic = if slope_std_err == 0.0 {
        // Perfect fit: report an effectively-infinite statistic.
        f64::INFINITY * slope.signum()
    } else {
        slope / slope_std_err
    };
    let p_value = if t_statistic.is_infinite() {
        0.0
    } else {
        two_sided_p(t_statistic, df as f64)
    };
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    LinearFit {
        slope,
        intercept,
        slope_std_err,
        t_statistic,
        p_value,
        r_squared,
        df,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_exact_line() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|xi| 3.0 * xi + 2.0).collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
        assert_eq!(fit.p_value, 0.0);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_slope_under_noise() {
        let mut rng = SmallRng::seed_from_u64(99);
        let x: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|xi| 7.0 * xi + 100.0 + (rng.gen::<f64>() - 0.5) * 20.0)
            .collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 7.0).abs() < 0.05, "slope {}", fit.slope);
        assert!(fit.p_value < 1e-6);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn no_relationship_gives_large_p() {
        // y is pure noise: slope should not be significant.
        let mut rng = SmallRng::seed_from_u64(3);
        let x: Vec<f64> = (0..60).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..60).map(|_| rng.gen::<f64>()).collect();
        let fit = linear_fit(&x, &y);
        assert!(fit.p_value > 0.01, "spurious significance: {:?}", fit);
        assert!(fit.r_squared < 0.2);
    }

    #[test]
    fn negative_slope_is_signed() {
        let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|xi| -2.0 * xi + 5.0).collect();
        let fit = linear_fit(&x, &y);
        assert!((fit.slope + 2.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_standard_error() {
        // Small worked example: x = 1..5, y = (2, 4, 5, 4, 5).
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 5.0, 4.0, 5.0];
        let fit = linear_fit(&x, &y);
        assert!((fit.slope - 0.6).abs() < 1e-12);
        assert!((fit.intercept - 2.2).abs() < 1e-12);
        // SSres = 2.4, sigma² = 0.8, SE = sqrt(0.8/10) ≈ 0.2828.
        assert!((fit.slope_std_err - (0.08f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 3 points")]
    fn too_few_points_panics() {
        let _ = linear_fit(&[1.0, 2.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must not be constant")]
    fn constant_x_panics() {
        let _ = linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]);
    }
}
