//! Simulated time with nanosecond resolution.
//!
//! The paper reports everything in microseconds, but transmission times at
//! 54 Mbit/s are not µs-integral (128 bytes take 18 962.96… ns), so the
//! simulators keep a `u64` nanosecond clock. `u64` nanoseconds cover ~584
//! years of simulated time — far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero instant / zero duration.
    pub const ZERO: Nanos = Nanos(0);
    /// The greatest representable instant; used as an "unscheduled" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// A duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// A duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds, truncated.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds as a float (the unit the paper's figures use).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction; convenient for "time remaining" computations.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// The number of *whole* periods of `period` that fit in `self`.
    ///
    /// Used to convert an elapsed idle interval into a number of completed
    /// backoff slots.
    pub fn div_floor(self, period: Nanos) -> u64 {
        assert!(period.0 > 0, "division by zero-length period");
        self.0 / period.0
    }

    /// `self` scaled by an integer factor.
    pub fn times(self, factor: u64) -> Nanos {
        Nanos(self.0 * factor)
    }

    /// Midpoint between two instants (used by trace rendering).
    pub fn midpoint(self, other: Nanos) -> Nanos {
        Nanos(self.0 / 2 + other.0 / 2 + (self.0 & other.0 & 1))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        Nanos(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Nanos {
    /// Renders in microseconds with up to three decimals, e.g. `18962.963µs`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let whole = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{whole}µs")
        } else {
            let s = format!("{frac:03}");
            write!(f, "{whole}.{}µs", s.trim_end_matches('0'))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_micros(9).as_nanos(), 9_000);
        assert_eq!(Nanos::from_millis(2).as_micros(), 2_000);
        assert_eq!(Nanos(18_962).as_micros(), 18);
        assert!((Nanos(18_962).as_micros_f64() - 18.962).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(3);
        assert_eq!(a + b, Nanos::from_micros(13));
        assert_eq!(a - b, Nanos::from_micros(7));
        assert_eq!(a * 4, Nanos::from_micros(40));
        assert_eq!(a / 2, Nanos::from_micros(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    #[test]
    fn div_floor_counts_whole_slots() {
        let slot = Nanos::from_micros(9);
        assert_eq!(Nanos::from_micros(0).div_floor(slot), 0);
        assert_eq!(Nanos::from_micros(8).div_floor(slot), 0);
        assert_eq!(Nanos::from_micros(9).div_floor(slot), 1);
        assert_eq!(Nanos::from_micros(26).div_floor(slot), 2);
    }

    #[test]
    #[should_panic(expected = "zero-length period")]
    fn div_floor_rejects_zero_period() {
        let _ = Nanos::from_micros(1).div_floor(Nanos::ZERO);
    }

    #[test]
    fn sum_of_durations() {
        let total: Nanos = [1u64, 2, 3].into_iter().map(Nanos::from_micros).sum();
        assert_eq!(total, Nanos::from_micros(6));
    }

    #[test]
    fn display_is_microseconds() {
        assert_eq!(Nanos::from_micros(75).to_string(), "75µs");
        assert_eq!(Nanos(18_962).to_string(), "18.962µs");
        assert_eq!(Nanos(18_900).to_string(), "18.9µs");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(Nanos::from_micros(1) < Nanos::from_micros(2));
        assert!(Nanos::MAX > Nanos::from_millis(1_000_000));
    }
}
