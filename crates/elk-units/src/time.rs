use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration or timestamp on the device timeline, in seconds.
///
/// Timeline arithmetic in the scheduler works with non-negative finite
/// values; construction from non-finite values panics so NaNs cannot leak
/// into schedule comparisons. Subtraction clamps at zero — a schedule never
/// produces negative durations.
///
/// # Examples
///
/// ```
/// use elk_units::Seconds;
///
/// let exec = Seconds::from_micros(120.0);
/// let preload = Seconds::from_micros(80.0);
/// assert_eq!((exec + preload).as_micros().round(), 200.0);
/// assert_eq!(preload - exec, Seconds::ZERO); // clamped
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// An unreachable-future timestamp, usable as "no constraint".
    pub const INFINITY: Seconds = Seconds(f64::INFINITY);

    /// Creates a duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) fails.
    #[inline]
    #[must_use]
    pub fn new(secs: f64) -> Self {
        Self::try_new(secs).unwrap_or_else(|e| crate::fail(e))
    }

    /// Creates a duration in seconds.
    ///
    /// # Errors
    ///
    /// Returns a message if `secs` is NaN or negative.
    #[inline]
    pub fn try_new(secs: f64) -> Result<Self, String> {
        if !secs.is_nan() && secs >= 0.0 {
            return Ok(Seconds(secs));
        }
        Err(invalid(secs))
    }

    /// Creates a duration in milliseconds.
    #[must_use]
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms * 1e-3)
    }

    /// Creates a duration in microseconds.
    #[must_use]
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Seconds::new(us * 1e-6)
    }

    /// The value in seconds.
    #[must_use]
    #[inline]
    pub const fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in milliseconds.
    #[must_use]
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The value in microseconds.
    #[must_use]
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// `true` for a zero duration.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// `true` for a finite duration.
    #[must_use]
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// The later of two timestamps.
    #[must_use]
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two timestamps.
    #[must_use]
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Eq for Seconds {}

impl PartialOrd for Seconds {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Seconds {
    /// The `f64` order, under which `-0.0 == 0.0` (unlike
    /// [`f64::total_cmp`], which would reorder equal timestamps).
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so the partial order is total.
        match self.0.partial_cmp(&other.0) {
            Some(order) => order,
            None => nan_order(),
        }
    }
}

#[cold]
#[inline(never)]
fn invalid(secs: f64) -> String {
    format!("invalid duration: {secs}")
}

#[cold]
#[inline(never)]
fn nan_order() -> ! {
    panic!("Seconds is never NaN")
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    /// Clamped at zero: durations never go negative.
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds((self.0 - rhs.0).max(0.0))
    }
}

impl SubAssign for Seconds {
    #[inline]
    fn sub_assign(&mut self, rhs: Seconds) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 / rhs)
    }
}

impl Div<Seconds> for Seconds {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Seconds) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Seconds {
    #[inline]
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    #[cold]
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == f64::INFINITY {
            write!(f, "inf")
        } else if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.2} us", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let mut v = [
            Seconds::from_millis(3.0),
            Seconds::ZERO,
            Seconds::from_micros(5.0),
        ];
        v.sort();
        assert_eq!(v[0], Seconds::ZERO);
        assert_eq!(v[2], Seconds::from_millis(3.0));
    }

    #[test]
    fn subtraction_clamps() {
        let a = Seconds::from_micros(10.0);
        let b = Seconds::from_micros(30.0);
        assert_eq!(a - b, Seconds::ZERO);
        assert_eq!((b - a).as_micros().round(), 20.0);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn rejects_negative() {
        let _ = Seconds::new(-1.0);
    }

    #[test]
    fn min_max() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.min(Seconds::INFINITY), a);
    }

    #[test]
    fn display_scales() {
        assert_eq!(Seconds::new(2.5).to_string(), "2.500 s");
        assert_eq!(Seconds::from_millis(1.5).to_string(), "1.500 ms");
        assert_eq!(Seconds::from_micros(12.0).to_string(), "12.00 us");
    }
}
