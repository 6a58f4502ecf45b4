use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul};

use serde::{Deserialize, Serialize};

use crate::Seconds;

/// A count of floating-point operations.
///
/// # Examples
///
/// ```
/// use elk_units::{FlopRate, Flops};
///
/// // One decode step of a 13B-parameter model at batch 32:
/// let work = Flops::new(2.0 * 13e9 * 32.0);
/// let peak = FlopRate::tera(1000.0);
/// assert!((work / peak).as_millis() < 1.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Flops(f64);

impl Flops {
    /// Zero work.
    pub const ZERO: Flops = Flops(0.0);

    /// Creates a FLOP count.
    ///
    /// # Panics
    ///
    /// Panics if `flops` is NaN or negative.
    #[must_use]
    #[inline]
    pub fn new(flops: f64) -> Self {
        if flops.is_nan() || flops < 0.0 {
            bad_count(flops);
        }
        Flops(flops)
    }

    /// The raw count.
    #[must_use]
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// `true` for zero work.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for Flops {
    type Output = Flops;
    #[inline]
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl Mul<f64> for Flops {
    type Output = Flops;
    #[inline]
    fn mul(self, rhs: f64) -> Flops {
        Flops::new(self.0 * rhs)
    }
}

impl Div<u64> for Flops {
    type Output = Flops;
    #[inline]
    fn div(self, rhs: u64) -> Flops {
        Flops::new(self.0 / rhs as f64)
    }
}

impl Div<FlopRate> for Flops {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: FlopRate) -> Seconds {
        if self.0 == 0.0 {
            Seconds::ZERO
        } else if rhs.0 == 0.0 {
            Seconds::INFINITY
        } else {
            Seconds::new(self.0 / rhs.0)
        }
    }
}

impl Div<Seconds> for Flops {
    type Output = FlopRate;
    #[inline]
    fn div(self, rhs: Seconds) -> FlopRate {
        if rhs.is_zero() {
            FlopRate::ZERO
        } else {
            FlopRate::new(self.0 / rhs.as_secs())
        }
    }
}

impl Sum for Flops {
    #[inline]
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, Add::add)
    }
}

impl fmt::Display for Flops {
    #[cold]
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TFLOP", self.0 / 1e12)
        } else if self.0 >= 1e9 {
            write!(f, "{:.2} GFLOP", self.0 / 1e9)
        } else {
            write!(f, "{:.0} FLOP", self.0)
        }
    }
}

/// A compute throughput, in FLOP/s.
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlopRate(f64);

impl FlopRate {
    /// Zero throughput.
    pub const ZERO: FlopRate = FlopRate(0.0);

    /// Creates a throughput in FLOP/s.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) fails.
    #[must_use]
    #[inline]
    pub fn new(flops_per_sec: f64) -> Self {
        Self::try_new(flops_per_sec).unwrap_or_else(|e| crate::fail(e))
    }

    /// Creates a throughput in FLOP/s.
    ///
    /// # Errors
    ///
    /// Returns a message if `flops_per_sec` is NaN, negative, or infinite
    /// (as a finite input can become in a unit conversion).
    #[inline]
    pub fn try_new(flops_per_sec: f64) -> Result<Self, String> {
        if flops_per_sec.is_finite() && flops_per_sec >= 0.0 {
            return Ok(FlopRate(flops_per_sec));
        }
        Err(invalid_rate(flops_per_sec))
    }

    /// Creates a throughput in TFLOP/s.
    #[must_use]
    #[inline]
    pub fn tera(tflops: f64) -> Self {
        FlopRate::new(tflops * 1e12)
    }

    /// The value in FLOP/s.
    #[must_use]
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// The value in TFLOP/s.
    #[must_use]
    #[inline]
    pub fn as_tera(self) -> f64 {
        self.0 / 1e12
    }
}

impl Add for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn add(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn mul(self, rhs: f64) -> FlopRate {
        FlopRate::new(self.0 * rhs)
    }
}

impl Mul<u64> for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn mul(self, rhs: u64) -> FlopRate {
        FlopRate::new(self.0 * rhs as f64)
    }
}

impl Div<u64> for FlopRate {
    type Output = FlopRate;
    #[inline]
    fn div(self, rhs: u64) -> FlopRate {
        FlopRate::new(self.0 / rhs as f64)
    }
}

impl Sum for FlopRate {
    #[inline]
    fn sum<I: Iterator<Item = FlopRate>>(iter: I) -> FlopRate {
        iter.fold(FlopRate::ZERO, Add::add)
    }
}

impl fmt::Display for FlopRate {
    #[cold]
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} TFLOPS", self.0 / 1e12)
    }
}

#[cold]
#[inline(never)]
fn invalid_rate(flops_per_sec: f64) -> String {
    format!("invalid throughput: {flops_per_sec} FLOP/s")
}

#[cold]
#[inline(never)]
fn bad_count(flops: f64) -> ! {
    panic!("invalid FLOP count: {flops}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_over_rate_gives_time() {
        let t = Flops::new(2e12) / FlopRate::tera(1.0);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_gives_infinite_time() {
        assert_eq!(Flops::new(1.0) / FlopRate::ZERO, Seconds::INFINITY);
        assert_eq!(Flops::ZERO / FlopRate::ZERO, Seconds::ZERO);
    }

    #[test]
    fn achieved_rate() {
        let rate = Flops::new(5e12) / Seconds::new(2.0);
        assert!((rate.as_tera() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(FlopRate::tera(81.06).to_string(), "81.06 TFLOPS");
    }
}
