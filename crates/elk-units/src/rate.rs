use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul};

use serde::{Deserialize, Serialize};

use crate::{Bytes, Seconds};

/// A bandwidth, in bytes per second.
///
/// Used for interconnect links, HBM channels, SRAM ports, and inter-chip
/// links. Dividing [`Bytes`] by a `ByteRate` yields the serialized transfer
/// time; a zero rate yields [`Seconds::INFINITY`] so "no link" naturally
/// blocks a schedule instead of panicking deep inside a search.
///
/// # Examples
///
/// ```
/// use elk_units::{ByteRate, Bytes, Seconds};
///
/// let link = ByteRate::gib_per_sec(5.5);
/// let t = Bytes::mib(55) / link;
/// assert!((t.as_millis() - 9.765).abs() < 0.1);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ByteRate(f64);

impl ByteRate {
    /// A zero-bandwidth (absent) link.
    pub const ZERO: ByteRate = ByteRate(0.0);

    /// Creates a rate in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) fails.
    #[must_use]
    #[inline]
    pub fn new(bytes_per_sec: f64) -> Self {
        Self::try_new(bytes_per_sec).unwrap_or_else(|e| crate::fail(e))
    }

    /// Creates a rate in bytes per second.
    ///
    /// # Errors
    ///
    /// Returns a message if `bytes_per_sec` is NaN, negative, or infinite
    /// (as a finite input can become in a unit conversion).
    #[inline]
    pub fn try_new(bytes_per_sec: f64) -> Result<Self, String> {
        if bytes_per_sec.is_finite() && bytes_per_sec >= 0.0 {
            return Ok(ByteRate(bytes_per_sec));
        }
        Err(invalid(bytes_per_sec))
    }

    /// Creates a rate in binary gigabytes per second.
    #[must_use]
    #[inline]
    pub fn gib_per_sec(gib: f64) -> Self {
        ByteRate::new(gib * 1024.0 * 1024.0 * 1024.0)
    }

    /// Creates a rate in binary gigabytes per second.
    ///
    /// # Errors
    ///
    /// As [`try_new`](Self::try_new), after the conversion.
    #[inline]
    pub fn try_gib_per_sec(gib: f64) -> Result<Self, String> {
        ByteRate::try_new(gib * 1024.0 * 1024.0 * 1024.0)
    }

    /// Creates a rate in binary terabytes per second.
    #[must_use]
    #[inline]
    pub fn tib_per_sec(tib: f64) -> Self {
        ByteRate::new(tib * 1024.0 * 1024.0 * 1024.0 * 1024.0)
    }

    /// The value in bytes per second.
    #[must_use]
    #[inline]
    pub const fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// `true` if the link carries no bandwidth.
    #[must_use]
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Serialized time to move `volume` at this rate.
    ///
    /// A zero rate yields [`Seconds::INFINITY`] (for non-zero volume).
    #[must_use]
    #[inline]
    pub fn transfer_time(self, volume: Bytes) -> Seconds {
        if volume.is_zero() {
            Seconds::ZERO
        } else if self.0 == 0.0 {
            Seconds::INFINITY
        } else {
            Seconds::new(volume.as_f64() / self.0)
        }
    }

    /// Bytes moved in `duration` at this rate (rounded down).
    #[must_use]
    #[inline]
    pub fn bytes_in(self, duration: Seconds) -> Bytes {
        Bytes::new((self.0 * duration.as_secs()) as u64)
    }

    /// The smaller of two rates (bottleneck of links in series).
    #[must_use]
    #[inline]
    pub fn min(self, other: ByteRate) -> ByteRate {
        ByteRate(self.0.min(other.0))
    }

    /// The larger of two rates.
    #[must_use]
    #[inline]
    pub fn max(self, other: ByteRate) -> ByteRate {
        ByteRate(self.0.max(other.0))
    }
}

impl Add for ByteRate {
    type Output = ByteRate;
    /// Aggregating parallel links.
    #[inline]
    fn add(self, rhs: ByteRate) -> ByteRate {
        ByteRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for ByteRate {
    type Output = ByteRate;
    #[inline]
    fn mul(self, rhs: f64) -> ByteRate {
        ByteRate::new(self.0 * rhs)
    }
}

impl Mul<u64> for ByteRate {
    type Output = ByteRate;
    #[inline]
    fn mul(self, rhs: u64) -> ByteRate {
        ByteRate::new(self.0 * rhs as f64)
    }
}

impl Div<f64> for ByteRate {
    type Output = ByteRate;
    #[inline]
    fn div(self, rhs: f64) -> ByteRate {
        ByteRate::new(self.0 / rhs)
    }
}

impl Div<u64> for ByteRate {
    type Output = ByteRate;
    #[inline]
    fn div(self, rhs: u64) -> ByteRate {
        ByteRate::new(self.0 / rhs as f64)
    }
}

impl Div<ByteRate> for ByteRate {
    type Output = f64;
    #[inline]
    fn div(self, rhs: ByteRate) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for ByteRate {
    #[inline]
    fn sum<I: Iterator<Item = ByteRate>>(iter: I) -> ByteRate {
        iter.fold(ByteRate::ZERO, Add::add)
    }
}

impl fmt::Display for ByteRate {
    #[cold]
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = 1024.0 * 1024.0 * 1024.0;
        if self.0 >= 1024.0 * g {
            write!(f, "{:.2} TiB/s", self.0 / (1024.0 * g))
        } else {
            write!(f, "{:.2} GiB/s", self.0 / g)
        }
    }
}

#[cold]
#[inline(never)]
fn invalid(bytes_per_sec: f64) -> String {
    format!("invalid bandwidth: {bytes_per_sec} B/s")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_round_trips() {
        let rate = ByteRate::gib_per_sec(2.0);
        let vol = Bytes::gib(4);
        assert!((rate.transfer_time(vol).as_secs() - 2.0).abs() < 1e-12);
        assert_eq!(rate.bytes_in(Seconds::new(2.0)), vol);
    }

    #[test]
    fn zero_rate_blocks() {
        assert_eq!(
            ByteRate::ZERO.transfer_time(Bytes::new(1)),
            Seconds::INFINITY
        );
        assert_eq!(ByteRate::ZERO.transfer_time(Bytes::ZERO), Seconds::ZERO);
    }

    #[test]
    fn aggregation() {
        let per_core = ByteRate::gib_per_sec(5.5);
        let total: ByteRate = per_core * 1472u64;
        assert!(total.bytes_per_sec() > ByteRate::tib_per_sec(7.8).bytes_per_sec());
    }

    #[test]
    fn series_bottleneck() {
        let a = ByteRate::gib_per_sec(10.0);
        let b = ByteRate::gib_per_sec(4.0);
        assert_eq!(a.min(b), b);
    }
}
