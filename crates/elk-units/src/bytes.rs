use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::{ByteRate, Seconds};

/// A byte count: SRAM footprints, tensor sizes, transfer volumes.
///
/// `Bytes` is an exact integer quantity. Scaling by an `f64` fraction (for
/// example "each of `g` cores holds `1/f` of a slice") rounds **up**, so
/// per-core memory accounting never under-estimates a footprint.
///
/// # Examples
///
/// ```
/// use elk_units::Bytes;
///
/// let sram = Bytes::kib(624);
/// let tile = Bytes::new(200 * 1024);
/// assert!(tile < sram);
/// assert_eq!(sram - tile, Bytes::new(424 * 1024));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    #[must_use]
    #[inline]
    pub const fn new(bytes: u64) -> Self {
        Bytes(bytes)
    }

    /// Creates a byte count from binary kilobytes.
    ///
    /// # Panics
    ///
    /// Panics if the byte count overflows 64 bits.
    #[must_use]
    #[inline]
    pub const fn kib(kib: u64) -> Self {
        Self::checked_kib(kib).expect("KiB count overflows 64 bits")
    }

    /// Creates a byte count from binary kilobytes, or `None` if it
    /// overflows 64 bits.
    #[must_use]
    #[inline]
    pub const fn checked_kib(kib: u64) -> Option<Self> {
        Self::wrap(kib.checked_mul(1 << 10))
    }

    /// Creates a byte count from binary megabytes.
    #[must_use]
    #[inline]
    pub const fn mib(mib: u64) -> Self {
        Bytes(mib * 1024 * 1024)
    }

    /// Creates a byte count from binary gigabytes.
    ///
    /// # Panics
    ///
    /// Panics if the byte count overflows 64 bits.
    #[must_use]
    #[inline]
    pub const fn gib(gib: u64) -> Self {
        Self::checked_gib(gib).expect("GiB count overflows 64 bits")
    }

    /// Creates a byte count from binary gigabytes, or `None` if it
    /// overflows 64 bits.
    #[must_use]
    #[inline]
    pub const fn checked_gib(gib: u64) -> Option<Self> {
        Self::wrap(gib.checked_mul(1 << 30))
    }

    #[inline]
    const fn wrap(bytes: Option<u64>) -> Option<Self> {
        match bytes {
            Some(b) => Some(Bytes(b)),
            None => None,
        }
    }

    /// Raw byte count.
    #[must_use]
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`, for cost arithmetic.
    #[must_use]
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// `true` if the count is zero.
    #[must_use]
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    #[must_use]
    #[inline]
    pub const fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    #[must_use]
    #[inline]
    pub const fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Bytes(v)),
            None => None,
        }
    }

    /// Scales by a non-negative fraction, rounding up.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is negative or not finite.
    #[must_use]
    #[inline]
    pub fn scale(self, fraction: f64) -> Bytes {
        if !(fraction.is_finite() && fraction >= 0.0) {
            bad_scale(fraction);
        }
        Bytes((self.0 as f64 * fraction).ceil() as u64)
    }

    /// Division rounding up: the number of `chunk`-sized pieces covering `self`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    #[must_use]
    #[inline]
    pub fn div_ceil_by(self, chunk: Bytes) -> u64 {
        assert!(!chunk.is_zero(), "cannot divide bytes by a zero chunk");
        self.0.div_ceil(chunk.0)
    }

    /// The larger of two counts.
    #[must_use]
    #[inline]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// The smaller of two counts.
    #[must_use]
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    /// Dividing a byte count among `rhs` parts rounds up (homogeneous tiling
    /// reserves the worst-case per-part footprint).
    #[inline]
    fn div(self, rhs: u64) -> Bytes {
        assert!(rhs != 0, "cannot divide bytes into zero parts");
        Bytes(self.0.div_ceil(rhs))
    }
}

impl Div<ByteRate> for Bytes {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: ByteRate) -> Seconds {
        rhs.transfer_time(self)
    }
}

impl Sum for Bytes {
    #[inline]
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    #[cold]
    #[inline(never)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 < 1024 {
            write!(f, "{} B", self.0)
        } else if self.0 < 1024 * 1024 {
            write!(f, "{:.1} KiB", b / 1024.0)
        } else if self.0 < 1024 * 1024 * 1024 {
            write!(f, "{:.1} MiB", b / (1024.0 * 1024.0))
        } else {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        }
    }
}

#[cold]
#[inline(never)]
fn bad_scale(fraction: f64) -> ! {
    panic!("byte scale factor must be finite and non-negative, got {fraction}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Bytes::kib(1).get(), 1024);
        assert_eq!(Bytes::mib(1).get(), 1024 * 1024);
        assert_eq!(Bytes::gib(1).get(), 1024 * 1024 * 1024);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Bytes::new(100);
        let b = Bytes::new(30);
        assert_eq!(a + b, Bytes::new(130));
        assert_eq!(a - b, Bytes::new(70));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.checked_sub(b), Some(Bytes::new(70)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a * 3, Bytes::new(300));
    }

    #[test]
    fn division_rounds_up() {
        assert_eq!(Bytes::new(10) / 3, Bytes::new(4));
        assert_eq!(Bytes::new(9) / 3, Bytes::new(3));
        assert_eq!(Bytes::new(10).div_ceil_by(Bytes::new(4)), 3);
    }

    #[test]
    fn scale_rounds_up() {
        assert_eq!(Bytes::new(10).scale(0.5), Bytes::new(5));
        assert_eq!(Bytes::new(10).scale(1.0 / 3.0), Bytes::new(4));
        assert_eq!(Bytes::new(10).scale(0.0), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scale_rejects_negative() {
        let _ = Bytes::new(1).scale(-0.5);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Bytes::new(512).to_string(), "512 B");
        assert_eq!(Bytes::kib(624).to_string(), "624.0 KiB");
        assert_eq!(Bytes::mib(896).to_string(), "896.0 MiB");
    }

    #[test]
    fn sums() {
        let total: Bytes = [Bytes::new(1), Bytes::new(2), Bytes::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Bytes::new(6));
    }
}
