use serde::{Deserialize, Serialize};

use crate::Workload;

/// Power-of-two bucketing of sequence lengths and batch sizes.
///
/// A serving system sees a continuum of context lengths, but every
/// distinct [`Workload`] shape costs one compiler invocation. Rounding
/// lengths **up** to the next power of two inside `[min, max]` collapses
/// the continuum onto a handful of shapes so a plan cache keyed on the
/// bucketed workload converges after a few compilations, at the cost of
/// a conservative (never optimistic) latency estimate for lengths that
/// land mid-bucket.
///
/// # Examples
///
/// ```
/// use elk_model::SeqBuckets;
///
/// let buckets = SeqBuckets::new(256, 8192);
/// assert_eq!(buckets.bucket(1), 256);    // clamped up to min
/// assert_eq!(buckets.bucket(300), 512);  // next power of two
/// assert_eq!(buckets.bucket(512), 512);  // exact powers stay put
/// assert_eq!(buckets.bucket(60_000), 8192); // clamped down to max
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SeqBuckets {
    /// Smallest bucket; shorter sequences round up to it.
    pub min: u64,
    /// Largest bucket; longer sequences clamp down to it (the serving
    /// layer is expected to reject or truncate such requests).
    pub max: u64,
}

impl SeqBuckets {
    /// Creates a bucket ladder spanning `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics where [`validate`](Self::validate) fails.
    #[must_use]
    pub fn new(min: u64, max: u64) -> Self {
        let buckets = SeqBuckets { min, max };
        buckets.validate().unwrap_or_else(|e| panic!("{e}"));
        buckets
    }

    /// Checks the ladder.
    ///
    /// # Errors
    ///
    /// Returns a message if `min` is zero, not a power of two, or
    /// exceeds `max`.
    pub fn validate(&self) -> Result<(), String> {
        let SeqBuckets { min, max } = *self;
        if !min.is_power_of_two() {
            return Err(format!("min ({min}) must be a power of two"));
        }
        if max < min {
            return Err(format!("max ({max}) must be >= min ({min})"));
        }
        Ok(())
    }

    /// Rounds `seq_len` up to the next power of two, clamped to
    /// `[min, max]`.
    #[must_use]
    #[inline]
    pub fn bucket(&self, seq_len: u64) -> u64 {
        pow2_at_least(seq_len).clamp(self.min, self.max)
    }

    /// Every bucket value this ladder can produce, ascending.
    #[must_use]
    pub fn ladder(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut b = self.min;
        while b < self.max {
            out.push(b);
            b *= 2;
        }
        out.push(self.max);
        out
    }
}

impl Default for SeqBuckets {
    /// `[256, 8192]` — covers the paper's serving sequence range
    /// (Fig. 17 evaluates 2048–4096).
    fn default() -> Self {
        SeqBuckets::new(256, 8192)
    }
}

/// The smallest power of two `>= x` (`1` for `x == 0`), saturating at
/// `2^63` for an `x` past it, which has no power of two in `u64`.
#[must_use]
#[inline]
pub fn pow2_at_least(x: u64) -> u64 {
    x.clamp(1, 1 << 63).next_power_of_two()
}

impl Workload {
    /// This workload with `seq_len` rounded up onto `buckets` — the
    /// canonical plan-cache key shape.
    ///
    /// # Examples
    ///
    /// ```
    /// use elk_model::{SeqBuckets, Workload};
    ///
    /// let wl = Workload::decode(32, 1500).bucketed(&SeqBuckets::default());
    /// assert_eq!(wl.seq_len, 2048);
    /// assert_eq!(wl.batch, 32);
    /// ```
    #[must_use]
    #[inline]
    pub fn bucketed(mut self, buckets: &SeqBuckets) -> Self {
        self.seq_len = buckets.bucket(self.seq_len);
        self
    }

    /// This workload with `batch` rounded up to a power of two, capped
    /// at `max_batch` **rounded up to a power of two itself** (so a
    /// non-power-of-two cap like 48 yields batches up to 64 — every
    /// shape stays a power of two). Bounds the number of distinct batch
    /// shapes a continuous-batching scheduler can generate.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    #[must_use]
    #[inline]
    pub fn with_bucketed_batch(mut self, max_batch: u64) -> Self {
        assert!(max_batch > 0, "max_batch must be > 0");
        self.batch = pow2_at_least(self.batch).min(pow2_at_least(max_batch));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_rounds_up_and_clamps() {
        let b = SeqBuckets::new(128, 4096);
        assert_eq!(b.bucket(0), 128);
        assert_eq!(b.bucket(128), 128);
        assert_eq!(b.bucket(129), 256);
        assert_eq!(b.bucket(4095), 4096);
        assert_eq!(b.bucket(9999), 4096);
    }

    #[test]
    fn lengths_past_the_top_power_of_two_saturate() {
        assert_eq!(pow2_at_least(1 << 63), 1 << 63);
        assert_eq!(pow2_at_least((1 << 63) + 1), 1 << 63);
        assert_eq!(pow2_at_least(u64::MAX), 1 << 63);
        // Such a length buckets at the top of the ladder, as any length
        // past `max` does.
        assert_eq!(SeqBuckets::new(128, 4096).bucket(u64::MAX), 4096);
    }

    #[test]
    fn ladder_is_complete() {
        assert_eq!(
            SeqBuckets::new(256, 2048).ladder(),
            vec![256, 512, 1024, 2048]
        );
        assert_eq!(SeqBuckets::new(512, 512).ladder(), vec![512]);
    }

    #[test]
    fn workload_bucketing_preserves_phase() {
        let wl = Workload::prefill(3, 777).bucketed(&SeqBuckets::default());
        assert_eq!(wl.seq_len, 1024);
        assert_eq!(wl.phase, crate::Phase::Prefill);
        let wl = wl.with_bucketed_batch(64);
        assert_eq!(wl.batch, 4);
    }

    #[test]
    fn batch_bucket_caps_at_max() {
        let wl = Workload::decode(50, 1024).with_bucketed_batch(64);
        assert_eq!(wl.batch, 64);
        let wl = Workload::decode(100, 1024).with_bucketed_batch(48);
        assert_eq!(wl.batch, 64); // cap itself rounds to pow2
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_min_rejected() {
        let _ = SeqBuckets::new(100, 4096);
    }
}
