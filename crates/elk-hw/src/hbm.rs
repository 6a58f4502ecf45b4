use std::fmt;

use serde::{Deserialize, Serialize};

use elk_units::{ByteRate, Bytes, Seconds};

/// Off-chip HBM attached to one chip through controller nodes on the
/// interconnect (§2.1).
///
/// Elk's compiler consumes per-tensor load latencies; tensors are tens to
/// hundreds of megabytes and are striped across all channels (§5), so the
/// dominant term is channel-bandwidth serialization plus a fixed access
/// latency — the behaviour this model reproduces in place of the paper's
/// DRAMsim3 traces.
///
/// # Examples
///
/// ```
/// use elk_hw::HbmConfig;
/// use elk_units::{ByteRate, Bytes};
///
/// let hbm = HbmConfig::new(4, ByteRate::tib_per_sec(1.0));
/// let t = hbm.load_time(Bytes::mib(168));
/// assert!(t.as_micros() > 30.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HbmConfig {
    /// Number of HBM channels (controller nodes) per chip.
    pub channels: u64,
    /// Sustained bandwidth per channel.
    pub channel_bw: ByteRate,
    /// First-word access latency (row activation + controller queueing).
    pub access_latency: Seconds,
    /// Total per-chip HBM capacity (weights + KV cache must fit; the
    /// cluster planner's HBM-feasibility check). Defaults to 96 GiB —
    /// an eight-high HBM3E stack per channel group.
    pub capacity: Bytes,
}

impl HbmConfig {
    /// Creates an HBM configuration with the default 120 ns access
    /// latency and 96 GiB capacity.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) fails.
    #[must_use]
    pub fn new(channels: u64, channel_bw: ByteRate) -> Self {
        Self::try_new(channels, channel_bw).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an HBM configuration like [`new`](Self::new).
    ///
    /// # Errors
    ///
    /// Returns a message if `channels` is zero.
    pub fn try_new(channels: u64, channel_bw: ByteRate) -> Result<Self, String> {
        if channels == 0 {
            return Err("channels must be > 0: HBM needs at least one channel".into());
        }
        Ok(HbmConfig {
            channels,
            channel_bw,
            access_latency: Seconds::new(120e-9),
            capacity: Bytes::gib(96),
        })
    }

    /// Re-provisions the per-chip capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: Bytes) -> Self {
        self.capacity = capacity;
        self
    }

    /// Total sustained bandwidth of the stack.
    #[must_use]
    #[inline]
    pub fn total_bandwidth(&self) -> ByteRate {
        self.channel_bw * self.channels
    }

    /// Time to stream `volume` striped evenly across all channels.
    #[must_use]
    #[inline]
    pub fn load_time(&self, volume: Bytes) -> Seconds {
        if volume.is_zero() {
            Seconds::ZERO
        } else {
            self.access_latency + self.total_bandwidth().transfer_time(volume)
        }
    }

    /// Re-provisions the stack to `total` aggregate bandwidth, keeping the
    /// channel count (the HBM-bandwidth sweeps of Figs. 19–22).
    #[must_use]
    pub fn with_total_bandwidth(&self, total: ByteRate) -> HbmConfig {
        HbmConfig {
            channel_bw: total / self.channels,
            ..*self
        }
    }
}

impl fmt::Display for HbmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} HBM channels x {} ({} total)",
            self.channels,
            self.channel_bw,
            self.total_bandwidth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_bandwidth() {
        let hbm = HbmConfig::new(4, ByteRate::tib_per_sec(1.0));
        assert!((hbm.total_bandwidth() / ByteRate::tib_per_sec(4.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn load_time_includes_latency() {
        let hbm = HbmConfig::new(4, ByteRate::tib_per_sec(1.0));
        assert_eq!(hbm.load_time(Bytes::ZERO), Seconds::ZERO);
        let t = hbm.load_time(Bytes::new(1));
        assert!(t >= hbm.access_latency);
    }

    #[test]
    fn resize_keeps_channels() {
        let hbm = HbmConfig::new(4, ByteRate::tib_per_sec(1.0));
        let big = hbm.with_total_bandwidth(ByteRate::tib_per_sec(8.0));
        assert_eq!(big.channels, 4);
        assert!((big.total_bandwidth() / ByteRate::tib_per_sec(8.0) - 1.0).abs() < 1e-12);
        assert_eq!(big.capacity, hbm.capacity, "resize keeps capacity");
    }

    #[test]
    fn capacity_defaults_and_overrides() {
        let hbm = HbmConfig::new(4, ByteRate::tib_per_sec(1.0));
        assert_eq!(hbm.capacity, Bytes::gib(96));
        let small = hbm.with_capacity(Bytes::gib(16));
        assert_eq!(small.capacity, Bytes::gib(16));
        assert_eq!(small.channels, hbm.channels);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = HbmConfig::new(0, ByteRate::tib_per_sec(1.0));
    }
}
