use serde::{Deserialize, Serialize};

use elk_hw::ChipConfig;
use elk_units::{ByteRate, Bytes, FlopRate, Seconds};

use crate::{CostModel, OpClass, TileShape};

/// Analytic ground-truth device: a shape-aware per-core cycle model that
/// stands in for profiling real hardware.
///
/// Execution time is the max of a compute term (peak rate derated by a
/// shape-efficiency factor: small or misaligned dimensions waste systolic
/// and SIMD lanes) and an SRAM-bandwidth term, plus a fixed per-tile launch
/// overhead. A deterministic multiplicative noise term (hash of the shape)
/// models measurement variance, so fitting against this device reproduces
/// the imperfect-profile conditions of the paper's Fig. 12.
///
/// # Examples
///
/// ```
/// use elk_cost::{AnalyticDevice, CostModel, TileShape};
/// use elk_hw::presets;
///
/// let dev = AnalyticDevice::of_chip(&presets::ipu_pod4().chip);
/// // A decode GEMV tile is SRAM-bandwidth-bound, not FLOP-bound:
/// let gemv = TileShape::batch_matmul(4, 1, 128, 512);
/// let big = TileShape::matmul(64, 512, 64);
/// assert!(dev.tile_time(&gemv) < dev.tile_time(&big));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalyticDevice {
    matmul_rate: FlopRate,
    vector_rate: FlopRate,
    sram_bw: ByteRate,
    link_bw: ByteRate,
    link_latency: Seconds,
    tile_overhead: Seconds,
    noise_sigma: f64,
    noise_seed: u64,
}

impl AnalyticDevice {
    /// Builds the device model from a chip description, noise-free.
    #[must_use]
    pub fn of_chip(chip: &ChipConfig) -> Self {
        AnalyticDevice {
            matmul_rate: chip.matmul_rate_per_core,
            vector_rate: chip.vector_rate_per_core,
            sram_bw: chip.sram_bw_per_core,
            link_bw: chip.topology.shift_bandwidth(),
            link_latency: Seconds::new(600e-9),
            tile_overhead: Seconds::new(1.0e-6),
            noise_sigma: 0.0,
            noise_seed: 0x9e3779b97f4a7c15,
        }
    }

    /// The device as the compiler's profiling run measures it:
    /// [`of_chip`](Self::of_chip) under ±5% deterministic measurement
    /// noise.
    #[must_use]
    pub fn measured(chip: &ChipConfig) -> Self {
        Self::of_chip(chip).with_noise(0.05)
    }

    /// Enables deterministic measurement noise with relative magnitude
    /// `sigma` (e.g. `0.05` for ±5%).
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or ≥ 1.
    #[must_use]
    pub fn with_noise(mut self, sigma: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&sigma),
            "noise sigma must be in [0,1), got {sigma}"
        );
        self.noise_sigma = sigma;
        self
    }

    /// Sets the noise seed (different seeds model different profiling runs).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.noise_seed = seed;
        self
    }

    /// Per-link latency of the interconnect model.
    #[must_use]
    pub fn link_latency(&self) -> Seconds {
        self.link_latency
    }

    /// The shape-efficiency factor in `(0, 0.95]`: how much of the peak
    /// rate the tile's dimensions can sustain.
    #[must_use]
    pub fn efficiency(&self, shape: &TileShape) -> f64 {
        // Each dimension below the unit's native granularity wastes lanes;
        // dim/(dim + c) saturates toward 1 for large dims.
        fn dim_eff(d: u64, native: f64) -> f64 {
            let d = d as f64;
            d / (d + native)
        }
        let eff = match shape.class {
            OpClass::MatMul => {
                0.95 * dim_eff(shape.d0, 4.0) * dim_eff(shape.d1, 24.0) * dim_eff(shape.d2, 6.0)
            }
            OpClass::Reduce => 0.9 * dim_eff(shape.d1, 16.0),
            OpClass::Elementwise => 0.9 * dim_eff(shape.d0, 64.0),
            OpClass::Gather => 1.0,
        };
        eff.max(1e-3)
    }

    fn noise_factor(&self, shape: &TileShape) -> f64 {
        if self.noise_sigma == 0.0 {
            return 1.0;
        }
        let mut h = self.noise_seed;
        for v in [
            shape.class as u64,
            shape.batch,
            shape.d0,
            shape.d1,
            shape.d2,
        ] {
            h ^= v.wrapping_mul(0xff51afd7ed558ccd).rotate_left(31);
            h = h.wrapping_mul(0xc4ceb9fe1a85ec53);
            h ^= h >> 33;
        }
        // Sum of two uniforms centred at 0 — light-tailed, bounded noise.
        let u1 = (h & 0xffff_ffff) as f64 / u32::MAX as f64;
        let u2 = (h >> 32) as f64 / u32::MAX as f64;
        1.0 + self.noise_sigma * (u1 + u2 - 1.0)
    }
}

impl CostModel for AnalyticDevice {
    fn tile_time(&self, shape: &TileShape) -> Seconds {
        let rate = match shape.class {
            OpClass::MatMul => self.matmul_rate,
            OpClass::Reduce | OpClass::Elementwise => self.vector_rate,
            OpClass::Gather => FlopRate::ZERO,
        };
        let compute = if shape.flops() == 0.0 {
            Seconds::ZERO
        } else {
            Seconds::new(shape.flops() / (rate.get() * self.efficiency(shape)))
        };
        let memory = Seconds::new(shape.bytes_touched(2) / self.sram_bw.bytes_per_sec());
        let t = compute.max(memory) + self.tile_overhead;
        t * self.noise_factor(shape)
    }

    fn link_time(&self, volume: Bytes) -> Seconds {
        if volume.is_zero() {
            Seconds::ZERO
        } else {
            self.link_latency + self.link_bw.transfer_time(volume)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;

    fn dev() -> AnalyticDevice {
        AnalyticDevice::of_chip(&presets::ipu_pod4().chip)
    }

    #[test]
    fn bigger_tiles_take_longer() {
        let d = dev();
        let small = TileShape::matmul(8, 64, 8);
        let large = TileShape::matmul(32, 256, 32);
        assert!(d.tile_time(&large) > d.tile_time(&small));
    }

    #[test]
    fn larger_tiles_are_more_efficient_per_flop() {
        let d = dev();
        let small = TileShape::matmul(2, 32, 2);
        let large = TileShape::matmul(64, 1024, 64);
        let tput = |s: &TileShape| s.flops() / d.tile_time(s).as_secs();
        assert!(tput(&large) > 5.0 * tput(&small));
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let d = dev().with_noise(0.1);
        let t = TileShape::matmul(17, 333, 41);
        let a = d.tile_time(&t);
        let b = d.tile_time(&t);
        assert_eq!(a, b);
        let clean = dev().tile_time(&t);
        let ratio = a / clean;
        assert!((0.89..1.11).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn different_seeds_change_noise() {
        let t = TileShape::matmul(17, 333, 41);
        let a = dev().with_noise(0.1).with_seed(1).tile_time(&t);
        let b = dev().with_noise(0.1).with_seed(2).tile_time(&t);
        assert_ne!(a, b);
    }

    #[test]
    fn link_time_has_latency_floor() {
        let d = dev();
        assert_eq!(d.link_time(Bytes::ZERO), Seconds::ZERO);
        assert!(d.link_time(Bytes::new(1)) >= d.link_latency());
    }

    #[test]
    fn gather_is_memory_bound() {
        let d = dev();
        let g = TileShape::gather(1024, 128);
        let expected = Seconds::new(g.bytes_touched(2) / 21.3e9);
        let got = d.tile_time(&g) - d.tile_overhead;
        assert!((got.as_secs() - expected.as_secs()).abs() / expected.as_secs() < 0.01);
    }
}
