use std::fmt;

use serde::{Deserialize, Serialize};

use elk_units::{ByteRate, Bytes, FlopRate, Seconds};

use crate::{ChipConfig, CollectiveModel, HbmConfig, InterChipTopology};

/// A pod of identical ICCA chips with per-chip HBM and inter-chip links,
/// running tensor-parallel model execution (§5 emulation framework).
///
/// # Examples
///
/// ```
/// use elk_hw::presets;
/// use elk_units::ByteRate;
///
/// let sys = presets::ipu_pod4();
/// // 4 chips x 4 TiB/s HBM each = 16 TiB/s pod bandwidth.
/// assert!(sys.total_hbm_bandwidth().bytes_per_sec()
///     > ByteRate::tib_per_sec(15.9).bytes_per_sec());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The (identical) chip description.
    pub chip: ChipConfig,
    /// HBM attached to each chip.
    pub hbm: HbmConfig,
    /// Number of chips.
    pub chips: u64,
    /// Aggregate inter-chip bandwidth of the pod.
    pub inter_chip_bw: ByteRate,
    /// Inter-chip link arrangement the collectives are priced on
    /// (ring by default — the historical behaviour).
    pub inter_chip_topology: InterChipTopology,
}

impl SystemConfig {
    /// Pod-wide HBM bandwidth.
    #[must_use]
    pub fn total_hbm_bandwidth(&self) -> ByteRate {
        self.hbm.total_bandwidth() * self.chips
    }

    /// Pod-wide peak MatMul throughput.
    #[must_use]
    pub fn total_matmul_rate(&self) -> FlopRate {
        self.chip.matmul_rate() * self.chips
    }

    /// Pod-wide on-chip SRAM.
    #[must_use]
    pub fn total_sram(&self) -> Bytes {
        self.chip.total_sram() * self.chips
    }

    /// The collective cost model for this pod on its own link
    /// arrangement: each chip gets an even share of the aggregate
    /// inter-chip bandwidth.
    #[must_use]
    pub fn collective(&self) -> CollectiveModel {
        self.collective_on(self.inter_chip_topology)
    }

    /// The collective cost model for this pod under an explicit
    /// `topology` (what-if pricing without rebuilding the system).
    #[must_use]
    pub fn collective_on(&self, topology: InterChipTopology) -> CollectiveModel {
        CollectiveModel::new(self.chips, self.inter_chip_bw / self.chips, topology)
    }

    /// Time for one all-reduce of `volume` (already per-chip sharded)
    /// across the pod. With model parallelism the reduced activations
    /// are small, so a bandwidth term with a per-step latency suffices
    /// (§5: "little inter-chip communication overhead"). Delegates to
    /// [`CollectiveModel`] so the compiler, simulator, and cluster
    /// planner always agree on collective cost.
    #[must_use]
    pub fn allreduce_time(&self, volume: Bytes) -> Seconds {
        self.collective().all_reduce(volume)
    }

    /// This pod rewired with `topology` inter-chip links (same chips
    /// and bandwidth).
    #[must_use]
    pub fn with_inter_chip_topology(&self, topology: InterChipTopology) -> SystemConfig {
        SystemConfig {
            inter_chip_topology: topology,
            ..self.clone()
        }
    }

    /// A chip group carved out of this pod: `chips` of the same chips
    /// with a proportional share of the aggregate inter-chip bandwidth.
    /// Carving the whole pod returns it unchanged (bit-identical
    /// bandwidth, no rescaling round-trip).
    ///
    /// # Panics
    ///
    /// Panics if `chips` is zero or exceeds the pod size.
    #[must_use]
    pub fn subpod(&self, chips: u64) -> SystemConfig {
        assert!(
            chips >= 1 && chips <= self.chips,
            "subpod of {chips} chips from a {}-chip pod",
            self.chips
        );
        if chips == self.chips {
            return self.clone();
        }
        SystemConfig {
            chips,
            inter_chip_bw: self.inter_chip_bw / self.chips * chips,
            ..self.clone()
        }
    }

    /// Re-provisions pod HBM to `total` aggregate bandwidth split evenly
    /// across chips (the "HBM BW" axes of Figs. 19–22).
    #[must_use]
    pub fn with_total_hbm_bandwidth(&self, total: ByteRate) -> SystemConfig {
        SystemConfig {
            hbm: self.hbm.with_total_bandwidth(total / self.chips),
            ..self.clone()
        }
    }

    /// Re-provisions the pod-wide interconnect (sum over chips) to
    /// `total` (the "NoC BW" axis of Fig. 22).
    #[must_use]
    pub fn with_total_noc_bandwidth(&self, total: ByteRate) -> SystemConfig {
        SystemConfig {
            chip: self.chip.with_noc_bandwidth(total / self.chips),
            ..self.clone()
        }
    }

    /// Re-sizes every chip to `cores` and scales HBM to keep
    /// `hbm_per_core` (Fig. 23 uses 2.7 GB/s per core).
    #[must_use]
    pub fn with_cores_and_hbm_per_core(&self, cores: u64, hbm_per_core: ByteRate) -> SystemConfig {
        SystemConfig {
            chip: self.chip.with_cores(cores),
            hbm: self.hbm.with_total_bandwidth(hbm_per_core * cores),
            ..self.clone()
        }
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x [{} | {}] inter-chip {}",
            self.chips, self.chip, self.hbm, self.inter_chip_bw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn allreduce_zero_for_single_chip() {
        let mut sys = presets::ipu_pod4();
        sys.chips = 1;
        assert_eq!(sys.allreduce_time(Bytes::mib(1)), Seconds::ZERO);
    }

    #[test]
    fn allreduce_scales_with_volume() {
        let sys = presets::ipu_pod4();
        let small = sys.allreduce_time(Bytes::kib(64));
        let large = sys.allreduce_time(Bytes::mib(64));
        assert!(large > small);
        // Decode activations (~320 KB) must reduce in well under 100 us.
        assert!(sys.allreduce_time(Bytes::kib(320)) < Seconds::from_micros(100.0));
    }

    #[test]
    fn subpod_shares_bandwidth_proportionally() {
        let sys = presets::ipu_pod4();
        let half = sys.subpod(2);
        assert_eq!(half.chips, 2);
        assert_eq!(half.chip, sys.chip);
        let per_chip = sys.inter_chip_bw / sys.chips;
        assert_eq!(half.inter_chip_bw, per_chip * 2u64);
        // Whole-pod carve is the pod, bit for bit.
        assert_eq!(sys.subpod(4), sys);
    }

    #[test]
    #[should_panic(expected = "subpod")]
    fn oversized_subpod_rejected() {
        let _ = presets::ipu_pod4().subpod(5);
    }

    #[test]
    fn hbm_sweep_splits_across_chips() {
        let sys = presets::ipu_pod4();
        let swept = sys.with_total_hbm_bandwidth(ByteRate::tib_per_sec(8.0));
        let got = swept.total_hbm_bandwidth() / ByteRate::tib_per_sec(8.0);
        assert!((got - 1.0).abs() < 1e-9);
        assert_eq!(swept.hbm.channels, sys.hbm.channels);
    }

    #[test]
    fn core_sweep_keeps_hbm_per_core() {
        let sys = presets::ipu_pod4();
        let per_core = ByteRate::new(2.7e9);
        for cores in [1000u64, 1472, 2944] {
            let s = sys.with_cores_and_hbm_per_core(cores, per_core);
            let got = s.hbm.total_bandwidth().bytes_per_sec() / cores as f64;
            assert!((got - 2.7e9).abs() / 2.7e9 < 1e-9);
        }
    }
}
