use std::fmt;

use serde::{Deserialize, Serialize};

use elk_cost::TileShape;
use elk_units::{Bytes, Seconds};

/// The split and replication factors of an execute-state plan — the
/// paper's "list of integers" plan representation (§5).
///
/// Not every factor applies to every operator class; unused factors are 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanFactors {
    /// Split of the independent batch dimension (BatchMatMul).
    pub pb: u64,
    /// Split of the row dimension `m` (or rows / elems).
    pub pm: u64,
    /// Split of the contraction dimension `k`.
    pub pk: u64,
    /// Split of the column dimension `n` (or cols).
    pub pn: u64,
    /// Execute-state replication copies of the moving operand within its
    /// sharing group of `pn` cores (1 = rotate everything, `pn` = fully
    /// replicated).
    pub ra: u64,
    /// Execute-state replication copies of the stationary operand within
    /// its sharing group of `pm` cores.
    pub rb: u64,
}

impl PlanFactors {
    /// Cores used by the plan.
    #[must_use]
    pub fn cores(&self) -> u64 {
        self.pb * self.pm * self.pk * self.pn
    }

    /// Number of dimensions split more than one way (mesh chips restrict
    /// this to the mesh dimensionality, §5).
    #[must_use]
    pub fn split_dims(&self) -> u32 {
        [self.pb, self.pm, self.pk, self.pn]
            .iter()
            .filter(|&&p| p > 1)
            .count() as u32
    }
}

impl fmt::Display for PlanFactors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{},{},{},{}|r{},{}>",
            self.pb, self.pm, self.pk, self.pn, self.ra, self.rb
        )
    }
}

/// One preload-state plan of an operator under a given execute-state plan
/// (§4.3). `split_copies` copies of the HBM-resident operand are broadcast
/// at preload time; the data-distribution phase at execution start raises
/// the on-chip replication to the execute-state level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreloadPlan {
    /// Copies broadcast at preload time (`rP ≤ rb`).
    pub split_copies: u64,
    /// Per-core SRAM held from preload start until execution completes.
    pub preload_space: Bytes,
    /// DRAM-side read volume (independent of the broadcast factor).
    pub hbm_bytes: Bytes,
    /// Total bytes injected into the interconnect during preload.
    pub noc_preload_bytes: Bytes,
    /// Per-core inbound bytes during the data-distribution phase.
    pub distribute_traffic: Bytes,
    /// Serialized duration of the data-distribution phase.
    pub distribute_time: Seconds,
}

impl PreloadPlan {
    /// A trivial preload plan for operators with nothing in HBM.
    #[must_use]
    pub fn empty() -> Self {
        PreloadPlan {
            split_copies: 1,
            preload_space: Bytes::ZERO,
            hbm_bytes: Bytes::ZERO,
            noc_preload_bytes: Bytes::ZERO,
            distribute_traffic: Bytes::ZERO,
            distribute_time: Seconds::ZERO,
        }
    }
}

/// An execute-state partition plan with per-core accounting and its
/// preload-state alternatives.
///
/// All byte quantities are **per core** unless suffixed otherwise; times
/// are per-operator (cores run the homogeneous tiles in lock-step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutePlan {
    /// Split/replication factors.
    pub factors: PlanFactors,
    /// Cores the plan occupies.
    pub cores_used: u64,
    /// Per-core SRAM footprint while executing.
    pub exec_space: Bytes,
    /// Pure per-core compute time (all shift rounds).
    pub compute_time: Seconds,
    /// Per-core inbound inter-core traffic during execution
    /// (compute-shift rotations + cross-core reductions).
    pub shift_traffic: Bytes,
    /// Rotation micro-steps.
    pub chunks: u64,
    /// The per-core, per-chunk compute tile (what one core runs `chunks`
    /// times) — lets downstream consumers (the simulator) re-cost the
    /// plan with their own device model.
    pub tile: TileShape,
    /// End-to-end per-operator execution time under the chip's SRAM
    /// contention policy, excluding the data-distribution phase.
    pub exec_time: Seconds,
    /// Preload-state alternatives, sorted by decreasing `preload_space`
    /// (the first entry is maximum broadcast — fastest distribution).
    pub preload_plans: Vec<PreloadPlan>,
}

impl ExecutePlan {
    /// The preload plan with the largest footprint (maximum broadcast,
    /// zero or minimal distribution) — `MaxPreload` in Fig. 7.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no preload alternatives (never produced by
    /// the enumerator).
    #[must_use]
    pub fn max_preload(&self) -> &PreloadPlan {
        self.preload_plans.first().expect("plan without preload")
    }
}

impl fmt::Display for ExecutePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores={} space={} time={} ({} preload plans)",
            self.factors,
            self.cores_used,
            self.exec_space,
            self.exec_time,
            self.preload_plans.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_cores_and_split_dims() {
        let f = PlanFactors {
            pb: 2,
            pm: 4,
            pk: 1,
            pn: 8,
            ra: 1,
            rb: 1,
        };
        assert_eq!(f.cores(), 64);
        assert_eq!(f.split_dims(), 3);
    }

    #[test]
    fn empty_preload_is_all_zero() {
        let p = PreloadPlan::empty();
        assert!(p.preload_space.is_zero());
        assert!(p.hbm_bytes.is_zero());
        assert_eq!(p.distribute_time, Seconds::ZERO);
    }
}
