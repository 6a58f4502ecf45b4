//! Parallelism plans: how a model is laid out over a pod of chips.
//!
//! A [`ParallelismPlan`] factors the pod into `tp × pp × dp` chips:
//! tensor parallelism splits every layer's heads and FFN columns across
//! `tp` chips (exactly what [`TransformerConfig::build`]'s `shards`
//! argument models), pipeline parallelism splits the layer stack into
//! `pp` stages, and data parallelism replicates the whole (tp, pp)
//! arrangement `dp` times with the batch divided between replicas.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use elk_hw::{CollectiveModel, SystemConfig};
use elk_model::{DType, TransformerConfig, Workload};
use elk_units::Seconds;

/// One stage of a pipeline partition: which layers it runs and whether
/// it owns the embedding prologue / LM-head epilogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage index, `0..pp`.
    pub index: usize,
    /// Absolute layer range of the stage.
    pub layers: Range<u32>,
    /// `true` for the first stage (embedding lookup).
    pub embed: bool,
    /// `true` for the last stage (final norm + LM head).
    pub head: bool,
}

impl StageSpan {
    /// A stable key identifying the stage's *architecture* — equal keys
    /// mean operator-identical sub-graphs, so plan caches deduplicate
    /// equal-shaped interior stages across a pipeline.
    #[must_use]
    pub fn cache_key(&self, model: &str, tp: u64) -> String {
        format!(
            "{model}/tp{tp}/{}l{}{}",
            self.layers.len(),
            if self.embed { "+e" } else { "" },
            if self.head { "+h" } else { "" },
        )
    }
}

/// Degrees of tensor, pipeline, and data parallelism over a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelismPlan {
    /// Tensor-parallel degree: chips each layer is sharded across.
    pub tp: u64,
    /// Pipeline-parallel degree: stages the layer stack is cut into.
    pub pp: u64,
    /// Data-parallel degree: independent (tp, pp) replica groups.
    pub dp: u64,
}

impl ParallelismPlan {
    /// The most data-parallel groups one plan may run, `2¹⁰` (as many as
    /// [`ServeConfig::MAX_REPLICAS`](elk_serve::ServeConfig::MAX_REPLICAS)):
    /// each group holds its own step machine and event loop.
    pub const MAX_GROUPS: u64 = 1 << 10;

    /// The trivial single-chip plan.
    #[must_use]
    pub const fn unit() -> Self {
        ParallelismPlan {
            tp: 1,
            pp: 1,
            dp: 1,
        }
    }

    /// A plan with the given degrees.
    #[must_use]
    pub const fn new(tp: u64, pp: u64, dp: u64) -> Self {
        ParallelismPlan { tp, pp, dp }
    }

    /// Chips the plan occupies (`tp · pp · dp`); a plan that passed
    /// [`validate_structure`](Self::validate_structure) fits its pod.
    #[must_use]
    pub const fn chips_used(&self) -> u64 {
        self.tp * self.pp * self.dp
    }

    /// Checks the plan against the pod, the model, and the workload.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when any degree is zero, `dp`
    /// exceeds [`MAX_GROUPS`](Self::MAX_GROUPS), the plan needs more
    /// chips than the pod has, `tp` does not divide the
    /// model's heads or FFN width, `pp` exceeds the layer count, or
    /// `dp` exceeds the batch (a replica group would sit idle).
    pub fn validate(
        &self,
        system: &SystemConfig,
        model: &TransformerConfig,
        workload: Workload,
    ) -> Result<(), String> {
        self.validate_structure(system, model)?;
        if self.dp > workload.batch {
            return Err(format!(
                "{self}: dp exceeds the batch ({}) — a replica group would be idle",
                workload.batch
            ));
        }
        Ok(())
    }

    /// The workload-independent half of [`validate`](Self::validate):
    /// degrees, the group limit [`MAX_GROUPS`](Self::MAX_GROUPS), chip
    /// budget, shard divisibility, and pipeline depth.
    /// Serving engines use this form — their step batches are dynamic,
    /// and a `dp` beyond a short trace merely idles the extra groups.
    ///
    /// # Errors
    ///
    /// Same as [`validate`](Self::validate) minus the batch bound.
    pub fn validate_structure(
        &self,
        system: &SystemConfig,
        model: &TransformerConfig,
    ) -> Result<(), String> {
        if self.tp == 0 || self.pp == 0 || self.dp == 0 {
            return Err(format!("{self}: every degree must be >= 1"));
        }
        if self.dp > Self::MAX_GROUPS {
            return Err(format!("{self}: dp must be at most {}", Self::MAX_GROUPS));
        }
        let chips = self
            .tp
            .checked_mul(self.pp)
            .and_then(|c| c.checked_mul(self.dp));
        if chips.is_none_or(|c| c > system.chips) {
            let chips = chips.map_or_else(|| "more than 2^64".into(), |c| c.to_string());
            return Err(format!(
                "{self} needs {chips} chips but the pod has {}",
                system.chips
            ));
        }
        model
            .check_shards(self.tp)
            .map_err(|e| format!("{self}: {e}"))?;
        if self.pp > u64::from(model.layers) {
            return Err(format!(
                "{self}: pp exceeds the model's {} layers",
                model.layers
            ));
        }
        Ok(())
    }

    /// The collective model of one tensor-parallel group of this plan:
    /// `tp` participants, each with the pod's per-chip share of the
    /// inter-chip bandwidth, on the pod's link arrangement. The single
    /// constructor the estimator **and** the cluster serving engine
    /// price boundaries with — they can never disagree.
    #[must_use]
    pub fn tp_links(&self, system: &SystemConfig) -> CollectiveModel {
        CollectiveModel::new(
            self.tp,
            system.inter_chip_bw / system.chips,
            system.inter_chip_topology,
        )
    }

    /// Stage-to-stage transfer time for one `workload`-shaped
    /// microbatch of `model` activations: each of the `tp` sender chips
    /// ships its `1/tp` slice point-to-point, and a sharded receiver
    /// all-gathers the full activation across its group.
    #[must_use]
    pub fn boundary_time(
        &self,
        links: &CollectiveModel,
        model: &TransformerConfig,
        workload: Workload,
    ) -> Seconds {
        let activation = DType::F16.bytes_for(workload.tokens_in_flight() * model.hidden);
        let p2p = links.p2p(activation / self.tp);
        if self.tp > 1 {
            p2p + links.all_gather(activation)
        } else {
            p2p
        }
    }

    /// The pipeline partition: `pp` contiguous stages covering
    /// `0..layers`, sized as evenly as possible (earlier stages take the
    /// remainder), with the embedding on the first and the head on the
    /// last.
    ///
    /// # Panics
    ///
    /// Panics if `pp` exceeds `layers` (validate first).
    #[must_use]
    pub fn stages(&self, layers: u32) -> Vec<StageSpan> {
        let pp = u32::try_from(self.pp).expect("pp fits in u32");
        assert!(pp >= 1 && pp <= layers, "pp {pp} out of 1..={layers}");
        let base = layers / pp;
        let extra = layers % pp;
        let mut start = 0u32;
        (0..pp)
            .map(|i| {
                let len = base + u32::from(i < extra);
                let span = StageSpan {
                    index: i as usize,
                    layers: start..start + len,
                    embed: i == 0,
                    head: i + 1 == pp,
                };
                start += len;
                span
            })
            .collect()
    }

    /// The microbatch shape for one replica group: `(micro_batch, count)`
    /// such that `micro_batch · count` covers the group's batch share.
    /// `requested` defaults to the pipeline depth (the classic GPipe
    /// choice) and is clamped to the group batch; with no pipeline
    /// (`pp == 1`) microbatching is pointless and one full batch is
    /// used.
    #[must_use]
    pub fn microbatching(&self, group_batch: u64, requested: Option<u64>) -> (u64, u64) {
        if self.pp <= 1 {
            return (group_batch, 1);
        }
        let want = requested.unwrap_or(self.pp).clamp(1, group_batch);
        let micro = group_batch.div_ceil(want);
        (micro, group_batch.div_ceil(micro))
    }

    /// Derives the per-stage, per-chip shard graphs of this plan for one
    /// microbatch workload: stage `i`'s layers, tensor-parallel over
    /// `tp`, embedding and head on the boundary stages.
    ///
    /// # Panics
    ///
    /// Panics on an invalid plan (validate first).
    #[must_use]
    pub fn stage_graphs(
        &self,
        model: &TransformerConfig,
        micro_workload: Workload,
    ) -> Vec<elk_model::ModelGraph> {
        self.stages(model.layers)
            .into_iter()
            .map(|s| model.build_stage(micro_workload, self.tp, s.layers, s.embed, s.head))
            .collect()
    }

    /// Every valid plan for `model` on `system` under `workload`, in
    /// deterministic `(tp, pp, dp)` lexicographic order — the
    /// auto-parallelism search grid.
    ///
    /// Besides the chip budget, each degree is bounded by the rule
    /// [`validate`](Self::validate) holds it to — `tp` divides the
    /// heads, `pp` is at most the layer count, `dp` at most
    /// [`MAX_GROUPS`](Self::MAX_GROUPS) and the batch — so the walk
    /// stays small however many chips the pod has.
    #[must_use]
    pub fn enumerate(
        system: &SystemConfig,
        model: &TransformerConfig,
        workload: Workload,
    ) -> Vec<ParallelismPlan> {
        let chips = system.chips;
        let groups = Self::MAX_GROUPS.min(workload.batch);
        let mut plans = Vec::new();
        for tp in 1..=chips.min(model.heads) {
            for pp in 1..=(chips / tp).min(model.layers.into()) {
                for dp in 1..=(chips / (tp * pp)).min(groups) {
                    let plan = ParallelismPlan::new(tp, pp, dp);
                    if plan.validate(system, model, workload).is_ok() {
                        plans.push(plan);
                    }
                }
            }
        }
        plans
    }
}

impl fmt::Display for ParallelismPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tp{}·pp{}·dp{}", self.tp, self.pp, self.dp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::zoo;

    fn model() -> TransformerConfig {
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 5;
        cfg
    }

    #[test]
    fn bounded_enumeration_matches_the_whole_chip_walk() {
        let walk = |system: &SystemConfig, model: &TransformerConfig, wl: Workload| {
            let chips = system.chips;
            let mut plans = Vec::new();
            for tp in 1..=chips {
                for pp in 1..=chips / tp {
                    for dp in 1..=chips / (tp * pp) {
                        let plan = ParallelismPlan::new(tp, pp, dp);
                        if plan.validate(system, model, wl).is_ok() {
                            plans.push(plan);
                        }
                    }
                }
            }
            plans
        };
        // A pod with more chips than the model has heads, layers or
        // batch rows, so every bound cuts the walk.
        let mut small = zoo::llama2_13b();
        small.heads = 4;
        small.kv_heads = 4;
        small.layers = 3;
        let wide = SystemConfig {
            chips: 24,
            ..presets::ipu_pod4()
        };
        for (system, model, wl) in [
            (
                presets::ipu_pod4(),
                zoo::llama2_13b(),
                Workload::decode(32, 2048),
            ),
            (presets::ipu_pod4(), model(), Workload::decode(2, 512)),
            (wide.clone(), small.clone(), Workload::decode(5, 512)),
            (wide, model(), Workload::decode(64, 512)),
        ] {
            let plans = ParallelismPlan::enumerate(&system, &model, wl);
            assert!(!plans.is_empty());
            assert_eq!(plans, walk(&system, &model, wl));
        }
    }

    #[test]
    fn validation_catches_each_violation() {
        let sys = presets::ipu_pod4();
        let m = model();
        let wl = Workload::decode(8, 512);
        assert!(ParallelismPlan::new(2, 2, 1).validate(&sys, &m, wl).is_ok());
        let err = |p: ParallelismPlan| p.validate(&sys, &m, wl).unwrap_err();
        assert!(err(ParallelismPlan::new(0, 1, 1)).contains(">= 1"));
        assert!(err(ParallelismPlan::new(4, 2, 1)).contains("chips"));
        assert!(err(ParallelismPlan::new(3, 1, 1)).contains("heads"));
        // pp above the layer count (pod would allow pp=4, model has 5
        // layers, so force a deeper cut on a shallower model).
        let mut shallow = m.clone();
        shallow.layers = 1;
        let e = ParallelismPlan::new(1, 2, 1)
            .validate(&sys, &shallow, wl)
            .unwrap_err();
        assert!(e.contains("layers"), "{e}");
    }

    #[test]
    fn degrees_whose_product_or_depth_wraps_are_rejected() {
        let sys = presets::ipu_pod4();
        let m = model();
        // 2 · 2^63 · 2 wraps to 0 chips, and 2^63 truncates to a u32 pp
        // of 0; neither may pass.
        let e = ParallelismPlan::new(2, 1 << 63, 2)
            .validate_structure(&sys, &m)
            .unwrap_err();
        assert!(e.contains("needs more than 2^64 chips"), "{e}");
        // pp = 2^32 + 1 on a one-chip-per-stage plan: the product fits
        // a u64, the depth truncates to 1 as a u32.
        let big = SystemConfig {
            chips: u64::MAX,
            ..sys
        };
        let e = ParallelismPlan::new(1, (1 << 32) + 1, 1)
            .validate_structure(&big, &m)
            .unwrap_err();
        assert!(e.contains("pp exceeds the model's 5 layers"), "{e}");
    }

    #[test]
    fn dp_past_the_group_limit_is_rejected() {
        let big = SystemConfig {
            chips: u64::MAX,
            ..presets::ipu_pod4()
        };
        let m = model();
        let limit = ParallelismPlan::MAX_GROUPS;
        assert!(ParallelismPlan::new(1, 1, limit)
            .validate_structure(&big, &m)
            .is_ok());
        let e = ParallelismPlan::new(1, 1, limit + 1)
            .validate_structure(&big, &m)
            .unwrap_err();
        assert!(e.contains("tp1·pp1·dp1025: dp must be at most 1024"), "{e}");
    }

    #[test]
    fn dp_larger_than_batch_is_rejected() {
        let sys = presets::ipu_pod4();
        let m = model();
        let wl = Workload::decode(2, 512);
        let e = ParallelismPlan::new(1, 1, 4)
            .validate(&sys, &m, wl)
            .unwrap_err();
        assert!(e.contains("batch"), "{e}");
    }

    #[test]
    fn stages_cover_the_layer_stack_evenly() {
        let plan = ParallelismPlan::new(1, 3, 1);
        let stages = plan.stages(5);
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].layers, 0..2, "remainder goes first");
        assert_eq!(stages[1].layers, 2..4);
        assert_eq!(stages[2].layers, 4..5);
        assert!(stages[0].embed && !stages[0].head);
        assert!(!stages[2].embed && stages[2].head);
        assert!(!stages[1].embed && !stages[1].head);
    }

    #[test]
    fn equal_shaped_interior_stages_share_a_cache_key() {
        let plan = ParallelismPlan::new(2, 4, 1);
        let stages = plan.stages(8);
        assert_eq!(
            stages[1].cache_key("m", 2),
            stages[2].cache_key("m", 2),
            "interior stages of equal size dedupe"
        );
        assert_ne!(stages[0].cache_key("m", 2), stages[1].cache_key("m", 2));
        assert_ne!(stages[3].cache_key("m", 2), stages[1].cache_key("m", 2));
    }

    #[test]
    fn microbatching_defaults_to_pipeline_depth() {
        let plan = ParallelismPlan::new(1, 4, 1);
        assert_eq!(plan.microbatching(32, None), (8, 4));
        assert_eq!(plan.microbatching(32, Some(2)), (16, 2));
        // Clamped to the batch.
        assert_eq!(plan.microbatching(2, None), (1, 2));
        assert_eq!(plan.microbatching(1, Some(8)), (1, 1));
        // No pipeline, no microbatching.
        assert_eq!(
            ParallelismPlan::new(4, 1, 1).microbatching(32, Some(8)),
            (32, 1)
        );
    }

    #[test]
    fn enumeration_is_lexicographic_and_respects_constraints() {
        let sys = presets::ipu_pod4();
        let m = model();
        let wl = Workload::decode(8, 512);
        let plans = ParallelismPlan::enumerate(&sys, &m, wl);
        assert!(plans.contains(&ParallelismPlan::unit()));
        assert!(plans.contains(&ParallelismPlan::new(4, 1, 1)));
        assert!(plans.contains(&ParallelismPlan::new(2, 2, 1)));
        // tp=3 does not divide 40 heads.
        assert!(!plans.iter().any(|p| p.tp == 3));
        // Deterministic lexicographic order.
        let mut sorted = plans.clone();
        sorted.sort_by_key(|p| (p.tp, p.pp, p.dp));
        assert_eq!(plans, sorted);
        // Every plan fits the pod.
        assert!(plans.iter().all(|p| p.chips_used() <= sys.chips));
    }

    #[test]
    fn stage_graphs_concatenate_to_the_full_model() {
        let m = model();
        let wl = Workload::decode(8, 512);
        let plan = ParallelismPlan::new(2, 2, 1);
        let stages = plan.stage_graphs(&m, wl);
        let full = m.build(wl, 2);
        let total: usize = stages.iter().map(elk_model::ModelGraph::len).sum();
        assert_eq!(total, full.len());
    }
}
