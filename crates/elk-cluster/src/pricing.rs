//! Shared step pricing for the cluster serving engines: one bucketed
//! workload step through a `(tp, pp)` pipeline, compiled per stage
//! through the single-flight [`PlanCache`] and composed with the
//! stage-boundary collective cost.
//!
//! Every `elk-cluster` engine — routed, autoscaling, disaggregated and
//! multi-tenant — prices its steps here, so equal `(tp, pp)` layouts
//! give equal latencies, and pricers that share a cache compile each
//! stage shape once.
//!
//! Each pricer prices its steps through its own [`StepMemo`], as each
//! `ServingSim` replica does, so the cache's hit counters see only the
//! first lookup of each shape per pricer.

use std::sync::Arc;

use elk_baselines::{Design, DesignRunner};
use elk_core::CompileError;
use elk_hw::CollectiveModel;
use elk_model::{TransformerConfig, Workload};
use elk_serve::{BatchConfig, CacheStats, PlanCache, StepMemo};
use elk_sim::SimOptions;
use elk_units::Seconds;

use crate::plan::{ParallelismPlan, StageSpan};
use crate::ClusterError;

/// Prices pipeline steps for one `(pod, model, tp, pp)` layout. Owns
/// the group-level [`DesignRunner`], derived from the engine's pod
/// runner so it shares that runner's fitted cost model and plan sets,
/// and a handle on the shared single-flight [`PlanCache`]; `dp` does
/// not enter pricing — every replica group runs the identical pipeline.
#[derive(Debug)]
pub(crate) struct StepPricer {
    runner: DesignRunner,
    cache: Arc<PlanCache>,
    stages: Vec<StageSpan>,
    links: CollectiveModel,
    model: TransformerConfig,
    plan: ParallelismPlan,
    sim: SimOptions,
    memo: StepMemo,
}

impl StepPricer {
    /// Builds the pricer for `plan` on `base`'s pod: the group runner
    /// (derived from `base`), stage spans, boundary collective model,
    /// and a memo sized for the step shapes `batch` produces.
    /// Pricers sharing `base` and `cache` compile each shape once; cache
    /// keys carry the model, tp and phase, so layouts never collide.
    /// Engines pass a one-thread `base`: the cache's pool is the parallel
    /// layer.
    pub fn new(
        base: &DesignRunner,
        model: TransformerConfig,
        plan: ParallelismPlan,
        sim: SimOptions,
        batch: &BatchConfig,
        cache: Arc<PlanCache>,
    ) -> Self {
        let system = base.system();
        StepPricer {
            runner: base.with_system(system.subpod(plan.tp)),
            cache,
            stages: plan.stages(model.layers),
            links: plan.tp_links(system),
            model,
            plan,
            sim,
            memo: StepMemo::new(batch),
        }
    }

    /// Cumulative plan-cache counters (across all runs so far). Not
    /// part of any emitted report. Memoized steps do not reach the
    /// cache, so they are not counted.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Latency of one bucketed `wl` step through the whole `(tp, pp)`
    /// pipeline: every stage in sequence plus stage-boundary transfers.
    /// Errors carry the failing stage index.
    fn pipeline_step(
        &self,
        design: Design,
        wl: Workload,
    ) -> Result<Seconds, (usize, CompileError)> {
        let model = &self.model;
        let mut total = Seconds::ZERO;
        // The exact boundary formula the estimator uses.
        let boundary = self.plan.boundary_time(&self.links, model, wl);
        for span in &self.stages {
            let key = span.cache_key(&model.name, self.plan.tp);
            total += self
                .cache
                .step_latency_for(
                    &self.runner,
                    &key,
                    self.plan.tp,
                    design,
                    wl,
                    &self.sim,
                    |w, s| model.build_stage(w, s, span.layers.clone(), span.embed, span.head),
                )
                .map_err(|e| (span.index, e))?;
            if span.index + 1 != self.stages.len() {
                total += boundary;
            }
        }
        Ok(total)
    }

    /// [`pipeline_step`](Self::pipeline_step) through the pricer's
    /// [`StepMemo`], with its micro-batch fallback. Failures name the
    /// stage as [`ClusterError::Compile`].
    pub fn split_step(&self, design: Design, wl: Workload) -> Result<Seconds, ClusterError> {
        self.memo
            .price(design, wl, |(_, e)| e, &|w| self.pipeline_step(design, w))
            .map_err(|(stage, source)| ClusterError::Compile { stage, source })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use elk_model::Phase;
    use elk_serve::{LengthModel, RateShape, RequestTrace, TraceConfig};

    impl StepPricer {
        /// Asserts that every step this pricer priced has a table slot
        /// in its memo, and counts the shapes that ran as two half
        /// batches: their latency is exactly the sum of their memoized
        /// halves.
        pub(crate) fn split_steps(&self, cfg: &BatchConfig) -> usize {
            assert_eq!(self.memo.spilled(), 0, "a priced step has no table slot");
            let mut splits = 0;
            for design in Design::ALL {
                for phase in [Phase::Decode, Phase::Prefill] {
                    for batch in 2..=cfg.max_batch.next_power_of_two() {
                        for seq_len in cfg.seq_buckets.ladder() {
                            let wl = |batch| Workload {
                                batch,
                                seq_len,
                                phase,
                            };
                            let at = |batch| self.memo.get(design, wl(batch));
                            let lo = batch / 2;
                            if let (Some(t), Some(a), Some(b)) = (at(batch), at(lo), at(batch - lo))
                            {
                                splits += usize::from(t == a + b);
                            }
                        }
                    }
                }
            }
            splits
        }
    }

    /// Long prompts at once: whole prefill batches exceed SRAM and run
    /// as half batches.
    pub(crate) fn long_prompts(requests: usize) -> RequestTrace {
        TraceConfig {
            seed: 5,
            requests,
            rate: RateShape::Constant { rate_rps: 5000.0 },
            prompt_len: LengthModel::Uniform { lo: 1100, hi: 2000 },
            output_len: LengthModel::Uniform { lo: 2, hi: 4 },
        }
        .generate()
    }
}
