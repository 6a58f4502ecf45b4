//! The cluster estimator: composes per-stage single-chip-group
//! compilation and simulation into a pod-level execution estimate.
//!
//! For a plan `(tp, pp, dp)` the estimator
//!
//! 1. carves the pod into `dp` identical groups of `tp · pp` chips
//!    ([`SystemConfig::subpod`]) and splits the batch between them;
//! 2. builds each pipeline stage's per-chip-shard graph
//!    ([`ParallelismPlan::stage_graphs`]) and runs it through the exact
//!    [`DesignRunner`] → `SimReport` path single-chip experiments use,
//!    so a `tp = pp = dp = 1` plan reproduces the single-chip numbers
//!    bit for bit;
//! 3. prices stage-to-stage activations and tensor-parallel gathers on
//!    the [`CollectiveModel`] and accounts GPipe-style pipeline bubbles
//!    over the microbatch schedule;
//! 4. reports a per-stage timeline, the bubble fraction, and scaling
//!    efficiency against the single-chip baseline.
//!
//! Everything is deterministic: the auto-parallelism search fans the
//! `(tp, pp, dp)` grid across an [`elk_par`] pool with index-ordered
//! merging, so reports are byte-identical at any thread count.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_hw::SystemConfig;
use elk_model::{OperandSource, TransformerConfig, Workload};
use elk_sim::SimOptions;
use elk_units::{Bytes, Seconds};

use crate::plan::{ParallelismPlan, StageSpan};
use crate::ClusterError;

/// Knobs of the estimator (and of the auto-parallelism search).
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// Microbatches per pipeline round; defaults to the pipeline depth.
    pub microbatches: Option<u64>,
    /// Worker threads for the search grid / stage fan-out (`0` = all
    /// cores). Outputs are byte-identical at any setting.
    pub threads: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            microbatches: None,
            threads: 1,
        }
    }
}

/// One stage's contribution to the cluster timeline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageReport {
    /// Stage index, `0..pp`.
    pub stage: usize,
    /// First layer (absolute index).
    pub layer_start: u32,
    /// One past the last layer.
    pub layer_end: u32,
    /// `true` when the stage owns the embedding prologue.
    pub embed: bool,
    /// `true` when the stage owns the final norm + LM head.
    pub head: bool,
    /// Operators in the stage's per-shard graph.
    pub ops: usize,
    /// Weight bytes resident per chip shard.
    pub weight_bytes: Bytes,
    /// Simulated time of one microbatch through the stage.
    pub time: Seconds,
    /// Stage-to-stage transfer after this stage (zero for the last):
    /// point-to-point activations plus the receiving group's all-gather.
    pub boundary: Seconds,
    /// When the stage first becomes busy (pipeline fill).
    pub start: Seconds,
    /// When the stage's last microbatch completes.
    pub end: Seconds,
    /// Fraction of the makespan the stage spends computing.
    pub busy_fraction: f64,
}

/// Deterministic pod-level estimate of one plan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterReport {
    /// Model name.
    pub model: String,
    /// The cluster-step workload (the full batch, before the dp split).
    pub workload: Workload,
    /// Chips in the pod.
    pub chips: u64,
    /// The evaluated plan.
    pub plan: ParallelismPlan,
    /// Chips the plan occupies (`tp · pp · dp`).
    pub chips_used: u64,
    /// Design the stages were compiled with.
    pub design: Design,
    /// Inter-chip link arrangement collectives were priced on.
    pub interconnect: String,
    /// Requests per replica group (`ceil(batch / dp)`).
    pub group_batch: u64,
    /// Requests per microbatch.
    pub micro_batch: u64,
    /// Microbatches per pipeline round.
    pub microbatches: u64,
    /// Per-stage timeline, in pipeline order.
    pub stages: Vec<StageReport>,
    /// Makespan of one cluster step (all groups run identically-sized
    /// batch shares in parallel, so this is the slowest — and only —
    /// group time).
    pub step_total: Seconds,
    /// Tensor-parallel all-reduce volume per microbatch (per chip,
    /// summed over operators).
    pub tp_allreduce_bytes: Bytes,
    /// Time those all-reduces cost per microbatch (priced on the
    /// collective model, as inside the stage simulations).
    pub tp_allreduce_time: Seconds,
    /// Stage-boundary transfer time per microbatch (sum over
    /// boundaries).
    pub p2p_time: Seconds,
    /// Fraction of stage-time-slots idle over the pipeline schedule:
    /// `1 − m·ΣTᵢ / (pp · makespan)` (0 for a single stage).
    pub bubble_fraction: f64,
    /// Single-chip time over `chips_used ×` this plan's time — 1.0 is
    /// perfect linear scaling. `None` when the single-chip baseline is
    /// infeasible or disabled.
    pub scaling_efficiency: Option<f64>,
}

/// One evaluated point of the auto-parallelism search grid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanCandidate {
    /// The candidate plan.
    pub plan: ParallelismPlan,
    /// Step makespan when feasible.
    pub step_total: Option<Seconds>,
    /// Why the candidate was rejected, when infeasible.
    pub error: Option<String>,
}

/// Output of [`ClusterEstimator::search`]: every candidate in grid
/// order plus the winner's full report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SearchOutcome {
    /// Every `(tp, pp, dp)` candidate, in lexicographic grid order.
    pub candidates: Vec<PlanCandidate>,
    /// The winning plan's full estimate (minimum step time; ties break
    /// toward the lexicographically first plan).
    pub best: ClusterReport,
}

/// Plans and prices model execution across a pod of ICCA chips.
#[derive(Debug)]
pub struct ClusterEstimator {
    runner: DesignRunner,
    opts: ClusterOptions,
}

impl ClusterEstimator {
    /// Creates an estimator for the pod of `runner`, whose cost model
    /// and plan sets every stage, candidate and baseline run shares.
    #[must_use]
    pub fn new(runner: impl Into<DesignRunner>, opts: ClusterOptions) -> Self {
        ClusterEstimator {
            runner: runner.into().with_threads(1),
            opts,
        }
    }

    /// The pod under planning.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        self.runner.system()
    }

    /// The estimator's options.
    #[must_use]
    pub fn options(&self) -> &ClusterOptions {
        &self.opts
    }

    /// Estimates one fixed plan, including the single-chip baseline for
    /// scaling efficiency when enabled and feasible.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] for a plan that fails validation or
    /// HBM-capacity feasibility; [`ClusterError::Compile`] when a stage
    /// has no feasible on-chip plan (SRAM infeasibility).
    pub fn estimate(
        &self,
        model: &TransformerConfig,
        workload: Workload,
        design: Design,
        sim: &SimOptions,
        plan: ParallelismPlan,
    ) -> Result<ClusterReport, ClusterError> {
        plan.validate(self.system(), model, workload)
            .map_err(ClusterError::Invalid)?;
        let baseline = self.baseline_total(model, workload, design, sim, plan)?;
        self.estimate_inner(
            model,
            workload,
            design,
            sim,
            plan,
            baseline,
            self.opts.threads,
        )
    }

    /// Auto-parallelism: evaluates the whole `(tp, pp, dp)` grid and
    /// returns every candidate plus the winner's report. Candidates fan
    /// across the configured worker threads with index-ordered merging,
    /// so the outcome is byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when no candidate is feasible.
    pub fn search(
        &self,
        model: &TransformerConfig,
        workload: Workload,
        design: Design,
        sim: &SimOptions,
    ) -> Result<SearchOutcome, ClusterError> {
        let grid = ParallelismPlan::enumerate(self.system(), model, workload);
        if grid.is_empty() {
            return Err(ClusterError::Invalid(format!(
                "no valid (tp, pp, dp) grid for {} on {} chips",
                model.name,
                self.system().chips
            )));
        }
        // Every candidate is evaluated independently (inner compile
        // pools stay sequential so worker counts do not multiply).
        let reports = elk_par::par_map(self.opts.threads, &grid, |_, &plan| {
            self.estimate_inner(model, workload, design, sim, plan, None, 1)
        });

        let baseline = reports
            .first()
            .and_then(|r| r.as_ref().ok())
            .filter(|r| r.plan == ParallelismPlan::unit())
            .map(|r| r.step_total);

        let mut best: Option<ClusterReport> = None;
        let mut candidates = Vec::with_capacity(grid.len());
        for report in reports {
            match report {
                Ok(mut r) => {
                    // Patch in the shared baseline (candidates skip it
                    // to avoid re-running (1,1,1) per grid point).
                    r.scaling_efficiency = baseline.map(|base| {
                        base.as_secs() / (r.chips_used as f64 * r.step_total.as_secs())
                    });
                    candidates.push(PlanCandidate {
                        plan: r.plan,
                        step_total: Some(r.step_total),
                        error: None,
                    });
                    // Strictly-smaller wins, so grid order breaks ties.
                    if best.as_ref().is_none_or(|b| r.step_total < b.step_total) {
                        best = Some(r);
                    }
                }
                Err(e) => {
                    // Infeasible candidates are data, not failures; the
                    // plan they describe is recoverable from the error
                    // position in grid order.
                    candidates.push(PlanCandidate {
                        plan: grid[candidates.len()],
                        step_total: None,
                        error: Some(e.to_string()),
                    });
                }
            }
        }
        let best = best.ok_or_else(|| {
            ClusterError::Invalid(format!(
                "no feasible (tp, pp, dp) plan for {} on this pod ({} candidates tried)",
                model.name,
                candidates.len()
            ))
        })?;
        Ok(SearchOutcome { candidates, best })
    }

    /// The `(1,1,1)` reference time, or `None` when infeasible.
    fn baseline_total(
        &self,
        model: &TransformerConfig,
        workload: Workload,
        design: Design,
        sim: &SimOptions,
        plan: ParallelismPlan,
    ) -> Result<Option<Seconds>, ClusterError> {
        if plan == ParallelismPlan::unit() {
            // The unit plan is its own baseline; estimate_inner fills it.
            return Ok(None);
        }
        let unit = ParallelismPlan::unit();
        if unit.validate(self.system(), model, workload).is_err() {
            return Ok(None);
        }
        match self.estimate_inner(model, workload, design, sim, unit, None, self.opts.threads) {
            Ok(r) => Ok(Some(r.step_total)),
            // An infeasible single-chip run (SRAM/HBM) just means no
            // efficiency reference exists.
            Err(_) => Ok(None),
        }
    }

    /// The core composition; `unit_total` is the `(1,1,1)` step time when
    /// already known.
    #[allow(clippy::too_many_arguments)]
    fn estimate_inner(
        &self,
        model: &TransformerConfig,
        workload: Workload,
        design: Design,
        sim: &SimOptions,
        plan: ParallelismPlan,
        unit_total: Option<Seconds>,
        threads: usize,
    ) -> Result<ClusterReport, ClusterError> {
        plan.validate(self.system(), model, workload)
            .map_err(ClusterError::Invalid)?;
        let group_system = self.system().subpod(plan.tp);
        let runner = self.runner.with_system(group_system);
        let group_batch = workload.batch.div_ceil(plan.dp);
        let (micro_batch, microbatches) = plan.microbatching(group_batch, self.opts.microbatches);
        let micro_wl = Workload {
            batch: micro_batch,
            ..workload
        };

        let spans = plan.stages(model.layers);
        // One shared constructor + formula with the cluster serving
        // engine (ParallelismPlan::{tp_links, boundary_time}), so the
        // two can never drift on boundary pricing.
        let links = plan.tp_links(self.system());
        let boundary_time = plan.boundary_time(&links, model, micro_wl);

        let evals = elk_par::try_par_map(threads, &spans, |i, span| {
            self.eval_stage(
                &runner,
                model,
                micro_wl,
                plan,
                span,
                group_batch,
                sim,
                design,
            )
            .map_err(|e| match e {
                StageFailure::Hbm(msg) => ClusterError::Invalid(msg),
                StageFailure::Compile(source) => ClusterError::Compile { stage: i, source },
            })
        })?;

        // Pipeline composition: fill through every stage once, then the
        // steady state is paced by the slowest stage+boundary round.
        let times: Vec<Seconds> = evals.iter().map(|e| e.time).collect();
        let rounds: Vec<Seconds> = spans
            .iter()
            .map(|s| {
                let b = if s.index + 1 == spans.len() {
                    Seconds::ZERO
                } else {
                    boundary_time
                };
                times[s.index] + b
            })
            .collect();
        let fill: Seconds = rounds.iter().copied().sum();
        let bottleneck = rounds.iter().copied().fold(Seconds::ZERO, Seconds::max);
        let makespan = fill + bottleneck * (microbatches - 1) as f64;
        let busy_total: Seconds = times.iter().copied().sum();
        let bubble_fraction = if makespan.is_zero() {
            0.0
        } else {
            1.0 - (busy_total.as_secs() * microbatches as f64)
                / (plan.pp as f64 * makespan.as_secs())
        };

        let mut starts = Vec::with_capacity(spans.len());
        let mut acc = Seconds::ZERO;
        for round in &rounds {
            starts.push(acc);
            acc += *round;
        }
        let stages: Vec<StageReport> = evals
            .iter()
            .zip(&spans)
            .map(|(e, span)| {
                let start = starts[span.index];
                let end = start + times[span.index] + bottleneck * (microbatches - 1) as f64;
                StageReport {
                    stage: span.index,
                    layer_start: span.layers.start,
                    layer_end: span.layers.end,
                    embed: span.embed,
                    head: span.head,
                    ops: e.ops,
                    weight_bytes: e.weights,
                    time: e.time,
                    boundary: if span.index + 1 == spans.len() {
                        Seconds::ZERO
                    } else {
                        boundary_time
                    },
                    start,
                    end,
                    busy_fraction: if makespan.is_zero() {
                        0.0
                    } else {
                        (e.time.as_secs() * microbatches as f64) / makespan.as_secs()
                    },
                }
            })
            .collect();

        let tp_allreduce_bytes: Bytes = evals.iter().map(|e| e.allreduce).sum();
        let tp_allreduce_time: Seconds = evals.iter().map(|e| e.allreduce_time).sum();
        let p2p_time = boundary_time * (spans.len() - 1) as f64;

        let baseline = unit_total.or(if plan == ParallelismPlan::unit() {
            Some(makespan)
        } else {
            None
        });
        Ok(ClusterReport {
            model: model.name.clone(),
            workload,
            chips: self.system().chips,
            plan,
            chips_used: plan.chips_used(),
            design,
            interconnect: self.system().inter_chip_topology.name().to_string(),
            group_batch,
            micro_batch,
            microbatches,
            stages,
            step_total: makespan,
            tp_allreduce_bytes,
            tp_allreduce_time,
            p2p_time,
            bubble_fraction,
            scaling_efficiency: baseline
                .map(|base| base.as_secs() / (plan.chips_used() as f64 * makespan.as_secs())),
        })
    }

    /// Builds, feasibility-checks, compiles, and simulates one stage.
    #[allow(clippy::too_many_arguments)]
    fn eval_stage(
        &self,
        runner: &DesignRunner,
        model: &TransformerConfig,
        micro_wl: Workload,
        plan: ParallelismPlan,
        span: &StageSpan,
        group_batch: u64,
        sim: &SimOptions,
        design: Design,
    ) -> Result<StageEval, StageFailure> {
        let graph = model.build_stage(
            micro_wl,
            plan.tp,
            span.layers.clone(),
            span.embed,
            span.head,
        );
        let weights = graph.weight_bytes();
        // HBM feasibility: resident weights plus the KV cache of every
        // request the group keeps in flight (the stage graph carries one
        // microbatch's KV reads; scale to the group batch).
        let kv_micro: Bytes = graph
            .iter()
            .filter(|o| o.stationary() == OperandSource::HbmKvCache)
            .map(elk_model::Operator::stationary_bytes)
            .sum();
        let kv_group = Bytes::new(kv_micro.get() / micro_wl.batch * group_batch);
        let need = weights + kv_group;
        let capacity = self.system().hbm.capacity;
        if need > capacity {
            return Err(StageFailure::Hbm(format!(
                "{plan} stage {}: {need} per-chip HBM needed (weights {weights} + KV {kv_group}) \
                 exceeds the {capacity} capacity",
                span.index
            )));
        }
        let catalog = runner.catalog(&graph).map_err(StageFailure::Compile)?;
        let outcome = runner
            .run(design, &graph, &catalog, sim)
            .map_err(StageFailure::Compile)?;
        let allreduce: Bytes = graph.iter().map(elk_model::Operator::allreduce).sum();
        let collective = runner.system().collective();
        let allreduce_time: Seconds = graph
            .iter()
            .map(|o| collective.all_reduce(o.allreduce()))
            .sum();
        Ok(StageEval {
            ops: graph.len(),
            weights,
            time: outcome.report.total,
            allreduce,
            allreduce_time,
        })
    }
}

/// Internal per-stage evaluation result.
struct StageEval {
    ops: usize,
    weights: Bytes,
    time: Seconds,
    allreduce: Bytes,
    allreduce_time: Seconds,
}

/// Internal stage-failure discriminator (HBM checks precede compiles).
enum StageFailure {
    Hbm(String),
    Compile(elk_core::CompileError),
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::zoo;

    fn tiny_model() -> TransformerConfig {
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 2;
        cfg
    }

    fn estimator(threads: usize) -> ClusterEstimator {
        ClusterEstimator::new(
            presets::ipu_pod4(),
            ClusterOptions {
                threads,
                ..ClusterOptions::default()
            },
        )
    }

    #[test]
    fn unit_plan_reproduces_the_single_chip_sim_report() {
        let model = tiny_model();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        let est = estimator(1);
        let report = est
            .estimate(&model, wl, Design::ElkFull, &sim, ParallelismPlan::unit())
            .unwrap();

        // The reference: the same engine path on a one-chip system.
        let single = presets::ipu_pod4().subpod(1);
        let runner = DesignRunner::new(single).with_threads(1);
        let graph = model.build(wl, 1);
        let catalog = runner.catalog(&graph).unwrap();
        let outcome = runner.run(Design::ElkFull, &graph, &catalog, &sim).unwrap();

        assert_eq!(report.step_total, outcome.report.total, "bit-identical");
        assert_eq!(report.stages.len(), 1);
        assert_eq!(report.stages[0].time, outcome.report.total);
        assert_eq!(report.bubble_fraction, 0.0);
        assert_eq!(report.scaling_efficiency, Some(1.0));
        assert_eq!(report.p2p_time, Seconds::ZERO);
    }

    #[test]
    fn pipeline_estimate_has_sane_timeline_and_bubbles() {
        let model = tiny_model();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        let est = estimator(1);
        let plan = ParallelismPlan::new(2, 2, 1);
        let r = est
            .estimate(&model, wl, Design::ElkFull, &sim, plan)
            .unwrap();
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.microbatches, 2);
        assert_eq!(r.micro_batch, 8);
        assert!(r.bubble_fraction > 0.0 && r.bubble_fraction < 1.0);
        assert!(r.stages[0].start.is_zero());
        assert!(r.stages[1].start > Seconds::ZERO, "fill delay");
        assert_eq!(r.stages[1].end, r.step_total, "last stage closes the step");
        assert!(r.stages[0].boundary > Seconds::ZERO);
        assert_eq!(r.stages[1].boundary, Seconds::ZERO);
        assert!(r.tp_allreduce_bytes.get() > 0, "tp=2 reduces activations");
        let eff = r.scaling_efficiency.expect("baseline feasible");
        assert!(eff > 0.0 && eff <= 1.5, "efficiency {eff} out of range");
    }

    #[test]
    fn search_is_deterministic_and_picks_the_fastest_candidate() {
        let model = tiny_model();
        let wl = Workload::decode(16, 512);
        let sim = SimOptions::default();
        let seq = estimator(1)
            .search(&model, wl, Design::ElkFull, &sim)
            .unwrap();
        let par = estimator(8)
            .search(&model, wl, Design::ElkFull, &sim)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&seq).unwrap(),
            serde_json::to_string(&par).unwrap(),
            "search must be byte-identical at any thread count"
        );
        // The winner is no slower than any feasible candidate.
        let best = seq.best.step_total;
        for c in &seq.candidates {
            if let Some(t) = c.step_total {
                assert!(best <= t, "{} beat the chosen plan", c.plan);
            }
        }
        assert!(seq.candidates.len() >= 8, "pod4 grid has many candidates");
    }

    #[test]
    fn hbm_capacity_rejects_oversized_stages() {
        let mut system = presets::ipu_pod4();
        system.hbm = system.hbm.with_capacity(Bytes::mib(64));
        let est = ClusterEstimator::new(system, ClusterOptions::default());
        let model = tiny_model();
        let e = est
            .estimate(
                &model,
                Workload::decode(16, 512),
                Design::ElkFull,
                &SimOptions::default(),
                ParallelismPlan::unit(),
            )
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("HBM") && msg.contains("capacity"), "{msg}");
    }

    #[test]
    fn dp_splits_the_batch() {
        let model = tiny_model();
        let sim = SimOptions::default();
        let est = estimator(1);
        let wl = Workload::decode(16, 512);
        let two = est
            .estimate(
                &model,
                wl,
                Design::Basic,
                &sim,
                ParallelismPlan::new(1, 1, 2),
            )
            .unwrap();
        assert_eq!(two.group_batch, 8);
        let one = est
            .estimate(
                &model,
                wl,
                Design::Basic,
                &sim,
                ParallelismPlan::new(1, 1, 1),
            )
            .unwrap();
        assert!(
            two.step_total < one.step_total,
            "half the batch per group must be faster"
        );
    }
}
