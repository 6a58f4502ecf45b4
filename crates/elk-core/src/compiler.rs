use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use elk_cost::LearnedCostModel;
use elk_hw::SystemConfig;
use elk_model::ModelGraph;
use elk_partition::Partitioner;
use elk_units::Seconds;

use crate::{
    candidate_orders, evaluate, rank_schedule, Catalog, CompileError, DeviceProgram, PlanEstimate,
    ReorderOptions, Schedule, Scheduler,
};

/// End-to-end compiler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CompilerOptions {
    /// Preload-order search knobs (§4.4). Disable for Elk-Dyn.
    pub reorder: ReorderOptions,
    /// Worker threads for catalog construction and preload-order
    /// evaluation (`0` = all available cores, capped at 16). Results
    /// are byte-identical at any setting — see `elk-par`'s determinism
    /// contract.
    pub threads: usize,
}

/// Summary statistics of one compilation, feeding Table 2 and Fig. 16.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileStats {
    /// Wall-clock compile time in seconds.
    pub compile_seconds: f64,
    /// Preload orders generated (post pruning).
    pub orders_considered: usize,
    /// Orders that scheduled successfully.
    pub orders_feasible: usize,
    /// Edit distance of the winning order.
    pub chosen_edit_distance: usize,
    /// Distinct operator signatures (plan sets actually enumerated).
    pub distinct_signatures: usize,
    /// `P`: maximum feasible plans over all operators.
    pub max_plans_per_op: usize,
    /// `K`-like: maximum simultaneously-resident operators observed.
    pub peak_resident_ops: usize,
    /// Mean preload number across operators.
    pub avg_preload_number: f64,
}

/// A compiled execution plan: the lowered device program, the schedule it
/// came from, the forward-timeline estimate, and compile statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// The §4.5 device program.
    pub program: DeviceProgram,
    /// Per-operator scheduling decisions.
    pub schedule: Schedule,
    /// Forward-timeline estimate of the plan.
    pub estimate: PlanEstimate,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// The Elk compiler (§4): fits a cost model for the target system, builds
/// the plan catalog, searches preload orders with the inductive scheduler
/// and cost-aware allocator, and lowers the winner to a device program.
///
/// # Examples
///
/// ```
/// use elk_core::Compiler;
/// use elk_hw::presets;
/// use elk_model::{zoo, Workload};
///
/// # fn main() -> Result<(), elk_core::CompileError> {
/// let mut cfg = zoo::llama2_13b();
/// cfg.layers = 2; // keep the doctest quick
/// let graph = cfg.build(Workload::decode(16, 512), 4);
/// let plan = Compiler::new(presets::ipu_pod4()).compile(&graph)?;
/// assert_eq!(plan.program.op_count(), graph.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Compiler {
    system: SystemConfig,
    cost: LearnedCostModel,
    opts: CompilerOptions,
}

impl Compiler {
    /// Creates a compiler with default options, fitting the learned cost
    /// model against the system's analytic device profile.
    #[must_use]
    pub fn new(system: SystemConfig) -> Self {
        Compiler::with_options(system, CompilerOptions::default())
    }

    /// Creates a compiler with explicit options.
    #[must_use]
    pub fn with_options(system: SystemConfig, opts: CompilerOptions) -> Self {
        let cost = LearnedCostModel::of_chip(&system.chip);
        Compiler { system, cost, opts }
    }

    /// The target system description.
    #[must_use]
    pub fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// Compiler options in effect.
    #[must_use]
    pub fn options(&self) -> &CompilerOptions {
        &self.opts
    }

    /// Compiles `graph` into an optimized device program.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] when the graph is empty, an operator
    /// cannot be partitioned into SRAM, or no preload order schedules
    /// feasibly.
    pub fn compile(&self, graph: &ModelGraph) -> Result<CompiledPlan, CompileError> {
        if graph.is_empty() {
            return Err(CompileError::EmptyGraph);
        }
        let partitioner = Partitioner::new(&self.system.chip, &self.cost);
        let catalog = Catalog::build_par(graph, &partitioner, worker_threads(&self.opts))?;
        compile_with_catalog(&self.system, &self.opts, graph, &catalog)
    }
}

/// The resolved worker count for parallel sections.
fn worker_threads(opts: &CompilerOptions) -> usize {
    if opts.threads == 0 {
        elk_par::resolve_threads(0).min(16)
    } else {
        opts.threads
    }
}

/// Searches preload orders for `graph` over a pre-built plan catalog and
/// lowers the winner, as [`Compiler::compile`] does after building the
/// catalog. The order search reads only the system and the options
/// (the cost model already shaped `catalog`), so callers that hold a
/// fitted model elsewhere borrow instead of building a compiler.
///
/// Every candidate order is scheduled once, and each one that schedules
/// is ranked by [`rank_schedule`], the replay [`evaluate`] runs, without
/// lowering it. The winner is the least `(capacity violations, total,
/// candidate index)`, the same at any thread count; only its schedule is
/// lowered and evaluated, for the returned plan.
///
/// # Errors
///
/// [`CompileError::EmptyGraph`] for an empty graph, and
/// [`CompileError::InvalidPreloadOrder`] when no candidate order
/// schedules feasibly.
pub fn compile_with_catalog(
    system: &SystemConfig,
    opts: &CompilerOptions,
    graph: &ModelGraph,
    catalog: &Catalog,
) -> Result<CompiledPlan, CompileError> {
    let t0 = Instant::now();
    if graph.is_empty() {
        return Err(CompileError::EmptyGraph);
    }
    let capacity = system.chip.usable_sram_per_core();
    let candidates = candidate_orders(graph, catalog, capacity, &opts.reorder);

    let scheduler = Scheduler::new(graph, catalog, system);

    // Rank every candidate order on the work pool, keeping the best
    // one's schedule. Keys are unique (the index breaks ties), so the
    // winner is the same whatever order the workers finish in. Once the
    // best so far is violation-free, its total bounds the replay: a
    // candidate that passes it loses to that key, and so to the winner,
    // whichever key the race had published when it read the bound.
    type Key = (usize, Seconds, usize);
    let best: Mutex<Option<(Key, Schedule)>> = Mutex::new(None);
    let lock = || best.lock().unwrap_or_else(PoisonError::into_inner);
    let feasible: Vec<bool> = elk_par::par_map(worker_threads(opts), &candidates, |idx, cand| {
        let Ok(sched) = scheduler.schedule(&cand.order) else {
            return false;
        };
        let bound = lock()
            .as_ref()
            .and_then(|((violations, total, _), _)| (*violations == 0).then_some(*total));
        if let Some((violations, total)) = rank_schedule(catalog, &sched, capacity, bound) {
            let key = (violations, total, idx);
            let mut best = lock();
            if best.as_ref().is_none_or(|(k, _)| key < *k) {
                *best = Some((key, sched));
            }
        }
        true
    });
    let ((_, _, best), schedule) = best
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .ok_or_else(|| CompileError::InvalidPreloadOrder {
            reason: "no candidate preload order scheduled feasibly".to_string(),
        })?;

    let program = DeviceProgram::lower(graph, catalog, &schedule);
    debug_assert_eq!(program.validate(), Ok(()));
    let estimate = evaluate(&program, capacity);

    let avg_preload_number = schedule
        .per_op
        .iter()
        .map(|s| s.preload_number as f64)
        .sum::<f64>()
        / schedule.per_op.len() as f64;
    let stats = CompileStats {
        compile_seconds: t0.elapsed().as_secs_f64(),
        orders_considered: candidates.len(),
        orders_feasible: feasible.iter().filter(|&&f| f).count(),
        chosen_edit_distance: candidates[best].edit_distance,
        distinct_signatures: catalog.distinct_signatures(),
        max_plans_per_op: catalog.max_plans_per_op(),
        peak_resident_ops: estimate.peak_resident_ops,
        avg_preload_number,
    };

    Ok(CompiledPlan {
        program,
        schedule,
        estimate,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanMemo;
    use elk_hw::presets;
    use elk_model::{zoo, NormKind, TransformerConfig, Workload};
    use proptest::prelude::*;

    /// The candidate loop as first written, kept as the reference the
    /// production search must match: every schedulable candidate is
    /// lowered to a full `DeviceProgram` and evaluated, and the least
    /// `(violations, total, index)` wins.
    fn reference_compile(
        system: &SystemConfig,
        opts: &CompilerOptions,
        graph: &ModelGraph,
        catalog: &Catalog,
    ) -> Result<CompiledPlan, CompileError> {
        let capacity = system.chip.usable_sram_per_core();
        let candidates = candidate_orders(graph, catalog, capacity, &opts.reorder);
        let scheduler = Scheduler::new(graph, catalog, system);
        type Key = (usize, Seconds, usize);
        let best: Mutex<Option<(Key, Schedule)>> = Mutex::new(None);
        let feasible: Vec<bool> =
            elk_par::par_map(worker_threads(opts), &candidates, |idx, cand| {
                let Ok(sched) = scheduler.schedule(&cand.order) else {
                    return false;
                };
                let est = evaluate(&DeviceProgram::lower(graph, catalog, &sched), capacity);
                let key = (est.capacity_violations, est.total, idx);
                let mut best = best.lock().unwrap();
                if best.as_ref().is_none_or(|(k, _)| key < *k) {
                    *best = Some((key, sched));
                }
                true
            });
        let ((_, _, best), schedule) =
            best.into_inner()
                .unwrap()
                .ok_or_else(|| CompileError::InvalidPreloadOrder {
                    reason: "no candidate preload order scheduled feasibly".to_string(),
                })?;
        let program = DeviceProgram::lower(graph, catalog, &schedule);
        let estimate = evaluate(&program, capacity);
        let avg_preload_number = schedule
            .per_op
            .iter()
            .map(|s| s.preload_number as f64)
            .sum::<f64>()
            / schedule.per_op.len() as f64;
        let stats = CompileStats {
            compile_seconds: 0.0,
            orders_considered: candidates.len(),
            orders_feasible: feasible.iter().filter(|&&f| f).count(),
            chosen_edit_distance: candidates[best].edit_distance,
            distinct_signatures: catalog.distinct_signatures(),
            max_plans_per_op: catalog.max_plans_per_op(),
            peak_resident_ops: estimate.peak_resident_ops,
            avg_preload_number,
        };
        Ok(CompiledPlan {
            program,
            schedule,
            estimate,
            stats,
        })
    }

    /// Compiles `graph` as Elk-Full and Elk-Dyn at one and two threads,
    /// checking each against [`reference_compile`] (wall clock aside).
    fn assert_matches_reference(system: &SystemConfig, graph: &ModelGraph, catalog: &Catalog) {
        for reorder in [true, false] {
            for threads in [1, 2] {
                let mut opts = CompilerOptions {
                    threads,
                    ..CompilerOptions::default()
                };
                opts.reorder.enable = reorder;
                let got = compile_with_catalog(system, &opts, graph, catalog).map(|mut plan| {
                    plan.stats.compile_seconds = 0.0;
                    plan
                });
                let want = reference_compile(system, &opts, graph, catalog);
                let case = format!("{} (reorder {reorder}, {threads} threads)", graph.name());
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.schedule, want.schedule, "{case}: schedule");
                        assert!(got.program == want.program, "{case}: programs differ");
                        assert_eq!(got.estimate, want.estimate, "{case}: estimate");
                        assert_eq!(got.stats, want.stats, "{case}: stats");
                    }
                    (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
                    (got, want) => panic!("{case}: {:?} vs {:?}", got.err(), want.err()),
                }
            }
        }
    }

    /// Every graph of the `compiler` bench's `compile_ladder`: full-depth
    /// Llama-2-13B at tp2, decode at batch {1, 4, 16} × sequence {64, …,
    /// 2048} and prefill at batch {1, 2, 8} × sequence {32, …, 1024}.
    #[test]
    fn candidate_loop_matches_reference_on_the_compile_ladder() {
        let system = presets::ipu_pod4().subpod(2);
        let cost = LearnedCostModel::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &cost);
        let memo = PlanMemo::new();
        let model = zoo::llama2_13b();
        let decode = [1, 4, 16]
            .into_iter()
            .flat_map(|b| [64, 128, 256, 512, 1024, 2048].map(|s| Workload::decode(b, s)));
        let prefill = [1, 2, 8]
            .into_iter()
            .flat_map(|b| [32, 64, 128, 256, 512, 1024].map(|s| Workload::prefill(b, s)));
        for wl in decode.chain(prefill) {
            let graph = model.build(wl, 2);
            let catalog = Catalog::build_in(&graph, &partitioner, 1, &memo).expect("catalog");
            assert_matches_reference(&system, &graph, &catalog);
        }
    }

    /// The model and workload strategies of the workspace's
    /// `tests/properties.rs`.
    fn arb_config() -> impl Strategy<Value = TransformerConfig> {
        (
            1u32..=3,
            prop::sample::select(vec![512u64, 1024, 2048]),
            prop::sample::select(vec![8u64, 16]),
            prop::sample::select(vec![1u64, 2, 4]),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(
                |(layers, hidden, heads, kv_div, glu, rope)| TransformerConfig {
                    name: format!("prop-{hidden}h{heads}"),
                    layers,
                    hidden,
                    heads,
                    kv_heads: (heads / kv_div).max(4),
                    head_dim: hidden / heads,
                    intermediate: hidden * 3,
                    vocab: 8192,
                    glu,
                    norm: if glu { NormKind::Rms } else { NormKind::Layer },
                    rope,
                    post_norms: false,
                },
            )
    }

    fn arb_workload() -> impl Strategy<Value = Workload> {
        (
            prop::sample::select(vec![1u64, 4, 16]),
            prop::sample::select(vec![256u64, 1024]),
            any::<bool>(),
        )
            .prop_map(|(b, s, decode)| {
                if decode {
                    Workload::decode(b, s)
                } else {
                    Workload::prefill(b, s)
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

        #[test]
        fn candidate_loop_matches_reference_on_random_models(
            cfg in arb_config(),
            wl in arb_workload(),
        ) {
            let system = presets::ipu_pod4();
            let graph = cfg.build(wl, 4);
            let cost = LearnedCostModel::of_chip(&system.chip);
            let catalog = Catalog::build(&graph, &Partitioner::new(&system.chip, &cost))
                .expect("catalog");
            assert_matches_reference(&system, &graph, &catalog);
        }
    }

    fn small_graph() -> ModelGraph {
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 3;
        cfg.build(Workload::decode(16, 1024), 4)
    }

    #[test]
    fn compiles_small_llama() {
        let plan = Compiler::new(presets::ipu_pod4())
            .compile(&small_graph())
            .expect("compile");
        assert_eq!(plan.estimate.capacity_violations, 0);
        assert!(plan.estimate.total > Seconds::ZERO);
        assert!(plan.stats.max_plans_per_op > 10);
        assert!(plan.stats.orders_considered >= 1);
        plan.program.validate().expect("valid program");
    }

    #[test]
    fn reordering_never_hurts_the_estimate() {
        let graph = small_graph();
        let sys = presets::ipu_pod4();
        let full = Compiler::new(sys.clone()).compile(&graph).unwrap();
        let mut opts = CompilerOptions::default();
        opts.reorder.enable = false;
        let dyn_ = Compiler::with_options(sys, opts).compile(&graph).unwrap();
        assert!(
            full.estimate.total <= dyn_.estimate.total + Seconds::from_micros(1.0),
            "Elk-Full {} must be <= Elk-Dyn {}",
            full.estimate.total,
            dyn_.estimate.total
        );
    }

    #[test]
    fn empty_graph_is_rejected() {
        let g = ModelGraph::new("empty", Workload::decode(1, 16), 1, Vec::new(), Vec::new());
        assert!(matches!(
            Compiler::new(presets::ipu_pod4()).compile(&g),
            Err(CompileError::EmptyGraph)
        ));
    }
}
