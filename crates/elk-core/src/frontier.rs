use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use elk_model::{DType, ModelGraph, OpId, OpKind, OperandSource, Operator};
use elk_partition::{
    pareto_frontier, ExecutePlan, FrontierPoint, Partitioner, PlanSet, PreloadPlan,
};
use elk_units::Bytes;

use crate::CompileError;

/// The execute-state Pareto frontier of one operator, as the
/// partitioner selects it, plus how many feasible plans it was selected
/// from. Preload-state frontiers are per execute-plan and come
/// pre-sorted from the partitioner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpPlans {
    /// The frontier's execute-state plans, in enumeration order.
    pub plans: Vec<ExecutePlan>,
    /// Number of feasible execute-state plans of the operator.
    pub feasible: usize,
    /// Pareto frontier over `(exec_space, exec_time)`, fastest first;
    /// `plan_idx` indexes `plans`.
    pub exec_frontier: Vec<FrontierPoint>,
    /// Preload-state points of every execute-frontier position, back to
    /// back, built once so the scheduler borrows them instead of
    /// rebuilding one list per scheduled operator.
    preload_points: Vec<FrontierPoint>,
    /// Position `k`'s points are
    /// `preload_points[preload_bounds[k]..preload_bounds[k + 1]]`.
    preload_bounds: Vec<usize>,
}

impl OpPlans {
    /// Orders a frontier plan set, as [`Partitioner::plans`] returns it,
    /// fastest first and lays out its preload points.
    ///
    /// # Panics
    ///
    /// Panics if `set` holds no plan.
    #[must_use]
    pub fn new(set: PlanSet) -> Self {
        let PlanSet { plans, feasible } = set;
        assert!(!plans.is_empty(), "operator with no feasible plans");
        let exec_frontier = pareto_frontier(plans.iter().enumerate().map(|(i, p)| FrontierPoint {
            plan_idx: i,
            space: p.exec_space,
            time: p.exec_time,
        }));
        debug_assert_eq!(exec_frontier.len(), plans.len(), "plans are not a frontier");
        let total = plans.iter().map(|p| p.preload_plans.len()).sum();
        let mut preload_points = Vec::with_capacity(total);
        let mut preload_bounds = Vec::with_capacity(exec_frontier.len() + 1);
        preload_bounds.push(0);
        for f in &exec_frontier {
            let pre = &plans[f.plan_idx].preload_plans;
            preload_points.extend(pre.iter().enumerate().map(|(i, p)| FrontierPoint {
                plan_idx: i,
                space: p.preload_space,
                time: p.distribute_time,
            }));
            preload_bounds.push(preload_points.len());
        }
        OpPlans {
            plans,
            feasible,
            exec_frontier,
            preload_points,
            preload_bounds,
        }
    }

    /// The execute plan of a frontier position.
    #[must_use]
    #[inline]
    pub fn plan_at(&self, frontier_idx: usize) -> &ExecutePlan {
        &self.plans[self.exec_frontier[frontier_idx].plan_idx]
    }

    /// Preload-state points of the execute plan at `frontier_idx`,
    /// largest space (max broadcast) first — already a Pareto frontier by
    /// construction.
    #[must_use]
    #[inline]
    pub fn preload_points(&self, frontier_idx: usize) -> &[FrontierPoint] {
        &self.preload_points
            [self.preload_bounds[frontier_idx]..self.preload_bounds[frontier_idx + 1]]
    }

    /// The preload plan `preload_idx` of the execute plan at
    /// `frontier_idx`.
    #[must_use]
    pub fn preload_at(&self, frontier_idx: usize, preload_idx: usize) -> &PreloadPlan {
        &self.plan_at(frontier_idx).preload_plans[preload_idx]
    }

    /// Smallest possible preload footprint over the chosen execute plan.
    #[must_use]
    pub fn min_preload_space(&self, frontier_idx: usize) -> Bytes {
        self.plan_at(frontier_idx)
            .preload_plans
            .last()
            .map_or(Bytes::ZERO, |p| p.preload_space)
    }
}

/// Everything about an operator its plans depend on: two operators with
/// equal signatures have equal plan sets on any partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Signature {
    kind: OpKind,
    dtype: DType,
    stationary: OperandSource,
    stationary_bytes: Bytes,
    hbm_store: Bytes,
    allreduce: Bytes,
}

fn signature(op: &Operator) -> Signature {
    Signature {
        kind: *op.kind(),
        dtype: op.dtype(),
        stationary: op.stationary(),
        stationary_bytes: op.stationary_bytes(),
        hbm_store: op.hbm_store(),
        allreduce: op.allreduce(),
    }
}

/// Plan sets keyed on operator signature, shared by every catalog built
/// through it.
///
/// A memo is valid for **one partitioner**: plans depend on the chip and
/// the cost model as well as on the operator, and the key holds only the
/// operator's signature. Its owner decides its lifetime — a
/// `DesignRunner` keeps one for its chip, so graphs of every batch and
/// sequence bucket enumerate each operator shape once. It holds
/// feasible plan sets only, so a memo hit never fails.
#[derive(Debug, Default)]
pub struct PlanMemo {
    sets: Mutex<HashMap<Signature, Arc<OpPlans>>>,
}

impl PlanMemo {
    /// An empty memo.
    #[must_use]
    pub fn new() -> Self {
        PlanMemo::default()
    }

    /// Number of distinct signatures held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` if the memo holds no plan set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<Signature, Arc<OpPlans>>> {
        self.sets.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `plans` under `sig` and returns the shared set. When a
    /// concurrent build inserted the signature first, its set is kept
    /// (the plans are equal) and returned instead.
    fn insert(&self, sig: Signature, plans: OpPlans) -> Arc<OpPlans> {
        Arc::clone(self.lock().entry(sig).or_insert_with(|| Arc::new(plans)))
    }
}

/// Per-operator plan catalog for a whole graph, deduplicated by operator
/// signature (identical transformer layers share plan sets, which is what
/// keeps Elk's search sub-linear in model size, §5).
#[derive(Debug, Clone)]
pub struct Catalog {
    entries: Vec<Arc<OpPlans>>,
    distinct: usize,
}

impl Catalog {
    /// Enumerates plans for every operator of `graph`, sequentially.
    /// Equivalent to [`Catalog::build_par`] with one thread.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFeasiblePlan`] if any operator cannot be
    /// partitioned into the chip's SRAM.
    pub fn build(graph: &ModelGraph, partitioner: &Partitioner<'_>) -> Result<Self, CompileError> {
        Catalog::build_par(graph, partitioner, 1)
    }

    /// Enumerates plans for every operator of `graph`, fanning the
    /// per-signature plan searches across `threads` scoped workers
    /// (`0` = all available cores). [`Catalog::build_in`] with a memo
    /// scoped to this call.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFeasiblePlan`] if any operator cannot be
    /// partitioned into the chip's SRAM.
    pub fn build_par(
        graph: &ModelGraph,
        partitioner: &Partitioner<'_>,
        threads: usize,
    ) -> Result<Self, CompileError> {
        Catalog::build_in(graph, partitioner, threads, &PlanMemo::new())
    }

    /// Builds the catalog of `graph` through `memo`, which must belong
    /// to `partitioner` (see [`PlanMemo`]).
    ///
    /// Operators are first deduplicated by signature (identical
    /// transformer layers share one plan set) and looked up in the memo;
    /// the signatures it lacks — the expensive part — are enumerated in
    /// parallel via [`Partitioner::enumerate_all_par`] and added to it.
    /// The resulting catalog is byte-identical at any thread count and
    /// equal to a fresh build: signatures keep their first-appearance
    /// order, results merge by index, and on failure the reported
    /// operator is the first infeasible one in graph order, exactly as
    /// the sequential build reports it (memo hits are always feasible).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFeasiblePlan`] if any operator cannot be
    /// partitioned into the chip's SRAM.
    pub fn build_in(
        graph: &ModelGraph,
        partitioner: &Partitioner<'_>,
        threads: usize,
        memo: &PlanMemo,
    ) -> Result<Self, CompileError> {
        // Dedup pass: distinct signatures in first-appearance order.
        let mut index_of_sig: HashMap<Signature, usize> = HashMap::new();
        let mut reps: Vec<(Signature, &Operator)> = Vec::new();
        let mut sig_of_op: Vec<usize> = Vec::with_capacity(graph.len());
        for op in graph.iter() {
            let sig = signature(op);
            let idx = *index_of_sig.entry(sig).or_insert_with(|| {
                reps.push((sig, op));
                reps.len() - 1
            });
            sig_of_op.push(idx);
        }
        let mut shared: Vec<Option<Arc<OpPlans>>> = {
            let sets = memo.lock();
            reps.iter().map(|(sig, _)| sets.get(sig).cloned()).collect()
        };
        let missing: Vec<usize> = (0..reps.len()).filter(|&i| shared[i].is_none()).collect();

        // With one effective worker, enumerate signature-by-signature
        // and stop at the first infeasible operator — the serving
        // layer's micro-batch fallback probes infeasible shapes on
        // purpose, and paying for the remaining signatures' enumeration
        // just to discard it would dominate that error path. Either way
        // the memo gains exactly the feasible sets before that operator.
        // With more workers, every missing signature is enumerated up
        // front and the loop below only checks the lists in order.
        let workers = elk_par::resolve_threads(threads).min(missing.len());
        let plan_lists = if workers <= 1 {
            Vec::new()
        } else {
            let ops: Vec<&Operator> = missing.iter().map(|&i| reps[i].1).collect();
            partitioner.enumerate_all_par(&ops, threads)
        };
        let mut plan_lists = plan_lists.into_iter();
        for &i in &missing {
            let (sig, op) = reps[i];
            let set = plan_lists.next().unwrap_or_else(|| partitioner.plans(op));
            if set.plans.is_empty() {
                return Err(no_feasible_plan(op, partitioner));
            }
            shared[i] = Some(memo.insert(sig, OpPlans::new(set)));
        }
        let shared: Vec<Arc<OpPlans>> = shared.into_iter().flatten().collect();
        Ok(Catalog {
            entries: sig_of_op.iter().map(|&i| Arc::clone(&shared[i])).collect(),
            distinct: reps.len(),
        })
    }

    /// Plans of operator `id`.
    #[must_use]
    pub fn op(&self, id: OpId) -> &OpPlans {
        &self.entries[id.index()]
    }

    /// Number of operators covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct operator signatures (shared plan sets).
    #[must_use]
    pub fn distinct_signatures(&self) -> usize {
        self.distinct
    }

    /// Maximum feasible plan count over all operators — the `P` column of
    /// Table 2.
    #[must_use]
    pub fn max_plans_per_op(&self) -> usize {
        self.entries.iter().map(|e| e.feasible).max().unwrap_or(0)
    }
}

/// `op` has no plan that fits the partitioner chip's usable per-core
/// SRAM.
fn no_feasible_plan(op: &Operator, partitioner: &Partitioner<'_>) -> CompileError {
    CompileError::NoFeasiblePlan {
        op: op.name().to_string(),
        capacity: partitioner.chip().usable_sram_per_core(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_cost::AnalyticDevice;
    use elk_hw::{presets, SramContention};
    use elk_model::{zoo, Workload};
    use std::hash::Hash;

    /// The `{:?}` operator signature catalogs were first keyed on.
    fn debug_signature(op: &Operator) -> String {
        format!(
            "{:?}|{:?}|{:?}|{}|{}|{}",
            op.kind(),
            op.dtype(),
            op.stationary(),
            op.stationary_bytes().get(),
            op.hbm_store().get(),
            op.allreduce().get(),
        )
    }

    /// Each operator's group under `key`, groups numbered in order of
    /// first appearance.
    fn groups<K: Hash + Eq>(graph: &ModelGraph, key: impl Fn(&Operator) -> K) -> Vec<usize> {
        let mut ids: HashMap<K, usize> = HashMap::new();
        graph
            .iter()
            .map(|op| {
                let next = ids.len();
                *ids.entry(key(op)).or_insert(next)
            })
            .collect()
    }

    #[test]
    fn signatures_group_operators_like_debug_strings() {
        // The model × phase × chip matrix of `tests/catalog_digest.rs`.
        let mut small = presets::ipu_pod4();
        small.chip = small.chip.with_cores(368);
        small.chip.sram_per_core = Bytes::kib(256);
        let mut concurrent = presets::ipu_pod4();
        concurrent.chip.sram_contention = SramContention::Concurrent;
        let chips = [
            presets::ipu_pod4(),
            presets::ipu_pod4_mesh(),
            small,
            concurrent,
        ];
        for wl in [Workload::decode(16, 1024), Workload::prefill(2, 512)] {
            let mut llama = zoo::llama2_13b();
            llama.layers = 2;
            let mut opt = zoo::opt_30b();
            opt.layers = 2;
            let mut moe = zoo::mixtral_8x7b();
            moe.layers = 2;
            let mut dit = zoo::dit_xl();
            dit.layers = 2;
            let graphs = [
                llama.build(wl, 4),
                opt.build(wl, 4),
                moe.build(wl, 4),
                dit.build(wl, 4),
            ];
            for graph in &graphs {
                let want = groups(graph, debug_signature);
                assert_eq!(groups(graph, signature), want, "{}", graph.name());
                // A catalog shares one plan set per group.
                for sys in &chips {
                    let dev = AnalyticDevice::of_chip(&sys.chip);
                    let p = Partitioner::new(&sys.chip, &dev);
                    let Ok(cat) = Catalog::build(graph, &p) else {
                        continue;
                    };
                    let by_set = groups(graph, |op| Arc::as_ptr(&cat.entries[op.id().index()]));
                    assert_eq!(by_set, want, "{} on {}", graph.name(), sys.chip.name);
                }
            }
        }
    }

    #[test]
    fn catalog_dedupes_identical_layers() {
        let sys = presets::ipu_pod4();
        let dev = AnalyticDevice::of_chip(&sys.chip);
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let cat = Catalog::build(&g, &p).expect("catalog");
        assert_eq!(cat.len(), g.len());
        // 40 identical layers: distinct signatures ~ one layer's worth.
        assert!(
            cat.distinct_signatures() < g.len() / 10,
            "{} distinct of {}",
            cat.distinct_signatures(),
            g.len()
        );
        assert!(cat.max_plans_per_op() > 10);
    }

    #[test]
    fn infeasible_operator_reports_the_usable_sram() {
        let sys = presets::ipu_pod4();
        let dev = AnalyticDevice::of_chip(&sys.chip);
        let p = Partitioner::new(&sys.chip, &dev);
        let mut model = zoo::llama2_13b();
        model.layers = 1;
        let g = model.build(Workload::decode(1, 100_000_000), 4);
        for threads in [1, 2] {
            let err = Catalog::build_par(&g, &p, threads).expect_err("no plan fits");
            let CompileError::NoFeasiblePlan { capacity, .. } = err else {
                panic!("expected NoFeasiblePlan, got {err}");
            };
            assert_eq!(capacity, sys.chip.usable_sram_per_core());
            assert!(capacity > Bytes::ZERO);
        }
    }

    #[test]
    fn parallel_catalog_is_thread_count_invariant() {
        let sys = presets::ipu_pod4();
        let dev = AnalyticDevice::of_chip(&sys.chip);
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let seq = Catalog::build_par(&g, &p, 1).expect("sequential catalog");
        for threads in [2, 8] {
            let par = Catalog::build_par(&g, &p, threads).expect("parallel catalog");
            assert_eq!(par.len(), seq.len());
            assert_eq!(par.distinct_signatures(), seq.distinct_signatures());
            for i in 0..seq.len() {
                assert_eq!(par.op(OpId(i)), seq.op(OpId(i)), "op {i} diverged");
            }
        }
    }

    #[test]
    fn exec_frontier_points_resolve_to_plans() {
        let sys = presets::ipu_pod4();
        let dev = AnalyticDevice::of_chip(&sys.chip);
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let cat = Catalog::build(&g, &p).expect("catalog");
        let plans = cat.op(OpId(2)); // attn_qkv
        for (i, fp) in plans.exec_frontier.iter().enumerate() {
            assert_eq!(plans.plan_at(i).exec_space, fp.space);
            let points = plans.preload_points(i);
            assert!(!points.is_empty());
            assert_eq!(points.len(), plans.plan_at(i).preload_plans.len());
            for (k, p) in points.iter().enumerate() {
                let pre = plans.preload_at(i, k);
                assert_eq!(
                    (p.plan_idx, p.space, p.time),
                    (k, pre.preload_space, pre.distribute_time)
                );
            }
        }
    }
}
