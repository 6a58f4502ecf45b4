use serde::{Deserialize, Serialize};

use elk_hw::SystemConfig;
use elk_model::{ModelGraph, OpId};
use elk_partition::PreloadPlan;
use elk_units::{ByteRate, Bytes, Seconds};

use crate::alloc::{allocate_into, Fastest};
use crate::{Catalog, CompileError, FrontierPoint};

/// Per-operator outcome of the inductive scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpSchedule {
    /// The operator.
    pub op: OpId,
    /// Chosen position on the operator's execute-state Pareto frontier.
    pub exec_idx: usize,
    /// Chosen preload-state plan (index into the execute plan's
    /// `preload_plans`).
    pub preload_idx: usize,
    /// Number of future-operator preloads overlapping this execution.
    pub preload_number: usize,
    /// Preload-order position cut: preloads at order positions `< cut`
    /// may be issued before this operator's `execute` call.
    pub cut: usize,
    /// Estimated execution length: execute-state time + data distribution
    /// + inter-chip all-reduce + contention allowance.
    pub exec_len: Seconds,
    /// Estimated preload duration (HBM roofline vs interconnect
    /// injection, §4.2).
    pub preload_len: Seconds,
    /// The contention allowance included in `exec_len`.
    pub contention: Seconds,
}

/// A complete schedule of one model under a fixed preload order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Per-operator choices, indexed by operator id (execution order).
    pub per_op: Vec<OpSchedule>,
    /// The preload order (π) the schedule was built for.
    pub order: Vec<OpId>,
    /// The backward pass's start-to-end estimate (the forward timeline
    /// evaluation in [`crate::evaluate`] is authoritative).
    pub est_total: Seconds,
}

/// The two-level inductive operator scheduler (§4.2).
///
/// Walks the execution order backwards; for each operator it enumerates
/// feasible preload numbers, invokes the cost-aware allocator for each,
/// and keeps the preload number minimizing the current-to-end time
/// (Lemma 4.1 / Theorem 4.2). Runs in `O(K·N)` allocator invocations.
///
/// [`Scheduler::schedule`] runs once per candidate preload order, so
/// its per-operator work allocates nothing: pending preloads are kept
/// in descending π position (most inserts are pushes) and borrow their
/// frontiers from the catalog, and the window list and allocator
/// positions live in buffers reused across operators. What depends only
/// on the system and the graph — the preload injection rate, the rates
/// the contention model reads, each operator's all-reduce time — is
/// computed once, in [`Scheduler::new`].
#[derive(Debug)]
pub struct Scheduler<'a> {
    graph: &'a ModelGraph,
    catalog: &'a Catalog,
    system: &'a SystemConfig,
    /// Controller-to-core delivery rate of preloads: HBM injection,
    /// capped by the fabric's bulk bandwidth.
    injection: ByteRate,
    /// The fabric's bulk bandwidth, bytes/s.
    fabric: f64,
    /// Fabric bandwidth left to execution under HBM delivery, bytes/s.
    available: f64,
    /// Inter-chip all-reduce time per operator, by operator index.
    allreduce: Vec<Seconds>,
}

/// A scheduled-but-not-yet-executed preload.
struct Pending<'a> {
    op: OpId,
    pos: usize,
    start: Seconds, // time-to-end of preload start
    points: &'a [FrontierPoint],
}

/// The best preload number found so far for one operator, with the
/// lengths it commits.
struct Best {
    p: usize,
    /// Whether the allocator stepped, leaving the window picks in the
    /// best-position buffer; otherwise every pick is 0.
    stepped: bool,
    current: usize,
    score: Seconds,
    exe_start: Seconds,
    exec_len: Seconds,
    contention: Seconds,
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler over a prepared catalog.
    #[must_use]
    pub fn new(graph: &'a ModelGraph, catalog: &'a Catalog, system: &'a SystemConfig) -> Self {
        let chip = &system.chip;
        let fabric = chip.topology.effective_bulk_bandwidth(chip.cores);
        let hbm_injection = chip.topology.hbm_injection_bandwidth(chip.cores);
        let hbm_rate = system.hbm.total_bandwidth().min(hbm_injection);
        // What `system.allreduce_time` prices, built once per scheduler.
        let collective = system.collective();
        let available =
            (fabric.bytes_per_sec() - hbm_rate.bytes_per_sec()).max(fabric.bytes_per_sec() * 0.2);
        Scheduler {
            graph,
            catalog,
            system,
            injection: hbm_injection.min(fabric),
            fabric: fabric.bytes_per_sec(),
            available,
            allreduce: graph
                .iter()
                .map(|op| collective.all_reduce(op.allreduce()))
                .collect(),
        }
    }

    /// Inter-chip all-reduce time of `op` after it executes.
    #[must_use]
    pub fn allreduce_time(&self, op: OpId) -> Seconds {
        self.allreduce[op.index()]
    }

    /// Estimated preload duration: the max of the HBM roofline time and
    /// the interconnect delivery time (§4.2).
    #[must_use]
    pub fn preload_duration(&self, pre: &PreloadPlan) -> Seconds {
        if pre.hbm_bytes.is_zero() {
            return Seconds::ZERO;
        }
        let hbm_t = self.system.hbm.load_time(pre.hbm_bytes);
        let noc_t = self.injection.transfer_time(pre.noc_preload_bytes);
        hbm_t.max(noc_t)
    }

    /// Extra execution time from sharing the fabric with `p` overlapped
    /// preloads: the execution's interconnect traffic is re-costed at the
    /// fabric capacity left over by HBM delivery.
    fn contention_penalty(&self, p: usize, exec_noc_bytes: Bytes) -> Seconds {
        if p == 0 || exec_noc_bytes.is_zero() {
            return Seconds::ZERO;
        }
        let with = exec_noc_bytes.as_f64() / self.available;
        let without = exec_noc_bytes.as_f64() / self.fabric;
        Seconds::new((with - without).max(0.0))
    }

    /// Runs the backward inductive pass under preload order `order`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::InvalidPreloadOrder`] if `order` is not a
    /// permutation of the graph's operators, and
    /// [`CompileError::CapacityExceeded`] if some operator cannot fit
    /// on-chip even alone.
    pub fn schedule(&self, order: &[OpId]) -> Result<Schedule, CompileError> {
        let n = self.graph.len();
        if n == 0 {
            return Err(CompileError::EmptyGraph);
        }
        let pos = positions(order, n)?;
        let capacity = self.system.chip.usable_sram_per_core();

        let mut per_op: Vec<Option<OpSchedule>> = (0..n).map(|_| None).collect();
        // Scheduled-but-not-executed preloads in *descending* π position:
        // the window candidates are the tail, read backwards, and an
        // operator whose preload π places before every pending one (the
        // common case) is a push.
        let mut pending: Vec<Pending<'a>> = Vec::with_capacity(n);
        // Buffers reused by every operator: the window frontiers, grown
        // one preload at a time across `p`, and the allocator positions
        // of the current and the best `p`.
        let mut windows: Vec<&'a [FrontierPoint]> = Vec::new();
        let mut alloc_pos: Vec<usize> = Vec::new();
        let mut best_pos: Vec<usize> = Vec::new();
        let mut exe_start_next = Seconds::ZERO;
        let mut cut_next = n; // π cut of operator i+1

        for i in (0..n).rev() {
            let op = OpId(i);
            let plans = self.catalog.op(op);
            let allreduce = self.allreduce_time(op);

            // Nesting constraint: anything overlapping exec(i), other than
            // op i+1 itself, must also have been allowed to overlap
            // exec(i+1) — otherwise residency would escape the window
            // accounting.
            let mut max_p = 0usize;
            for q in pending.iter().rev() {
                if q.op == OpId(i + 1) || q.pos < cut_next {
                    max_p += 1;
                } else {
                    break;
                }
            }
            // Preloads that π places before op i's own preload but belong
            // to later-executing operators complete before exec(i) and are
            // unconditionally resident: the window must include them.
            let min_p = pending.len() - pending.partition_point(|q| q.pos > pos[i]);
            if min_p > max_p {
                return Err(CompileError::InvalidPreloadOrder {
                    reason: format!(
                        "order forces {min_p} resident preloads at {} but nesting allows {max_p}",
                        self.graph.op(op).name()
                    ),
                });
            }
            // The `k`-th pending preload in ascending π position.
            let nth = |k: usize| pending.len().checked_sub(k + 1).map(|j| &pending[j]);

            windows.clear();
            windows.extend(pending.iter().rev().take(min_p).map(|q| q.points));
            let mut fastest = Fastest::new(&plans.exec_frontier, &windows);
            let mut best: Option<Best> = None;
            for p in min_p..=max_p {
                if p > min_p {
                    let points = nth(p - 1).expect("p <= max_p <= pending").points;
                    windows.push(points);
                    fastest.push(points);
                }
                let fit = fastest.fit(capacity);
                let stepped = fit.is_none();
                let Some(alloc) = fit.or_else(|| {
                    allocate_into(&plans.exec_frontier, &windows, capacity, &mut alloc_pos)
                }) else {
                    if best.is_none() {
                        return Err(CompileError::CapacityExceeded {
                            op: self.graph.op(op).name().to_string(),
                            required: plans.exec_frontier.last().map_or(Bytes::ZERO, |f| f.space),
                            capacity,
                        });
                    }
                    break; // larger windows cannot become feasible again
                };

                let end_bound = nth(p).map_or(exe_start_next, |q| exe_start_next.max(q.start));
                let plan = plans.plan_at(alloc.current);
                let exec_noc = Bytes::new(plan.shift_traffic.get().saturating_mul(plan.cores_used));
                let contention = self.contention_penalty(p, exec_noc);
                let exec_len = alloc.exec_time + contention + allreduce;
                let exe_start = end_bound + exec_len;
                // Score includes the distribution cost the window choices
                // impose on future executions (Fig. 11's joint objective).
                let score = exe_start + alloc.distribute_time;
                if best.as_ref().is_none_or(|b| score < b.score) {
                    best = Some(Best {
                        p,
                        stepped,
                        current: alloc.current,
                        score,
                        exe_start,
                        exec_len,
                        contention,
                    });
                    if stepped {
                        std::mem::swap(&mut best_pos, &mut alloc_pos);
                    }
                }
            }

            let best = best.expect("min_p is always evaluated or errored");
            let p = best.p;
            // Commit window picks with the min-space rule: an operator
            // resident in several windows keeps its smallest footprint.
            // Picks of 0 change nothing.
            if best.stepped {
                for (q, &pick) in pending.iter().rev().take(p).zip(&best_pos[1..]) {
                    let s = per_op[q.op.index()]
                        .as_mut()
                        .expect("window ops are already scheduled");
                    s.preload_idx = s.preload_idx.max(pick);
                }
            }

            let cut = nth(p).map_or(n, |q| q.pos);

            // Place op i's own preload as late as the π order allows
            // (§4.2: just before its execution or before the next preload
            // in order, whichever is earlier). `min_p` pending preloads
            // precede it in π.
            let next_start = nth(min_p).map_or(Seconds::ZERO, |q| q.start);
            let pre_end = best.exe_start.max(next_start);
            let pre_len = self.preload_duration(plans.preload_at(best.current, 0));
            pending.insert(
                pending.len() - min_p,
                Pending {
                    op,
                    pos: pos[i],
                    start: pre_end + pre_len,
                    points: plans.preload_points(best.current),
                },
            );

            per_op[i] = Some(OpSchedule {
                op,
                exec_idx: best.current,
                preload_idx: 0,
                preload_number: p,
                cut,
                exec_len: best.exec_len,
                preload_len: pre_len,
                contention: best.contention,
            });
            exe_start_next = best.exe_start;
            cut_next = cut;
        }

        let mut per_op: Vec<OpSchedule> =
            per_op.into_iter().map(|s| s.expect("scheduled")).collect();
        // Final pass: within each operator's allocated preload space,
        // pick the preload-state plan minimizing preload duration plus
        // data-distribution time — broadcasting `rp` copies multiplies
        // controller-to-core traffic, so maximum broadcast can throttle
        // the preload pipe below the HBM roofline even when memory is
        // plentiful (§3.3's interleaving insight) — then re-derive the
        // committed lengths.
        let mut est_total = Seconds::ZERO;
        for s in &mut per_op {
            let plans = self.catalog.op(s.op);
            let plan = plans.plan_at(s.exec_idx);
            s.preload_idx = s.preload_idx.min(plan.preload_plans.len() - 1);
            let budget = plan.preload_plans[s.preload_idx].preload_space;
            let cost = |pre: &PreloadPlan| self.preload_duration(pre) + pre.distribute_time;
            let mut best = s.preload_idx;
            let mut best_cost = cost(&plan.preload_plans[best]);
            for (k, pre) in plan.preload_plans.iter().enumerate() {
                if pre.preload_space <= budget {
                    let c = cost(pre);
                    if c < best_cost {
                        (best, best_cost) = (k, c);
                    }
                }
            }
            s.preload_idx = best;
            let pre = plans.preload_at(s.exec_idx, s.preload_idx);
            s.exec_len =
                plan.exec_time + pre.distribute_time + s.contention + self.allreduce_time(s.op);
            s.preload_len = self.preload_duration(pre);
        }
        for q in pending.iter().rev() {
            est_total = est_total.max(q.start);
        }
        est_total = est_total.max(exe_start_next);

        Ok(Schedule {
            per_op,
            order: order.to_vec(),
            est_total,
        })
    }
}

/// Maps each operator to its position in `order`, validating the
/// permutation.
fn positions(order: &[OpId], n: usize) -> Result<Vec<usize>, CompileError> {
    if order.len() != n {
        return Err(CompileError::InvalidPreloadOrder {
            reason: format!("order has {} entries for {} operators", order.len(), n),
        });
    }
    let mut pos = vec![usize::MAX; n];
    for (k, id) in order.iter().enumerate() {
        if id.index() >= n || pos[id.index()] != usize::MAX {
            return Err(CompileError::InvalidPreloadOrder {
                reason: format!("operator {id} repeated or out of range"),
            });
        }
        pos[id.index()] = k;
    }
    Ok(pos)
}

/// The identity preload order (execution order).
#[must_use]
pub fn identity_order(n: usize) -> Vec<OpId> {
    (0..n).map(OpId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_cost::AnalyticDevice;
    use elk_hw::presets;
    use elk_model::{zoo, Workload};
    use elk_partition::Partitioner;

    struct Fixture {
        system: SystemConfig,
        graph: ModelGraph,
        catalog: Catalog,
    }

    fn fixture() -> Fixture {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).expect("catalog");
        Fixture {
            system,
            graph,
            catalog,
        }
    }

    #[test]
    fn schedules_llama_under_identity_order() {
        let f = fixture();
        let s = Scheduler::new(&f.graph, &f.catalog, &f.system);
        let sched = s
            .schedule(&identity_order(f.graph.len()))
            .expect("schedule");
        assert_eq!(sched.per_op.len(), f.graph.len());
        assert!(sched.est_total > Seconds::ZERO);
        // Last operator cannot preload anything (Lemma 4.1).
        assert_eq!(sched.per_op.last().unwrap().preload_number, 0);
        // Some operator overlaps preloads (otherwise Elk degenerates).
        assert!(sched.per_op.iter().any(|s| s.preload_number >= 2));
    }

    #[test]
    fn window_residency_is_nested() {
        // cut must be non-increasing going backwards in a way that keeps
        // window(i) \ {i+1} ⊆ window(i+1): verified via the cut chain.
        let f = fixture();
        let s = Scheduler::new(&f.graph, &f.catalog, &f.system);
        let sched = s.schedule(&identity_order(f.graph.len())).unwrap();
        for w in sched.per_op.windows(2) {
            assert!(
                w[0].cut <= w[1].cut.max(w[0].op.index() + 2),
                "cut not nested at {}: {} vs {}",
                w[0].op,
                w[0].cut,
                w[1].cut
            );
        }
    }

    #[test]
    fn rejects_bad_orders() {
        let f = fixture();
        let s = Scheduler::new(&f.graph, &f.catalog, &f.system);
        let short = vec![OpId(0)];
        assert!(matches!(
            s.schedule(&short),
            Err(CompileError::InvalidPreloadOrder { .. })
        ));
        let mut dup = identity_order(f.graph.len());
        dup[1] = OpId(0);
        assert!(matches!(
            s.schedule(&dup),
            Err(CompileError::InvalidPreloadOrder { .. })
        ));
    }
}
