use serde::{Deserialize, Serialize};

use elk_model::OpId;
use elk_units::{Bytes, Seconds};

use crate::program::issue_order;
use crate::{Catalog, DeviceInstr, DeviceProgram, Schedule};

/// Forward timeline evaluation of a device program under the §4.5
/// hardware rules — the compiler's authoritative end-to-end estimate
/// (contention is charged per operator inside the spec lengths; the
/// event simulator in `elk-sim` measures it dynamically).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanEstimate {
    /// End-to-end makespan.
    pub total: Seconds,
    /// Time the preload engine (HBM path) is busy.
    pub preload_busy: Seconds,
    /// Time the cores are busy executing.
    pub exec_busy: Seconds,
    /// Time both are busy simultaneously (the §6.2 "overlapped" bucket).
    pub overlap: Seconds,
    /// Per-operator execution intervals.
    pub exec_spans: Vec<(Seconds, Seconds)>,
    /// Per-operator preload intervals.
    pub preload_spans: Vec<(Seconds, Seconds)>,
    /// Peak per-core SRAM residency observed.
    pub peak_resident: Bytes,
    /// Maximum number of simultaneously-resident operators (`K`-like).
    pub peak_resident_ops: usize,
    /// Events where residency exceeded `capacity` (0 for sound plans).
    pub capacity_violations: usize,
}

impl PlanEstimate {
    /// Fraction of the makespan with preload and execution overlapped.
    #[must_use]
    pub fn overlap_fraction(&self) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.overlap / self.total
        }
    }
}

/// Replays `program` on the abstract machine: sequential preloads,
/// execute-blocks-future-preloads, done-tag waits — and audits per-core
/// memory residency against `capacity`.
#[must_use]
pub fn evaluate(program: &DeviceProgram, capacity: Bytes) -> PlanEstimate {
    let specs = &program.specs;
    let Spans { pre, exec, total } = replay(
        program.instrs.iter().copied(),
        specs.len(),
        |i| (specs[i].preload_len, specs[i].exec_len),
        None,
    )
    .expect("an unbounded replay runs to the end");
    let preload_busy: Seconds = pre.iter().map(|&(s, e)| e - s).sum();
    let exec_busy: Seconds = exec.iter().map(|&(s, e)| e - s).sum();
    let overlap = interval_overlap(&pre, &exec);
    let (peak_resident, peak_resident_ops, capacity_violations) =
        audit_memory(&pre, &exec, capacity, |i| {
            (specs[i].preload_space, specs[i].exec_space)
        });

    PlanEstimate {
        total,
        preload_busy,
        exec_busy,
        overlap,
        exec_spans: exec,
        preload_spans: pre,
        peak_resident,
        peak_resident_ops,
        capacity_violations,
    }
}

/// Ranks `schedule` without lowering it: the `(capacity_violations,
/// total)` that [`evaluate`] gives [`DeviceProgram::lower`]'s program,
/// from the same replay and audit, with no specs, names, busy sums or
/// overlap.
///
/// With a `bound`, returns `None` as soon as an execute ends past it,
/// exactly when the total would exceed `bound`. A candidate stopped this
/// way cannot beat a violation-free plan of total `bound`.
#[must_use]
pub fn rank_schedule(
    catalog: &Catalog,
    schedule: &Schedule,
    capacity: Bytes,
    bound: Option<Seconds>,
) -> Option<(usize, Seconds)> {
    let per_op = &schedule.per_op;
    let Spans { pre, exec, total } = replay(
        issue_order(schedule),
        per_op.len(),
        |i| (per_op[i].preload_len, per_op[i].exec_len),
        bound,
    )?;
    let (_, _, violations) = audit_memory(&pre, &exec, capacity, |i| {
        let (s, plans) = (&per_op[i], catalog.op(OpId(i)));
        let plan = plans.plan_at(s.exec_idx);
        (
            plan.preload_plans[s.preload_idx].preload_space,
            plan.exec_space,
        )
    });
    Some((violations, total))
}

/// Per-operator preload and execution intervals of one replay, and its
/// makespan.
struct Spans {
    pre: Vec<(Seconds, Seconds)>,
    exec: Vec<(Seconds, Seconds)>,
    total: Seconds,
}

/// The §4.5 rules over an instruction stream for `n` operators whose
/// `(preload_len, exec_len)` are `lens(i)`: preloads run one at a time
/// and not before the last issued execute ends; an execute waits for
/// the previous one and for its own preload. `None` once an execute
/// ends past `bound`.
///
/// Execute ends only grow (lengths are non-negative), so the first one
/// past `bound` shows that the total is past it too.
fn replay(
    instrs: impl IntoIterator<Item = DeviceInstr>,
    n: usize,
    lens: impl Fn(usize) -> (Seconds, Seconds),
    bound: Option<Seconds>,
) -> Option<Spans> {
    let mut pre = vec![(Seconds::ZERO, Seconds::ZERO); n];
    let mut exec = vec![(Seconds::ZERO, Seconds::ZERO); n];
    let mut pre_free = Seconds::ZERO;
    let mut exec_free = Seconds::ZERO; // end of the last Execute issued so far

    for instr in instrs {
        match instr {
            DeviceInstr::PreloadAsync { op } => {
                let start = pre_free.max(exec_free);
                let end = start + lens(op.index()).0;
                pre[op.index()] = (start, end);
                pre_free = end;
            }
            DeviceInstr::Execute { op } => {
                let start = exec_free.max(pre[op.index()].1);
                let end = start + lens(op.index()).1;
                exec[op.index()] = (start, end);
                exec_free = end;
                if bound.is_some_and(|b| end > b) {
                    return None;
                }
            }
        }
    }
    Some(Spans {
        pre,
        exec,
        total: exec_free,
    })
}

/// Total intersection of two families of disjoint intervals.
fn interval_overlap(a: &[(Seconds, Seconds)], b: &[(Seconds, Seconds)]) -> Seconds {
    let mut av: Vec<(Seconds, Seconds)> = a.iter().copied().filter(|(s, e)| e > s).collect();
    let mut bv: Vec<(Seconds, Seconds)> = b.iter().copied().filter(|(s, e)| e > s).collect();
    av.sort_by_key(|&(s, _)| s);
    bv.sort_by_key(|&(s, _)| s);
    let (mut i, mut j) = (0, 0);
    let mut total = Seconds::ZERO;
    while i < av.len() && j < bv.len() {
        let lo = av[i].0.max(bv[j].0);
        let hi = av[i].1.min(bv[j].1);
        if hi > lo {
            total += hi - lo;
        }
        if av[i].1 <= bv[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Sweeps residency events: `+preload_space` at preload start, swap to
/// `exec_space` at execution start, free at execution end. `space(i)`
/// is operator `i`'s `(preload_space, exec_space)`.
fn audit_memory(
    pre: &[(Seconds, Seconds)],
    exec: &[(Seconds, Seconds)],
    capacity: Bytes,
    space: impl Fn(usize) -> (Bytes, Bytes),
) -> (Bytes, usize, usize) {
    #[derive(Clone, Copy)]
    enum Ev {
        PreStart(usize),
        ExecStart(usize),
        ExecEnd(usize),
    }
    // Order ties: frees before starts so back-to-back swaps don't
    // double-count; equal (time, kind) events keep operator order. Each
    // kind is pushed as one block in operator order, which the stable
    // sort keeps for ties and merges as presorted runs (executions run
    // in operator order, preloads nearly so).
    let n = pre.len();
    let mut events: Vec<(Seconds, u8, Ev)> = Vec::with_capacity(3 * n);
    events.extend((0..n).map(|i| (exec[i].1, 0, Ev::ExecEnd(i))));
    events.extend((0..n).map(|i| (exec[i].0, 1, Ev::ExecStart(i))));
    events.extend((0..n).map(|i| (pre[i].0, 2, Ev::PreStart(i))));
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut resident = Bytes::ZERO;
    let mut ops = 0usize;
    let mut peak = Bytes::ZERO;
    let mut peak_ops = 0usize;
    let mut violations = 0usize;
    for (_, _, ev) in events {
        match ev {
            Ev::PreStart(i) => {
                resident += space(i).0;
                ops += 1;
            }
            Ev::ExecStart(i) => {
                let (preload_space, exec_space) = space(i);
                resident = resident.saturating_sub(preload_space) + exec_space;
            }
            Ev::ExecEnd(i) => {
                resident = resident.saturating_sub(space(i).1);
                ops = ops.saturating_sub(1);
            }
        }
        if resident > peak {
            peak = resident;
        }
        peak_ops = peak_ops.max(ops);
        if resident > capacity {
            violations += 1;
        }
    }
    (peak, peak_ops, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        candidate_orders, identity_order, Catalog, DeviceProgram, OpSpec, ReorderOptions, Scheduler,
    };
    use elk_cost::AnalyticDevice;
    use elk_hw::presets;
    use elk_model::{zoo, OpId, Workload};
    use elk_partition::Partitioner;

    fn sec(x: f64) -> Seconds {
        Seconds::new(x)
    }

    #[test]
    fn overlap_of_disjoint_is_zero() {
        let a = [(sec(0.0), sec(1.0))];
        let b = [(sec(1.0), sec(2.0))];
        assert_eq!(interval_overlap(&a, &b), Seconds::ZERO);
    }

    #[test]
    fn overlap_partial() {
        let a = [(sec(0.0), sec(2.0)), (sec(3.0), sec(4.0))];
        let b = [(sec(1.0), sec(3.5))];
        let got = interval_overlap(&a, &b).as_secs();
        assert!((got - 1.5).abs() < 1e-12);
    }

    fn build(graph_batch: u64) -> (elk_hw::SystemConfig, DeviceProgram) {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(graph_batch, 1024), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).unwrap();
        let sched = Scheduler::new(&graph, &catalog, &system)
            .schedule(&identity_order(graph.len()))
            .unwrap();
        (
            system.clone(),
            DeviceProgram::lower(&graph, &catalog, &sched),
        )
    }

    #[test]
    fn elk_schedule_respects_capacity() {
        let (system, prog) = build(16);
        let est = evaluate(&prog, system.chip.usable_sram_per_core());
        assert_eq!(
            est.capacity_violations, 0,
            "peak resident {} exceeds capacity",
            est.peak_resident
        );
        assert!(est.peak_resident > Bytes::ZERO);
        assert!(est.peak_resident_ops >= 2);
    }

    #[test]
    fn preload_and_execution_overlap_substantially() {
        let (system, prog) = build(16);
        let est = evaluate(&prog, system.chip.usable_sram_per_core());
        assert!(
            est.overlap_fraction() > 0.3,
            "overlap fraction {:.3} too low for Elk",
            est.overlap_fraction()
        );
        assert!(est.total >= est.exec_busy.max(est.preload_busy) - Seconds::from_micros(1.0));
    }

    #[test]
    fn executes_are_sequential_and_ordered() {
        let (system, prog) = build(16);
        let est = evaluate(&prog, system.chip.usable_sram_per_core());
        for w in est.exec_spans.windows(2) {
            assert!(w[1].0 >= w[0].1, "execution overlap between ops");
        }
        // Done-tag rule: execution never starts before its preload ends.
        for (e, p) in est.exec_spans.iter().zip(&est.preload_spans) {
            assert!(e.0 >= p.1);
        }
    }

    #[test]
    fn preloads_are_sequential() {
        let (system, prog) = build(16);
        let est = evaluate(&prog, system.chip.usable_sram_per_core());
        let order = prog.preload_order();
        for w in order.windows(2) {
            let a = est.preload_spans[w[0].index()];
            let b = est.preload_spans[w[1].index()];
            assert!(b.0 >= a.1, "preloads overlap in issue order");
        }
    }

    /// The audit as first written: events pushed interleaved per
    /// operator, then stably sorted. `audit_memory` must match it
    /// bit for bit, tie order included.
    fn reference_audit(
        program: &DeviceProgram,
        pre: &[(Seconds, Seconds)],
        exec: &[(Seconds, Seconds)],
        capacity: Bytes,
    ) -> (Bytes, usize, usize) {
        #[derive(Clone, Copy)]
        enum Ev {
            PreStart(usize),
            ExecStart(usize),
            ExecEnd(usize),
        }
        let mut events: Vec<(Seconds, u8, Ev)> = Vec::new();
        for i in 0..pre.len() {
            events.push((exec[i].1, 0, Ev::ExecEnd(i)));
            events.push((exec[i].0, 1, Ev::ExecStart(i)));
            events.push((pre[i].0, 2, Ev::PreStart(i)));
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut resident, mut ops) = (Bytes::ZERO, 0usize);
        let (mut peak, mut peak_ops, mut violations) = (Bytes::ZERO, 0usize, 0usize);
        for (_, _, ev) in events {
            match ev {
                Ev::PreStart(i) => {
                    resident += program.specs[i].preload_space;
                    ops += 1;
                }
                Ev::ExecStart(i) => {
                    let spec = &program.specs[i];
                    resident = resident.saturating_sub(spec.preload_space) + spec.exec_space;
                }
                Ev::ExecEnd(i) => {
                    resident = resident.saturating_sub(program.specs[i].exec_space);
                    ops = ops.saturating_sub(1);
                }
            }
            peak = peak.max(resident);
            peak_ops = peak_ops.max(ops);
            if resident > capacity {
                violations += 1;
            }
        }
        (peak, peak_ops, violations)
    }

    fn assert_matches_reference(prog: &DeviceProgram, capacity: Bytes) -> PlanEstimate {
        let est = evaluate(prog, capacity);
        let want = reference_audit(prog, &est.preload_spans, &est.exec_spans, capacity);
        assert_eq!(
            (
                est.peak_resident,
                est.peak_resident_ops,
                est.capacity_violations
            ),
            want,
            "audit diverged from the reference at capacity {capacity}"
        );
        est
    }

    #[test]
    fn audit_matches_reference_on_tied_zero_length_preloads() {
        let system = presets::ipu_pod4();
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 2;
        let graph = cfg.build(Workload::decode(32, 4096), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let catalog = Catalog::build(&graph, &Partitioner::new(&system.chip, &dev)).unwrap();
        let usable = system.chip.usable_sram_per_core();
        let scheduler = Scheduler::new(&graph, &catalog, &system);
        let mut tied = 0usize;
        for cand in candidate_orders(&graph, &catalog, usable, &ReorderOptions::default()) {
            let Ok(sched) = scheduler.schedule(&cand.order) else {
                continue;
            };
            let prog = DeviceProgram::lower(&graph, &catalog, &sched);
            let est = assert_matches_reference(&prog, usable);
            // Tighter capacities make violations, and so tie order,
            // observable.
            for frac in [0.9, 0.6, 0.3] {
                assert_matches_reference(&prog, est.peak_resident.scale(frac));
            }
            let mut starts: Vec<Seconds> = est.preload_spans.iter().map(|s| s.0).collect();
            starts.sort();
            tied += starts.windows(2).filter(|w| w[0] == w[1]).count();
        }
        assert!(tied > 0, "no zero-length preload tied another's start");
    }

    #[test]
    fn tied_preload_starts_apply_in_operator_order() {
        // Op 1's preload is issued first and takes no time, so both
        // preloads start at t = 0 with different spaces. In operator
        // order (small op 0, then big op 1) residency reads 30 then 90,
        // one violation at capacity 50; the other order (60, 90) would
        // give two, and five in total instead of four.
        let (_, template) = build(16);
        let spec = |op: usize, preload_space: u64, exec_space: u64, preload_len: f64| OpSpec {
            op: OpId(op),
            preload_space: Bytes::new(preload_space),
            exec_space: Bytes::new(exec_space),
            preload_len: sec(preload_len),
            exec_len: sec(1.0),
            ..template.specs[0].clone()
        };
        let prog = DeviceProgram {
            instrs: vec![
                DeviceInstr::PreloadAsync { op: OpId(1) },
                DeviceInstr::PreloadAsync { op: OpId(0) },
                DeviceInstr::Execute { op: OpId(0) },
                DeviceInstr::Execute { op: OpId(1) },
            ],
            specs: vec![spec(0, 30, 30, 1.0), spec(1, 60, 60, 0.0)],
        };
        let est = assert_matches_reference(&prog, Bytes::new(50));
        assert_eq!(est.preload_spans[0].0, est.preload_spans[1].0);
        // 30 | 90 (violation) | 90 at exec(0) (violation) | 60 after
        // exec(0) ends (violation) | 60 at exec(1) (violation) | 0.
        assert_eq!(est.capacity_violations, 4);
        assert_eq!(est.peak_resident, Bytes::new(90));
    }
}
