use std::fmt;

use serde::{Deserialize, Serialize};

use elk_cost::TileShape;
use elk_model::{ModelGraph, OpId};
use elk_units::{Bytes, Flops, Seconds};

use crate::{Catalog, Schedule};

/// One instruction of the abstract ICCA device program (§4.5).
///
/// The hardware rules are:
/// 1. an `Execute` blocks all later instructions until it completes;
/// 2. `PreloadAsync`s run sequentially among themselves;
/// 3. a `PreloadAsync` blocks only its own operator's `Execute` (the
///    done-tag wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceInstr {
    /// Request the operator's data from HBM under its preload-state plan.
    PreloadAsync {
        /// Operator whose stationary data is delivered.
        op: OpId,
    },
    /// Wait for the done tag, run data distribution, then execute tiles.
    Execute {
        /// Operator to run.
        op: OpId,
    },
}

impl fmt::Display for DeviceInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceInstr::PreloadAsync { op } => write!(f, "preload_async(op={})", op.0),
            DeviceInstr::Execute { op } => write!(f, "execute(op={})", op.0),
        }
    }
}

/// Fully-resolved per-operator execution parameters: everything a
/// hardware backend or simulator needs, with no reference back to the
/// compiler's catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpSpec {
    /// Operator id.
    pub op: OpId,
    /// Operator name (for reports).
    pub name: String,
    /// Total floating-point work (for achieved-TFLOPS accounting).
    pub flops: Flops,
    /// Per-core per-chunk compute tile.
    pub tile: TileShape,
    /// Rotation micro-steps per core.
    pub chunks: u64,
    /// Cores occupied.
    pub cores_used: u64,
    /// Per-core SRAM during execution.
    pub exec_space: Bytes,
    /// Per-core SRAM from preload completion until execution.
    pub preload_space: Bytes,
    /// Per-core inbound inter-core bytes during execution.
    pub shift_traffic: Bytes,
    /// Per-core inbound bytes in the data-distribution phase.
    pub distribute_traffic: Bytes,
    /// DRAM-side read volume of the preload.
    pub hbm_load: Bytes,
    /// DRAM-side write volume of the execution (KV append).
    pub hbm_store: Bytes,
    /// Fabric bytes injected by HBM controllers during preload.
    pub noc_preload_bytes: Bytes,
    /// Inter-chip all-reduce volume after execution.
    pub allreduce: Bytes,
    /// Compiler's execution-length estimate (distribution + execution +
    /// all-reduce + contention allowance).
    pub exec_len: Seconds,
    /// Compiler's preload-duration estimate.
    pub preload_len: Seconds,
}

/// A lowered device program: the §4.5 instruction stream plus resolved
/// per-operator specs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProgram {
    /// Interleaved instruction stream.
    pub instrs: Vec<DeviceInstr>,
    /// Per-operator parameters, indexed by operator id.
    pub specs: Vec<OpSpec>,
}

impl DeviceProgram {
    /// Lowers a schedule into the §4.5 programming model: preloads are
    /// issued in preload order, each as late as the schedule's overlap
    /// windows allow, interleaved with the in-order `Execute` stream.
    ///
    /// # Panics
    ///
    /// Panics if `schedule` does not cover `graph` (always covered when
    /// produced by [`crate::Scheduler`] on the same graph).
    #[must_use]
    pub fn lower(graph: &ModelGraph, catalog: &Catalog, schedule: &Schedule) -> DeviceProgram {
        let n = graph.len();
        assert_eq!(schedule.per_op.len(), n, "schedule does not cover graph");
        let mut instrs = Vec::with_capacity(2 * n);
        instrs.extend(issue_order(schedule));

        let specs = (0..n)
            .map(|i| {
                let s = &schedule.per_op[i];
                let plans = catalog.op(OpId(i));
                let plan = plans.plan_at(s.exec_idx);
                let pre = plans.preload_at(s.exec_idx, s.preload_idx);
                let op = graph.op(OpId(i));
                OpSpec {
                    op: OpId(i),
                    name: op.name().to_string(),
                    flops: op.flops(),
                    tile: plan.tile,
                    chunks: plan.chunks,
                    cores_used: plan.cores_used,
                    exec_space: plan.exec_space,
                    preload_space: pre.preload_space,
                    shift_traffic: plan.shift_traffic,
                    distribute_traffic: pre.distribute_traffic,
                    hbm_load: pre.hbm_bytes,
                    hbm_store: op.hbm_store(),
                    noc_preload_bytes: pre.noc_preload_bytes,
                    allreduce: op.allreduce(),
                    exec_len: s.exec_len,
                    preload_len: s.preload_len,
                }
            })
            .collect();

        DeviceProgram { instrs, specs }
    }

    /// Number of operators.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.specs.len()
    }

    /// Checks the §4.5 well-formedness rules: every operator is preloaded
    /// exactly once, before its execution; executes appear in operator
    /// order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.specs.len();
        let mut preloaded = vec![false; n];
        let mut executed = vec![false; n];
        let mut last_exec: Option<usize> = None;
        for instr in &self.instrs {
            match *instr {
                DeviceInstr::PreloadAsync { op } => {
                    if preloaded[op.index()] {
                        return Err(format!("{op} preloaded twice"));
                    }
                    if executed[op.index()] {
                        return Err(format!("{op} preloaded after execution"));
                    }
                    preloaded[op.index()] = true;
                }
                DeviceInstr::Execute { op } => {
                    if !preloaded[op.index()] {
                        return Err(format!("{op} executed before preload"));
                    }
                    if let Some(prev) = last_exec {
                        if op.index() != prev + 1 {
                            return Err(format!(
                                "execute order broken: op{} after op{prev}",
                                op.index()
                            ));
                        }
                    } else if op.index() != 0 {
                        return Err("first execute is not op0".to_string());
                    }
                    executed[op.index()] = true;
                    last_exec = Some(op.index());
                }
            }
        }
        if !executed.iter().all(|&e| e) {
            return Err("not all operators executed".to_string());
        }
        if !preloaded.iter().all(|&p| p) {
            return Err("not all operators preloaded".to_string());
        }
        Ok(())
    }

    /// The preload issue order as operator ids.
    #[must_use]
    pub fn preload_order(&self) -> Vec<OpId> {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                DeviceInstr::PreloadAsync { op } => Some(*op),
                DeviceInstr::Execute { .. } => None,
            })
            .collect()
    }
}

/// The §4.5 instruction stream of `schedule`: `Execute`s in operator
/// order, each preceded by the preloads it lets issue. Before operator
/// `i` executes, every preload at π position `< max(cut_i, pos_i + 1)`
/// has been issued: its own preload at the latest, and as many ahead as
/// its overlap window allows.
pub(crate) fn issue_order(schedule: &Schedule) -> impl Iterator<Item = DeviceInstr> + '_ {
    let n = schedule.per_op.len();
    let mut pos = vec![0usize; n];
    for (k, id) in schedule.order.iter().enumerate() {
        pos[id.index()] = k;
    }
    let mut issued = 0usize;
    schedule
        .per_op
        .iter()
        .enumerate()
        .flat_map(move |(i, per_op)| {
            let from = issued;
            issued = issued.max(per_op.cut.max(pos[i] + 1).min(n));
            schedule.order[from..issued]
                .iter()
                .map(|&op| DeviceInstr::PreloadAsync { op })
                .chain(std::iter::once(DeviceInstr::Execute { op: OpId(i) }))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{identity_order, Scheduler};
    use elk_cost::AnalyticDevice;
    use elk_hw::presets;
    use elk_model::{zoo, Workload};
    use elk_partition::Partitioner;

    fn lowered() -> (ModelGraph, DeviceProgram) {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).unwrap();
        let sched = Scheduler::new(&graph, &catalog, &system)
            .schedule(&identity_order(graph.len()))
            .unwrap();
        let prog = DeviceProgram::lower(&graph, &catalog, &sched);
        (graph, prog)
    }

    #[test]
    fn lowered_program_is_well_formed() {
        let (graph, prog) = lowered();
        prog.validate().expect("valid program");
        assert_eq!(prog.instrs.len(), 2 * graph.len());
        assert_eq!(prog.preload_order(), identity_order(graph.len()));
    }

    #[test]
    fn preloads_run_ahead_of_execution() {
        let (_, prog) = lowered();
        // Before the first execute, at least op0's preload is issued; with
        // overlap, usually several.
        let first_exec = prog
            .instrs
            .iter()
            .position(|i| matches!(i, DeviceInstr::Execute { .. }))
            .unwrap();
        assert!(first_exec >= 1);
    }

    #[test]
    fn validate_catches_missing_preload() {
        let (_, mut prog) = lowered();
        // Drop the first preload instruction.
        let idx = prog
            .instrs
            .iter()
            .position(|i| matches!(i, DeviceInstr::PreloadAsync { .. }))
            .unwrap();
        prog.instrs.remove(idx);
        assert!(prog.validate().is_err());
    }

    #[test]
    fn specs_carry_resolved_quantities() {
        let (graph, prog) = lowered();
        for (i, spec) in prog.specs.iter().enumerate() {
            assert_eq!(spec.op, OpId(i));
            assert_eq!(
                spec.hbm_load.is_zero(),
                graph.op(OpId(i)).hbm_load().is_zero()
            );
            assert!(spec.cores_used > 0);
            assert!(spec.exec_len > Seconds::ZERO);
        }
    }
}
