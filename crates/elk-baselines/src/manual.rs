//! Shared construction of hand-built (non-Elk) schedules.

use elk_hw::SystemConfig;
use elk_model::ModelGraph;
use elk_units::Seconds;

use elk_core::{identity_order, Catalog, DeviceProgram, OpSchedule, Schedule, Scheduler};

/// Per-operator choice of a hand-built design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ManualChoice {
    /// Position on the execute-state Pareto frontier.
    pub exec_idx: usize,
    /// Preload-state plan index of that execute plan.
    pub preload_idx: usize,
    /// Preload-order cut: order positions `< cut` may be issued before
    /// this operator executes.
    pub cut: usize,
}

/// Assembles a [`Schedule`] (identity preload order) from per-operator
/// choices, deriving execution and preload lengths exactly like the Elk
/// scheduler does.
pub(crate) fn schedule(
    graph: &ModelGraph,
    catalog: &Catalog,
    system: &SystemConfig,
    choices: &[ManualChoice],
) -> Schedule {
    assert_eq!(choices.len(), graph.len(), "choice per operator required");
    let order = identity_order(graph.len());
    // A throwaway scheduler instance provides the preload-duration model.
    let scheduler = Scheduler::new(graph, catalog, system, elk_core::ScheduleOptions::default());

    let per_op: Vec<OpSchedule> = choices
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let op = graph.ops()[i].id();
            let plans = catalog.op(op);
            let plan = plans.plan_at(c.exec_idx);
            let pre = plans.preload_at(c.exec_idx, c.preload_idx);
            OpSchedule {
                op,
                exec_idx: c.exec_idx,
                preload_idx: c.preload_idx,
                preload_number: c.cut.saturating_sub(i + 1),
                cut: c.cut,
                exec_len: plan.exec_time
                    + pre.distribute_time
                    + system.allreduce_time(graph.ops()[i].allreduce()),
                preload_len: scheduler.preload_duration(pre),
                contention: Seconds::ZERO,
            }
        })
        .collect();

    Schedule {
        per_op,
        order,
        est_total: Seconds::ZERO,
    }
}

/// [`schedule`], lowered.
pub(crate) fn lower(
    graph: &ModelGraph,
    catalog: &Catalog,
    system: &SystemConfig,
    choices: &[ManualChoice],
) -> DeviceProgram {
    DeviceProgram::lower(graph, catalog, &schedule(graph, catalog, system, choices))
}
