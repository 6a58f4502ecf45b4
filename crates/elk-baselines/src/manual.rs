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
/// scheduler does. `scheduler`, built over `graph` and `catalog`,
/// provides the preload-duration and all-reduce models, so choice
/// vectors of one graph can share it.
pub(crate) fn schedule(
    graph: &ModelGraph,
    catalog: &Catalog,
    scheduler: &Scheduler<'_>,
    choices: &[ManualChoice],
) -> Schedule {
    assert_eq!(choices.len(), graph.len(), "choice per operator required");
    let order = identity_order(graph.len());

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
                exec_len: plan.exec_time + pre.distribute_time + scheduler.allreduce_time(op),
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
    let scheduler = Scheduler::new(graph, catalog, system);
    DeviceProgram::lower(
        graph,
        catalog,
        &schedule(graph, catalog, &scheduler, choices),
    )
}
