//! The *Static* baseline (§6.1): the state-of-the-art ICCA compiler (T10)
//! extended with HBM support. SRAM is split once, globally, into an
//! execution region and a preload region; each operator takes the fastest
//! plan fitting the execution region; operators preload FIFO into the
//! preload region; and all operators use one global preload-state mode —
//! everything max-broadcast or everything min-footprint, whichever is
//! faster end-to-end.

use elk_hw::SystemConfig;
use elk_model::ModelGraph;
use elk_units::{Bytes, Seconds};

use elk_core::{
    evaluate, rank_schedule, Catalog, CompileError, DeviceProgram, PlanEstimate, Schedule,
    Scheduler,
};

use crate::manual::{lower, schedule, ManualChoice};

/// Global preload-state mode of the Static design: broadcast everything
/// at preload time, or hold minimal footprints and gather at execution
/// (the `MaxPreload` / `MinPreload` settings of Figs. 7–8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PreloadMode {
    /// Broadcast as much shared data as possible at preload time.
    MaxBroadcast,
    /// Hold the minimum preload footprint; gather at execution time.
    MinFootprint,
}

/// The Static design's program and its estimate: the fastest
/// violation-free program over nine execution budgets (10–90% of SRAM)
/// × both preload modes, the first of equally fast ones.
///
/// Budgets often pick the same plans: each distinct choice vector is
/// ranked once by [`rank_schedule`], since a repeat lowers to the same
/// program and cannot beat it under the strict `<`. The ranking replays
/// each schedule without lowering it and stops one that runs past the
/// best total so far; only the winner is lowered and evaluated.
pub(crate) fn plan(
    graph: &ModelGraph,
    catalog: &Catalog,
    system: &SystemConfig,
) -> Result<(DeviceProgram, PlanEstimate), CompileError> {
    if graph.is_empty() {
        return Err(CompileError::EmptyGraph);
    }
    let capacity = system.chip.usable_sram_per_core();
    let scheduler = Scheduler::new(graph, catalog, system);

    let mut tried: Vec<Vec<ManualChoice>> = Vec::new();
    let mut best: Option<(Seconds, Schedule)> = None;
    for percent in (10..=90).step_by(10) {
        let exec_budget = capacity.scale(percent as f64 / 100.0);
        for mode in [PreloadMode::MaxBroadcast, PreloadMode::MinFootprint] {
            let Some(choices) = choose(graph, catalog, system, exec_budget, mode) else {
                continue;
            };
            if tried.contains(&choices) {
                continue;
            }
            let sched = schedule(graph, catalog, &scheduler, &choices);
            tried.push(choices);
            let bound = best.as_ref().map(|(total, _)| *total);
            let Some((violations, total)) = rank_schedule(catalog, &sched, capacity, bound) else {
                continue;
            };
            if violations > 0 {
                continue;
            }
            if best.as_ref().is_none_or(|(b, _)| total < *b) {
                best = Some((total, sched));
            }
        }
    }
    let (_, sched) = best.ok_or(CompileError::CapacityExceeded {
        op: "static split".to_string(),
        required: capacity,
        capacity,
    })?;
    let program = DeviceProgram::lower(graph, catalog, &sched);
    let estimate = evaluate(&program, capacity);
    Ok((program, estimate))
}

/// Builds a Static-design program for an explicit execution budget and
/// preload-state mode (the motivation experiments of Figs. 6-8 sweep
/// these directly). The preload region is whatever SRAM the execution
/// region leaves.
#[must_use]
pub fn plan_with_budget(
    graph: &ModelGraph,
    catalog: &Catalog,
    system: &SystemConfig,
    exec_budget: Bytes,
    mode: PreloadMode,
) -> Option<DeviceProgram> {
    choose(graph, catalog, system, exec_budget, mode)
        .map(|choices| lower(graph, catalog, system, &choices))
}

/// Each operator's choice under an execution budget and preload mode,
/// with FIFO preload cuts, or `None` if the largest executing operator
/// overflows SRAM.
fn choose(
    graph: &ModelGraph,
    catalog: &Catalog,
    system: &SystemConfig,
    exec_budget: Bytes,
    mode: PreloadMode,
) -> Option<Vec<ManualChoice>> {
    let n = graph.len();
    let capacity = system.chip.usable_sram_per_core();
    let mut choices = Vec::with_capacity(n);
    for op in graph.iter() {
        let plans = catalog.op(op.id());
        // Frontier is fastest-first; pick the fastest plan within budget.
        // Operators whose smallest plan exceeds the nominal region fall
        // back to that smallest plan — the execution region must then
        // grow to hold them, which is exactly how a fixed split degrades
        // under memory pressure (§6.1 "limited by fixed preload and
        // execution space sizes").
        let exec_idx = plans
            .exec_frontier
            .iter()
            .position(|p| p.space <= exec_budget)
            .unwrap_or(plans.exec_frontier.len() - 1);
        let pre_count = plans.plan_at(exec_idx).preload_plans.len();
        let preload_idx = match mode {
            PreloadMode::MaxBroadcast => 0,
            PreloadMode::MinFootprint => pre_count - 1,
        };
        choices.push(ManualChoice {
            exec_idx,
            preload_idx,
            cut: 0,
        });
    }

    // The execution region must hold the largest executing operator; the
    // rest of SRAM is the preload region.
    let exec_region: Bytes = choices
        .iter()
        .zip(graph.iter())
        .map(|(c, op)| catalog.op(op.id()).plan_at(c.exec_idx).exec_space)
        .max()
        .unwrap_or(Bytes::ZERO);
    if exec_region > capacity {
        return None;
    }
    let preload_region = capacity - exec_region;

    // FIFO preload into the static region: issue ahead while it fits.
    // An operator too large for the region is force-issued in the gap
    // before its own execution (FIFO order keeps that memory-safe: all
    // earlier preloads have executed and freed their space by then).
    let spaces: Vec<Bytes> = (0..n)
        .map(|i| {
            catalog
                .op(graph.ops()[i].id())
                .preload_points(choices[i].exec_idx)[choices[i].preload_idx]
                .space
        })
        .collect();
    let mut issued = 0usize;
    let mut resident = Bytes::ZERO;
    for i in 0..n {
        while issued < n && (issued <= i || resident + spaces[issued] <= preload_region) {
            resident += spaces[issued];
            issued += 1;
        }
        choices[i].cut = issued;
        resident = resident.saturating_sub(spaces[i]);
    }

    Some(choices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Design, DesignRunner};
    use elk_hw::presets;
    use elk_model::{zoo, Workload};
    use elk_sim::{simulate, SimOptions};

    /// The Static search as first written, kept as the reference the
    /// production search must match: all 18 (split, mode) points lowered
    /// and evaluated, the first strictly fastest violation-free program
    /// kept.
    fn eighteen_pass_plan(
        graph: &ModelGraph,
        catalog: &Catalog,
        system: &SystemConfig,
    ) -> Result<DeviceProgram, CompileError> {
        let capacity = system.chip.usable_sram_per_core();
        let mut best: Option<(Seconds, DeviceProgram)> = None;
        for percent in (10..=90).step_by(10) {
            let exec_budget = capacity.scale(percent as f64 / 100.0);
            for mode in [PreloadMode::MaxBroadcast, PreloadMode::MinFootprint] {
                let Some(prog) = plan_with_budget(graph, catalog, system, exec_budget, mode) else {
                    continue;
                };
                let est = evaluate(&prog, capacity);
                if est.capacity_violations > 0 {
                    continue;
                }
                if best.as_ref().is_none_or(|(t, _)| est.total < *t) {
                    best = Some((est.total, prog));
                }
            }
        }
        best.map(|(_, p)| p).ok_or(CompileError::CapacityExceeded {
            op: "static split".to_string(),
            required: capacity,
            capacity,
        })
    }

    #[test]
    fn static_design_matches_the_eighteen_pass_reference() {
        // A small-SRAM part where the split binds, next to the
        // all-to-all and mesh IPU-POD4.
        let mut small = presets::ipu_pod4();
        small.chip = small.chip.with_cores(368);
        small.chip.sram_per_core = Bytes::kib(256);
        let sim = SimOptions::default();
        let mut compared = 0;
        for system in [presets::ipu_pod4(), presets::ipu_pod4_mesh(), small] {
            let runner = DesignRunner::new(system.clone());
            let capacity = system.chip.usable_sram_per_core();
            for wl in [Workload::decode(16, 2048), Workload::prefill(2, 512)] {
                let graphs = [
                    zoo::llama2_13b().build(wl, 4),
                    zoo::opt_30b().build(wl, 4),
                    zoo::dit_xl().build(wl, 4),
                ];
                for graph in graphs {
                    let Ok(catalog) = runner.catalog(&graph) else {
                        continue;
                    };
                    let case = format!("{} on {}", graph.name(), system.chip.name);
                    let want = eighteen_pass_plan(&graph, &catalog, &system);
                    match (want, runner.run(Design::Static, &graph, &catalog, &sim)) {
                        (Ok(prog), Ok(out)) => {
                            assert_eq!(out.estimate, evaluate(&prog, capacity), "{case}");
                            assert!(out.program == prog, "{case}: programs differ");
                            compared += 1;
                        }
                        (Err(want), Err(got)) => {
                            assert_eq!(got.to_string(), want.to_string(), "{case}");
                        }
                        (want, got) => panic!("{case}: {want:?} vs {:?}", got.map(|o| o.design)),
                    }
                }
            }
        }
        assert!(compared >= 12, "only {compared} programs compared");
    }

    #[test]
    fn static_preloads_further_ahead_than_basic() {
        let system = presets::ipu_pod4();
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 2;
        let graph = cfg.build(Workload::decode(16, 2048), 4);
        let runner = DesignRunner::new(system.clone());
        let catalog = runner.catalog(&graph).unwrap();
        let (st, _) = plan(&graph, &catalog, &system).unwrap();
        st.validate().expect("valid");
        let basic = crate::basic::plan(&graph, &catalog, &system).unwrap();
        let longest_run = |p: &DeviceProgram| {
            let mut run = 0usize;
            let mut best = 0usize;
            for i in &p.instrs {
                match i {
                    elk_core::DeviceInstr::PreloadAsync { .. } => {
                        run += 1;
                        best = best.max(run);
                    }
                    elk_core::DeviceInstr::Execute { .. } => run = 0,
                }
            }
            best
        };
        assert!(longest_run(&st) > longest_run(&basic));
        // And it should be faster in simulation.
        let rs = simulate(&st, &system, &SimOptions::default());
        let rb = simulate(&basic, &system, &SimOptions::default());
        assert!(rs.total <= rb.total * 1.02, "{} vs {}", rs.total, rb.total);
    }
}
