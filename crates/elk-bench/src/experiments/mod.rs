//! One module per paper table/figure (plus ablations and serving
//! studies). Each exposes `run(&mut Ctx)`, listed once in [`REGISTRY`].

pub mod ablation_allocator;
pub mod ablation_reorder;
pub mod ablation_sram;
pub mod autoscale;
pub mod cluster;
pub mod disagg;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig12;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod fig21;
pub mod fig22;
pub mod fig23;
pub mod fig24;
pub mod scale;
pub mod serving;
pub mod table2;
pub mod tenancy;

use std::fmt::Display;

use elk_baselines::{Design, DesignOutcome, DesignRunner};
use elk_model::ModelGraph;
use elk_sim::SimOptions;
use elk_spec::ScenarioSpec;

use crate::ctx::Ctx;

/// An experiment's id (its module's name) and entry point.
pub type Experiment = (&'static str, fn(&mut Ctx));

/// Every experiment by id, in the order `repro all` runs them: the
/// paper's table and figures, the serving studies, the scale bench, then
/// the ablations.
pub const REGISTRY: &[Experiment] = &[
    ("table2", table2::run),
    ("fig05", fig05::run),
    ("fig06", fig06::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig12", fig12::run),
    ("fig16", fig16::run),
    ("fig17", fig17::run),
    ("fig18", fig18::run),
    ("fig19", fig19::run),
    ("fig20", fig20::run),
    ("fig21", fig21::run),
    ("fig22", fig22::run),
    ("fig23", fig23::run),
    ("fig24", fig24::run),
    ("serving", serving::run),
    ("cluster", cluster::run),
    ("autoscale", autoscale::run),
    ("disagg", disagg::run),
    ("tenancy", tenancy::run),
    ("scale", scale::run),
    ("ablation_allocator", ablation_allocator::run),
    ("ablation_reorder", ablation_reorder::run),
    ("ablation_sram", ablation_sram::run),
];

/// Pod-level achieved TFLOPS (the simulator reports per chip).
pub(crate) fn pod_tflops(outcome: &DesignOutcome, chips: u64) -> f64 {
    outcome.report.achieved.as_tera() * chips as f64
}

/// Runs `designs` on `graph` at one design-space point. Full grids
/// reach corners where a design has no feasible on-chip plan (OPT-30B
/// decode at b64/s4096 outgrows the per-core SRAM); there the error is
/// the transcript line that names `point` and the failing operator.
pub(crate) fn point_outcomes(
    runner: &DesignRunner,
    designs: &[Design],
    graph: &ModelGraph,
    point: impl Display,
) -> Result<Vec<DesignOutcome>, String> {
    runner
        .run_designs(designs, graph, &SimOptions::default())
        .map_err(|e| format!("{point}: infeasible, left out ({e})"))
}

/// [`point_outcomes`], printing an infeasible point's line on `ctx` and
/// returning `None`, so the caller leaves the point out of its table
/// and aggregates and the run goes on.
pub(crate) fn run_point(
    ctx: &mut Ctx,
    runner: &DesignRunner,
    designs: &[Design],
    graph: &ModelGraph,
    point: impl Display,
) -> Option<Vec<DesignOutcome>> {
    point_outcomes(runner, designs, graph, point)
        .map_err(|line| ctx.line(line))
        .ok()
}

/// Parses a checked-in scenario, with its cluster worker threads set to
/// `ctx.threads` (reports are byte-identical at any count).
pub(crate) fn scenario(ctx: &Ctx, json: &str) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_json(json).expect("checked-in scenarios parse");
    spec.cluster
        .as_mut()
        .expect("the scenario has a cluster section")
        .threads = ctx.threads;
    spec
}

#[cfg(test)]
mod tests {
    use super::REGISTRY;

    #[test]
    fn registry_lists_each_experiment_module_once() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/experiments");
        let mut modules: Vec<String> = std::fs::read_dir(dir)
            .expect("experiments dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
            .filter(|stem| stem != "mod")
            .collect();
        modules.sort();
        let mut ids: Vec<&str> = REGISTRY.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        let listed = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), listed, "experiment ids are unique");
        assert_eq!(ids, modules);
    }
}
