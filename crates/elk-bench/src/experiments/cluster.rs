//! Cluster: the auto-parallelism search over the IPU-POD4 `(tp, pp,
//! dp)` grid for the paper's default decode workload — the pod-level
//! view the single-chip figures cannot show.
//!
//! Not a paper figure: the paper evaluates one tensor-parallel layout;
//! this experiment explores every layout the pod supports and reports
//! the grid, the winner, and its pipeline timeline. It replays the
//! checked-in `scenarios/pod4_llama_tp_pp.json` through `elk cluster`'s
//! runner.

use serde::Serialize;

use elk_spec::runner::run_cluster;
use elk_spec::spec::ModelSpec;

use crate::ctx::Ctx;
use crate::experiments::scenario;

/// One `(tp, pp, dp)` candidate's outcome.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Tensor-parallel degree.
    pub tp: u64,
    /// Pipeline-parallel degree.
    pub pp: u64,
    /// Data-parallel degree.
    pub dp: u64,
    /// Step time in ms (`None` when infeasible).
    pub step_ms: Option<f64>,
    /// `true` for the chosen plan.
    pub chosen: bool,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Cluster: (tp, pp, dp) auto-parallelism over the IPU-POD4");
    // The scenario trims the model to 4 layers so the grid stays
    // seconds-scale; the layout ordering is depth-independent for a
    // homogeneous stack. Full mode runs the full depth.
    let mut spec = scenario(
        ctx,
        include_str!("../../../../scenarios/pod4_llama_tp_pp.json"),
    );
    if let (true, ModelSpec::Zoo { layers, .. }) = (ctx.full, &mut spec.model) {
        *layers = None;
    }
    let report = run_cluster(&spec).expect("the pod4 grid has feasible plans");

    let e = &report.estimate;
    let rows: Vec<Row> = report
        .candidates
        .expect("the scenario pins no plan, so the grid is searched")
        .iter()
        .map(|c| Row {
            tp: c.plan.tp,
            pp: c.plan.pp,
            dp: c.plan.dp,
            step_ms: c.step_total.map(|t| t.as_millis()),
            chosen: c.plan == e.plan,
        })
        .collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("tp{}", r.tp),
                format!("pp{}", r.pp),
                format!("dp{}", r.dp),
                r.step_ms
                    .map_or_else(|| "infeasible".into(), |ms| format!("{ms:.3}")),
                if r.chosen { "<= chosen" } else { "" }.to_string(),
            ]
        })
        .collect();
    ctx.table(&["tp", "pp", "dp", "step(ms)", ""], &cells);

    ctx.line("");
    ctx.line(format!(
        "chosen {} on {} of {} chips: step {:.3} ms, bubble {:.1}%, scaling efficiency {}",
        e.plan,
        e.chips_used,
        e.chips,
        e.step_total.as_millis(),
        e.bubble_fraction * 100.0,
        e.scaling_efficiency
            .map_or_else(|| "n/a".into(), |s| format!("{s:.2}")),
    ));
    ctx.line("Expected shape: decode is bandwidth-bound, so spreading weights across all");
    ctx.line("chips (high tp) beats pipelining at this batch; dp only splits the batch.");

    ctx.metric("chosen_tp", e.plan.tp as f64);
    ctx.metric("chosen_pp", e.plan.pp as f64);
    ctx.metric("chosen_dp", e.plan.dp as f64);
    ctx.metric("chosen_step_ms", e.step_total.as_millis());
    ctx.metric("bubble_fraction", e.bubble_fraction);
    if let Some(s) = e.scaling_efficiency {
        ctx.metric("scaling_efficiency", s);
    }
    ctx.finish(&rows);
}
