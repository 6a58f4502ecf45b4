//! Fig. 7: per-core inter-core bandwidth demand over time under
//! `MinPreload` (gather everything at execution) vs `MaxPreload`
//! (broadcast everything at preload). MaxPreload slashes inter-core
//! traffic.

use serde::Serialize;

use elk_baselines::{static_plan_with_budget, DesignRunner, PreloadMode};
use elk_model::zoo;
use elk_sim::{simulate, SimOptions};

use crate::ctx::{build_llm, default_system, default_workload, Ctx};
use crate::experiments::fig06::sparkline;

/// Inter-core traffic time series for one preload-state mode.
#[derive(Debug, Serialize)]
pub struct Series {
    /// Model name.
    pub model: String,
    /// Preload-state mode label.
    pub mode: String,
    /// Mean per-core inter-core demand per bucket, GB/s.
    pub intercore_gbps: Vec<f64>,
    /// Mean of the series (GB/s).
    pub mean_gbps: f64,
}

pub(crate) fn trace_mode(
    system: &elk_hw::SystemConfig,
    runner: &DesignRunner,
    cfg: &elk_model::TransformerConfig,
    mode: PreloadMode,
) -> (String, elk_sim::SimReport) {
    let graph = build_llm(cfg, default_workload());
    let catalog = runner.catalog(&graph).expect("catalog");
    let capacity = system.chip.usable_sram_per_core();
    let prog = static_plan_with_budget(&graph, &catalog, system, capacity.scale(0.5), mode)
        .expect("static plan");
    let rep = simulate(&prog, system, &SimOptions::default().with_trace(48));
    (graph.name().to_string(), rep)
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 7: per-core inter-core bandwidth demand, MinPreload vs MaxPreload");
    let system = default_system();
    let runner = DesignRunner::new(system.clone()).with_threads(ctx.threads);
    let cores = system.chip.cores as f64;
    let mut all = Vec::new();

    for cfg in [zoo::llama2_13b(), zoo::gemma2_27b(), zoo::opt_30b()] {
        for (mode, label) in [
            (PreloadMode::MinFootprint, "MinPreload"),
            (PreloadMode::MaxBroadcast, "MaxPreload"),
        ] {
            let (model, rep) = trace_mode(&system, &runner, &cfg, mode);
            let trace = rep.trace.expect("trace");
            let series: Vec<f64> = trace.intercore.iter().map(|r| r / cores / 1e9).collect();
            let mean = series.iter().sum::<f64>() / series.len() as f64;
            ctx.line(format!(
                "{model} {label:>10}: mean {mean:.2} GB/s/core, trace: {}",
                sparkline(&series)
            ));
            all.push(Series {
                model,
                mode: label.to_string(),
                intercore_gbps: series,
                mean_gbps: mean,
            });
        }
    }
    ctx.line("");
    ctx.line("Expected shape (paper): MaxPreload's inter-core demand is a fraction of");
    ctx.line("MinPreload's (broadcasting replaces execution-time gathering).");
    for s in &all {
        ctx.metric(format!("{}.{}.mean_gbps", s.model, s.mode), s.mean_gbps);
    }
    ctx.finish(&all);
}
