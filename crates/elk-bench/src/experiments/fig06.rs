//! Fig. 6: HBM bandwidth demand over time for different per-core preload
//! space sizes. Small preload spaces leave the demand spiky (stalls
//! between bursts); larger spaces smooth it.

use serde::Serialize;

use elk_baselines::{static_plan_with_budget, DesignRunner, PreloadMode};
use elk_model::zoo;
use elk_sim::{simulate, SimOptions};
use elk_units::Bytes;

use crate::ctx::{build_llm, default_system, default_workload, Ctx};

/// HBM-demand time series for one preload-space size.
#[derive(Debug, Serialize)]
pub struct Series {
    /// Model name.
    pub model: String,
    /// Preload-space size (KiB per core).
    pub preload_space_kib: u64,
    /// Mean HBM demand per time bucket, TB/s.
    pub hbm_tbps: Vec<f64>,
    /// Coefficient of variation of the demand (spikiness metric).
    pub cv: f64,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 6: HBM bandwidth demand over time vs preload space size");
    let system = default_system();
    let runner = DesignRunner::new(system.clone()).with_threads(ctx.threads);
    let capacity = system.chip.usable_sram_per_core();
    let mut all = Vec::new();

    for cfg in [zoo::llama2_13b(), zoo::gemma2_27b(), zoo::opt_30b()] {
        let graph = build_llm(&cfg, default_workload());
        let catalog = runner.catalog(&graph).expect("catalog");
        for kib in [128u64, 256, 384] {
            let preload = Bytes::kib(kib);
            let exec = capacity.saturating_sub(preload);
            let Some(prog) =
                static_plan_with_budget(&graph, &catalog, &system, exec, PreloadMode::MinFootprint)
            else {
                ctx.line(format!(
                    "{}: {kib} KiB preload space infeasible",
                    graph.name()
                ));
                continue;
            };
            let rep = simulate(&prog, &system, &SimOptions::default().with_trace(48));
            let trace = rep.trace.expect("trace");
            let tbps: Vec<f64> = trace.hbm.iter().map(|r| r / 1e12).collect();
            let mean = tbps.iter().sum::<f64>() / tbps.len() as f64;
            let var = tbps.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tbps.len() as f64;
            let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
            ctx.line(format!(
                "{} preload={kib:>3} KiB: mean {mean:.2} TB/s, CV {cv:.2}, trace: {}",
                graph.name(),
                sparkline(&tbps)
            ));
            all.push(Series {
                model: graph.name().to_string(),
                preload_space_kib: kib,
                hbm_tbps: tbps,
                cv,
            });
        }
    }
    ctx.line("");
    ctx.line("Expected shape (paper): larger preload spaces smooth the demand (lower CV)");
    ctx.line("and raise the sustained rate.");
    for s in &all {
        ctx.metric(
            format!("{}.preload{}kib.cv", s.model, s.preload_space_kib),
            s.cv,
        );
    }
    ctx.finish(&all);
}

/// A coarse ASCII sparkline for terminal output.
pub(crate) fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-12);
    values
        .iter()
        .map(|&v| GLYPHS[((v / max * 7.0).round() as usize).min(7)])
        .collect()
}
