//! Fig. 18: execution breakdown and hardware utilization (batch 32,
//! sequence 2048): (a) latency breakdown, (b) HBM utilization, (c) NoC
//! utilization split into preload vs inter-core, (d) achieved TFLOPS.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};

use crate::ctx::{build_llm, default_system, default_workload, llms, pct, Ctx};
use crate::experiments::{pod_tflops, run_point};

/// Time-breakdown and utilization of one model under one design.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// Design name.
    pub design: String,
    /// Preload-only time (ms).
    pub preload_ms: f64,
    /// Execute-only time (ms).
    pub execute_ms: f64,
    /// Overlapped preload/execute time (ms).
    pub overlapped_ms: f64,
    /// Interconnect-throttled time (ms).
    pub interconnect_ms: f64,
    /// Mean HBM bandwidth utilization.
    pub hbm_util: f64,
    /// NoC utilization share from preloads.
    pub noc_util_preload: f64,
    /// NoC utilization share from inter-core sharing.
    pub noc_util_intercore: f64,
    /// Achieved pod-level TFLOPS.
    pub pod_tflops: f64,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 18: breakdown & utilization (b32 s2048)");
    let system = default_system();
    let runner = DesignRunner::new(system.clone()).with_threads(ctx.threads);
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    for cfg in llms() {
        let graph = build_llm(&cfg, default_workload());
        let Some(outs) = run_point(ctx, &runner, &Design::ALL, &graph, &cfg.name) else {
            continue;
        };
        for o in &outs {
            let b = o.report.buckets;
            cells.push(vec![
                cfg.name.clone(),
                o.design.to_string(),
                format!("{:.2}", b.preload.as_millis()),
                format!("{:.2}", b.execute.as_millis()),
                format!("{:.2}", b.overlapped.as_millis()),
                format!("{:.2}", b.interconnect.as_millis()),
                pct(o.report.hbm_util),
                pct(o.report.noc_util_preload),
                pct(o.report.noc_util_intercore),
                format!("{:.1}", pod_tflops(o, system.chips)),
            ]);
            rows.push(Row {
                model: cfg.name.clone(),
                design: o.design.to_string(),
                preload_ms: b.preload.as_millis(),
                execute_ms: b.execute.as_millis(),
                overlapped_ms: b.overlapped.as_millis(),
                interconnect_ms: b.interconnect.as_millis(),
                hbm_util: o.report.hbm_util,
                noc_util_preload: o.report.noc_util_preload,
                noc_util_intercore: o.report.noc_util_intercore,
                pod_tflops: pod_tflops(o, system.chips),
            });
        }
    }

    ctx.table(
        &[
            "model", "design", "pre(ms)", "exe(ms)", "ovl(ms)", "noc(ms)", "HBM", "NoC:pre",
            "NoC:core", "TFLOPS",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper, b32 s2048): HBM util Basic~35% Static~46% ELK-Dyn~52%");
    ctx.line("ELK-Full~62% Ideal~64%; ELK-Full eliminates nearly all non-overlapped preload;");
    ctx.line("ELK-Full ~81 TFLOPS (bandwidth-bound, far below the 1000 TFLOPS peak).");
    for r in &rows {
        ctx.metric(format!("{}.{}.hbm_util", r.model, r.design), r.hbm_util);
        ctx.metric(format!("{}.{}.pod_tflops", r.model, r.design), r.pod_tflops);
    }
    ctx.finish(&rows);
}
