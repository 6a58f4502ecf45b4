//! Fig. 20: Llama-2-13B latency breakdown vs pod HBM bandwidth on the
//! all-to-all fabric.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_hw::presets;
use elk_model::zoo;
use elk_units::ByteRate;

use crate::ctx::{build_llm, default_workload, Ctx};
use crate::experiments::run_point;

/// Time breakdown for one HBM-bandwidth point under one design.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Pod HBM bandwidth (TB/s).
    pub hbm_tbps: f64,
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
    /// Total makespan (ms).
    pub total_ms: f64,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 20: Llama-2-13B latency breakdown vs HBM bandwidth (all-to-all)");
    let bws: &[f64] = if ctx.full {
        &[6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
    } else {
        &[8.0, 12.0, 16.0]
    };
    let base = DesignRunner::new(presets::ipu_pod4()).with_threads(ctx.threads);
    let graph = build_llm(&zoo::llama2_13b(), default_workload());
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    for &bw in bws {
        let system = base
            .system()
            .with_total_hbm_bandwidth(ByteRate::tib_per_sec(bw));
        let runner = base.with_system(system);
        let Some(outs) = run_point(ctx, &runner, &Design::ALL, &graph, format!("hbm{bw:.0}"))
        else {
            continue;
        };
        for o in &outs {
            let b = o.report.buckets;
            cells.push(vec![
                format!("{bw:.0}"),
                o.design.to_string(),
                format!("{:.2}", b.preload.as_millis()),
                format!("{:.2}", b.execute.as_millis()),
                format!("{:.2}", b.overlapped.as_millis()),
                format!("{:.2}", b.interconnect.as_millis()),
                format!("{:.2}", o.report.total.as_millis()),
            ]);
            rows.push(Row {
                hbm_tbps: bw,
                design: o.design.to_string(),
                preload_ms: b.preload.as_millis(),
                execute_ms: b.execute.as_millis(),
                overlapped_ms: b.overlapped.as_millis(),
                interconnect_ms: b.interconnect.as_millis(),
                total_ms: o.report.total.as_millis(),
            });
        }
    }
    ctx.table(
        &[
            "HBM TB/s",
            "design",
            "pre",
            "exe",
            "ovl",
            "noc",
            "total(ms)",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper): Basic/Static/ELK-Dyn interconnect contention grows");
    ctx.line("with HBM bandwidth; ELK-Full's reordering suppresses it.");
    for r in &rows {
        ctx.metric(
            format!("hbm{:.0}.{}.total_ms", r.hbm_tbps, r.design),
            r.total_ms,
        );
    }
    ctx.finish(&rows);
}
