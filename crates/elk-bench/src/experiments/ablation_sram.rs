//! Ablation: SRAM port architecture (paper footnote 2). IPU-style
//! single-ported SRAM blocks the compute pipeline whenever remote cores
//! read it; a dual-ported design overlaps the two. How much does the
//! port design matter once Elk has minimized inter-core traffic?

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_hw::SramContention;
use elk_model::{zoo, Workload};

use crate::ctx::{build_llm, default_system, Ctx};
use crate::experiments::run_point;

/// One SRAM-scaling point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Per-core SRAM label.
    pub sram: String,
    /// Design name.
    pub design: String,
    /// Simulated step latency (ms).
    pub latency_ms: f64,
}

/// Runs the ablation.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Ablation: SRAM contention model (blocking vs concurrent ports)");
    let mut cfg = zoo::llama2_13b();
    if !ctx.full {
        cfg.layers = 8;
    }
    let graph = build_llm(&cfg, Workload::decode(32, 2048));

    let base = DesignRunner::new(default_system()).with_threads(ctx.threads);
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (label, contention) in [
        ("blocking (IPU)", SramContention::Blocking),
        ("concurrent", SramContention::Concurrent),
    ] {
        let mut system = default_system();
        system.chip.sram_contention = contention;
        let designs = [Design::Basic, Design::ElkFull, Design::Ideal];
        let Some(outs) = run_point(ctx, &base.with_system(system), &designs, &graph, label) else {
            continue;
        };
        for o in &outs {
            cells.push(vec![
                label.to_string(),
                o.design.to_string(),
                format!("{:.3}", o.report.total.as_millis()),
            ]);
            rows.push(Row {
                sram: label.to_string(),
                design: o.design.to_string(),
                latency_ms: o.report.total.as_millis(),
            });
        }
    }
    ctx.table(&["SRAM ports", "design", "latency(ms)"], &cells);
    ctx.line("");
    ctx.line("Reading: concurrent ports help the shift-heavy plans most; Elk's preload");
    ctx.line("broadcasting already removes much of the traffic that blocking ports punish,");
    ctx.line("so its advantage shrinks (but survives) on dual-ported designs.");
    ctx.finish(&rows);
}
