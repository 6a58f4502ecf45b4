//! Fig. 17: per-token serving latency of every model × batch × sequence
//! × design on the 4-chip, 16 TB/s-HBM pod — the headline result.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_model::Workload;

use crate::ctx::{build_llm, default_system, llms, ms, Ctx};
use crate::experiments::run_point;

/// Per-token serving latency of one model/seq/batch point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// Sequence length.
    pub seq_len: u64,
    /// Batch size.
    pub batch: u64,
    /// Latency (ms) per design, in `Design::ALL` order.
    pub latency_ms: Vec<f64>,
    /// Static latency over ELK-Full latency: below 1 where ELK-Full
    /// loses to Static.
    pub static_over_full: f64,
    /// ELK-Dyn latency over ELK-Full latency: what reordering gains.
    pub dyn_over_full: f64,
    /// Edit distance of the preload order ELK-Full chose (§4.4).
    pub chosen_edit_distance: usize,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 17: per-token serving latency (ms), 4 chips, 16 TB/s HBM");
    let seqs: &[u64] = if ctx.full { &[2048, 4096] } else { &[2048] };
    let batches = [16u64, 32, 64];
    let runner = DesignRunner::new(default_system()).with_threads(ctx.threads);
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    for cfg in llms() {
        for &seq in seqs {
            for &b in &batches {
                let graph = build_llm(&cfg, Workload::decode(b, seq));
                let point = format!("{} s{seq} b{b}", cfg.name);
                let Some(outs) = run_point(ctx, &runner, &Design::ALL, &graph, point) else {
                    continue;
                };
                let lat: Vec<f64> = outs.iter().map(|o| o.report.total.as_millis()).collect();
                let mut row = vec![cfg.name.clone(), format!("s{seq}"), format!("b{b}")];
                row.extend(outs.iter().map(|o| ms(o.report.total)));
                cells.push(row);
                let full = &outs[3];
                rows.push(Row {
                    model: cfg.name.clone(),
                    seq_len: seq,
                    batch: b,
                    static_over_full: lat[1] / lat[3],
                    dyn_over_full: lat[2] / lat[3],
                    chosen_edit_distance: full
                        .stats
                        .as_ref()
                        .expect("ELK-Full compiles")
                        .chosen_edit_distance,
                    latency_ms: lat,
                });
            }
        }
    }

    ctx.table(
        &[
            "model", "seq", "batch", "Basic", "Static", "ELK-Dyn", "ELK-Full", "Ideal",
        ],
        &cells,
    );

    // Headline aggregates, mirroring §6.2.
    let gm = |f: &dyn Fn(&Row) -> f64| {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let speedup_basic = gm(&|r| r.latency_ms[0] / r.latency_ms[3]);
    let speedup_static = gm(&|r| r.latency_ms[1] / r.latency_ms[3]);
    let of_ideal = gm(&|r| r.latency_ms[4] / r.latency_ms[3]);
    ctx.line("");
    ctx.line(format!(
        "ELK-Full vs Basic: {speedup_basic:.2}x (paper 1.87x) | vs Static: {speedup_static:.2}x (paper 1.37x) | of Ideal: {:.1}% (paper 94.8%)",
        of_ideal * 100.0
    ));
    let losses: Vec<&Row> = rows.iter().filter(|r| r.static_over_full < 1.0).collect();
    ctx.line(format!(
        "ELK-Full loses to Static at {} of {} points:{}",
        losses.len(),
        rows.len(),
        losses
            .iter()
            .map(|r| format!(
                " {} s{} b{} ({:.3})",
                r.model, r.seq_len, r.batch, r.static_over_full
            ))
            .collect::<String>()
    ));
    ctx.metric("speedup_vs_basic_gm", speedup_basic);
    ctx.metric("speedup_vs_static_gm", speedup_static);
    ctx.metric("fraction_of_ideal_gm", of_ideal);
    ctx.metric("full_loses_to_static", losses.len() as f64);
    for r in &rows {
        let point = format!("{}.s{}.b{}", r.model, r.seq_len, r.batch);
        ctx.metric(format!("{point}.elk_full_ms"), r.latency_ms[3]);
        ctx.metric(format!("{point}.static_over_full"), r.static_over_full);
        ctx.metric(format!("{point}.dyn_over_full"), r.dyn_over_full);
        ctx.metric(
            format!("{point}.chosen_edit_distance"),
            r.chosen_edit_distance as f64,
        );
    }
    ctx.finish(&rows);
}
