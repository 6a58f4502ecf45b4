//! Fig. 17: per-token serving latency of every model × batch × sequence
//! × design on the 4-chip, 16 TB/s-HBM pod — the headline result.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_model::Workload;
use elk_sim::SimOptions;

use crate::ctx::{build_llm, default_system, llms, ms, Ctx};

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
                let outs = runner
                    .run_designs(&Design::ALL, &graph, &SimOptions::default())
                    .expect("designs");
                let lat: Vec<f64> = outs.iter().map(|o| o.report.total.as_millis()).collect();
                let mut row = vec![cfg.name.clone(), format!("s{seq}"), format!("b{b}")];
                row.extend(outs.iter().map(|o| ms(o.report.total)));
                cells.push(row);
                rows.push(Row {
                    model: cfg.name.clone(),
                    seq_len: seq,
                    batch: b,
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
    ctx.metric("speedup_vs_basic_gm", speedup_basic);
    ctx.metric("speedup_vs_static_gm", speedup_static);
    ctx.metric("fraction_of_ideal_gm", of_ideal);
    for r in &rows {
        ctx.metric(
            format!("{}.s{}.b{}.elk_full_ms", r.model, r.seq_len, r.batch),
            r.latency_ms[3],
        );
    }
    ctx.finish(&rows);
}
