//! Fig. 21: interconnect utilization vs pod HBM bandwidth for both
//! topologies (link-level: mesh pays hop multiplicity).

use serde::Serialize;

use crate::ctx::{pct, Ctx};
use crate::experiments::fig19;

/// NoC utilization across designs for one topology/HBM point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Interconnect topology label.
    pub topology: String,
    /// Model name.
    pub model: String,
    /// Pod HBM bandwidth (TB/s).
    pub hbm_tbps: f64,
    /// NoC utilization per design in `Design::ALL` order.
    pub noc_util: Vec<f64>,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    let data = fig19::sweep(ctx);
    report(ctx, &data);
}

/// Reports the figure from the Fig. 19 sweep's points.
pub fn report(ctx: &mut Ctx, data: &[fig19::Point]) {
    ctx.header("Fig. 21: interconnect utilization vs pod HBM bandwidth");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (topo, model, bw, outs) in data {
        let outs = match outs {
            Ok(outs) => outs,
            Err(line) => {
                ctx.line(line);
                continue;
            }
        };
        let util: Vec<f64> = outs.iter().map(|o| o.report.noc_util).collect();
        cells.push(vec![
            topo.clone(),
            model.clone(),
            format!("{bw:.0}"),
            pct(util[0]),
            pct(util[1]),
            pct(util[2]),
            pct(util[3]),
            pct(util[4]),
        ]);
        rows.push(Row {
            topology: topo.clone(),
            model: model.clone(),
            hbm_tbps: *bw,
            noc_util: util,
        });
    }
    ctx.table(
        &[
            "topology", "model", "HBM TB/s", "Basic", "Static", "ELK-Dyn", "ELK-Full", "Ideal",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper): mesh chips always show higher link utilization than");
    ctx.line("all-to-all at the same HBM bandwidth (multi-hop delivery); ELK-Full utilizes");
    ctx.line("the fabric best.");
    for r in &rows {
        ctx.metric(
            format!(
                "{}.{}.hbm{:.0}.elk_full_noc_util",
                r.topology, r.model, r.hbm_tbps
            ),
            r.noc_util[3],
        );
    }
    ctx.finish(&rows);
}
