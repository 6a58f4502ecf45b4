//! Fig. 19: per-token latency vs pod HBM bandwidth, all-to-all and mesh.

use std::cell::RefCell;
use std::rc::Rc;

use serde::Serialize;

use elk_baselines::{Design, DesignOutcome, DesignRunner};
use elk_hw::presets;
use elk_units::ByteRate;

use crate::ctx::{build_llm, default_workload, llms, Ctx};
use crate::experiments::point_outcomes;

/// Latency across designs for one topology/HBM point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Interconnect topology label.
    pub topology: String,
    /// Model name.
    pub model: String,
    /// Pod HBM bandwidth (TB/s).
    pub hbm_tbps: f64,
    /// Latency (ms) per design in `Design::ALL` order.
    pub latency_ms: Vec<f64>,
}

/// One point of the sweep: topology label, model name, pod HBM
/// bandwidth (TB/s) and each design's outcome in `Design::ALL` order,
/// or the transcript line of an infeasible point.
pub type Point = (String, String, f64, Result<Vec<DesignOutcome>, String>);

thread_local! {
    /// The last sweep run on this thread and the `Ctx::full` it ran at.
    static LAST: RefCell<Option<(bool, Rc<[Point]>)>> = const { RefCell::new(None) };
}

/// The Fig. 19 sweep, which Fig. 21 reports from as well: run once per
/// grid, so `repro fig19 fig21` sweeps once.
#[must_use]
pub fn sweep(ctx: &Ctx) -> Rc<[Point]> {
    if let Some((_, points)) = LAST
        .with_borrow(Clone::clone)
        .filter(|(full, _)| *full == ctx.full)
    {
        return points;
    }
    let points: Rc<[Point]> = run_sweep(ctx).into();
    LAST.set(Some((ctx.full, Rc::clone(&points))));
    points
}

fn run_sweep(ctx: &Ctx) -> Vec<Point> {
    let bws: &[f64] = if ctx.full {
        &[4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
    } else {
        &[4.0, 8.0, 16.0]
    };
    let models = if ctx.full {
        llms()
    } else {
        vec![elk_model::zoo::llama2_13b(), elk_model::zoo::llama2_70b()]
    };
    let mut out = Vec::new();
    let base = DesignRunner::new(presets::ipu_pod4()).with_threads(ctx.threads);
    for (topo_name, topo) in [
        ("all-to-all", presets::ipu_pod4()),
        ("mesh", presets::ipu_pod4_mesh()),
    ] {
        let topo_runner = base.with_system(topo);
        for cfg in &models {
            let graph = build_llm(cfg, default_workload());
            for &bw in bws {
                let system = topo_runner
                    .system()
                    .with_total_hbm_bandwidth(ByteRate::tib_per_sec(bw));
                let point = format!("{topo_name} {} hbm{bw:.0}", cfg.name);
                let outs = point_outcomes(
                    &topo_runner.with_system(system),
                    &Design::ALL,
                    &graph,
                    point,
                );
                out.push((topo_name.to_string(), cfg.name.clone(), bw, outs));
            }
        }
    }
    out
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    let data = sweep(ctx);
    report(ctx, &data);
}

/// Reports the figure from [`sweep`]'s points.
pub fn report(ctx: &mut Ctx, data: &[Point]) {
    ctx.header("Fig. 19: per-token latency (ms) vs pod HBM bandwidth");
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
        let lat: Vec<f64> = outs.iter().map(|o| o.report.total.as_millis()).collect();
        cells.push(vec![
            topo.clone(),
            model.clone(),
            format!("{bw:.0}"),
            format!("{:.2}", lat[0]),
            format!("{:.2}", lat[1]),
            format!("{:.2}", lat[2]),
            format!("{:.2}", lat[3]),
            format!("{:.2}", lat[4]),
        ]);
        rows.push(Row {
            topology: topo.clone(),
            model: model.clone(),
            hbm_tbps: *bw,
            latency_ms: lat,
        });
    }
    ctx.table(
        &[
            "topology", "model", "HBM TB/s", "Basic", "Static", "ELK-Dyn", "ELK-Full", "Ideal",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper): all designs HBM-bound at low bandwidth; benefits");
    ctx.line("diminish as interconnect/execution bind; mesh trails all-to-all and ELK-Full");
    ctx.line("has a harder time matching Ideal on mesh for the non-GQA (KV-heavy) models.");
    for r in &rows {
        ctx.metric(
            format!(
                "{}.{}.hbm{:.0}.elk_full_ms",
                r.topology, r.model, r.hbm_tbps
            ),
            r.latency_ms[3],
        );
    }
    ctx.finish(&rows);
}
