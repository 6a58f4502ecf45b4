//! Fig. 22: Llama-2-70B latency at varied total interconnect bandwidth ×
//! HBM bandwidth, both topologies — the "scale them together" insight.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_hw::{presets, SystemConfig};
use elk_model::zoo;
use elk_units::ByteRate;

use crate::ctx::{build_llm, default_workload, Ctx};
use crate::experiments::run_point;

/// Latency across designs for one NoC/HBM bandwidth point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Interconnect topology label.
    pub topology: String,
    /// Per-chip NoC bandwidth (TB/s).
    pub noc_tbps: f64,
    /// Pod HBM bandwidth (TB/s).
    pub hbm_tbps: f64,
    /// Latency (ms) per design in `Design::ALL` order.
    pub latency_ms: Vec<f64>,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 22: Llama-2-70B latency vs pod NoC bandwidth x HBM bandwidth");
    let nocs: &[f64] = if ctx.full {
        &[30.0, 35.0, 40.0, 45.0]
    } else {
        &[30.0, 40.0]
    };
    let hbms: &[f64] = if ctx.full {
        &[8.0, 10.0, 12.0, 14.0]
    } else {
        &[8.0, 14.0]
    };
    let graph = build_llm(&zoo::llama2_70b(), default_workload());
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    let with_noc =
        |topo: &SystemConfig, noc| topo.with_total_noc_bandwidth(ByteRate::tib_per_sec(noc));
    // The base is the first point, so no fit goes unused.
    let base = DesignRunner::new(with_noc(&presets::ipu_pod4(), nocs[0])).with_threads(ctx.threads);
    for (topo_name, topo) in [
        ("all-to-all", presets::ipu_pod4()),
        ("mesh", presets::ipu_pod4_mesh()),
    ] {
        for &noc in nocs {
            let noc_runner = base.with_system(with_noc(&topo, noc));
            for &hbm in hbms {
                let system = noc_runner
                    .system()
                    .with_total_hbm_bandwidth(ByteRate::tib_per_sec(hbm));
                let runner = noc_runner.with_system(system);
                let point = format!("{topo_name} noc{noc:.0} hbm{hbm:.0}");
                let Some(outs) = run_point(ctx, &runner, &Design::ALL, &graph, point) else {
                    continue;
                };
                let lat: Vec<f64> = outs.iter().map(|o| o.report.total.as_millis()).collect();
                cells.push(vec![
                    topo_name.to_string(),
                    format!("{noc:.0}"),
                    format!("{hbm:.0}"),
                    format!("{:.2}", lat[0]),
                    format!("{:.2}", lat[1]),
                    format!("{:.2}", lat[2]),
                    format!("{:.2}", lat[3]),
                    format!("{:.2}", lat[4]),
                ]);
                rows.push(Row {
                    topology: topo_name.to_string(),
                    noc_tbps: noc,
                    hbm_tbps: hbm,
                    latency_ms: lat,
                });
            }
        }
    }
    ctx.table(
        &[
            "topology", "NoC TB/s", "HBM TB/s", "Basic", "Static", "ELK-Dyn", "ELK-Full", "Ideal",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper): at low HBM bandwidth, extra NoC bandwidth does not");
    ctx.line("help (HBM-bound); at high HBM bandwidth, latency scales with NoC bandwidth —");
    ctx.line("and mesh is the more NoC-sensitive topology.");
    for r in &rows {
        ctx.metric(
            format!(
                "{}.noc{:.0}.hbm{:.0}.elk_full_ms",
                r.topology, r.noc_tbps, r.hbm_tbps
            ),
            r.latency_ms[3],
        );
    }
    ctx.finish(&rows);
}
