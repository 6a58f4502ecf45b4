//! Fig. 24: achieved TFLOPS during the Llama-2-13B training forward pass
//! at varied available compute, NoC bandwidth, and (cheap) off-chip
//! bandwidth — the compute-bound regime where HBM hardly matters.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_hw::{presets, SystemConfig};
use elk_model::{zoo, Workload};
use elk_units::ByteRate;

use crate::ctx::Ctx;
use crate::experiments::{pod_tflops, run_point};

/// Achieved training throughput for one projected-hardware point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Interconnect topology label.
    pub topology: String,
    /// Per-chip NoC bandwidth (TB/s).
    pub noc_tbps: f64,
    /// Per-chip HBM bandwidth (GB/s).
    pub hbm_gbps: f64,
    /// Hardware peak pod TFLOPS.
    pub available_tflops: f64,
    /// Achieved pod TFLOPS for Static, ELK-Full, Ideal.
    pub achieved: Vec<f64>,
}

const DESIGNS: [Design; 3] = [Design::Static, Design::ElkFull, Design::Ideal];

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 24: training forward pass — achieved vs available TFLOPS");
    let scales: &[f64] = if ctx.full {
        &[0.5, 1.0, 1.5]
    } else {
        &[0.5, 1.5]
    };
    let nocs: &[f64] = &[32.0, 48.0];
    let hbms: &[f64] = &[300.0, 400.0];
    type TopoPreset = (&'static str, fn() -> SystemConfig);
    let topos: &[TopoPreset] = if ctx.full {
        &[
            ("all-to-all", presets::ipu_pod4),
            ("mesh", presets::ipu_pod4_mesh),
        ]
    } else {
        &[("all-to-all", presets::ipu_pod4)]
    };
    let graph = zoo::llama2_13b().build(Workload::training_forward(4, 2048), 4);
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    let chip_point = |mk: fn() -> SystemConfig, noc, scale| {
        let mut sys = mk().with_total_noc_bandwidth(ByteRate::tib_per_sec(noc));
        sys.chip = sys.chip.with_compute_scale(scale);
        sys
    };
    // The base is the first point, so no fit goes unused.
    let base =
        DesignRunner::new(chip_point(topos[0].1, nocs[0], scales[0])).with_threads(ctx.threads);
    for (topo_name, mk) in topos {
        for &noc in nocs {
            for &scale in scales {
                let chip_runner = base.with_system(chip_point(*mk, noc, scale));
                let available = chip_runner.system().total_matmul_rate().as_tera();
                for &hbm in hbms {
                    let runner = chip_runner.with_system(
                        chip_runner
                            .system()
                            .with_total_hbm_bandwidth(ByteRate::gib_per_sec(hbm)),
                    );
                    let point = format!("{topo_name} noc{noc:.0} x{scale} hbm{hbm:.0}");
                    let Some(outs) = run_point(ctx, &runner, &DESIGNS, &graph, point) else {
                        continue;
                    };
                    let achieved: Vec<f64> = outs
                        .iter()
                        .map(|o| pod_tflops(o, runner.system().chips))
                        .collect();
                    cells.push(vec![
                        topo_name.to_string(),
                        format!("{noc:.0}"),
                        format!("{hbm:.0}"),
                        format!("{available:.0}"),
                        format!("{:.0}", achieved[0]),
                        format!("{:.0}", achieved[1]),
                        format!("{:.0}", achieved[2]),
                    ]);
                    rows.push(Row {
                        topology: topo_name.to_string(),
                        noc_tbps: noc,
                        hbm_gbps: hbm,
                        available_tflops: available,
                        achieved,
                    });
                }
            }
        }
    }
    ctx.table(
        &[
            "topology",
            "NoC TB/s",
            "HBM GB/s",
            "avail TFLOPS",
            "Static",
            "ELK-Full",
            "Ideal",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper): training is compute-bound — achieved TFLOPS scales");
    ctx.line("with available compute, a few hundred GB/s of off-chip bandwidth suffices,");
    ctx.line("and achieved stays below peak (imperfect MatMul shapes).");
    for r in &rows {
        ctx.metric(
            format!(
                "{}.noc{:.0}.hbm{:.0}.elk_full_tflops",
                r.topology, r.noc_tbps, r.hbm_gbps
            ),
            r.achieved[1],
        );
    }
    ctx.finish(&rows);
}
