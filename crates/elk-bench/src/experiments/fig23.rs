//! Fig. 23: per-token latency at varied core counts (HBM fixed at
//! 2.7 GB/s per core), LLMs on the 4-chip pod and DiT-XL on one chip.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_hw::presets;
use elk_model::{zoo, Workload};
use elk_units::ByteRate;

use crate::ctx::{default_workload, Ctx};
use crate::experiments::run_point;

/// Latency across designs for one core-count point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// Cores per chip.
    pub cores: u64,
    /// Latency (ms) per design in `Design::ALL` order.
    pub latency_ms: Vec<f64>,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Fig. 23: per-token latency vs cores per chip (2.7 GB/s HBM per core)");
    let core_counts: &[u64] = if ctx.full {
        &[736, 1104, 1472, 2208, 2944]
    } else {
        &[736, 1472, 2944]
    };
    let hbm_per_core = ByteRate::new(2.7e9);
    let mut rows = Vec::new();
    let mut cells = Vec::new();

    let llm_cfgs = if ctx.full {
        vec![
            zoo::llama2_13b(),
            zoo::gemma2_27b(),
            zoo::opt_30b(),
            zoo::llama2_70b(),
        ]
    } else {
        vec![zoo::llama2_13b(), zoo::llama2_70b()]
    };

    let pod = |cores| presets::ipu_pod4().with_cores_and_hbm_per_core(cores, hbm_per_core);
    let base = DesignRunner::new(pod(core_counts[0])).with_threads(ctx.threads);
    for &cores in core_counts {
        // LLMs on the 4-chip pod.
        let runner = base.with_system(pod(cores));
        for cfg in &llm_cfgs {
            let graph = cfg.build(default_workload(), 4);
            let point = format!("{} c{cores}", cfg.name);
            if let Some(outs) = run_point(ctx, &runner, &Design::ALL, &graph, point) {
                push(&mut rows, &mut cells, &cfg.name, cores, &outs);
            }
        }
        // DiT-XL on a single chip (paper: up to 1472 cores).
        let dit_runner = runner
            .with_system(presets::single_chip().with_cores_and_hbm_per_core(cores, hbm_per_core));
        let dit = zoo::dit_xl().build(Workload::decode(8, 256), 1);
        let point = format!("DiT-XL c{cores}");
        if let Some(outs) = run_point(ctx, &dit_runner, &Design::ALL, &dit, point) {
            push(&mut rows, &mut cells, "DiT-XL", cores, &outs);
        }
    }

    ctx.table(
        &[
            "model", "cores", "Basic", "Static", "ELK-Dyn", "ELK-Full", "Ideal",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected shape (paper): ELK-Full wins at every core count (avg 1.71x over");
    ctx.line("Basic, 1.36x over Static); DiT-XL is compute-bound so the gap is smaller but");
    ctx.line("ELK-Full still tracks Ideal.");
    for r in &rows {
        ctx.metric(
            format!("{}.c{}.elk_full_ms", r.model, r.cores),
            r.latency_ms[3],
        );
    }
    ctx.finish(&rows);
}

fn push(
    rows: &mut Vec<Row>,
    cells: &mut Vec<Vec<String>>,
    model: &str,
    cores: u64,
    outs: &[elk_baselines::DesignOutcome],
) {
    let lat: Vec<f64> = outs.iter().map(|o| o.report.total.as_millis()).collect();
    cells.push(vec![
        model.to_string(),
        cores.to_string(),
        format!("{:.2}", lat[0]),
        format!("{:.2}", lat[1]),
        format!("{:.2}", lat[2]),
        format!("{:.2}", lat[3]),
        format!("{:.2}", lat[4]),
    ]);
    rows.push(Row {
        model: model.to_string(),
        cores,
        latency_ms: lat,
    });
}
