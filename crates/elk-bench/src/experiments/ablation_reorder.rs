//! Ablation: preload-order search budget. Sweeps the edit-distance cap of
//! §4.4 from "disabled" (Elk-Dyn) to the full `H!` space, on a
//! memory-pressured workload where reordering has room to help.

use serde::Serialize;

use elk_baselines::DesignRunner;
use elk_core::{compile_with_catalog, CompilerOptions};
use elk_model::{zoo, Workload};
use elk_sim::{simulate, SimOptions};

use crate::ctx::{default_system, Ctx};

/// One preload-reorder budget point.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Edit-distance cap label.
    pub edit_cap: String,
    /// Candidate preload orders evaluated.
    pub orders_considered: usize,
    /// Edit distance of the chosen order.
    pub chosen_edit_distance: usize,
    /// Simulated step latency (ms).
    pub latency_ms: f64,
    /// Time throttled by interconnect contention (ms).
    pub interconnect_ms: f64,
    /// Compile wall-clock (s).
    pub compile_seconds: f64,
}

/// Runs the ablation.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Ablation: preload-order search budget (edit-distance cap)");
    let runner = DesignRunner::new(default_system()).with_threads(ctx.threads);
    let system = runner.system();
    let mut cfg = zoo::llama2_13b();
    if !ctx.full {
        cfg.layers = 8;
    }
    let graph = cfg.build(Workload::decode(32, 4096), 4);
    // One fit and one catalog; only the order search varies.
    let catalog = runner.catalog(&graph).expect("catalog");

    let mut rows = Vec::new();
    let mut cells = Vec::new();
    for (label, enable, cap, max_orders) in [
        ("off (ELK-Dyn)", false, None, 1usize),
        ("<=1", true, Some(1), 48),
        ("<=2", true, Some(2), 48),
        ("<=4", true, Some(4), 48),
        ("all H!", true, None, 720),
    ] {
        let mut opts = CompilerOptions {
            threads: ctx.threads,
            ..CompilerOptions::default()
        };
        opts.reorder.enable = enable;
        opts.reorder.max_edit_distance = cap;
        opts.reorder.max_orders = max_orders;
        let plan = compile_with_catalog(system, &opts, &graph, &catalog).expect("compile");
        let report = simulate(&plan.program, system, &SimOptions::default());
        cells.push(vec![
            label.to_string(),
            plan.stats.orders_considered.to_string(),
            plan.stats.chosen_edit_distance.to_string(),
            format!("{:.3}", report.total.as_millis()),
            format!("{:.3}", report.buckets.interconnect.as_millis()),
            format!("{:.2}", plan.stats.compile_seconds),
        ]);
        rows.push(Row {
            edit_cap: label.to_string(),
            orders_considered: plan.stats.orders_considered,
            chosen_edit_distance: plan.stats.chosen_edit_distance,
            latency_ms: report.total.as_millis(),
            interconnect_ms: report.buckets.interconnect.as_millis(),
            compile_seconds: plan.stats.compile_seconds,
        });
    }
    ctx.table(
        &[
            "edit cap",
            "orders",
            "chosen d",
            "latency(ms)",
            "noc-stall(ms)",
            "compile(s)",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Reading: small caps capture most of the benefit (the paper's chosen orders");
    ctx.line("average 2.9 steps from identity); the full H! search mostly costs compile time.");
    ctx.finish(&rows);
}
