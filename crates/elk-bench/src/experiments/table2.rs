//! Table 2: model complexity factors `C, H, P, K, N` on IPU-POD4.
//!
//! `N` counts operators in our per-chip tensor-parallel graphs (the paper
//! counts its emulator's per-chip operator instances, so our `N` is the
//! same order but not identical; see EXPERIMENTS.md).

use serde::Serialize;

use elk_baselines::DesignRunner;
use elk_core::Catalog;
use elk_model::{zoo, GraphStats, ModelGraph, Workload};
use elk_units::Bytes;

use crate::ctx::{build_llm, default_system, default_workload, Ctx};

/// Table 2 statistics for one model.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Model name.
    pub model: String,
    /// Cores per chip (`C`).
    pub c: usize,
    /// HBM-heavy operators per layer (`H`).
    pub h: usize,
    /// Partition plans per heavy operator (`P`).
    pub p: usize,
    /// Preload-state choices per heavy operator (`K`).
    pub k: usize,
    /// Total operators per shard (`N`).
    pub n: usize,
}

/// Largest run of consecutive operators (by `ids`) whose minimal preload
/// footprints fit on-chip together — the paper's "max number of operators
/// that fit on-chip".
fn max_resident(graph: &ModelGraph, catalog: &Catalog, ids: &[usize], capacity: Bytes) -> usize {
    let space: Vec<u64> = ids
        .iter()
        .map(|&i| {
            let plans = catalog.op(graph.ops()[i].id());
            (0..plans.exec_frontier.len())
                .map(|f| plans.min_preload_space(f))
                .min()
                .unwrap_or(Bytes::ZERO)
                .get()
        })
        .collect();
    let mut best = 0usize;
    let mut lo = 0usize;
    let mut sum = 0u64;
    for hi in 0..space.len() {
        sum += space[hi];
        while sum > capacity.get() && lo <= hi {
            sum -= space[lo];
            lo += 1;
        }
        best = best.max(hi + 1 - lo);
    }
    best
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Table 2: model complexity factors (C, H, P, K, N)");
    let system = default_system();
    let capacity = system.chip.usable_sram_per_core();

    let mut rows = Vec::new();
    let mut graphs: Vec<ModelGraph> = crate::ctx::llms()
        .iter()
        .map(|cfg| build_llm(cfg, default_workload()))
        .collect();
    graphs.push(zoo::dit_xl().build(Workload::decode(8, 256), 1));

    let pod = DesignRunner::new(system).with_threads(ctx.threads);
    let chip = pod.with_system(elk_hw::presets::single_chip());
    for graph in &graphs {
        let runner = if graph.shards() == 1 { &chip } else { &pod };
        let catalog = runner.catalog(graph).expect("catalog");
        let stats = GraphStats::of(graph);

        let all: Vec<usize> = (0..graph.len()).collect();
        let k = max_resident(graph, &catalog, &all, capacity);
        let heavy_in_layer: Vec<usize> = {
            let span = &graph.layer_spans()[1];
            graph
                .hbm_heavy_ops()
                .iter()
                .map(|id| id.index())
                .filter(|i| span.ops.contains(i))
                .collect()
        };
        let c = max_resident(graph, &catalog, &heavy_in_layer, capacity).min(stats.heavy_per_layer);

        rows.push(Row {
            model: graph.name().to_string(),
            c,
            h: stats.heavy_per_layer,
            p: catalog.max_plans_per_op(),
            k,
            n: graph.len(),
        });
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.c.to_string(),
                r.h.to_string(),
                r.p.to_string(),
                r.k.to_string(),
                r.n.to_string(),
            ]
        })
        .collect();
    ctx.table(&["Model", "C", "H", "P", "K", "N"], &cells);
    ctx.line("");
    ctx.line("Paper (IPU-POD4): Llama2-13B C=6 H=6 P=66 K=88 N=1928; Gemma2-27B 6/6/206/128/2216;");
    ctx.line("OPT-30B 5/6/58/46/2269; Llama2-70B 6/6/168/86/3808; DiT-XL 4/4/123/136/1521.");
    for r in &rows {
        ctx.metric(format!("{}.plans_per_op", r.model), r.p as f64);
        ctx.metric(format!("{}.ops_per_shard", r.model), r.n as f64);
    }
    ctx.finish(&rows);
}
