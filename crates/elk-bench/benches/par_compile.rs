//! Thread-scaling bench: catalog construction and end-to-end compile at
//! 1 vs N worker threads, with byte-identical-output verification and
//! `results/par_compile.{txt,json}` emission.
//!
//! ```text
//! cargo bench -p elk-bench --bench par_compile            # 1 vs available cores
//! ELK_PAR_BENCH_THREADS=8 cargo bench -p elk-bench --bench par_compile
//! ```
//!
//! Unlike the criterion-shim benches this is a custom harness
//! (`harness = false`): it computes speedups across thread counts and
//! writes the table to `results/`, which the README's Performance
//! section sources.

use std::time::Instant;

use serde::Serialize;

use elk_core::{Catalog, Compiler, CompilerOptions};
use elk_cost::LearnedCostModel;
use elk_hw::presets;
use elk_model::{zoo, ModelGraph, Workload};
use elk_partition::Partitioner;

/// One measured (stage, thread-count) point.
#[derive(Debug, Serialize)]
struct Row {
    stage: String,
    threads: usize,
    mean_ms: f64,
    speedup_vs_1: f64,
}

/// Everything written to `results/par_compile.json`.
#[derive(Debug, Serialize)]
struct Payload {
    machine_cores: usize,
    iters: u32,
    rows: Vec<Row>,
}

fn mean_ms(iters: u32, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(iters)
}

fn main() {
    let machine_cores = elk_par::resolve_threads(0);
    let max_threads = std::env::var("ELK_PAR_BENCH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| machine_cores.max(4));
    let iters: u32 = std::env::var("ELK_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let mut thread_counts = vec![1usize];
    for t in [2, 4, max_threads] {
        if t > *thread_counts.last().unwrap() && t <= max_threads {
            thread_counts.push(t);
        }
    }

    let system = presets::ipu_pod4();
    let cost = LearnedCostModel::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &cost);
    // Two models' worth of distinct signatures: the catalog stage fans
    // per-signature plan enumeration across the pool.
    let graphs: Vec<ModelGraph> = [zoo::llama2_13b(), zoo::opt_30b()]
        .into_iter()
        .map(|cfg| cfg.build(Workload::decode(32, 2048), 4))
        .collect();
    let mut compile_cfg = zoo::llama2_13b();
    compile_cfg.layers = 4;
    let compile_graph = compile_cfg.build(Workload::decode(16, 1024), 4);

    let mut ctx = elk_bench::Ctx::new("par_compile");
    if std::env::var_os("ELK_RESULTS_DIR").is_none() {
        // `cargo bench` sets the package dir as cwd; write to the
        // workspace `results/` like the experiment bins do.
        ctx = ctx.with_results_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    }
    ctx.header("Thread scaling: catalog construction + end-to-end compile");
    ctx.line(format!(
        "machine: {machine_cores} core(s); {iters} measured iterations per point"
    ));
    let baseline_catalog = Catalog::build_par(&graphs[0], &partitioner, 1).expect("catalog");
    let baseline_plan = Compiler::with_options(
        system.clone(),
        CompilerOptions {
            threads: 1,
            ..CompilerOptions::default()
        },
    )
    .compile(&compile_graph)
    .expect("compile");

    let mut rows: Vec<Row> = Vec::new();
    let mut cells: Vec<Vec<String>> = Vec::new();
    for &threads in &thread_counts {
        // Determinism first: the parallel outputs must be byte-identical
        // to the single-threaded ones before their timing means anything.
        let cat = Catalog::build_par(&graphs[0], &partitioner, threads).expect("catalog");
        assert_eq!(
            cat.distinct_signatures(),
            baseline_catalog.distinct_signatures()
        );
        for i in 0..cat.len() {
            assert_eq!(
                cat.op(elk_model::OpId(i)),
                baseline_catalog.op(elk_model::OpId(i)),
                "catalog diverged at {threads} threads (op {i})"
            );
        }
        let compiler = Compiler::with_options(
            system.clone(),
            CompilerOptions {
                threads,
                ..CompilerOptions::default()
            },
        );
        let plan = compiler.compile(&compile_graph).expect("compile");
        assert_eq!(
            plan.program, baseline_plan.program,
            "plan selection diverged at {threads} threads"
        );
        assert_eq!(plan.schedule, baseline_plan.schedule);

        let catalog_ms = mean_ms(iters, || {
            for graph in &graphs {
                let c = Catalog::build_par(graph, &partitioner, threads).expect("catalog");
                std::hint::black_box(c);
            }
        });
        let compile_ms = mean_ms(iters, || {
            std::hint::black_box(compiler.compile(&compile_graph).expect("compile"));
        });
        for (stage, ms) in [("catalog_build", catalog_ms), ("compile_e2e", compile_ms)] {
            let base = rows
                .iter()
                .find(|r| r.stage == stage && r.threads == 1)
                .map_or(ms, |r| r.mean_ms);
            let row = Row {
                stage: stage.to_string(),
                threads,
                mean_ms: ms,
                speedup_vs_1: base / ms,
            };
            cells.push(vec![
                row.stage.clone(),
                row.threads.to_string(),
                format!("{:.2}", row.mean_ms),
                format!("{:.2}x", row.speedup_vs_1),
            ]);
            rows.push(row);
        }
    }
    ctx.table(&["stage", "threads", "mean ms", "speedup"], &cells);
    ctx.line("");
    ctx.line("Outputs verified byte-identical across all thread counts before timing.");
    ctx.finish(&Payload {
        machine_cores,
        iters,
        rows,
    });
}
