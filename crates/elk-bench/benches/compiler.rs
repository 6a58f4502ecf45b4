//! Criterion benches of the end-to-end compiler and its scheduling core.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};

use elk_baselines::{Design, DesignRunner};
use elk_core::{
    candidate_orders, identity_order, Catalog, Compiler, CompilerOptions, ReorderOptions, Scheduler,
};
use elk_cost::LearnedCostModel;
use elk_hw::presets;
use elk_model::{zoo, ModelGraph, Workload};
use elk_partition::Partitioner;
use elk_sim::SimOptions;

/// The compile ladder: full-depth Llama-2-13B at tp2, decode at batch
/// {1, 4, 16} × sequence {64, …, 2048} and prefill at batch {1, 2, 8} ×
/// sequence {32, …, 1024}, doubling. These 36 graphs are the kind of
/// step shapes a cold replica-serving plan cache compiles, and every one
/// fits the chip.
fn ladder() -> Vec<ModelGraph> {
    let model = zoo::llama2_13b();
    let decode =
        [1, 4, 16].map(|b| [64, 128, 256, 512, 1024, 2048].map(|s| Workload::decode(b, s)));
    let prefill = [1, 2, 8].map(|b| [32, 64, 128, 256, 512, 1024].map(|s| Workload::prefill(b, s)));
    decode
        .into_iter()
        .chain(prefill)
        .flatten()
        .map(|wl| model.build(wl, 2))
        .collect()
}

/// One pass over the ladder on a fresh `runner`: every catalog through
/// the runner's plan sets, then all five designs on each graph. Adds
/// each stage's wall time to `totals`: the catalog first, then the
/// designs of `Design::ALL`.
fn compile_ladder(runner: &DesignRunner, graphs: &[ModelGraph], totals: &mut [Duration]) {
    let sim = SimOptions::default();
    for graph in graphs {
        let t = Instant::now();
        let catalog = runner.catalog(graph).expect("ladder catalog");
        totals[0] += t.elapsed();
        for (total, &design) in totals[1..].iter_mut().zip(&Design::ALL) {
            let t = Instant::now();
            black_box(
                runner
                    .run(design, graph, &catalog, &sim)
                    .expect("ladder design"),
            );
            *total += t.elapsed();
        }
    }
}

fn bench_compiler(c: &mut Criterion) {
    let system = presets::ipu_pod4();
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 4;
    let graph = cfg.build(Workload::decode(16, 1024), 4);
    let compiler = Compiler::with_options(
        system.clone(),
        CompilerOptions {
            threads: 1,
            ..CompilerOptions::default()
        },
    );

    let mut g = c.benchmark_group("compiler");
    g.sample_size(10);
    g.bench_function("compile_llama13_4layer", |b| {
        b.iter(|| compiler.compile(&graph).expect("compile"))
    });

    // Same compile on a multi-worker pool (catalog fan-out + parallel
    // order evaluation); the output is byte-identical, only wall-clock
    // moves. See benches/par_compile.rs for the full 1-vs-N sweep with
    // results/ emission.
    let par_threads = elk_par::resolve_threads(0).max(4);
    let par_compiler = Compiler::with_options(
        system.clone(),
        CompilerOptions {
            threads: par_threads,
            ..CompilerOptions::default()
        },
    );
    g.bench_function("compile_llama13_4layer_parallel", |b| {
        b.iter(|| par_compiler.compile(&graph).expect("compile"))
    });

    let cost = LearnedCostModel::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &cost);
    let catalog = Catalog::build(&graph, &partitioner).expect("catalog");
    let scheduler = Scheduler::new(&graph, &catalog, &system);
    let order = identity_order(graph.len());
    g.bench_function("inductive_schedule_one_order", |b| {
        b.iter_batched(
            || order.clone(),
            |o| scheduler.schedule(&o).expect("schedule"),
            BatchSize::SmallInput,
        )
    });

    // The order search's inner loop at full depth: the inductive
    // scheduler over every candidate preload order of 40-layer
    // Llama-2-13B decode at tp2 (48 candidates, most of them rejected
    // part-way), the shape a replica-serving plan-cache miss compiles.
    let full = zoo::llama2_13b().build(Workload::decode(16, 2048), 2);
    let full_catalog = Catalog::build(&full, &partitioner).expect("catalog");
    let capacity = system.chip.usable_sram_per_core();
    let candidates = candidate_orders(&full, &full_catalog, capacity, &ReorderOptions::default());
    let full_scheduler = Scheduler::new(&full, &full_catalog, &system);
    g.bench_function("inductive_schedule_all_candidates", |b| {
        b.iter(|| {
            candidates
                .iter()
                .filter(|c| full_scheduler.schedule(&c.order).is_ok())
                .count()
        })
    });

    // Everything a cold serving run compiles, on one thread, with the
    // mean time per pass of each stage. Each pass gets a fresh runner,
    // fitted outside the timed routine, so its plan sets start cold.
    let graphs = ladder();
    let mut totals = [Duration::ZERO; 1 + Design::ALL.len()];
    let mut passes = 0u32;
    g.bench_function("compile_ladder", |b| {
        b.iter_batched(
            || DesignRunner::new(system.subpod(2)).with_threads(1),
            |runner| {
                compile_ladder(&runner, &graphs, &mut totals);
                passes += 1;
            },
            BatchSize::LargeInput,
        )
    });
    let stages = std::iter::once("catalog".to_string()).chain(Design::ALL.map(|d| d.to_string()));
    for (stage, total) in stages.zip(totals) {
        let ms = total.as_secs_f64() * 1e3 / f64::from(passes);
        println!("compiler/compile_ladder/{stage:<17} {ms:>10.3} ms/pass");
    }
    g.finish();
}

criterion_group!(benches, bench_compiler);
criterion_main!(benches);
