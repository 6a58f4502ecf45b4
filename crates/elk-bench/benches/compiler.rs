//! Criterion benches of the end-to-end compiler and its scheduling core.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use elk_core::{
    candidate_orders, identity_order, Catalog, Compiler, CompilerOptions, ReorderOptions,
    ScheduleOptions, Scheduler,
};
use elk_cost::{AnalyticDevice, LearnedCostModel, ProfileConfig};
use elk_hw::presets;
use elk_model::{zoo, Workload};
use elk_partition::Partitioner;

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

    let device = AnalyticDevice::of_chip(&system.chip);
    let cost = LearnedCostModel::fit(&device, &ProfileConfig::default());
    let partitioner = Partitioner::new(&system.chip, &cost);
    let catalog = Catalog::build(&graph, &partitioner).expect("catalog");
    let scheduler = Scheduler::new(&graph, &catalog, &system, ScheduleOptions::default());
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
    let full_scheduler = Scheduler::new(&full, &full_catalog, &system, ScheduleOptions::default());
    g.bench_function("inductive_schedule_all_candidates", |b| {
        b.iter(|| {
            candidates
                .iter()
                .filter(|c| full_scheduler.schedule(&c.order).is_ok())
                .count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_compiler);
criterion_main!(benches);
