//! Criterion bench of execute/preload-state plan enumeration (§4.3, §5),
//! with the learned cost model the compiler's catalogs plan with.

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};

use elk_cost::LearnedCostModel;
use elk_hw::presets;
use elk_model::{zoo, Operator, Workload};
use elk_partition::Partitioner;

fn bench_partition(c: &mut Criterion) {
    let system = presets::ipu_pod4();
    let cost = LearnedCostModel::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &cost);
    let graph = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
    let qkv = graph.iter().find(|o| o.name() == "l0.attn_qkv").unwrap();
    let scores = graph.iter().find(|o| o.name() == "l0.attn_scores").unwrap();

    // What one cold catalog of full-depth Llama-2-13B decode enumerates
    // at tp2: each operator signature once (the fields the compiler's
    // plan memo keys on), on one thread.
    let full = zoo::llama2_13b().build(Workload::decode(16, 2048), 2);
    let mut seen = HashSet::new();
    let distinct: Vec<&Operator> = full
        .iter()
        .filter(|op| {
            seen.insert((
                *op.kind(),
                op.dtype(),
                op.stationary(),
                op.stationary_bytes(),
                op.hbm_store(),
                op.allreduce(),
            ))
        })
        .collect();

    let mut g = c.benchmark_group("partition");
    g.bench_function("enumerate_weight_matmul", |b| {
        b.iter(|| partitioner.plans(qkv))
    });
    g.bench_function("enumerate_kv_batchmatmul", |b| {
        b.iter(|| partitioner.plans(scores))
    });
    g.bench_function("enumerate_llama13_decode_signatures", |b| {
        b.iter(|| partitioner.enumerate_all_par(&distinct, 1))
    });
    g.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
