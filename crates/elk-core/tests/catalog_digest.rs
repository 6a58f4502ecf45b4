//! Pins of the plan catalogs the compiler reads.
//!
//! The scheduler, the allocator and the baselines see an operator's
//! plans only through its execute frontier: `exec_frontier`,
//! `plan_at`, `preload_points` and `preload_at`. Table 2's plan count
//! comes from `max_plans_per_op`. This suite folds exactly those, once
//! per distinct plan set, into one FNV-1a digest per catalog. It covers
//! dense, MoE and diffusion graphs, decode and prefill, and four chips:
//! the all-to-all IPU-POD4, its mesh twin, a small-SRAM part where
//! capacity binds, and a chip whose SRAM serves remote traffic
//! concurrently with compute. A faster enumerator must leave every
//! digest unchanged.

use std::collections::HashSet;

use elk_core::{Catalog, OpPlans};
use elk_cost::LearnedCostModel;
use elk_hw::{presets, SramContention, SystemConfig};
use elk_model::{zoo, ModelGraph, OpId, Workload};
use elk_partition::Partitioner;
use elk_units::Bytes;
use serde::Serialize;

/// 64-bit FNV-1a, chained from `seed`.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the JSON form of `value` into `digest`.
fn fold<T: Serialize + ?Sized>(digest: u64, value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value).expect("serializes").as_bytes(),
        digest,
    )
}

/// A small-SRAM part: a quarter of an IPU-POD4 chip's cores with 256 KiB
/// per core, so capacity binds on nearly every operator.
fn small_sram() -> SystemConfig {
    let mut sys = presets::ipu_pod4();
    sys.chip = sys.chip.with_cores(368);
    sys.chip.sram_per_core = Bytes::kib(256);
    sys.chip.name = "small-sram-368".into();
    sys
}

/// IPU-POD4 with dual-ported SRAM: execution time is the larger of
/// compute and shift time rather than their sum.
fn concurrent() -> SystemConfig {
    let mut sys = presets::ipu_pod4();
    sys.chip.sram_contention = SramContention::Concurrent;
    sys.chip.name = "pod4-concurrent".into();
    sys
}

/// Two-block graphs of each model family at tensor-parallel degree 4.
/// Deeper graphs repeat the same operator shapes.
fn graphs(workload: Workload) -> Vec<(&'static str, ModelGraph)> {
    let mut llama = zoo::llama2_13b();
    llama.layers = 2;
    let mut opt = zoo::opt_30b();
    opt.layers = 2;
    let mut moe = zoo::mixtral_8x7b();
    moe.layers = 2;
    let mut dit = zoo::dit_xl();
    dit.layers = 2;
    vec![
        ("llama2-13b", llama.build(workload, 4)),
        ("opt-30b", opt.build(workload, 4)),
        ("mixtral-8x7b", moe.build(workload, 4)),
        ("dit-xl", dit.build(workload, 4)),
    ]
}

/// Digest of one catalog build: its plan count and, per distinct plan
/// set in first-appearance order, every frontier position's point,
/// execute plan (with its preload plans) and preload points. A failed
/// build folds its error text.
fn catalog_digest(graph: &ModelGraph, partitioner: &Partitioner<'_>) -> u64 {
    let catalog = match Catalog::build(graph, partitioner) {
        Ok(catalog) => catalog,
        Err(err) => return fold(FNV_OFFSET, &err.to_string()),
    };
    let mut d = fold(FNV_OFFSET, &catalog.max_plans_per_op());
    d = fold(d, &catalog.distinct_signatures());
    let mut seen = HashSet::new();
    for i in 0..catalog.len() {
        let plans = catalog.op(OpId(i));
        if !seen.insert(std::ptr::from_ref::<OpPlans>(plans)) {
            continue;
        }
        for (k, point) in plans.exec_frontier.iter().enumerate() {
            d = fold(fold(d, &point.space), &point.time);
            d = fold(d, plans.plan_at(k));
            d = fold(d, plans.preload_points(k));
        }
    }
    d
}

#[test]
fn catalogs_are_pinned() {
    let chips = [
        ("pod4", presets::ipu_pod4()),
        ("mesh", presets::ipu_pod4_mesh()),
        ("small", small_sram()),
        ("concurrent", concurrent()),
    ];
    let workloads = [
        ("decode", Workload::decode(16, 1024)),
        ("prefill", Workload::prefill(2, 512)),
    ];
    let mut got = Vec::new();
    for (chip, system) in &chips {
        let cost = LearnedCostModel::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &cost);
        for (phase, workload) in workloads {
            for (model, graph) in graphs(workload) {
                got.push((
                    format!("{chip}/{phase}/{model}"),
                    catalog_digest(&graph, &partitioner),
                ));
            }
        }
    }

    // The small part fits no plan for OPT-30B's embedding or for
    // Llama-2-13B's prefill MLP; those entries pin the error text.
    let want: &[(&str, u64)] = &[
        ("pod4/decode/llama2-13b", 0x2a7427b58291b640),
        ("pod4/decode/opt-30b", 0x77535e9bab62f5d4),
        ("pod4/decode/mixtral-8x7b", 0xaf16f8c3139803ee),
        ("pod4/decode/dit-xl", 0x9b51cb8a83b4afbf),
        ("pod4/prefill/llama2-13b", 0x9d1a6b59f17e4815),
        ("pod4/prefill/opt-30b", 0xbf9e7f38444c9141),
        ("pod4/prefill/mixtral-8x7b", 0x4c958b7b91d97a27),
        ("pod4/prefill/dit-xl", 0xd7f182fae3b66521),
        ("mesh/decode/llama2-13b", 0x0817dfff07053ed9),
        ("mesh/decode/opt-30b", 0x3ae7ddb68490b646),
        ("mesh/decode/mixtral-8x7b", 0x18220ff5ce9b0e11),
        ("mesh/decode/dit-xl", 0x3d950f804074c946),
        ("mesh/prefill/llama2-13b", 0x92368ab9b8c474f1),
        ("mesh/prefill/opt-30b", 0xf628f74235c364a5),
        ("mesh/prefill/mixtral-8x7b", 0x90eb525cae548299),
        ("mesh/prefill/dit-xl", 0x2d03d548adca6daa),
        ("small/decode/llama2-13b", 0xd9608126b0b02969),
        ("small/decode/opt-30b", 0x7fe1fde5415cbb67),
        ("small/decode/mixtral-8x7b", 0x498904169e3157cd),
        ("small/decode/dit-xl", 0x504648dd725d9348),
        ("small/prefill/llama2-13b", 0xc79ac52b337a8389),
        ("small/prefill/opt-30b", 0x7fe1fde5415cbb67),
        ("small/prefill/mixtral-8x7b", 0x0c66cc584ee98a2d),
        ("small/prefill/dit-xl", 0xb3401b20b944d734),
        ("concurrent/decode/llama2-13b", 0x0c6f902a229c744a),
        ("concurrent/decode/opt-30b", 0xfb0c95aa9aaa3ad6),
        ("concurrent/decode/mixtral-8x7b", 0xd95c6ea0a355b2e6),
        ("concurrent/decode/dit-xl", 0x0c63c8d8133402b5),
        ("concurrent/prefill/llama2-13b", 0x27526fae33f11f24),
        ("concurrent/prefill/opt-30b", 0x85bc6a93303f86fa),
        ("concurrent/prefill/mixtral-8x7b", 0x4a6e216ae69bec41),
        ("concurrent/prefill/dit-xl", 0x5953a628834045b5),
    ];
    let listing: Vec<String> = got
        .iter()
        .map(|(name, d)| format!("(\"{name}\", {d:#018x}),"))
        .collect();
    let mismatches: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((gn, g), (wn, w))| gn != wn || g != w)
        .map(|((name, g), (_, w))| format!("{name}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert_eq!(
        got.len(),
        want.len(),
        "case list changed; now:\n{}",
        listing.join("\n")
    );
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
