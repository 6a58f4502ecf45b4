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
//! digest in `tests/pins/catalog.pins` unchanged.

use std::collections::HashSet;

use elk_core::{Catalog, OpPlans};
use elk_cost::LearnedCostModel;
use elk_hw::{presets, SramContention, SystemConfig};
use elk_model::{zoo, ModelGraph, OpId, Workload};
use elk_partition::Partitioner;
use elk_pins::{fold_json, Pins, OFFSET};
use elk_units::Bytes;

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
        Err(err) => return fold_json(OFFSET, &err.to_string()),
    };
    let mut d = fold_json(OFFSET, &catalog.max_plans_per_op());
    d = fold_json(d, &catalog.distinct_signatures());
    let mut seen = HashSet::new();
    for i in 0..catalog.len() {
        let plans = catalog.op(OpId(i));
        if !seen.insert(std::ptr::from_ref::<OpPlans>(plans)) {
            continue;
        }
        for (k, point) in plans.exec_frontier.iter().enumerate() {
            d = fold_json(fold_json(d, &point.space), &point.time);
            d = fold_json(d, plans.plan_at(k));
            d = fold_json(d, plans.preload_points(k));
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
    let mut pins = Pins::new("catalog", "catalogs");
    for (chip, system) in &chips {
        let cost = LearnedCostModel::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &cost);
        for (phase, workload) in workloads {
            for (model, graph) in graphs(workload) {
                pins.add(
                    format!("{chip}/{phase}/{model}"),
                    catalog_digest(&graph, &partitioner),
                );
            }
        }
    }

    // The small part fits no plan for OPT-30B's embedding or for
    // Llama-2-13B's prefill MLP; those rows pin the error text.
    pins.check();
}
