//! Whole-plan pins for the compiler's search.
//!
//! The inductive scheduler, the cost-aware allocator and the forward
//! timeline audit decide every plan the simulator and the serving
//! engines run. This suite pins what they produce as FNV-1a digests
//! over the serialized `Schedule`, `DeviceProgram`, `PlanEstimate` and
//! `CompileStats` (with the wall-clock `compile_seconds` zeroed), over
//! full-depth and truncated graphs, three chips, decode and prefill,
//! all five designs, and the scheduler knobs the baselines restrict. A
//! speed-up of the compiler must leave every digest unchanged; a
//! deliberate change to its decisions re-pins them here.

use elk_baselines::{Design, DesignRunner};
use elk_core::{
    candidate_orders, identity_order, Catalog, CompileStats, Compiler, CompilerOptions,
    ReorderOptions, ScheduleOptions, Scheduler,
};
use elk_cost::LearnedCostModel;
use elk_hw::{presets, SystemConfig};
use elk_model::{zoo, ModelGraph, Workload};
use elk_partition::Partitioner;
use elk_sim::SimOptions;
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
fn fold<T: Serialize>(digest: u64, value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value).expect("serializes").as_bytes(),
        digest,
    )
}

/// `stats` without its wall-clock field.
fn timeless(stats: &CompileStats) -> CompileStats {
    CompileStats {
        compile_seconds: 0.0,
        ..stats.clone()
    }
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

/// Llama-2-13B at tensor-parallel degree `tp`, truncated to `layers`
/// when given.
fn llama(layers: Option<u32>, workload: Workload, tp: u64) -> ModelGraph {
    let mut cfg = zoo::llama2_13b();
    if let Some(layers) = layers {
        cfg.layers = layers;
    }
    cfg.build(workload, tp)
}

/// Digests of every design plus the Elk compiler under each scheduler
/// variant, one `(label, digest)` per entry.
fn case_digests(case: &str, system: &SystemConfig, graph: &ModelGraph) -> Vec<(String, u64)> {
    let runner = DesignRunner::new(system.clone()).with_threads(2);
    let catalog = runner.catalog(graph).expect("catalog");
    let mut out = Vec::new();
    for design in Design::ALL {
        let o = runner
            .run(design, graph, &catalog, &SimOptions::default())
            .expect("design runs");
        let mut d = fold(fold(FNV_OFFSET, &o.program), &o.estimate);
        if let Some(stats) = &o.stats {
            d = fold(d, &timeless(stats));
        }
        out.push((format!("{case}/{design}"), d));
    }

    let cost = LearnedCostModel::of_chip(&system.chip);
    let variants = [
        ("full", ScheduleOptions::default(), true),
        ("dyn", ScheduleOptions::default(), false),
        (
            "p1",
            ScheduleOptions {
                max_preload_number: Some(1),
                ..ScheduleOptions::default()
            },
            true,
        ),
        (
            "nocontention",
            ScheduleOptions {
                model_contention: false,
                ..ScheduleOptions::default()
            },
            true,
        ),
    ];
    for (label, schedule, reorder) in variants {
        let mut opts = CompilerOptions {
            schedule,
            threads: 2,
            ..CompilerOptions::default()
        };
        opts.reorder.enable = reorder;
        let plan = Compiler::with_cost_model(system.clone(), cost.clone(), opts)
            .compile_with_catalog(graph, &catalog)
            .expect("compiles");
        let d = fold(
            fold(
                fold(fold(FNV_OFFSET, &plan.schedule), &plan.program),
                &plan.estimate,
            ),
            &timeless(&plan.stats),
        );
        out.push((format!("{case}/compile-{label}"), d));
    }
    out
}

#[test]
fn compiled_plans_are_pinned() {
    let pod4 = presets::ipu_pod4();
    let mesh = presets::ipu_pod4_mesh();
    let small = small_sram();
    let mut got = Vec::new();
    // Full-depth Llama-2-13B at tp2, the shape `serve_cold`-style replica
    // serving compiles: 563 operators and 48 candidate orders, 21 of
    // them feasible. The truncated graphs cover prefill, the mesh
    // interconnect and a chip where capacity binds everywhere.
    got.extend(case_digests(
        "pod4-full",
        &pod4,
        &llama(None, Workload::decode(16, 2048), 2),
    ));
    got.extend(case_digests(
        "pod4-prefill",
        &pod4,
        &llama(Some(3), Workload::prefill(2, 512), 4),
    ));
    got.extend(case_digests(
        "mesh-decode",
        &mesh,
        &llama(Some(2), Workload::decode(32, 4096), 4),
    ));
    got.extend(case_digests(
        "small-decode",
        &small,
        &llama(Some(2), Workload::decode(8, 1024), 4),
    ));

    let want: &[(&str, u64)] = &[
        ("pod4-full/Basic", 0xf9682591a94348a8),
        ("pod4-full/Static", 0xf7864dfd9ae5d9d9),
        ("pod4-full/ELK-Dyn", 0xca9567c11fd16cf5),
        ("pod4-full/ELK-Full", 0x02eaa5ee460ac76e),
        ("pod4-full/Ideal", 0xf0afb6b05e5953e8),
        ("pod4-full/compile-full", 0x5b277e26111adba8),
        ("pod4-full/compile-dyn", 0xc2a2c50ebdf5b143),
        ("pod4-full/compile-p1", 0x306008747c5b84a7),
        ("pod4-full/compile-nocontention", 0x74cc1402fa277265),
        ("pod4-prefill/Basic", 0x3efaa60d2295de91),
        ("pod4-prefill/Static", 0xf2e5fd47a1452506),
        ("pod4-prefill/ELK-Dyn", 0xd4f5a61fe26375a3),
        ("pod4-prefill/ELK-Full", 0x45a0f33bf646cb2f),
        ("pod4-prefill/Ideal", 0xcdb46ba3be508c4a),
        ("pod4-prefill/compile-full", 0x1dcc00cecf1e77ea),
        ("pod4-prefill/compile-dyn", 0x9d832c4282e5e12e),
        ("pod4-prefill/compile-p1", 0x73c5e3533383e390),
        ("pod4-prefill/compile-nocontention", 0xa991360a39739c0e),
        ("mesh-decode/Basic", 0x3f9602663672d8c8),
        ("mesh-decode/Static", 0x9f7728811a53f30d),
        ("mesh-decode/ELK-Dyn", 0xea14bb2cba1dc070),
        ("mesh-decode/ELK-Full", 0x16a104bafb12a8b3),
        ("mesh-decode/Ideal", 0x3313e2d6e6cd5163),
        ("mesh-decode/compile-full", 0x4e7e807ffe23a6a0),
        ("mesh-decode/compile-dyn", 0xc1d1b38776e4297b),
        ("mesh-decode/compile-p1", 0x2bf6e1f2209f2a77),
        ("mesh-decode/compile-nocontention", 0x89f4445f8e58a6e8),
        ("small-decode/Basic", 0x6a8b6cdba7b01ea0),
        ("small-decode/Static", 0x5e899555f45be1f8),
        ("small-decode/ELK-Dyn", 0x7cb5c06303c3377b),
        ("small-decode/ELK-Full", 0x38a0e01623e110f5),
        ("small-decode/Ideal", 0x5a7fbbec1845a419),
        ("small-decode/compile-full", 0xd2d3e0182ae97564),
        ("small-decode/compile-dyn", 0xfe0c68ba2546e8ca),
        ("small-decode/compile-p1", 0x827ebb6ab464ed07),
        ("small-decode/compile-nocontention", 0xc2bafe43340a04a8),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((gn, g), (wn, w))| gn != wn || g != w)
        .map(|((name, g), (_, w))| format!("{name}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert_eq!(got.len(), want.len(), "case list changed");
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn infeasible_schedule_error_texts_are_pinned() {
    let system = presets::ipu_pod4();
    let graph = llama(Some(2), Workload::decode(32, 4096), 4);
    let cost = LearnedCostModel::of_chip(&system.chip);
    let catalog = Catalog::build(&graph, &Partitioner::new(&system.chip, &cost)).expect("catalog");
    let capacity = system.chip.usable_sram_per_core();

    // The first candidate preload order the search discards.
    let scheduler = Scheduler::new(&graph, &catalog, &system, ScheduleOptions::default());
    let rejected = candidate_orders(&graph, &catalog, capacity, &ReorderOptions::default())
        .iter()
        .find_map(|cand| scheduler.schedule(&cand.order).err())
        .expect("some candidate order is infeasible");

    let tiny = ScheduleOptions {
        capacity_override: Some(Bytes::kib(1)),
        ..ScheduleOptions::default()
    };
    let too_small = Scheduler::new(&graph, &catalog, &system, tiny)
        .schedule(&identity_order(graph.len()))
        .expect_err("nothing fits 1 KiB");
    let no_order = Compiler::with_cost_model(
        system.clone(),
        cost,
        CompilerOptions {
            schedule: tiny,
            threads: 1,
            ..CompilerOptions::default()
        },
    )
    .compile_with_catalog(&graph, &catalog)
    .expect_err("no order is feasible");
    assert_eq!(
        rejected.to_string(),
        "invalid preload order: order forces 4 resident preloads at l1.attn_context but nesting allows 2"
    );
    assert_eq!(
        too_small.to_string(),
        "window at operator `lm_head` needs at least 54.9 KiB per core but only 1.0 KiB is available"
    );
    assert_eq!(
        no_order.to_string(),
        "invalid preload order: no candidate preload order scheduled feasibly"
    );
}
