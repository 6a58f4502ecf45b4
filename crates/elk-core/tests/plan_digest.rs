//! Whole-plan pins for the compiler's search.
//!
//! The inductive scheduler, the cost-aware allocator and the forward
//! timeline audit decide every plan the simulator and the serving
//! engines run. This suite pins what they produce as FNV-1a digests
//! over the serialized `Schedule`, `DeviceProgram`, `PlanEstimate` and
//! `CompileStats` (with the wall-clock `compile_seconds` zeroed), over
//! full-depth and truncated graphs, three chips, decode and prefill,
//! all five designs, and the Elk compiler with and without reordering. A
//! speed-up of the compiler must leave every digest unchanged; a
//! deliberate change to its decisions re-pins them in
//! `tests/pins/plan.pins`.

use elk_baselines::{Design, DesignRunner};
use elk_core::{
    candidate_orders, compile_with_catalog, identity_order, Catalog, CompileStats, CompilerOptions,
    ReorderOptions, Scheduler,
};
use elk_cost::LearnedCostModel;
use elk_hw::{presets, SystemConfig};
use elk_model::{zoo, ModelGraph, Workload};
use elk_partition::Partitioner;
use elk_pins::{fold_json, Pins, OFFSET};
use elk_sim::SimOptions;
use elk_units::Bytes;

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

/// Adds the digests of every design plus the Elk compiler with and
/// without reordering to `pins`, one `case/label` row per entry.
fn add_case(pins: &mut Pins, case: &str, system: &SystemConfig, graph: &ModelGraph) {
    let runner = DesignRunner::new(system.clone()).with_threads(2);
    let catalog = runner.catalog(graph).expect("catalog");
    for design in Design::ALL {
        let o = runner
            .run(design, graph, &catalog, &SimOptions::default())
            .expect("design runs");
        let mut d = fold_json(fold_json(OFFSET, &o.program), &o.estimate);
        if let Some(stats) = &o.stats {
            d = fold_json(d, &timeless(stats));
        }
        pins.add(format!("{case}/{design}"), d);
    }

    for (label, reorder) in [("full", true), ("dyn", false)] {
        let mut opts = CompilerOptions {
            threads: 2,
            ..CompilerOptions::default()
        };
        opts.reorder.enable = reorder;
        let plan = compile_with_catalog(system, &opts, graph, &catalog).expect("compiles");
        let d = fold_json(
            fold_json(
                fold_json(fold_json(OFFSET, &plan.schedule), &plan.program),
                &plan.estimate,
            ),
            &timeless(&plan.stats),
        );
        pins.add(format!("{case}/compile-{label}"), d);
    }
}

#[test]
fn compiled_plans_are_pinned() {
    let pod4 = presets::ipu_pod4();
    let mesh = presets::ipu_pod4_mesh();
    let small = small_sram();
    let mut pins = Pins::new("plan", "plans");
    // Full-depth Llama-2-13B at tp2, the shape `serve_cold`-style replica
    // serving compiles: 563 operators and 48 candidate orders, 21 of
    // them feasible. The truncated graphs cover prefill, the mesh
    // interconnect and a chip where capacity binds everywhere.
    for (case, system, graph) in [
        (
            "pod4-full",
            &pod4,
            llama(None, Workload::decode(16, 2048), 2),
        ),
        (
            "pod4-prefill",
            &pod4,
            llama(Some(3), Workload::prefill(2, 512), 4),
        ),
        (
            "mesh-decode",
            &mesh,
            llama(Some(2), Workload::decode(32, 4096), 4),
        ),
        (
            "small-decode",
            &small,
            llama(Some(2), Workload::decode(8, 1024), 4),
        ),
    ] {
        add_case(&mut pins, case, system, &graph);
    }
    pins.check();
}

#[test]
fn infeasible_schedule_error_texts_are_pinned() {
    let system = presets::ipu_pod4();
    let graph = llama(Some(2), Workload::decode(32, 4096), 4);
    let cost = LearnedCostModel::of_chip(&system.chip);
    let catalog = Catalog::build(&graph, &Partitioner::new(&system.chip, &cost)).expect("catalog");
    let capacity = system.chip.usable_sram_per_core();

    // The first candidate preload order the search discards.
    let scheduler = Scheduler::new(&graph, &catalog, &system);
    let rejected = candidate_orders(&graph, &catalog, capacity, &ReorderOptions::default())
        .iter()
        .find_map(|cand| scheduler.schedule(&cand.order).err())
        .expect("some candidate order is infeasible");

    // The same catalog scheduled on a chip with 1 KiB of usable SRAM.
    let mut tiny = system.clone();
    tiny.chip.sram_per_core = tiny.chip.io_buffer_per_core + Bytes::kib(1);
    let too_small = Scheduler::new(&graph, &catalog, &tiny)
        .schedule(&identity_order(graph.len()))
        .expect_err("nothing fits 1 KiB");
    let opts = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };
    let no_order =
        compile_with_catalog(&tiny, &opts, &graph, &catalog).expect_err("no order is feasible");
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
