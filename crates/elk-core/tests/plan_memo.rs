//! A [`PlanMemo`] shared across graphs changes nothing but the work.
//!
//! A serving plan cache builds one catalog per step shape (phase, batch,
//! sequence bucket), and most operator shapes repeat across those
//! graphs. Building them all through one memo must give catalogs equal
//! to fresh builds, operator by operator, at any thread count, while
//! enumerating each distinct signature exactly once. Failures must name
//! the same operator and capacity as a fresh build.

use std::collections::HashSet;

use elk_core::{Catalog, CompileError, OpPlans, PlanMemo};
use elk_cost::LearnedCostModel;
use elk_hw::{presets, SystemConfig};
use elk_model::{zoo, ModelGraph, OpId, Operator, Workload};
use elk_partition::Partitioner;
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

/// Two-layer Llama-2-13B at tensor-parallel degree `tp`.
fn llama2(workload: Workload, tp: u64) -> ModelGraph {
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    cfg.build(workload, tp)
}

/// The step shapes a serving plan cache compiles: decode and prefill at
/// batch {1, 4, 16} over sequence buckets 64..=2048.
fn ladder() -> Vec<ModelGraph> {
    let mut graphs = Vec::new();
    for batch in [1, 4, 16] {
        for seq in [64, 128, 256, 512, 1024, 2048] {
            graphs.push(llama2(Workload::decode(batch, seq), 2));
            graphs.push(llama2(Workload::prefill(batch, seq), 2));
        }
    }
    graphs
}

/// Everything plan enumeration reads from an operator, independent of
/// the crate's own signature key.
fn shape_of(op: &Operator) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        op.kind(),
        op.dtype(),
        op.stationary(),
        op.stationary_bytes(),
        op.hbm_store(),
        op.allreduce(),
    )
}

fn assert_same_catalog(memoized: &Catalog, fresh: &Catalog, what: &str) {
    assert_eq!(memoized.len(), fresh.len(), "{what}: operator count");
    assert_eq!(
        memoized.distinct_signatures(),
        fresh.distinct_signatures(),
        "{what}: distinct signatures"
    );
    for i in 0..fresh.len() {
        assert_eq!(memoized.op(OpId(i)), fresh.op(OpId(i)), "{what}: op {i}");
    }
}

#[test]
fn memoized_ladder_equals_fresh_builds_and_enumerates_each_shape_once() {
    let system = presets::ipu_pod4();
    let cost = LearnedCostModel::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &cost);
    let graphs = ladder();
    for threads in [1, 2] {
        let memo = PlanMemo::new();
        let mut shapes = HashSet::new();
        let mut catalogs = Vec::new();
        // The long prefill shapes fit no plan at tp2, as in serving;
        // they must fail exactly as a fresh build does.
        for graph in &graphs {
            let memoized = Catalog::build_in(graph, &partitioner, threads, &memo);
            match (memoized, Catalog::build_par(graph, &partitioner, threads)) {
                (Ok(memoized), Ok(fresh)) => {
                    assert_same_catalog(&memoized, &fresh, &format!("threads {threads}"));
                    shapes.extend(graph.iter().map(shape_of));
                    catalogs.push(memoized);
                }
                (memoized, fresh) => {
                    assert_eq!(memoized.err(), fresh.err(), "threads {threads}");
                }
            }
        }

        let sets: HashSet<*const OpPlans> = catalogs
            .iter()
            .flat_map(|c| (0..c.len()).map(|i| std::ptr::from_ref(c.op(OpId(i)))))
            .collect();
        let per_graph: usize = catalogs.iter().map(Catalog::distinct_signatures).sum();
        assert_eq!(sets.len(), shapes.len(), "one plan set per distinct shape");
        assert!(
            shapes.len() < per_graph,
            "{} distinct shapes of {per_graph} per-graph signatures",
            shapes.len()
        );
    }
}

#[test]
fn warm_memo_reports_the_same_infeasible_operator() {
    let system = small_sram();
    let cost = LearnedCostModel::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &cost);
    let warm: Vec<ModelGraph> = [512, 1024, 2048]
        .into_iter()
        .map(|seq| llama2(Workload::decode(8, seq), 4))
        .collect();
    // Its first operators share the warm graphs' shapes; attention over
    // the longer context is the first that fits no plan.
    let doomed = llama2(Workload::decode(8, 8192), 4);
    let later = llama2(Workload::decode(8, 4096), 4);
    for threads in [1, 2] {
        let memo = PlanMemo::new();
        for graph in &warm {
            Catalog::build_in(graph, &partitioner, threads, &memo).expect("warm catalog");
        }
        let fresh = Catalog::build_par(&doomed, &partitioner, threads).expect_err("infeasible");
        let memoized =
            Catalog::build_in(&doomed, &partitioner, threads, &memo).expect_err("infeasible");
        assert_eq!(memoized, fresh, "threads {threads}");
        let CompileError::NoFeasiblePlan { op, .. } = &memoized else {
            panic!("expected NoFeasiblePlan, got {memoized}");
        };
        assert_eq!(op, "l0.attn_scores", "threads {threads}");

        let built = Catalog::build_in(&later, &partitioner, threads, &memo).expect("catalog");
        let fresh = Catalog::build_par(&later, &partitioner, threads).expect("fresh catalog");
        assert_same_catalog(&built, &fresh, &format!("threads {threads}"));
    }
}
