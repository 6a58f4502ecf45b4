//! Golden-value regression test: a small fixed model on a fixed preset
//! must keep producing the exact same compiled program and simulator
//! report. Any cost-model, partitioner, scheduler, or simulator change
//! that shifts these numbers is *visible* — if the shift is intended,
//! update the constants below in the same commit and say why.
//!
//! The pipeline is fully deterministic (the profile RNG is seeded, the
//! schedule search is exhaustive over a fixed candidate set), so the
//! float comparisons use a tight relative tolerance that only absorbs
//! cross-platform libm differences.

use elk::compiler::Catalog;
use elk::cost::LearnedCostModel;
use elk::partition::Partitioner;
use elk::prelude::*;

/// Relative tolerance for pinned floats.
const REL: f64 = 1e-9;

fn assert_close(name: &str, got: f64, want: f64) {
    let tol = REL * want.abs().max(1e-300);
    assert!(
        (got - want).abs() <= tol,
        "{name} drifted: got {got:?}, pinned {want:?}"
    );
}

#[test]
fn small_llama_decode_on_ipu_pod4_matches_pinned_report() {
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    let graph = cfg.build(Workload::decode(16, 512), 4);
    let system = presets::ipu_pod4();

    let plan = Compiler::new(system.clone())
        .compile(&graph)
        .expect("compile");
    let report = simulate(&plan.program, &system, &SimOptions::default());

    // Program shape.
    assert_eq!(plan.program.specs.len(), 31, "operator count");
    assert_eq!(plan.program.instrs.len(), 62, "instruction count");
    assert_eq!(plan.program.validate(), Ok(()));

    // Soundness.
    assert_eq!(report.capacity_violations, 0);
    assert_eq!(plan.estimate.capacity_violations, 0);
    assert_eq!(report.exec_spans.len(), 31);

    // Exact integer quantities.
    assert_eq!(report.hbm_bytes, Bytes::new(564_971_520), "HBM read volume");
    assert_eq!(report.peak_resident, Bytes::new(181_782), "peak residency");

    // Pinned latencies (seconds).
    assert_close("total", report.total.as_secs(), 1.931_976_061_036_663_2e-4);
    assert_close(
        "estimate.total",
        plan.estimate.total.as_secs(),
        2.261_333_889_447_634_4e-4,
    );

    // Per-phase makespan decomposition (Fig. 18/20 buckets).
    assert_close(
        "buckets.preload",
        report.buckets.preload.as_secs(),
        1.874_645_149_230_957e-5,
    );
    assert_close(
        "buckets.execute",
        report.buckets.execute.as_secs(),
        6.179_917_201_427_709e-5,
    );
    assert_close(
        "buckets.overlapped",
        report.buckets.overlapped.as_secs(),
        1.102_910_526_432_444_5e-4,
    );
    assert_close(
        "buckets.interconnect",
        report.buckets.interconnect.as_secs(),
        2.360_929_953_835_227_3e-6,
    );
    assert_close("buckets.idle", report.buckets.idle.as_secs(), 0.0);
    assert_close(
        "buckets sum equals makespan",
        report.buckets.total().as_secs(),
        report.total.as_secs(),
    );

    // Utilizations.
    assert_close("hbm_util", report.hbm_util, 0.664_913_264_785_591_7);
    assert_close("noc_util", report.noc_util, 0.443_561_060_748_087_27);
    assert_close(
        "achieved TFLOPS",
        report.achieved.get(),
        3.350_737_004_746_536_3e13,
    );
}

/// Determinism suite for the `elk-par` work pool: compiling the zoo
/// models on 1 and on 8 worker threads must produce byte-identical
/// catalogs, plan selections, and simulator reports. Byte identity is
/// checked on the serialized JSON, not just structural equality, so
/// even a float that round-trips differently would be caught.
#[test]
fn compilation_is_thread_count_invariant_across_the_zoo() {
    let system = presets::ipu_pod4();
    let cost = LearnedCostModel::of_chip(&system.chip);
    for mut cfg in [zoo::llama2_13b(), zoo::gemma2_27b(), zoo::opt_30b()] {
        cfg.layers = 2; // the plan space repeats per layer
        let name = cfg.name.clone();
        let graph = cfg.build(Workload::decode(16, 512), 4);

        let opts = |threads| CompilerOptions {
            threads,
            ..CompilerOptions::default()
        };
        let seq = Compiler::with_options(system.clone(), opts(1));
        let par = Compiler::with_options(system.clone(), opts(8));

        // Catalogs: per-operator plan lists and frontiers.
        let partitioner = Partitioner::new(&system.chip, &cost);
        let cat_seq = Catalog::build_par(&graph, &partitioner, 1).expect("catalog");
        let cat_par = Catalog::build_par(&graph, &partitioner, 8).expect("catalog");
        assert_eq!(cat_seq.len(), cat_par.len());
        for i in 0..cat_seq.len() {
            let id = elk::model::OpId(i);
            let a = serde_json::to_string(cat_seq.op(id)).expect("serialize");
            let b = serde_json::to_string(cat_par.op(id)).expect("serialize");
            assert_eq!(a, b, "{name}: catalog op {i} not byte-identical");
        }

        // Plan selection: program, schedule, and timeline estimate.
        let plan_seq = seq.compile(&graph).expect("compile @1");
        let plan_par = par.compile(&graph).expect("compile @8");
        assert_eq!(
            plan_seq.program, plan_par.program,
            "{name}: device program diverged"
        );
        assert_eq!(
            serde_json::to_string(&plan_seq.schedule).expect("serialize"),
            serde_json::to_string(&plan_par.schedule).expect("serialize"),
            "{name}: schedule not byte-identical"
        );
        assert_eq!(plan_seq.estimate, plan_par.estimate);

        // Simulator reports.
        let r_seq = simulate(&plan_seq.program, &system, &SimOptions::default());
        let r_par = simulate(&plan_par.program, &system, &SimOptions::default());
        assert_eq!(
            serde_json::to_string(&r_seq).expect("serialize"),
            serde_json::to_string(&r_par).expect("serialize"),
            "{name}: SimReport not byte-identical"
        );
    }
}
