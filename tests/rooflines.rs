//! Physical lower bounds: no design may beat the HBM or compute
//! rooflines, and the design ordering of §6.2 must hold under memory
//! pressure.

use elk::baselines::{Design, DesignRunner};
use elk::prelude::*;

fn stressed_graph() -> ModelGraph {
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 4;
    cfg.build(Workload::decode(32, 4096), 4)
}

#[test]
fn no_design_beats_the_rooflines() {
    let system = presets::ipu_pod4();
    let runner = DesignRunner::new(system.clone());
    let graph = stressed_graph();

    let hbm_bound = system
        .hbm
        .total_bandwidth()
        .transfer_time(graph.total_hbm_load());
    // Compute bound at the (higher) matmul rate with perfect efficiency.
    let compute_bound = graph.total_flops() / system.chip.matmul_rate();

    let outs = runner
        .run_designs(&Design::ALL, &graph, &SimOptions::default())
        .expect("run");
    for out in outs {
        let design = out.design;
        assert!(
            out.report.total >= hbm_bound * 0.95,
            "{design} beat the HBM roofline: {} < {}",
            out.report.total,
            hbm_bound
        );
        assert!(
            out.report.total >= compute_bound,
            "{design} beat the compute roofline"
        );
        assert!(out.report.hbm_util <= 1.0 + 1e-9);
        assert!(out.report.noc_util <= 1.0 + 1e-9);
    }
}

#[test]
fn design_ordering_under_memory_pressure() {
    let system = presets::ipu_pod4();
    let runner = DesignRunner::new(system);
    let graph = stressed_graph();
    let outs = runner
        .run_designs(&Design::ALL, &graph, &SimOptions::default())
        .expect("run all");
    let t = |d: Design| {
        outs.iter()
            .find(|o| o.design == d)
            .unwrap()
            .report
            .total
            .as_secs()
    };
    let slack = 1.02;
    assert!(t(Design::Ideal) <= t(Design::ElkFull) * slack);
    assert!(t(Design::ElkFull) <= t(Design::ElkDyn) * slack);
    assert!(t(Design::ElkFull) <= t(Design::Static) * slack);
    assert!(t(Design::ElkFull) <= t(Design::Basic) * slack);
    // At seq 4096 the fixed split visibly hurts Static (Fig. 17 shape).
    assert!(
        t(Design::Static) > t(Design::ElkFull) * 1.05,
        "Static {} vs ELK-Full {}",
        t(Design::Static),
        t(Design::ElkFull)
    );
}

#[test]
fn elk_tracks_ideal_closely_when_memory_is_comfortable() {
    // §6.2: ELK achieves ~94% of the ideal roofline on average.
    let system = presets::ipu_pod4();
    let runner = DesignRunner::new(system);
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 4;
    let graph = cfg.build(Workload::decode(32, 2048), 4);
    let outs = runner
        .run_designs(
            &[Design::ElkFull, Design::Ideal],
            &graph,
            &SimOptions::default(),
        )
        .expect("run");
    let ratio = outs[1].report.total / outs[0].report.total;
    assert!(
        ratio > 0.85,
        "ELK-Full only reached {:.1}% of Ideal",
        ratio * 100.0
    );
}

#[test]
fn faster_hbm_never_hurts_elk() {
    let base = DesignRunner::new(presets::ipu_pod4());
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 3;
    let graph = cfg.build(Workload::decode(16, 2048), 4);
    let mut last = f64::INFINITY;
    for tbps in [4.0f64, 8.0, 16.0] {
        let runner = base.with_system(
            base.system()
                .with_total_hbm_bandwidth(ByteRate::tib_per_sec(tbps)),
        );
        let outs = runner
            .run_designs(&[Design::ElkFull], &graph, &SimOptions::default())
            .expect("run");
        let t = outs[0].report.total.as_secs();
        assert!(
            t <= last * 1.02,
            "latency increased with faster HBM: {t} vs {last} at {tbps} TB/s"
        );
        last = t;
    }
}
