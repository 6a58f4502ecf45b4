//! Cross-crate property tests: randomized transformer architectures and
//! workloads must always produce feasible, rule-respecting plans.

use proptest::prelude::*;

use elk::baselines::{Design, DesignRunner};
use elk::cost::{AnalyticDevice, CostModel};
use elk::model::NormKind;
use elk::partition::Partitioner;
use elk::prelude::*;

fn arb_config() -> impl Strategy<Value = TransformerConfig> {
    (
        1u32..=3,                                       // layers
        prop::sample::select(vec![512u64, 1024, 2048]), // hidden
        prop::sample::select(vec![8u64, 16]),           // heads
        prop::sample::select(vec![1u64, 2, 4]),         // kv group divisor
        any::<bool>(),                                  // glu
        any::<bool>(),                                  // rope
    )
        .prop_map(
            |(layers, hidden, heads, kv_div, glu, rope)| TransformerConfig {
                name: format!("prop-{hidden}h{heads}"),
                layers,
                hidden,
                heads,
                kv_heads: (heads / kv_div).max(4),
                head_dim: hidden / heads,
                intermediate: hidden * 3,
                vocab: 8192,
                glu,
                norm: if glu { NormKind::Rms } else { NormKind::Layer },
                rope,
                post_norms: false,
            },
        )
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop::sample::select(vec![1u64, 4, 16]),
        prop::sample::select(vec![256u64, 1024]),
        any::<bool>(),
    )
        .prop_map(|(b, s, decode)| {
            if decode {
                Workload::decode(b, s)
            } else {
                Workload::prefill(b, s)
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn every_plan_fits_sram(cfg in arb_config(), wl in arb_workload()) {
        let system = presets::ipu_pod4();
        let graph = cfg.build(wl, 4);
        let device = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &device);
        for op in graph.iter().take(20) {
            for plan in partitioner.plans(op).plans {
                prop_assert!(plan.exec_space <= system.chip.usable_sram_per_core());
                prop_assert!(plan.cores_used <= system.chip.cores);
                // Preload frontier: strictly shrinking space, growing time.
                for w in plan.preload_plans.windows(2) {
                    prop_assert!(w[0].preload_space > w[1].preload_space);
                    prop_assert!(w[0].distribute_time <= w[1].distribute_time);
                }
            }
        }
    }

    #[test]
    fn compiled_plans_respect_all_rules(cfg in arb_config(), wl in arb_workload()) {
        let system = presets::ipu_pod4();
        let graph = cfg.build(wl, 4);
        let plan = Compiler::new(system.clone()).compile(&graph).expect("compile");
        prop_assert_eq!(plan.program.validate(), Ok(()));
        prop_assert_eq!(plan.estimate.capacity_violations, 0);
        let report = simulate(&plan.program, &system, &SimOptions::default());
        prop_assert_eq!(report.capacity_violations, 0);
        // Done-tag and sequencing rules.
        for (e, p) in report.exec_spans.iter().zip(&report.preload_spans) {
            prop_assert!(e.0 >= p.1);
        }
        for w in report.exec_spans.windows(2) {
            prop_assert!(w[1].0 >= w[0].1);
        }
        // Conservation: simulated DRAM traffic equals the program's.
        let expect: u64 = plan.program.specs.iter().map(|s| s.hbm_load.get()).sum();
        let got = report.hbm_bytes.get() as f64;
        prop_assert!((got - expect as f64).abs() <= 0.01 * expect as f64 + 1024.0);
    }

    #[test]
    fn ideal_is_a_lower_bound(cfg in arb_config()) {
        let system = presets::ipu_pod4();
        let graph = cfg.build(Workload::decode(8, 512), 4);
        let runner = DesignRunner::new(system);
        let catalog = runner.catalog(&graph).expect("catalog");
        let ideal = runner.run(Design::Ideal, &graph, &catalog, &SimOptions::default()).expect("ideal");
        let full = runner.run(Design::ElkFull, &graph, &catalog, &SimOptions::default()).expect("full");
        prop_assert!(ideal.report.total <= full.report.total * 1.02);
    }

    #[test]
    fn cost_model_is_positive_and_monotone_in_volume(
        m in 1u64..64, k in 8u64..2048, n in 1u64..256
    ) {
        let device = AnalyticDevice::of_chip(&presets::ipu_pod4().chip);
        let t1 = device.tile_time(&elk::cost::TileShape::matmul(m, k, n));
        let t2 = device.tile_time(&elk::cost::TileShape::matmul(m * 2, k, n));
        prop_assert!(t1 > Seconds::ZERO);
        prop_assert!(t2 >= t1);
        let l1 = device.link_time(Bytes::new(k * 100));
        let l2 = device.link_time(Bytes::new(k * 200));
        prop_assert!(l2 >= l1);
    }
}
