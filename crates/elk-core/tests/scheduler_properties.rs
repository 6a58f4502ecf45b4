//! Property tests of the scheduler/allocator stack on randomized
//! frontiers and synthetic graphs — invariants Theorem 4.2 relies on.

use proptest::prelude::*;

use elk_core::{
    allocate, candidate_orders, evaluate, identity_order, pareto_frontier, rank_schedule, Catalog,
    DeviceProgram, FrontierPoint, ReorderOptions, Scheduler,
};
use elk_cost::AnalyticDevice;
use elk_hw::presets;
use elk_model::{zoo, TransformerConfig, Workload};
use elk_partition::Partitioner;
use elk_units::{Bytes, Seconds};

fn arb_points(max: usize) -> impl Strategy<Value = Vec<FrontierPoint>> {
    prop::collection::vec((1u64..10_000, 0.1f64..500.0), 1..max).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (space, us))| FrontierPoint {
                plan_idx: i,
                space: Bytes::new(space),
                time: Seconds::from_micros(us),
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn pareto_frontier_is_minimal_and_dominant(points in arb_points(40)) {
        let front = pareto_frontier(points.clone());
        prop_assert!(!front.is_empty());
        // Sorted fastest-first with strictly decreasing space.
        for w in front.windows(2) {
            prop_assert!(w[0].time < w[1].time);
            prop_assert!(w[0].space > w[1].space);
        }
        // Every input point is dominated by (or equal to) a frontier point.
        for p in &points {
            prop_assert!(
                front.iter().any(|f| f.space <= p.space && f.time <= p.time),
                "point ({}, {}) undominated", p.space, p.time
            );
        }
        // Frontier points come from the input.
        for f in &front {
            prop_assert!(points.iter().any(|p|
                p.space == f.space && p.time == f.time));
        }
    }

    #[test]
    fn allocator_is_sound_and_monotone(
        cur in arb_points(12),
        win in prop::collection::vec(arb_points(6), 0..5),
        cap_a in 1_000u64..40_000,
        extra in 0u64..40_000,
    ) {
        let cur = pareto_frontier(cur);
        let win: Vec<Vec<FrontierPoint>> = win.into_iter().map(pareto_frontier).collect();
        let refs: Vec<&[FrontierPoint]> = win.iter().map(Vec::as_slice).collect();
        let small = Bytes::new(cap_a);
        let large = Bytes::new(cap_a + extra);

        let a = allocate(&cur, &refs, small);
        let b = allocate(&cur, &refs, large);
        if let Some(a) = &a {
            // Soundness: fits and indices valid.
            prop_assert!(a.space <= small);
            prop_assert!(a.current < cur.len());
            for (pick, w) in a.picks.iter().zip(&win) {
                prop_assert!(*pick < w.len());
            }
            // Monotonicity: relaxing capacity keeps feasibility and never
            // worsens the objective.
            let b = b.expect("larger capacity must stay feasible");
            let ta = (a.exec_time + a.distribute_time).as_secs();
            let tb = (b.exec_time + b.distribute_time).as_secs();
            prop_assert!(tb <= ta + 1e-12);
        }
    }
}

fn arb_model() -> impl Strategy<Value = TransformerConfig> {
    (
        prop::sample::select(vec![zoo::llama2_13b(), zoo::opt_30b(), zoo::gemma2_27b()]),
        2u32..=4,
    )
        .prop_map(|(mut cfg, layers)| {
            cfg.layers = layers;
            cfg
        })
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop::sample::select(vec![1u64, 4, 16]),
        prop::sample::select(vec![128u64, 512, 2048]),
        any::<bool>(),
    )
        .prop_map(|(b, s, decode)| {
            if decode {
                Workload::decode(b, s)
            } else {
                Workload::prefill(b, s.min(512))
            }
        })
}

// `rank_schedule` is `evaluate(lower(..))`'s `(violations, total)` for
// every candidate schedule, also under capacities the schedule was not
// built for (so violations occur); with a bound it gives up exactly when
// that total exceeds the bound.
proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    #[test]
    fn lean_replay_ranks_like_the_full_evaluation(
        cfg in arb_model(),
        wl in arb_workload(),
        squeeze in prop::sample::select(vec![1.0f64, 0.7, 0.4]),
        fracs in prop::collection::vec(0.0f64..1.5, 3),
    ) {
        let system = presets::ipu_pod4();
        let graph = cfg.build(wl, 4);
        let device = AnalyticDevice::of_chip(&system.chip);
        let catalog = Catalog::build(&graph, &Partitioner::new(&system.chip, &device))
            .expect("every drawn graph fits the chip");
        let usable = system.chip.usable_sram_per_core();
        let scheduler = Scheduler::new(&graph, &catalog, &system);
        // Every layer-uniform order, not only the default search's.
        let reorder = ReorderOptions { max_edit_distance: None, ..ReorderOptions::default() };
        for cand in candidate_orders(&graph, &catalog, usable, &reorder) {
            let Ok(sched) = scheduler.schedule(&cand.order) else {
                continue;
            };
            let prog = DeviceProgram::lower(&graph, &catalog, &sched);
            for capacity in [usable, usable.scale(squeeze)] {
                let est = evaluate(&prog, capacity);
                let full = (est.capacity_violations, est.total);
                let lean = rank_schedule(&catalog, &sched, capacity, None);
                prop_assert_eq!(lean.map(|(v, t)| (v, t.as_secs().to_bits())),
                    Some((full.0, full.1.as_secs().to_bits())));
                // Bounds at, just under, and scattered around the total,
                // and at each execute end (where the replay checks).
                let mut bounds = vec![est.total, est.total - est.total * 1e-9];
                bounds.extend(fracs.iter().map(|&f| est.total * f));
                bounds.extend(est.exec_spans.iter().step_by(7).map(|&(_, end)| end));
                for bound in bounds {
                    let got = rank_schedule(&catalog, &sched, capacity, Some(bound));
                    if est.total > bound {
                        prop_assert_eq!(got, None, "bound {} under total {}", bound, est.total);
                    } else {
                        prop_assert_eq!(got, Some(full));
                    }
                }
            }
        }
    }
}

#[test]
fn backward_pass_estimate_tracks_forward_evaluation() {
    // The DP's relative-time estimate and the forward §4.5 replay must
    // agree within modeling slack — a regression guard on the timeline
    // semantics.
    let system = presets::ipu_pod4();
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 3;
    let graph = cfg.build(Workload::decode(16, 2048), 4);
    let device = AnalyticDevice::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &device);
    let catalog = Catalog::build(&graph, &partitioner).unwrap();
    let scheduler = Scheduler::new(&graph, &catalog, &system);
    let sched = scheduler.schedule(&identity_order(graph.len())).unwrap();
    let prog = DeviceProgram::lower(&graph, &catalog, &sched);
    let est = evaluate(&prog, system.chip.usable_sram_per_core());
    let ratio = sched.est_total / est.total;
    assert!(
        (0.5..2.0).contains(&ratio),
        "DP estimate {} vs forward {} (ratio {ratio})",
        sched.est_total,
        est.total
    );
}

#[test]
fn preload_number_zero_for_every_op_matches_serial_program() {
    // A schedule whose every operator overlaps no preload (cut just past
    // itself) lowers to strict alternation: no preload may overlap any
    // execution.
    let system = presets::ipu_pod4();
    let mut cfg = zoo::opt_30b();
    cfg.layers = 2;
    let graph = cfg.build(Workload::decode(8, 512), 4);
    let device = AnalyticDevice::of_chip(&system.chip);
    let partitioner = Partitioner::new(&system.chip, &device);
    let catalog = Catalog::build(&graph, &partitioner).unwrap();
    let scheduler = Scheduler::new(&graph, &catalog, &system);
    let mut sched = scheduler.schedule(&identity_order(graph.len())).unwrap();
    for (i, s) in sched.per_op.iter_mut().enumerate() {
        s.exec_len -= s.contention;
        s.contention = Seconds::ZERO;
        s.preload_number = 0;
        s.cut = i + 1;
    }
    let prog = DeviceProgram::lower(&graph, &catalog, &sched);
    let est = evaluate(&prog, system.chip.usable_sram_per_core());
    assert_eq!(est.capacity_violations, 0);
    assert!(
        est.overlap_fraction() < 0.05,
        "serial schedule overlapped {:.1}%",
        est.overlap_fraction() * 100.0
    );
}
