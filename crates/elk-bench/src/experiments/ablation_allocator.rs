//! Ablation: optimality of the greedy cost-aware allocator (§4.3) versus
//! exhaustive search, on real allocation windows sampled from a compiled
//! model — the §8 SAT-solver discussion quantified.

use serde::Serialize;

use elk_baselines::DesignRunner;
use elk_core::{allocate, FrontierPoint};
use elk_model::{zoo, Workload};
use elk_units::{Bytes, Seconds};

use crate::ctx::{build_llm, default_system, Ctx};

/// Allocator-vs-ILP comparison summary.
#[derive(Debug, Serialize)]
pub struct Summary {
    /// Scheduling windows compared.
    pub windows: usize,
    /// Windows where the greedy allocator matched the ILP optimum.
    pub agreements: usize,
    /// Mean objective gap to the optimum (fraction).
    pub mean_gap: f64,
    /// Worst-case objective gap (fraction).
    pub worst_gap: f64,
    /// Windows where one side found a fit the other missed.
    pub feasibility_mismatches: usize,
}

fn exhaustive(
    current: &[FrontierPoint],
    windows: &[&[FrontierPoint]],
    capacity: Bytes,
) -> Option<Seconds> {
    // Depth-first over all combinations (small windows only).
    fn rec(
        windows: &[&[FrontierPoint]],
        k: usize,
        space: Bytes,
        time: Seconds,
        capacity: Bytes,
        best: &mut Option<Seconds>,
    ) {
        if k == windows.len() {
            if space <= capacity && best.is_none_or(|b| time < b) {
                *best = Some(time);
            }
            return;
        }
        for p in windows[k] {
            rec(
                windows,
                k + 1,
                space + p.space,
                time + p.time,
                capacity,
                best,
            );
        }
    }
    let mut best = None;
    for c in current {
        rec(windows, 0, c.space, c.time, capacity, &mut best);
    }
    best
}

/// Runs the ablation.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Ablation: greedy allocator vs exhaustive optimum (sampled windows)");
    let system = default_system();
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 4;
    let graph = build_llm(&cfg, Workload::decode(32, 2048));
    let runner = DesignRunner::new(system.clone()).with_threads(ctx.threads);
    let catalog = runner.catalog(&graph).expect("catalog");
    let capacity = system.chip.usable_sram_per_core();

    let mut windows_checked = 0usize;
    let mut agreements = 0usize;
    let mut gaps: Vec<f64> = Vec::new();
    let mut mismatches = 0usize;

    // Sample windows: current op i with the next w ops' preload frontiers.
    for i in (0..graph.len().saturating_sub(6)).step_by(3) {
        for w in [2usize, 4] {
            let cur = &catalog.op(graph.ops()[i].id()).exec_frontier;
            let cur: Vec<FrontierPoint> = cur.iter().copied().take(8).collect();
            let window_points: Vec<Vec<FrontierPoint>> = (1..=w)
                .map(|d| {
                    catalog
                        .op(graph.ops()[i + d].id())
                        .preload_points(0)
                        .iter()
                        .copied()
                        .take(4)
                        .collect()
                })
                .collect();
            let refs: Vec<&[FrontierPoint]> = window_points.iter().map(Vec::as_slice).collect();
            // Tighten capacity so the allocator has real work to do.
            for frac in [1.0f64, 0.6, 0.4] {
                let cap = capacity.scale(frac);
                let greedy = allocate(&cur, &refs, cap);
                let optimum = exhaustive(&cur, &refs, cap);
                windows_checked += 1;
                match (greedy, optimum) {
                    (None, None) => agreements += 1,
                    (Some(g), Some(o)) => {
                        let gt = (g.exec_time + g.distribute_time).as_secs();
                        let gap = if o.as_secs() > 0.0 {
                            gt / o.as_secs() - 1.0
                        } else {
                            0.0
                        };
                        gaps.push(gap.max(0.0));
                        if gap < 1e-9 {
                            agreements += 1;
                        }
                    }
                    _ => mismatches += 1,
                }
            }
        }
    }

    let mean_gap = gaps.iter().sum::<f64>() / gaps.len().max(1) as f64;
    let worst_gap = gaps.iter().copied().fold(0.0, f64::max);
    let summary = Summary {
        windows: windows_checked,
        agreements,
        mean_gap,
        worst_gap,
        feasibility_mismatches: mismatches,
    };
    ctx.line(format!(
        "windows: {windows_checked} | exact-optimal: {agreements} ({:.1}%) | mean gap {:.2}% | worst gap {:.2}% | feasibility mismatches {mismatches}",
        100.0 * agreements as f64 / windows_checked.max(1) as f64,
        100.0 * mean_gap,
        100.0 * worst_gap
    ));
    ctx.line("");
    ctx.line("Reading: the greedy Δ = space/time rule is near-optimal on real frontiers,");
    ctx.line("justifying §8's choice of an O(P·K) heuristic over exponential solvers.");
    assert_eq!(
        summary.feasibility_mismatches, 0,
        "greedy missed a feasible window"
    );
    ctx.finish(&summary);
}
