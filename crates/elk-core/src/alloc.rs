use elk_units::{Bytes, Seconds};

use crate::FrontierPoint;

/// Result of one cost-aware memory allocation (§4.3): the chosen frontier
/// position for the currently-executing operator and for every overlapped
/// preloaded operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Index into the current operator's execute frontier.
    pub current: usize,
    /// Index into each window operator's preload frontier, parallel to
    /// the `windows` argument.
    pub picks: Vec<usize>,
    /// Total per-core footprint of the chosen combination.
    pub space: Bytes,
    /// Execution time of the chosen execute-state plan.
    pub exec_time: Seconds,
    /// Sum of the chosen preload plans' data-distribution times.
    pub distribute_time: Seconds,
}

/// Jointly allocates per-core SRAM between the current operator's
/// execution space and the preload spaces of the operators preloaded
/// during its execution.
///
/// Starts from every operator's fastest (largest) plan and repeatedly
/// steps the most *cost-effective* operator — the one whose next Pareto
/// point frees the most bytes per added second (`Δ = reduced space /
/// increased time`, Fig. 11) — until the combination fits `capacity`.
/// Runs in `O(P·K)` for `K` operators with `P` frontier points each.
///
/// Returns `None` when even the smallest combination exceeds `capacity`.
///
/// Frontiers must be sorted fastest-first (as produced by
/// [`crate::pareto_frontier`] and the partitioner).
#[must_use]
pub fn allocate(
    current: &[FrontierPoint],
    windows: &[&[FrontierPoint]],
    capacity: Bytes,
) -> Option<Allocation> {
    let mut pos = Vec::new();
    let chosen = allocate_into(current, windows, capacity, &mut pos)?;
    Some(Allocation {
        current: chosen.current,
        picks: pos.split_off(1),
        space: chosen.space,
        exec_time: chosen.exec_time,
        distribute_time: chosen.distribute_time,
    })
}

/// An [`Allocation`] without its picks, which [`allocate_into`] leaves
/// in the caller's position buffer.
pub(crate) struct Chosen {
    pub(crate) current: usize,
    pub(crate) space: Bytes,
    pub(crate) exec_time: Seconds,
    pub(crate) distribute_time: Seconds,
}

/// What [`allocate_into`] starts from over a window list that grows one
/// frontier at a time: every operator at its fastest point, with the
/// footprint and distribution-time sums carried across pushes. While
/// that start fits, the greedy takes no step, so the scheduler asks the
/// greedy only once the start overflows.
pub(crate) struct Fastest {
    current: FrontierPoint,
    window_space: Bytes,
    distribute_time: Seconds,
}

impl Fastest {
    /// The start over `current` and the `windows` so far.
    pub(crate) fn new(current: &[FrontierPoint], windows: &[&[FrontierPoint]]) -> Self {
        assert!(!current.is_empty(), "current operator has empty frontier");
        let mut fastest = Fastest {
            current: current[0],
            window_space: Bytes::ZERO,
            distribute_time: Seconds::ZERO,
        };
        for window in windows {
            fastest.push(window);
        }
        fastest
    }

    /// Adds the next window operator's frontier. The sums grow from
    /// zero in window order, as [`allocate_into`]'s do, so they agree
    /// bit for bit.
    pub(crate) fn push(&mut self, window: &[FrontierPoint]) {
        self.window_space += window[0].space;
        self.distribute_time += window[0].time;
    }

    /// [`allocate_into`]'s result, with every position 0, when the start
    /// fits `capacity`; `None` when the greedy would have to step.
    pub(crate) fn fit(&self, capacity: Bytes) -> Option<Chosen> {
        let space = self.current.space + self.window_space;
        (space <= capacity).then_some(Chosen {
            current: 0,
            space,
            exec_time: self.current.time,
            distribute_time: self.distribute_time,
        })
    }
}

/// [`allocate`] over a caller-owned position buffer, so the scheduler's
/// per-operator calls allocate nothing. On success `pos[0]` is the
/// current operator's frontier index and `pos[1..]` the window picks.
pub(crate) fn allocate_into(
    current: &[FrontierPoint],
    windows: &[&[FrontierPoint]],
    capacity: Bytes,
    pos: &mut Vec<usize>,
) -> Option<Chosen> {
    assert!(!current.is_empty(), "current operator has empty frontier");
    debug_assert!(
        windows.iter().all(|w| !w.is_empty()),
        "window operator with empty preload frontier"
    );

    // Positions along each frontier; index 0 = current op, 1.. = windows.
    pos.clear();
    pos.resize(windows.len() + 1, 0);
    let frontier = |item: usize| -> &[FrontierPoint] {
        if item == 0 {
            current
        } else {
            windows[item - 1]
        }
    };

    let mut space: Bytes = current[0].space + windows.iter().map(|w| w[0].space).sum::<Bytes>();

    while space > capacity {
        // Pick the step with the best freed-bytes-per-added-second ratio.
        let mut best: Option<(usize, f64)> = None;
        for (item, &at) in pos.iter().enumerate() {
            let f = frontier(item);
            if at + 1 >= f.len() {
                continue;
            }
            let freed = f[at].space - f[at + 1].space;
            let slower = f[at + 1].time - f[at].time;
            let ratio = if slower.is_zero() {
                f64::INFINITY
            } else {
                freed.as_f64() / slower.as_secs()
            };
            if best.is_none_or(|(_, r)| ratio > r) {
                best = Some((item, ratio));
            }
        }
        let (item, _) = best?; // no step available: infeasible
        let f = frontier(item);
        let at = pos[item];
        space = space - f[at].space + f[at + 1].space;
        pos[item] = at + 1;
    }

    let current_idx = pos[0];
    Some(Chosen {
        current: current_idx,
        space,
        exec_time: current[current_idx].time,
        distribute_time: windows.iter().zip(&pos[1..]).map(|(w, &i)| w[i].time).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto_frontier;
    use proptest::prelude::*;

    fn fp(plan_idx: usize, space: u64, time_us: f64) -> FrontierPoint {
        FrontierPoint {
            plan_idx,
            space: Bytes::new(space),
            time: Seconds::from_micros(time_us),
        }
    }

    fn frontier(points: &[(u64, f64)]) -> Vec<FrontierPoint> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(s, t))| fp(i, s, t))
            .collect()
    }

    #[test]
    fn fastest_plans_kept_when_capacity_allows() {
        let cur = frontier(&[(100, 10.0), (50, 20.0)]);
        let w1 = frontier(&[(80, 0.0), (40, 5.0)]);
        let a = allocate(&cur, &[&w1], Bytes::new(200)).expect("feasible");
        assert_eq!(a.current, 0);
        assert_eq!(a.picks, vec![0]);
        assert_eq!(a.space, Bytes::new(180));
        assert_eq!(a.distribute_time, Seconds::ZERO);
    }

    #[test]
    fn steps_most_cost_effective_first() {
        // Current: freeing 50 costs 10us (ratio 5/us).
        // Window: freeing 40 costs 1us (ratio 40/us) — must step first.
        let cur = frontier(&[(100, 10.0), (50, 20.0)]);
        let w1 = frontier(&[(80, 0.0), (40, 1.0)]);
        let a = allocate(&cur, &[&w1], Bytes::new(145)).expect("feasible");
        assert_eq!(a.current, 0, "current should keep its fast plan");
        assert_eq!(a.picks, vec![1]);
        assert_eq!(a.space, Bytes::new(140));
    }

    #[test]
    fn infeasible_returns_none() {
        let cur = frontier(&[(100, 10.0), (90, 20.0)]);
        let w1 = frontier(&[(80, 0.0)]);
        assert_eq!(allocate(&cur, &[&w1], Bytes::new(100)), None);
    }

    #[test]
    fn empty_window_list_shrinks_current_only() {
        let cur = frontier(&[(100, 10.0), (60, 12.0), (30, 30.0)]);
        let a = allocate(&cur, &[], Bytes::new(64)).expect("feasible");
        assert_eq!(a.current, 1);
        assert_eq!(a.exec_time, Seconds::from_micros(12.0));
    }

    #[test]
    fn capacity_exactly_met_counts_as_fit() {
        let cur = frontier(&[(100, 10.0)]);
        let a = allocate(&cur, &[], Bytes::new(100)).expect("feasible");
        assert_eq!(a.space, Bytes::new(100));
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instances() {
        // Guardrail: on small instances the greedy total time should be
        // within 25% of the exhaustive optimum (it is optimal for convex
        // frontiers; these are mildly non-convex).
        let cur = frontier(&[(90, 10.0), (60, 14.0), (30, 25.0)]);
        let w1 = frontier(&[(70, 0.0), (35, 6.0), (10, 18.0)]);
        let w2 = frontier(&[(50, 0.0), (25, 2.0), (5, 9.0)]);
        for cap in [210u64, 160, 120, 90, 60] {
            let cap = Bytes::new(cap);
            let greedy = allocate(&cur, &[&w1, &w2], cap);
            // Exhaustive search.
            let mut best: Option<f64> = None;
            for (i, c) in cur.iter().enumerate() {
                for (j, a) in w1.iter().enumerate() {
                    for (k, b) in w2.iter().enumerate() {
                        let _ = (i, j, k);
                        if c.space + a.space + b.space <= cap {
                            let t = (c.time + a.time + b.time).as_micros();
                            if best.is_none_or(|x| t < x) {
                                best = Some(t);
                            }
                        }
                    }
                }
            }
            match (greedy, best) {
                (None, None) => {}
                (Some(g), Some(b)) => {
                    let got = (g.exec_time + g.distribute_time).as_micros();
                    assert!(
                        got <= b * 1.25 + 1e-9,
                        "cap {cap}: greedy {got} vs optimal {b}"
                    );
                }
                (g, b) => panic!("feasibility mismatch at cap {cap}: {g:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn never_exceeds_capacity_when_feasible() {
        // Randomized-ish sweep without rand: vary capacities.
        let cur = frontier(&[(128, 5.0), (96, 7.0), (64, 11.0), (32, 19.0)]);
        let w1 = frontier(&[(100, 0.0), (50, 4.0), (25, 12.0)]);
        let w2 = frontier(&[(64, 0.0), (16, 8.0)]);
        for cap in (70..300).step_by(7) {
            if let Some(a) = allocate(&cur, &[&w1, &w2], Bytes::new(cap)) {
                assert!(a.space <= Bytes::new(cap));
            }
        }
    }

    fn arb_frontier(max: usize) -> impl Strategy<Value = Vec<FrontierPoint>> {
        prop::collection::vec((1u64..10_000, 0.1f64..500.0), 1..max).prop_map(|raw| {
            pareto_frontier(
                raw.into_iter()
                    .enumerate()
                    .map(|(i, (space, us))| fp(i, space, us)),
            )
        })
    }

    proptest! {
        #[test]
        fn fast_path_matches_the_greedy(
            cur in arb_frontier(8),
            windows in prop::collection::vec(arb_frontier(6), 0..=8),
            at in 0usize..=8,
            slack in prop::sample::select(vec![-1i64, 0, 1, 5_000]),
        ) {
            // Capacity sits at (or a byte or two around) the fastest
            // start over the first `at` windows, so "exactly met" is hit.
            let refs: Vec<&[FrontierPoint]> = windows.iter().map(Vec::as_slice).collect();
            let start = |k: usize| {
                cur[0].space + refs[..k].iter().map(|w| w[0].space).sum::<Bytes>()
            };
            let capacity = Bytes::new(start(at.min(refs.len())).get().saturating_add_signed(slack));
            let mut fastest = Fastest::new(&cur, &[]);
            let mut pos = Vec::new();
            for k in 0..=refs.len() {
                if k > 0 {
                    fastest.push(refs[k - 1]);
                }
                let greedy = allocate_into(&cur, &refs[..k], capacity, &mut pos);
                let Some(fast) = fastest.fit(capacity) else {
                    prop_assert!(start(k) > capacity, "fits but the fast path declined");
                    continue;
                };
                let greedy = greedy.expect("a fitting start is feasible");
                prop_assert_eq!(
                    (fast.current, fast.space, fast.exec_time.as_secs().to_bits()),
                    (greedy.current, greedy.space, greedy.exec_time.as_secs().to_bits())
                );
                prop_assert_eq!(
                    fast.distribute_time.as_secs().to_bits(),
                    greedy.distribute_time.as_secs().to_bits()
                );
                prop_assert!(pos.iter().all(|&i| i == 0), "the greedy stepped: {pos:?}");
                let whole = Fastest::new(&cur, &refs[..k]).fit(capacity).expect("same start");
                prop_assert_eq!(whole.distribute_time, fast.distribute_time);
            }
        }
    }
}
