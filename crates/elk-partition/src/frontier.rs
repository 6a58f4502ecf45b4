use serde::{Deserialize, Serialize};

use elk_units::{Bytes, Seconds};

/// One point on a memory↔time Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Index into the underlying plan list.
    pub plan_idx: usize,
    /// Per-core SRAM footprint.
    pub space: Bytes,
    /// Time cost of the point (execution time for execute-state points,
    /// data-distribution time for preload-state points).
    pub time: Seconds,
}

/// Extracts the Pareto frontier of `(space, time)` points, sorted fastest
/// (largest space) first. Every kept point is strictly faster than all
/// smaller points and strictly smaller than all faster points; of points
/// with equal space and time, the earliest in input order is kept.
#[must_use]
pub fn pareto_frontier(points: impl IntoIterator<Item = FrontierPoint>) -> Vec<FrontierPoint> {
    let mut pts: Vec<FrontierPoint> = points.into_iter().collect();
    // Sort by time ascending; ties broken by smaller space. The sort is
    // stable, so exact ties keep input order.
    pts.sort_by(|a, b| a.time.cmp(&b.time).then(a.space.cmp(&b.space)));
    let mut front: Vec<FrontierPoint> = Vec::new();
    for p in pts {
        if front.last().is_none_or(|last| p.space < last.space) {
            front.push(p);
        }
    }
    front
}

/// A Pareto frontier kept while points arrive, with the rule of
/// [`pareto_frontier`]: a point is dropped when an earlier point is no
/// slower and no larger, or a later one is no slower, no larger and not
/// equal in both. Each kept point carries an item.
///
/// Steps run fastest first, so time strictly rises and space strictly
/// falls along them; an offer is one binary search plus the removal of
/// the steps the new point dominates.
#[derive(Debug)]
pub(crate) struct Staircase<T> {
    steps: Vec<(FrontierPoint, T)>,
}

impl<T> Staircase<T> {
    pub(crate) fn new() -> Self {
        Staircase { steps: Vec::new() }
    }

    /// Offers `point` with its item; points must arrive in the input
    /// order [`pareto_frontier`] would see them in.
    pub(crate) fn offer(&mut self, point: FrontierPoint, item: T) {
        let k = self.steps.partition_point(|(s, _)| s.time < point.time);
        // The slowest strictly faster step, or an earlier equally fast
        // one, no larger than `point` dominates it.
        let covered = |i: usize| {
            self.steps
                .get(i)
                .is_some_and(|(s, _)| s.time <= point.time && s.space <= point.space)
        };
        if (k > 0 && covered(k - 1)) || covered(k) {
            return;
        }
        let end = k + self.steps[k..]
            .iter()
            .take_while(|(s, _)| s.space >= point.space)
            .count();
        self.steps.splice(k..end, std::iter::once((point, item)));
    }

    /// The kept points and their items, fastest first.
    pub(crate) fn into_steps(self) -> Vec<(FrontierPoint, T)> {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn point(space: u64, time_us: f64) -> FrontierPoint {
        FrontierPoint {
            plan_idx: 0,
            space: Bytes::new(space),
            time: Seconds::from_micros(time_us),
        }
    }

    #[test]
    fn frontier_is_minimal_and_sorted() {
        let front = pareto_frontier(vec![
            point(100, 10.0),
            point(50, 20.0),
            point(80, 15.0),
            point(120, 9.0),  // fastest, biggest
            point(90, 30.0),  // dominated by (80, 15)
            point(120, 12.0), // dominated by (120, 9)
        ]);
        assert_eq!(front.len(), 4);
        for w in front.windows(2) {
            assert!(w[0].time < w[1].time);
            assert!(w[0].space > w[1].space);
        }
        assert_eq!(front[0].space, Bytes::new(120));
        assert_eq!(front.last().unwrap().space, Bytes::new(50));
    }

    #[test]
    fn frontier_of_single_point() {
        let front = pareto_frontier(vec![point(10, 1.0)]);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn earliest_of_exact_ties_wins() {
        let points = (0..3).map(|i| FrontierPoint {
            plan_idx: i,
            ..point(64, 5.0)
        });
        let front = pareto_frontier(points);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].plan_idx, 0);
    }

    proptest! {
        #[test]
        fn staircase_keeps_what_pareto_frontier_keeps(
            raw in prop::collection::vec((0u64..6, 0u8..6), 0..40),
        ) {
            // Small ranges force exact ties and equal coordinates.
            let points: Vec<FrontierPoint> = raw
                .iter()
                .enumerate()
                .map(|(i, &(space, t))| FrontierPoint {
                    plan_idx: i,
                    space: Bytes::new(space),
                    time: Seconds::from_micros(f64::from(t)),
                })
                .collect();
            let mut stair = Staircase::new();
            for &p in &points {
                stair.offer(p, p.plan_idx);
            }
            let kept: Vec<FrontierPoint> = stair.into_steps().into_iter().map(|(p, _)| p).collect();
            prop_assert_eq!(kept, pareto_frontier(points));
        }
    }
}
