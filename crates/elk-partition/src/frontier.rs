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

#[cfg(test)]
mod tests {
    use super::*;

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
}
