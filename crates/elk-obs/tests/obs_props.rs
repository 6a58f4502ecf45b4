//! Property tests for the determinism contracts elk-obs sells:
//! histogram merge is a true commutative monoid (so per-thread merge
//! order cannot leak into exported bytes), and a fan-out recorded
//! through per-worker buffers absorbed in index order serializes to
//! identical bytes at any `elk-par` thread count.

use std::sync::Arc;

use elk_obs::export::{chrome_trace, metrics};
use elk_obs::{Histogram, MemRecorder, Obs, ObsBuf};
use elk_units::Seconds;
use proptest::prelude::*;

fn hist(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.observe(v);
    }
    h
}

fn merged(a: &Histogram, b: &Histogram) -> Histogram {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Observations spanning every bucket of [`elk_obs::BUCKET_BOUNDS`],
/// including the overflow bucket past the last bound.
fn arb_observations() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1e-7f64..1e3, 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn histogram_merge_is_commutative(
        a in arb_observations(),
        b in arb_observations(),
    ) {
        let (a, b) = (hist(&a), hist(&b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn histogram_merge_is_associative(
        a in arb_observations(),
        b in arb_observations(),
        c in arb_observations(),
    ) {
        let (a, b, c) = (hist(&a), hist(&b), hist(&c));
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    #[test]
    fn histogram_merge_matches_observing_everything_at_once(
        a in arb_observations(),
        b in arb_observations(),
    ) {
        let all: Vec<f64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged(&hist(&a), &hist(&b)), hist(&all));
    }

    // The fan-out idiom every parallel engine uses (worker-local
    // buffers, absorbed in elk-par index order) must serialize to the
    // same bytes at 1 and 8 threads, for any workload shape.
    #[test]
    fn fan_out_recording_is_byte_identical_across_thread_counts(
        lanes in prop::collection::vec((0u64..1000, 1u64..=50, 0u64..16), 1..12),
    ) {
        let run = |threads: usize| {
            let rec = Arc::new(MemRecorder::new());
            let obs = Obs::new(rec.clone(), 64);
            let bufs = elk_par::par_map(threads, &lanes, |_, &(start, width, hits)| {
                let local = Arc::new(MemRecorder::new());
                let o = Obs::new(local.clone(), 64);
                let track = format!("lane/{start}");
                let t0 = Seconds::from_micros(start as f64);
                let dur = Seconds::from_micros(width as f64);
                o.span(&track, "work", t0, dur, &[("hits", hits.to_string())]);
                o.instant(&track, "done", t0 + dur, &[]);
                o.gauge(&track, "depth", t0, hits as f64);
                o.counter("lanes.done", 1);
                o.counter("lanes.hits", hits);
                o.histogram("lanes.width", dur);
                local.take_buf()
            });
            // Deterministic merge: index order, never completion order.
            for buf in bufs {
                obs.absorb(buf);
            }
            let buf = rec.take_buf();
            let timeline = serde_json::to_string(&chrome_trace(&buf)).expect("serialize");
            let flat = serde_json::to_string(&metrics(&buf)).expect("serialize");
            (timeline, flat)
        };
        let t1 = run(1);
        let t8 = run(8);
        prop_assert_eq!(t1, t8);
    }
}

/// Absorbing buffers in index order is also exactly what `ObsBuf::absorb`
/// promises at the type level: counters add, histograms merge.
#[test]
fn absorb_merges_counters_and_histograms() {
    let mk = |n: u64| {
        let rec = MemRecorder::new();
        rec.counter("c", n);
        rec.histogram("h", n as f64 * 1e-3);
        rec.take_buf()
    };
    let mut all = ObsBuf::default();
    all.absorb(mk(2));
    all.absorb(mk(3));
    assert_eq!(all.counters["c"], 5);
    assert_eq!(all.hists["h"].count(), 2);
}
