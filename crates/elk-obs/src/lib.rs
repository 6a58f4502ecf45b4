//! Deterministic, sim-time observability for the Elk workspace.
//!
//! Every quantity recorded here is derived from *simulated* time
//! ([`Seconds`] on the device/serving timeline) or from deterministic
//! counters — never from the wall clock — so recorded output obeys the
//! same contract as every Elk report: byte-identical at any thread
//! count. The pieces:
//!
//! - [`TraceEvent`]: a span, instant, or gauge sample on a named track;
//! - [`Histogram`]: fixed-bucket latency histogram whose merge is
//!   associative and commutative (no floating-point sum is kept, only
//!   bucket counts and min/max, so merge order cannot change a bit);
//! - [`ObsBuf`]: a plain buffer of events + counters + histograms that
//!   worker threads fill locally and the parent absorbs in elk-par
//!   index order;
//! - [`MemRecorder`]: the sink, a mutex-guarded [`ObsBuf`];
//! - [`Obs`]: the cheap cloneable handle the engines carry, bundling an
//!   optional recorder (none = recording off, every call a no-op) with
//!   a per-run sampling cap for high-volume tracks;
//! - [`export`]: Chrome-trace-format JSON (open in Perfetto or
//!   `chrome://tracing`) and a flat metrics JSON.
//!
//! ```
//! use elk_obs::{MemRecorder, Obs};
//! use elk_units::Seconds;
//! use std::sync::Arc;
//!
//! let rec = Arc::new(MemRecorder::new());
//! let obs = Obs::new(rec.clone(), 64);
//! obs.span("kernel", "dispatch", Seconds::ZERO, Seconds::from_micros(3.0), &[]);
//! obs.counter("events", 1);
//! let buf = rec.take_buf();
//! assert_eq!(buf.events.len(), 1);
//! assert_eq!(buf.counters["events"], 1);
//! ```

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use elk_units::Seconds;

pub mod export;

/// Upper bounds (seconds) of the fixed histogram buckets: a
/// powers-of-ten ladder from 1 µs to 100 s. A final open bucket
/// catches everything above the last bound.
pub const BUCKET_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2];

/// One recorded observation on a named track.
///
/// Times are simulated [`Seconds`]; arguments are pre-rendered
/// `(key, value)` strings so the event is `PartialEq`-comparable and
/// serialization never has to guess a type.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A duration on a track: `[start, start + dur]`.
    Span {
        /// Track (Chrome-trace thread) the span lives on.
        track: String,
        /// Span label.
        name: String,
        /// Start timestamp on the simulated timeline.
        start: Seconds,
        /// Duration of the span.
        dur: Seconds,
        /// Extra `(key, value)` annotations.
        args: Vec<(String, String)>,
    },
    /// A zero-duration marker.
    Instant {
        /// Track the marker lives on.
        track: String,
        /// Marker label.
        name: String,
        /// Timestamp on the simulated timeline.
        time: Seconds,
        /// Extra `(key, value)` annotations.
        args: Vec<(String, String)>,
    },
    /// One sample of a numeric series (rendered as a counter track).
    Gauge {
        /// Track the series lives on.
        track: String,
        /// Series label.
        name: String,
        /// Timestamp on the simulated timeline.
        time: Seconds,
        /// Sampled value.
        value: f64,
    },
}

impl TraceEvent {
    /// The track this event belongs to.
    #[must_use]
    pub fn track(&self) -> &str {
        match self {
            TraceEvent::Span { track, .. }
            | TraceEvent::Instant { track, .. }
            | TraceEvent::Gauge { track, .. } => track,
        }
    }
}

/// Fixed-bucket histogram over [`BUCKET_BOUNDS`].
///
/// Only bucket counts, a total count, and min/max are kept — no
/// floating-point sum — so [`Histogram::merge`] is exactly associative
/// and commutative (integer addition and f64 min/max), and merging
/// per-thread histograms in any order produces identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    count: u64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation (NaN observations are dropped).
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let bucket = BUCKET_BOUNDS
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.counts[bucket] += 1;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one. Associative and
    /// commutative: only integer adds and f64 min/max.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest observation, `0.0` when empty (keeps exports finite).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation, `0.0` when empty (keeps exports finite).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Per-bucket counts; the last entry is the open overflow bucket.
    #[must_use]
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

/// A buffer of recorded observations: the unit of deterministic merge.
///
/// Worker threads fill a local `ObsBuf` and the parent absorbs them in
/// elk-par index order, so the merged event stream is independent of
/// scheduling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsBuf {
    /// Recorded events, in record order.
    pub events: Vec<TraceEvent>,
    /// Named monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Named latency histograms.
    pub hists: BTreeMap<String, Histogram>,
}

impl ObsBuf {
    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Appends another buffer: events concatenate in call order,
    /// counters add, histograms merge.
    pub fn absorb(&mut self, other: ObsBuf) {
        self.events.extend(other.events);
        for (name, delta) in other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, hist) in other.hists {
            self.hists.entry(name).or_default().merge(&hist);
        }
    }
}

/// An in-memory recorder: a mutex-guarded [`ObsBuf`].
///
/// The mutex serializes access but never ordering-dependent state:
/// parallel engines record into *local* buffers and [`Obs::absorb`]
/// them in index order, so the lock is only contended on counters.
#[derive(Debug, Default)]
pub struct MemRecorder {
    buf: Mutex<ObsBuf>,
}

impl MemRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        MemRecorder::default()
    }

    /// Takes the accumulated buffer, leaving the recorder empty.
    #[must_use]
    pub fn take_buf(&self) -> ObsBuf {
        std::mem::take(&mut *self.buf.lock().expect("obs buffer poisoned"))
    }

    /// Stores one event.
    pub fn record(&self, event: TraceEvent) {
        self.buf
            .lock()
            .expect("obs buffer poisoned")
            .events
            .push(event);
    }

    /// Adds `delta` to a named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        let mut buf = self.buf.lock().expect("obs buffer poisoned");
        *buf.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one histogram observation.
    pub fn histogram(&self, name: &str, value: f64) {
        let mut buf = self.buf.lock().expect("obs buffer poisoned");
        buf.hists
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Folds a locally-built buffer in (call in deterministic order).
    pub fn absorb(&self, other: ObsBuf) {
        self.buf.lock().expect("obs buffer poisoned").absorb(other);
    }
}

/// The handle engines carry: a shared recorder plus the sampling cap
/// for high-volume tracks (per-request lanes, kernel dispatch spans).
///
/// Cloning is cheap (`Arc` bump). The default handle holds no recorder,
/// so instrumented code paths cost one `None` check when observability
/// is off.
#[derive(Debug, Clone)]
pub struct Obs {
    rec: Option<Arc<MemRecorder>>,
    sample: u64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::null()
    }
}

impl Obs {
    /// The disabled handle.
    #[must_use]
    pub fn null() -> Self {
        Obs {
            rec: None,
            sample: 0,
        }
    }

    /// Wraps a recorder with a sampling cap (`sample` = how many
    /// indexed items — requests, dispatches — get full event lanes).
    #[must_use]
    pub fn new(rec: Arc<MemRecorder>, sample: u64) -> Self {
        Obs {
            rec: Some(rec),
            sample,
        }
    }

    /// `true` when the handle holds a recorder.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// The sampling cap.
    #[must_use]
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// Whether the item at `idx` falls under the sampling cap.
    /// Index-based (not random) so sampling is deterministic.
    #[must_use]
    pub fn sampled(&self, idx: usize) -> bool {
        self.enabled() && (idx as u64) < self.sample
    }

    /// Records a span.
    pub fn span(
        &self,
        track: &str,
        name: &str,
        start: Seconds,
        dur: Seconds,
        args: &[(&str, String)],
    ) {
        if let Some(rec) = &self.rec {
            rec.record(TraceEvent::Span {
                track: track.to_string(),
                name: name.to_string(),
                start,
                dur,
                args: args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Records an instant marker.
    pub fn instant(&self, track: &str, name: &str, time: Seconds, args: &[(&str, String)]) {
        if let Some(rec) = &self.rec {
            rec.record(TraceEvent::Instant {
                track: track.to_string(),
                name: name.to_string(),
                time,
                args: args
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Records one sample of a numeric series.
    pub fn gauge(&self, track: &str, name: &str, time: Seconds, value: f64) {
        if let Some(rec) = &self.rec {
            rec.record(TraceEvent::Gauge {
                track: track.to_string(),
                name: name.to_string(),
                time,
                value,
            });
        }
    }

    /// Adds `delta` to a named counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(rec) = &self.rec {
            rec.counter(name, delta);
        }
    }

    /// Records a latency observation into a named histogram.
    pub fn histogram(&self, name: &str, value: Seconds) {
        if let Some(rec) = &self.rec {
            rec.histogram(name, value.as_secs());
        }
    }

    /// Folds a locally-built buffer into the shared recorder. Call in
    /// deterministic (elk-par index) order.
    pub fn absorb(&self, buf: ObsBuf) {
        if let Some(rec) = self.rec.as_ref().filter(|_| !buf.is_empty()) {
            rec.absorb(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_ladder() {
        let mut h = Histogram::new();
        h.observe(5e-7); // under the first bound
        h.observe(1e-6); // exactly on a bound -> that bucket
        h.observe(3e-3);
        h.observe(1e9); // overflow bucket
        assert_eq!(h.count(), 4);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[4], 1, "3e-3 lands in the <=1e-2 bucket");
        assert_eq!(h.buckets()[BUCKET_BOUNDS.len()], 1);
        assert_eq!(h.min(), 5e-7);
        assert_eq!(h.max(), 1e9);
    }

    #[test]
    fn empty_histogram_exports_finite_min_max() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn histogram_merge_matches_pooled_observation() {
        let values = [1e-5, 2e-4, 0.3, 7.0, 1e-6, 250.0];
        let mut pooled = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            pooled.observe(v);
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, pooled);
        assert_eq!(ba, pooled, "merge must be commutative");
    }

    #[test]
    fn null_handle_records_nothing_and_a_recorder_keeps_call_order() {
        let obs = Obs::null();
        assert!(!obs.enabled());
        assert!(!obs.sampled(0));
        obs.span("t", "s", Seconds::ZERO, Seconds::ZERO, &[]);
        obs.counter("c", 1);
        obs.absorb(ObsBuf {
            counters: BTreeMap::from([("c".to_string(), 1)]),
            ..ObsBuf::default()
        });
        assert!(obs.rec.is_none(), "the null handle holds no recorder");

        let rec = Arc::new(MemRecorder::new());
        let obs = Obs::new(rec.clone(), 1);
        assert!(obs.enabled());
        assert!(obs.sampled(0));
        for name in ["first", "second", "third"] {
            let mut buf = ObsBuf::default();
            buf.events.push(TraceEvent::Instant {
                track: "x".into(),
                name: name.into(),
                time: Seconds::ZERO,
                args: vec![],
            });
            obs.absorb(buf);
        }
        obs.instant("x", "fourth", Seconds::ZERO, &[]);
        let names: Vec<_> = rec
            .take_buf()
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Instant { name, .. } => name.clone(),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(names, ["first", "second", "third", "fourth"]);
    }

    #[test]
    fn mem_recorder_accumulates_and_takes() {
        let rec = Arc::new(MemRecorder::new());
        let obs = Obs::new(rec.clone(), 2);
        assert!(obs.sampled(1));
        assert!(!obs.sampled(2));
        obs.span(
            "kernel",
            "dispatch",
            Seconds::ZERO,
            Seconds::from_micros(2.0),
            &[("prio", "0".into())],
        );
        obs.instant("req/0", "rejected", Seconds::from_millis(1.0), &[]);
        obs.gauge("kernel", "queue_len", Seconds::ZERO, 3.0);
        obs.counter("events", 2);
        obs.counter("events", 1);
        obs.histogram("ttft", Seconds::from_millis(40.0));
        let buf = rec.take_buf();
        assert_eq!(buf.events.len(), 3);
        assert_eq!(buf.counters["events"], 3);
        assert_eq!(buf.hists["ttft"].count(), 1);
        assert!(rec.take_buf().is_empty(), "take leaves the recorder empty");
    }

    #[test]
    fn absorb_concatenates_and_merges() {
        let rec = Arc::new(MemRecorder::new());
        let obs = Obs::new(rec.clone(), 0);
        let mut a = ObsBuf::default();
        a.events.push(TraceEvent::Instant {
            track: "x".into(),
            name: "first".into(),
            time: Seconds::ZERO,
            args: vec![],
        });
        a.counters.insert("n".into(), 2);
        let mut b = ObsBuf::default();
        b.events.push(TraceEvent::Instant {
            track: "x".into(),
            name: "second".into(),
            time: Seconds::ZERO,
            args: vec![],
        });
        b.counters.insert("n".into(), 3);
        obs.absorb(a);
        obs.absorb(b);
        let buf = rec.take_buf();
        assert_eq!(buf.events.len(), 2);
        assert!(matches!(&buf.events[0], TraceEvent::Instant { name, .. } if name == "first"));
        assert_eq!(buf.counters["n"], 5);
    }
}
