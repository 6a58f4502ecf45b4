//! The total-ordered event queue at the heart of the kernel.
//!
//! Every event is keyed `(time, priority, seq)`:
//!
//! * `time` — the simulation instant the event fires at;
//! * `priority` — the class tie-break for simultaneous events (lower
//!   fires first; e.g. arrivals before step completions, so an engine
//!   observing "everything that has arrived by now" at a completion
//!   instant sees arrivals at exactly that instant too);
//! * `seq` — the schedule-order tie-break: among events with equal
//!   `(time, priority)` the one scheduled first fires first (FIFO).
//!
//! The triple is a total order, so the pop sequence is a pure function
//! of the schedule calls — never of heap internals, hash iteration, or
//! thread interleaving. That is what lets the serving engines promise
//! byte-identical reports at any `--threads` count.
//!
//! Events known up front (a trace's arrivals) are handed over once with
//! [`EventQueue::feed`] instead of being scheduled one by one: they wait
//! in a time-sorted feed and enter the heap only when they are about to
//! fire, so the heap holds the in-flight work, not the whole future.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use elk_obs::Obs;
use elk_units::Seconds;

/// The total-order key of a scheduled event: `(time, priority, seq)`,
/// compared lexicographically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventKey {
    /// Simulation instant the event fires at.
    pub time: Seconds,
    /// Tie-break among simultaneous events — lower fires first.
    pub priority: u8,
    /// Schedule-order tie-break (assigned by [`EventQueue::schedule`]).
    pub seq: u64,
}

impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.priority, self.seq).cmp(&(other.time, other.priority, other.seq))
    }
}

impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An event popped from the queue: its key plus the typed payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The `(time, priority, seq)` key the event fired under.
    pub key: EventKey,
    /// The event payload.
    pub event: E,
}

/// Heap entry: ordered by key only (reversed, so the `BinaryHeap`
/// max-heap yields the *smallest* key first). The payload never
/// participates in ordering, so `E` needs no `Ord`.
#[derive(Debug)]
struct Entry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key) // reversed: min-heap behavior
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Kernel-side observation state: dispatch spans on one track, a
/// queue-length gauge, and per-priority-class counters. Everything it
/// emits is keyed to simulated time, so attaching it never perturbs
/// the pop order or the byte-identity contract.
#[derive(Debug)]
struct QueueObs {
    obs: Obs,
    track: String,
    classes: Vec<(u8, String)>,
    cap: u64,
    last: Seconds,
}

/// A deterministic future-event list with a simulation clock.
///
/// [`pop`](EventQueue::pop) advances the clock to the fired event's
/// time; [`schedule`](EventQueue::schedule) refuses to schedule into
/// the past, so causality violations fail loudly instead of silently
/// reordering history.
///
/// Fed events ([`feed`](EventQueue::feed)) fire exactly as if each had
/// been scheduled in feed order before anything else: same keys, same
/// pop order, same clock.
///
/// # Examples
///
/// ```
/// use elk_sim_core::EventQueue;
/// use elk_units::Seconds;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule(Seconds::new(2.0), 1, "step-complete");
/// q.schedule(Seconds::new(2.0), 0, "arrival"); // same instant, higher class
/// q.schedule(Seconds::new(1.0), 1, "first");
///
/// assert_eq!(q.pop().unwrap().event, "first");
/// assert_eq!(q.pop().unwrap().event, "arrival"); // priority 0 beats 1
/// assert_eq!(q.pop().unwrap().event, "step-complete");
/// assert_eq!(q.now(), Seconds::new(2.0));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Keyed, time-sorted events not yet moved into the heap.
    fed: VecDeque<Entry<E>>,
    now: Seconds,
    next_seq: u64,
    processed: u64,
    peak_len: usize,
    obs: Option<QueueObs>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            fed: VecDeque::new(),
            now: Seconds::ZERO,
            next_seq: 0,
            processed: 0,
            peak_len: 0,
            obs: None,
        }
    }

    /// Attaches an observation sink: dispatch spans and a queue-length
    /// gauge on `track` (bounded by the handle's sampling cap), plus
    /// per-priority-class dispatch counters named
    /// `{track}.dispatch.{class}`. `classes` names the engine's
    /// priority levels (unnamed priorities fall back to `prio{n}`).
    ///
    /// Purely additive: attaching observation cannot change the pop
    /// order, the clock, or any report field.
    pub fn observe(&mut self, obs: Obs, track: &str, classes: &[(u8, &str)]) {
        if !obs.enabled() {
            return;
        }
        let cap = obs.sample();
        self.obs = Some(QueueObs {
            obs,
            track: track.to_string(),
            classes: classes
                .iter()
                .map(|&(p, name)| (p, name.to_string()))
                .collect(),
            cap,
            last: self.now,
        });
    }

    /// The simulation clock: the fire time of the last popped event
    /// (zero before the first pop).
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Schedules `event` at `time` with class `priority` and returns its
    /// total-order key. Among equal `(time, priority)` pairs, earlier
    /// schedule calls fire first.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before [`now`](EventQueue::now) — an event
    /// source tried to rewrite history.
    pub fn schedule(&mut self, time: Seconds, priority: u8, event: E) -> EventKey {
        assert!(
            time >= self.now,
            "causality violation: scheduling at {time} with the clock at {}",
            self.now
        );
        let key = EventKey {
            time,
            priority,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Entry { key, event });
        self.peak_len = self.peak_len.max(self.heap.len());
        key
    }

    /// Hands the queue a time-sorted batch of events before anything is
    /// scheduled — typically every arrival of a trace. Fed event `i`
    /// gets the key `(time, priority, i)`, and later
    /// [`schedule`](EventQueue::schedule) calls number on from the feed
    /// length, so every key equals the one scheduling the batch in order
    /// would have produced.
    ///
    /// Fed events move into the heap only when they can fire next (see
    /// [`pop`](EventQueue::pop)), so [`peak_len`](EventQueue::peak_len)
    /// tracks the in-flight events instead of the whole batch.
    ///
    /// # Panics
    ///
    /// Panics if anything was scheduled or fed before, or if the times
    /// are not non-decreasing.
    pub fn feed(&mut self, events: impl IntoIterator<Item = (Seconds, u8, E)>) {
        assert!(
            self.next_seq == 0,
            "feed must come before any other schedule or feed call"
        );
        let mut last = self.now;
        for (time, priority, event) in events {
            assert!(
                time >= last,
                "fed events must be time-sorted: {time} follows {last}"
            );
            last = time;
            let key = EventKey {
                time,
                priority,
                seq: self.next_seq,
            };
            self.next_seq += 1;
            self.fed.push_back(Entry { key, event });
        }
    }

    /// Moves fed events into the heap while they are due no later than
    /// the heap's earliest event (or the heap is empty). Every fed event
    /// left behind is strictly later than the heap's minimum, so the
    /// heap's minimum is the global minimum.
    fn admit_fed(&mut self) {
        while let Some(front) = self.fed.front() {
            if self
                .heap
                .peek()
                .is_some_and(|top| top.key.time < front.key.time)
            {
                break;
            }
            let entry = self.fed.pop_front().expect("front exists");
            self.heap.push(entry);
            self.peak_len = self.peak_len.max(self.heap.len());
            if self.fed.is_empty() {
                // Release the drained feed's buffer: the caller is
                // likely to fold its results while the queue lives on.
                self.fed = VecDeque::new();
            }
        }
    }

    /// Schedules `event` a `delay` after the current clock.
    ///
    /// # Panics
    ///
    /// Never — a non-negative delay cannot violate causality.
    pub fn schedule_after(&mut self, delay: Seconds, priority: u8, event: E) -> EventKey {
        let at = self.now + delay;
        self.schedule(at, priority, event)
    }

    /// Fires the next event in `(time, priority, seq)` order, advancing
    /// the clock to its time. Returns `None` when the future is empty.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.admit_fed();
        let entry = self.heap.pop()?;
        self.now = entry.key.time;
        self.processed += 1;
        if let Some(o) = &mut self.obs {
            let class = o
                .classes
                .iter()
                .find(|(p, _)| *p == entry.key.priority)
                .map_or_else(
                    || format!("prio{}", entry.key.priority),
                    |(_, name)| name.clone(),
                );
            o.obs.counter(&format!("{}.dispatch.{class}", o.track), 1);
            if self.processed <= o.cap {
                o.obs.span(&o.track, &class, o.last, self.now - o.last, &[]);
                o.obs
                    .gauge(&o.track, "queue_len", self.now, self.heap.len() as f64);
            }
            o.last = self.now;
        }
        Some(Scheduled {
            key: entry.key,
            event: entry.event,
        })
    }

    /// The fire time of the next event, if any — without popping it.
    /// Engines use this to defer scheduling decisions until every event
    /// at the current instant has fired.
    #[must_use]
    pub fn peek_time(&self) -> Option<Seconds> {
        let heap = self.heap.peek().map(|e| e.key.time);
        let fed = self.fed.front().map(|e| e.key.time);
        heap.into_iter().chain(fed).min()
    }

    /// Events still to fire, fed ones included.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() + self.fed.len()
    }

    /// `true` when no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.fed.is_empty()
    }

    /// Events fired so far — the denominator-free half of an
    /// events-per-second throughput measurement.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// The largest number of events the heap held at once so far — a
    /// cheap memory-pressure proxy the serving reports expose as
    /// `peak_event_queue_len`. Fed events count only once they have
    /// moved into the heap.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_priority_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(3.0), 0, "d");
        q.schedule(Seconds::new(1.0), 1, "b");
        q.schedule(Seconds::new(1.0), 0, "a");
        q.schedule(Seconds::new(1.0), 1, "c"); // same key class as "b": FIFO
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), 0, ());
        q.schedule(Seconds::new(5.0), 0, ());
        assert_eq!(q.now(), Seconds::ZERO);
        q.pop();
        assert_eq!(q.now(), Seconds::new(2.0));
        assert_eq!(q.peek_time(), Some(Seconds::new(5.0)));
        q.pop();
        assert_eq!(q.now(), Seconds::new(5.0));
        assert_eq!(q.events_processed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_after_is_relative_to_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(4.0), 0, "base");
        q.pop();
        let key = q.schedule_after(Seconds::new(1.5), 2, "later");
        assert_eq!(key.time, Seconds::new(5.5));
        assert_eq!(key.priority, 2);
    }

    #[test]
    fn seq_keys_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let a = q.schedule(Seconds::new(1.0), 0, ());
        let b = q.schedule(Seconds::new(1.0), 0, ());
        assert!(a.seq < b.seq);
        assert!(a < b, "equal (time, priority): schedule order decides");
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(2.0), 0, ());
        q.pop();
        q.schedule(Seconds::new(1.0), 0, ());
    }

    #[test]
    fn peak_len_tracks_the_heap_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(Seconds::new(1.0), 0, ());
        q.schedule(Seconds::new(2.0), 0, ());
        q.schedule(Seconds::new(3.0), 0, ());
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        q.schedule(Seconds::new(4.0), 0, ());
        assert_eq!(q.peak_len(), 3, "draining never lowers the peak");
    }

    #[test]
    fn observation_is_purely_additive() {
        use elk_obs::{MemRecorder, Obs, TraceEvent};
        use std::sync::Arc;

        let run = |observe: bool| -> (Vec<&'static str>, Option<elk_obs::ObsBuf>) {
            let mut q = EventQueue::new();
            let rec = Arc::new(MemRecorder::new());
            if observe {
                q.observe(
                    Obs::new(rec.clone(), 2),
                    "kernel",
                    &[(0, "arrival"), (1, "step_done")],
                );
            }
            q.schedule(Seconds::new(1.0), 0, "a");
            q.schedule(Seconds::new(2.0), 1, "b");
            q.schedule(Seconds::new(3.0), 7, "c");
            let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
            (order, observe.then(|| rec.take_buf()))
        };

        let (plain, _) = run(false);
        let (observed, buf) = run(true);
        assert_eq!(plain, observed, "observation must not change pop order");

        let buf = buf.unwrap();
        assert_eq!(buf.counters["kernel.dispatch.arrival"], 1);
        assert_eq!(buf.counters["kernel.dispatch.step_done"], 1);
        assert_eq!(
            buf.counters["kernel.dispatch.prio7"], 1,
            "unnamed class falls back"
        );
        // Sampling cap 2: spans + gauges only for the first two pops.
        let spans = buf
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span { .. }))
            .count();
        let gauges = buf
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Gauge { .. }))
            .count();
        assert_eq!(spans, 2);
        assert_eq!(gauges, 2);
        assert!(matches!(
            &buf.events[0],
            TraceEvent::Span { name, dur, .. } if name == "arrival" && *dur == Seconds::new(1.0)
        ));
    }

    #[test]
    fn fed_keys_match_scheduling_in_feed_order() {
        let mut q = EventQueue::new();
        q.feed([
            (Seconds::new(1.0), 0, "a"),
            (Seconds::new(1.0), 3, "b"),
            (Seconds::new(2.0), 0, "c"),
        ]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(Seconds::new(1.0)));
        let a = q.pop().unwrap();
        assert_eq!((a.event, a.key.seq), ("a", 0));
        // Dynamic schedules number on from the feed length.
        let d = q.schedule(Seconds::new(1.0), 1, "d");
        assert_eq!(d.seq, 3);
        let order: Vec<(&str, u64)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.event, s.key.seq))).collect();
        assert_eq!(order, vec![("d", 3), ("b", 1), ("c", 2)]);
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn fed_events_enter_the_heap_only_when_due() {
        let mut q = EventQueue::new();
        q.feed((0..100).map(|i| (Seconds::new(f64::from(i)), 0, i)));
        let mut fired = 0;
        while q.pop().is_some() {
            fired += 1;
        }
        assert_eq!(fired, 100);
        assert_eq!(q.peak_len(), 1, "one due arrival at a time");
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_feed_panics() {
        let mut q = EventQueue::new();
        q.feed([(Seconds::new(2.0), 0, ()), (Seconds::new(1.0), 0, ())]);
    }

    #[test]
    #[should_panic(expected = "feed must come before")]
    fn feeding_after_a_schedule_panics() {
        let mut q = EventQueue::new();
        q.schedule(Seconds::new(1.0), 0, ());
        q.feed([(Seconds::new(2.0), 0, ())]);
    }

    #[test]
    fn empty_queue_pops_none_and_keeps_the_clock() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert_eq!(q.now(), Seconds::ZERO);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.len(), 0);
    }
}
