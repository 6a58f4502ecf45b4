//! Deterministic discrete-event simulation kernel for the Elk serving
//! engines.
//!
//! Both serving simulators — `elk-serve`'s per-replica continuous
//! batcher and `elk-cluster`'s routed multi-group engine — are event
//! sources on this one kernel instead of hand-rolling their own clock
//! and ordering rules. The kernel provides exactly three things:
//!
//! * **[`EventQueue`]** — a future-event list with a simulation clock,
//!   total-ordered by `(time, priority, seq)`. Simultaneous events are
//!   broken first by priority class (arrivals before step completions),
//!   then by schedule order, so the pop sequence is a pure function of
//!   the schedule calls — never of heap internals or thread count.
//!   Arrivals known up front are *fed* once, time-sorted, and enter the
//!   heap only when due, so the heap stays as small as the in-flight
//!   work.
//! * **[`TimeWeighted`] / [`QueueStat`]** — statistics that weight a
//!   value by how long it was *held*, not how often it was sampled.
//!   A mean queue depth is an integral over time; averaging per-step
//!   samples lets thousands of 5 ms decode steps drown out one 900 ms
//!   prefill stall.
//! * **[`SimRng`]** — seeded splitmix64 streams with forkable
//!   substreams, so randomized policies (e.g. power-of-two-choices
//!   routing) are reproducible from the scenario seed alone.
//!
//! # Determinism rules
//!
//! Simulation code built on this kernel must not read wall-clock time,
//! OS entropy, or iterate hash maps in observable order. Every ordering
//! decision flows through [`EventQueue`]'s total order and every random
//! draw through a seeded [`SimRng`]; that is what upholds the engines'
//! byte-identical-reports-at-any-thread-count contract.
//!
//! # Example: a one-server queue
//!
//! ```
//! use elk_sim_core::{EventQueue, QueueStat, PRIO_ARRIVAL, PRIO_STEP_DONE};
//! use elk_units::Seconds;
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Arrival(usize),
//!     Done,
//! }
//!
//! let mut q = EventQueue::new();
//! let mut depth = QueueStat::new();
//! let arrivals = [Seconds::new(0.0), Seconds::new(0.1)];
//! q.feed(arrivals.iter().enumerate().map(|(i, &t)| (t, PRIO_ARRIVAL, Ev::Arrival(i))));
//!
//! let (mut waiting, mut busy, mut served) = (Vec::new(), false, 0);
//! while let Some(fired) = q.pop() {
//!     match fired.event {
//!         Ev::Arrival(id) => waiting.push(id),
//!         Ev::Done => {
//!             busy = false;
//!             served += 1;
//!         }
//!     }
//!     depth.record(q.now(), waiting.len());
//!     // Defer dispatch until everything at this instant has fired.
//!     if q.peek_time() == Some(q.now()) {
//!         continue;
//!     }
//!     if !busy && !waiting.is_empty() {
//!         waiting.remove(0);
//!         busy = true;
//!         depth.record(q.now(), waiting.len());
//!         q.schedule_after(Seconds::new(0.5), PRIO_STEP_DONE, Ev::Done);
//!     }
//! }
//! assert_eq!(served, 2);
//! assert_eq!(q.now(), Seconds::new(1.0)); // two back-to-back 0.5 s services
//! assert_eq!(depth.max_depth(), 1);
//! ```

#![warn(missing_docs)]

mod queue;
mod rng;
mod stats;

pub use queue::{EventKey, EventQueue, Scheduled};
pub use rng::SimRng;
pub use stats::{QueueStat, TimeWeighted};

/// Priority class for request arrivals — fires before any same-instant
/// step completion, so "everything arrived by now" includes arrivals at
/// exactly the current instant.
pub const PRIO_ARRIVAL: u8 = 0;

/// Priority class for step/service completions.
pub const PRIO_STEP_DONE: u8 = 1;
