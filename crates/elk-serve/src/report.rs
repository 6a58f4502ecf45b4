//! The serving report: what one trace-driven run measured.

use std::fmt;

use serde::{Deserialize, Serialize};

use elk_baselines::Design;
use elk_units::Seconds;

use crate::cache::CacheStats;
use crate::metrics::{LatencyStats, RequestOutcome, SloConfig};

/// Aggregated result of serving one [`RequestTrace`] under one design.
///
/// [`RequestTrace`]: crate::RequestTrace
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// The design that served the trace.
    pub design: Design,
    /// Replica count the trace was spread over.
    pub replicas: usize,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion (always equals `requests`; the
    /// simulator drains the queue).
    pub completed: usize,
    /// Trace start to last token of the last request.
    pub makespan: Seconds,
    /// Time-to-first-token summary.
    pub ttft: LatencyStats,
    /// Time-per-output-token summary (multi-token requests only).
    pub tpot: LatencyStats,
    /// End-to-end (arrival to last token) summary.
    pub e2e: LatencyStats,
    /// The SLO the run was scored against.
    pub slo: SloConfig,
    /// Fraction of completed requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second of makespan.
    pub goodput_rps: f64,
    /// All completions per second of makespan.
    pub throughput_rps: f64,
    /// Generated tokens per second of makespan (all replicas).
    pub tokens_per_sec: f64,
    /// Prefill iterations across all replicas.
    pub prefill_steps: u64,
    /// Decode iterations across all replicas.
    pub decode_steps: u64,
    /// Time-weighted mean waiting-queue depth: total depth×time area
    /// over total simulated replica-time, so a long prefill stall
    /// weighs by its duration instead of counting as one sample.
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth *transitions* (unchanged depths are not
    /// re-logged), all replicas interleaved in time order.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// Simulation-kernel events fired across all replica timelines
    /// (arrivals + step completions).
    pub sim_events: u64,
    /// Largest future-event heap any replica's kernel held at once —
    /// the memory-pressure proxy matching `sim_events`' throughput one.
    pub peak_event_queue_len: usize,
    /// Plan-cache hits/misses incurred by this run alone: the lookups
    /// that got past the replicas' step memos, one per step shape a
    /// replica had not priced before. Their sum is thread-invariant;
    /// the split is not.
    pub cache: CacheStats,
    /// Per-request timelines, in trace order.
    pub outcomes: Vec<RequestOutcome>,
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "[{}] {} requests over {} replica(s), makespan {:.3} s",
            self.design,
            self.requests,
            self.replicas,
            self.makespan.as_secs()
        )?;
        writeln!(f, "  TTFT  {}", self.ttft)?;
        writeln!(f, "  TPOT  {}", self.tpot)?;
        writeln!(f, "  E2E   {}", self.e2e)?;
        writeln!(
            f,
            "  goodput {:.2} req/s of {:.2} req/s ({:.1}% within SLO ttft<={:.0}ms tpot<={:.1}ms)",
            self.goodput_rps,
            self.throughput_rps,
            self.slo_attainment * 100.0,
            self.slo.ttft.as_millis(),
            self.slo.tpot.as_millis()
        )?;
        writeln!(
            f,
            "  {:.0} tok/s | {} prefill + {} decode steps | {} sim events (peak heap {}) | queue mean {:.1} max {}",
            self.tokens_per_sec,
            self.prefill_steps,
            self.decode_steps,
            self.sim_events,
            self.peak_event_queue_len,
            self.mean_queue_depth,
            self.max_queue_depth
        )?;
        write!(
            f,
            "  plan cache past the step memos: {} hits / {} misses ({:.0}% hit rate)",
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable_and_complete() {
        let r = ServingReport {
            design: Design::ElkFull,
            replicas: 2,
            requests: 10,
            completed: 10,
            makespan: Seconds::new(1.25),
            ttft: LatencyStats::of(&[Seconds::from_millis(10.0)]),
            tpot: LatencyStats::of(&[Seconds::from_millis(5.0)]),
            e2e: LatencyStats::of(&[Seconds::from_millis(50.0)]),
            slo: SloConfig::default(),
            slo_attainment: 0.9,
            goodput_rps: 7.2,
            throughput_rps: 8.0,
            tokens_per_sec: 123.0,
            prefill_steps: 4,
            decode_steps: 20,
            mean_queue_depth: 1.5,
            max_queue_depth: 3,
            queue_depth: vec![],
            sim_events: 34,
            peak_event_queue_len: 9,
            cache: CacheStats { hits: 3, misses: 1 },
            outcomes: vec![],
        };
        let s = r.to_string();
        assert!(s.contains("ELK-Full"));
        assert!(s.contains("goodput 7.20 req/s"));
        assert!(s.contains("34 sim events (peak heap 9)"));
        assert!(s.contains("75% hit rate"));
        assert_eq!(s, r.to_string(), "Display must be deterministic");
    }
}
