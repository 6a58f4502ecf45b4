//! The serving engine: replays a request trace against compiled plans.
//!
//! Each replica is an event source on the [`elk_sim_core`] kernel:
//! arrivals and step completions are typed events on one total-ordered
//! queue, and the simulation clock only moves when an event fires. A
//! scheduler step compiles (or cache-hits) the Elk plan for its
//! bucketed workload signature and schedules its completion at the
//! simulated step latency from [`elk_sim`]'s `SimReport`. Requests are
//! routed round-robin across `replicas` independent chip groups that
//! share one plan cache.

use std::sync::Arc;

use elk_baselines::{Design, DesignRunner};
use elk_core::CompileError;
use elk_hw::SystemConfig;
use elk_model::{Phase, TransformerConfig};
use elk_obs::{MemRecorder, Obs, ObsBuf};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, QueueStat, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::Seconds;

use crate::batcher::{next_step, BatchConfig, StepPlan};
use crate::cache::PlanCache;
use crate::metrics::{LatencyStats, RequestOutcome, SloConfig};
use crate::report::ServingReport;
use crate::trace::RequestTrace;

/// Everything a serving run is parameterized by (except the design,
/// which is per-run so designs can share one engine and cache).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Model to serve.
    pub model: TransformerConfig,
    /// Tensor-parallel shard count per replica (chips per chip group).
    pub shards: u64,
    /// Independent chip-group replicas; requests are routed round-robin.
    pub replicas: usize,
    /// Continuous-batching knobs.
    pub batch: BatchConfig,
    /// Latency SLO for goodput accounting.
    pub slo: SloConfig,
    /// Chip-simulator options used when a plan is compiled.
    pub sim: SimOptions,
    /// Worker threads (`1` = fully sequential, `0` = all available
    /// cores). With more than one worker, replica event loops run
    /// concurrently against the shared plan cache and a cache miss
    /// compiles all five designs' plans for the new signature at once
    /// (single-flight deduplicated). Request outcomes and latencies are
    /// identical at any setting; only wall-clock and the hit/miss split
    /// can shift.
    pub threads: usize,
}

impl ServeConfig {
    /// A config serving `model` on `shards`-way tensor parallelism with
    /// one replica and default batching/SLO/simulator knobs.
    #[must_use]
    pub fn new(model: TransformerConfig, shards: u64) -> Self {
        ServeConfig {
            model,
            shards,
            replicas: 1,
            batch: BatchConfig::default(),
            slo: SloConfig::default(),
            sim: SimOptions::default(),
            threads: 1,
        }
    }

    /// Spreads the trace over `n` independent chip-group replicas.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_replicas(mut self, n: usize) -> Self {
        assert!(n > 0, "replica count must be > 0");
        self.replicas = n;
        self
    }

    /// Sets the worker-thread count (`0` = all available cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Trace-driven serving simulator for one (system, model) pair.
///
/// Owns the [`DesignRunner`] (fitted cost model) and the [`PlanCache`],
/// so consecutive [`run`](ServingSim::run) calls — across designs,
/// traces, and replicas — reuse catalogs and compiled plans.
#[derive(Debug)]
pub struct ServingSim {
    runner: DesignRunner,
    config: ServeConfig,
    cache: PlanCache,
    obs: Obs,
}

/// Per-request progress while in flight.
struct InFlight {
    /// Index into the trace's request vector.
    idx: usize,
    /// Tokens generated so far (1 after prefill).
    generated: u64,
}

/// Typed events on a replica's simulation timeline.
enum Ev {
    /// The request at this trace index joins the waiting queue.
    Arrival(usize),
    /// The in-flight scheduler step completes.
    StepDone,
}

/// What the in-flight step will do when its [`Ev::StepDone`] fires.
enum PendingStep {
    /// Prefill of these trace indices; each emits its first token at
    /// completion.
    Prefill {
        /// Trace indices admitted into the step.
        batch: Vec<usize>,
    },
    /// One decode iteration over the whole active set.
    Decode,
}

/// One replica's event-loop output, merged deterministically by
/// [`ServingSim::run`].
struct ReplicaRun {
    /// `(trace index, outcome)` for every request this replica served.
    outcomes: Vec<(usize, RequestOutcome)>,
    /// Waiting-queue depth trace (transitions + time-weighted area).
    queue: QueueStat,
    /// Prefill steps executed.
    prefill_steps: u64,
    /// Decode steps executed.
    decode_steps: u64,
    /// The replica's final clock.
    end: Seconds,
    /// Kernel events fired by this replica's timeline.
    events: u64,
    /// Peak future-event heap size on this replica's kernel.
    peak: usize,
    /// Locally recorded observations, absorbed in replica order by the
    /// parent so the merged stream is thread-schedule independent.
    obs: Option<ObsBuf>,
}

impl ServingSim {
    /// Creates a simulator for `config` on `system`, fitting the
    /// runner's cost model once.
    ///
    /// # Panics
    ///
    /// Panics if `config` is ill-formed (zero batch caps, zero shards
    /// or replicas).
    #[must_use]
    pub fn new(system: SystemConfig, config: ServeConfig) -> Self {
        config.batch.validate();
        assert!(config.shards > 0, "shards must be > 0");
        assert!(config.replicas > 0, "replicas must be > 0");
        let threads = config.threads;
        // The serving pool already parallelizes across replicas and
        // across designs on a cache miss; keep the nested compiler
        // pools sequential so worker counts do not multiply
        // (replicas × designs × candidate orders).
        ServingSim {
            runner: DesignRunner::new(system).with_threads(1),
            config,
            cache: PlanCache::new().with_threads(threads),
            obs: Obs::null(),
        }
    }

    /// Attaches an observation handle: per-replica kernel dispatch
    /// spans, per-request lanes (sampled by trace index), TTFT/TPOT
    /// histograms, and plan-cache counters. Only thread-invariant
    /// quantities are recorded — the raw hit/miss split is not — so
    /// recorded output stays byte-identical at any thread count.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cumulative plan-cache counters (across all runs so far).
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Serves `trace` under `design` and reports request-level metrics.
    /// The plan cache persists across calls, so running a second design
    /// (or the same trace again) reuses catalogs and plans.
    ///
    /// With [`ServeConfig::threads`] > 1, replica event loops run
    /// concurrently on a scoped pool, sharing the single-flight plan
    /// cache; per-replica results merge in replica order, so the
    /// reported outcomes and latencies are identical at any thread
    /// count (replicas are independent given the — deterministic —
    /// cached step latencies).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] if any step shape has no feasible
    /// plan.
    pub fn run(
        &mut self,
        design: Design,
        trace: &RequestTrace,
    ) -> Result<ServingReport, CompileError> {
        let stats_before = self.cache.stats();
        let catalogs_before = self.cache.catalogs();
        // Round-robin request routing: replica r serves indices
        // r, r + R, r + 2R, ... in arrival order.
        let replicas: Vec<usize> = (0..self.config.replicas).collect();
        let this = &*self;
        let runs = elk_par::try_par_map(
            this.config.threads.min(replicas.len()),
            &replicas,
            |_, &replica| this.run_replica(design, trace, replica),
        )?;

        // Deterministic merge in replica order (the same order the
        // sequential loop produced).
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        let mut queue_depth: Vec<(Seconds, usize)> = Vec::new();
        let mut prefill_steps = 0u64;
        let mut decode_steps = 0u64;
        let mut makespan = Seconds::ZERO;
        let mut sim_events = 0u64;
        // The fleet-wide mean queue depth is the total depth-time area
        // over the total simulated replica-time: each replica's depth
        // is integrated over its own timeline, so a 5 ms decode step
        // and a 900 ms prefill stall weigh by their durations.
        let mut depth_area = 0.0;
        let mut sim_time = 0.0;
        let mut max_q = 0usize;
        let mut peak_q = 0usize;
        for run in runs {
            for (idx, outcome) in run.outcomes {
                outcomes[idx] = Some(outcome);
            }
            prefill_steps += run.prefill_steps;
            decode_steps += run.decode_steps;
            makespan = makespan.max(run.end);
            sim_events += run.events;
            peak_q = peak_q.max(run.peak);
            depth_area += run.queue.area_until(run.end);
            sim_time += run.end.as_secs();
            max_q = max_q.max(run.queue.max_depth());
            queue_depth.extend(run.queue.into_samples());
            // Replica buffers fold in replica index order — the same
            // order the sequential loop records in.
            if let Some(buf) = run.obs {
                self.obs.absorb(buf);
            }
        }
        if self.obs.enabled() {
            // Only thread-invariant cache quantities: total lookups and
            // distinct compiled signatures. The hit/miss split (and the
            // per-design plan count) shifts with design warming, so it
            // stays out of the recorded stream.
            let d = self.cache.stats().since(stats_before);
            self.obs.counter("serve.cache.lookups", d.hits + d.misses);
            self.obs.counter(
                "serve.cache.signatures",
                (self.cache.catalogs() - catalogs_before) as u64,
            );
        }

        queue_depth.sort_by_key(|&(t, _)| t);
        let mean_q = if sim_time > 0.0 {
            depth_area / sim_time
        } else {
            0.0
        };
        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("every request completes"))
            .collect();
        Ok(self.summarize(
            design,
            trace,
            outcomes,
            queue_depth,
            (mean_q, max_q),
            (prefill_steps, decode_steps),
            makespan,
            (sim_events, peak_q),
            self.cache.stats().since(stats_before),
        ))
    }

    /// Runs one replica as an event source on the simulation kernel.
    ///
    /// Arrivals fire at class [`PRIO_ARRIVAL`] and step completions at
    /// [`PRIO_STEP_DONE`], so a step finishing at the same instant a
    /// request arrives observes that arrival in its scheduling decision
    /// — the same "admit everything arrived by now" semantics the old
    /// hand-rolled loop had. Scheduling decisions are deferred until
    /// every event at the current instant has fired.
    fn run_replica(
        &self,
        design: Design,
        trace: &RequestTrace,
        replica: usize,
    ) -> Result<ReplicaRun, CompileError> {
        let stride = self.config.replicas;
        let assigned: Vec<usize> = (replica..trace.len()).step_by(stride).collect();
        let reqs = &trace.requests;
        // One slot per assigned request: trace index `idx` lives at
        // `(idx - replica) / stride`.
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; assigned.len()];
        let slot = |idx: usize| (idx - replica) / stride;
        let mut queue = QueueStat::new();
        let mut prefill_steps = 0u64;
        let mut decode_steps = 0u64;
        let mut waiting: Vec<usize> = Vec::new(); // FIFO, trace indices
        let mut active: Vec<InFlight> = Vec::new();
        let mut pending: Option<PendingStep> = None;
        let mut end = Seconds::ZERO;

        // A replica-local recorder: worker threads never write to the
        // shared sink directly, so the merged stream only depends on
        // the (deterministic) absorb order in `run`.
        let rec = self.obs.enabled().then(|| Arc::new(MemRecorder::new()));
        let mut q: EventQueue<Ev> = EventQueue::new();
        if let Some(rec) = &rec {
            q.observe(
                Obs::new(rec.clone(), self.obs.sample()),
                &format!("serve/replica{replica}"),
                &[(PRIO_ARRIVAL, "arrival"), (PRIO_STEP_DONE, "step_done")],
            );
        }
        q.feed(
            assigned
                .iter()
                .map(|&idx| (reqs[idx].arrival, PRIO_ARRIVAL, Ev::Arrival(idx))),
        );

        while let Some(fired) = q.pop() {
            let now = q.now();
            match fired.event {
                Ev::Arrival(idx) => {
                    waiting.push(idx);
                    queue.record(now, waiting.len());
                }
                Ev::StepDone => {
                    match pending.take().expect("StepDone implies an in-flight step") {
                        PendingStep::Prefill { batch } => {
                            prefill_steps += 1;
                            for idx in batch {
                                // The prefill step emits each request's
                                // first token.
                                let outcome = RequestOutcome {
                                    id: reqs[idx].id,
                                    replica,
                                    arrival: reqs[idx].arrival,
                                    first_token: now,
                                    completion: now,
                                    output_len: reqs[idx].output_len,
                                };
                                outcomes[slot(idx)] = Some(outcome);
                                if reqs[idx].output_len > 1 {
                                    active.push(InFlight { idx, generated: 1 });
                                }
                            }
                        }
                        PendingStep::Decode => {
                            decode_steps += 1;
                            active.retain_mut(|a| {
                                a.generated += 1;
                                let outcome = outcomes[slot(a.idx)].as_mut().expect("prefilled");
                                outcome.completion = now;
                                a.generated < reqs[a.idx].output_len
                            });
                        }
                    }
                    end = now;
                }
            }
            // Defer the scheduling decision until everything at this
            // instant has fired (all simultaneous arrivals admitted,
            // the step completion applied).
            if q.peek_time() == Some(now) || pending.is_some() {
                continue;
            }
            // No step to run (all-idle): the clock next moves at the
            // following arrival event — the old loop's idle-jump.
            let prompts = waiting.iter().map(|&i| reqs[i].prompt_len);
            let Some(step) = next_step(&self.config.batch, prompts, active.len()) else {
                continue;
            };
            let latency = match step {
                StepPlan::Prefill { admit } => {
                    let batch: Vec<usize> = waiting.drain(..admit).collect();
                    queue.record(now, waiting.len());
                    let longest = batch
                        .iter()
                        .map(|&i| reqs[i].prompt_len)
                        .max()
                        .expect("prefill admits >= 1");
                    let wl = self.config.batch.step_workload(
                        Phase::Prefill,
                        batch.len() as u64,
                        longest,
                    );
                    let latency = self.split_latency(design, wl)?;
                    pending = Some(PendingStep::Prefill { batch });
                    latency
                }
                StepPlan::Decode => {
                    let deepest = active
                        .iter()
                        .map(|a| reqs[a.idx].prompt_len + a.generated)
                        .max()
                        .expect("decode requires >= 1 active");
                    let wl = self.config.batch.step_workload(
                        Phase::Decode,
                        active.len() as u64,
                        deepest,
                    );
                    let latency = self.split_latency(design, wl)?;
                    pending = Some(PendingStep::Decode);
                    latency
                }
            };
            q.schedule_after(latency, PRIO_STEP_DONE, Ev::StepDone);
        }
        Ok(ReplicaRun {
            outcomes: assigned
                .into_iter()
                .zip(outcomes)
                .map(|(i, o)| (i, o.expect("assigned request completed")))
                .collect(),
            queue,
            prefill_steps,
            decode_steps,
            end,
            events: q.events_processed(),
            peak: q.peak_len(),
            obs: rec.map(|r| r.take_buf()),
        })
    }

    /// Latency of one `wl` step, falling back to sequential micro-batches
    /// when the full batch shape has no feasible on-chip plan (prefill
    /// attention is quadratic in sequence length, so long-context steps
    /// can exceed SRAM at batch sizes the decode path handles fine).
    /// Splitting halves the batch until the shape compiles; a batch-1
    /// failure is a genuine error — the request cannot run on this chip.
    fn split_latency(
        &self,
        design: Design,
        wl: elk_model::Workload,
    ) -> Result<Seconds, CompileError> {
        match self.cache.step_latency(
            &self.runner,
            &self.config.model,
            self.config.shards,
            design,
            wl,
            &self.config.sim,
        ) {
            Ok(t) => Ok(t),
            Err(CompileError::NoFeasiblePlan { .. } | CompileError::CapacityExceeded { .. })
                if wl.batch > 1 =>
            {
                let lo = elk_model::Workload {
                    batch: wl.batch / 2,
                    ..wl
                };
                let hi = elk_model::Workload {
                    batch: wl.batch - wl.batch / 2,
                    ..wl
                };
                let a = self.split_latency(design, lo)?;
                let b = if hi.batch == lo.batch {
                    a
                } else {
                    self.split_latency(design, hi)?
                };
                Ok(a + b)
            }
            Err(e) => Err(e),
        }
    }

    /// Folds per-request outcomes into the aggregate report.
    #[allow(clippy::too_many_arguments)]
    fn summarize(
        &self,
        design: Design,
        trace: &RequestTrace,
        outcomes: Vec<RequestOutcome>,
        queue_depth: Vec<(Seconds, usize)>,
        (mean_q, max_q): (f64, usize),
        (prefill_steps, decode_steps): (u64, u64),
        makespan: Seconds,
        (sim_events, peak_event_queue_len): (u64, usize),
        cache: crate::cache::CacheStats,
    ) -> ServingReport {
        if self.obs.enabled() {
            // Request lanes and latency histograms are derived from the
            // merged outcomes (trace order), not from replica event
            // loops, so they are deterministic by construction.
            for (i, o) in outcomes.iter().enumerate() {
                self.obs.histogram("serve.ttft", o.ttft());
                if let Some(t) = o.tpot() {
                    self.obs.histogram("serve.tpot", t);
                }
                self.obs.histogram("serve.e2e", o.e2e());
                if !self.obs.sampled(i) {
                    continue;
                }
                let track = format!("req/{}", o.id);
                let args = [("replica", o.replica.to_string())];
                self.obs.span(
                    &track,
                    "prefill",
                    o.arrival,
                    o.first_token - o.arrival,
                    &args,
                );
                if o.completion > o.first_token {
                    self.obs.span(
                        &track,
                        "decode",
                        o.first_token,
                        o.completion - o.first_token,
                        &args,
                    );
                }
            }
        }
        let ttft: Vec<Seconds> = outcomes.iter().map(RequestOutcome::ttft).collect();
        let tpot: Vec<Seconds> = outcomes.iter().filter_map(RequestOutcome::tpot).collect();
        let e2e: Vec<Seconds> = outcomes.iter().map(RequestOutcome::e2e).collect();
        let met = outcomes
            .iter()
            .filter(|o| o.meets(&self.config.slo))
            .count();
        let span = makespan.as_secs();
        let per_sec = |x: f64| if span > 0.0 { x / span } else { 0.0 };
        ServingReport {
            design,
            replicas: self.config.replicas,
            requests: trace.len(),
            completed: outcomes.len(),
            makespan,
            ttft: LatencyStats::of(&ttft),
            tpot: LatencyStats::of(&tpot),
            e2e: LatencyStats::of(&e2e),
            slo: self.config.slo,
            slo_attainment: if outcomes.is_empty() {
                0.0
            } else {
                met as f64 / outcomes.len() as f64
            },
            goodput_rps: per_sec(met as f64),
            throughput_rps: per_sec(outcomes.len() as f64),
            tokens_per_sec: per_sec(trace.total_output_tokens() as f64),
            prefill_steps,
            decode_steps,
            mean_queue_depth: mean_q,
            max_queue_depth: max_q,
            queue_depth,
            sim_events,
            peak_event_queue_len,
            cache,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArrivalProcess, LengthDist, TraceConfig};
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};

    fn tiny_config() -> ServeConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        ServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_prefill_tokens: 2048,
                seq_buckets: SeqBuckets::new(256, 2048),
                bucket_batch: true,
            },
            ..ServeConfig::new(model, 4)
        }
    }

    fn tiny_trace(requests: usize) -> RequestTrace {
        TraceConfig {
            seed: 11,
            requests,
            arrivals: ArrivalProcess::Poisson { rate_rps: 200.0 },
            prompt_len: LengthDist::Uniform { lo: 200, hi: 700 },
            output_len: LengthDist::Uniform { lo: 2, hi: 12 },
        }
        .generate()
    }

    #[test]
    fn every_request_completes_in_order_consistent_state() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = tiny_trace(20);
        let r = sim.run(Design::ElkFull, &trace).unwrap();
        assert_eq!(r.completed, 20);
        assert_eq!(r.outcomes.len(), 20);
        for o in &r.outcomes {
            assert!(o.first_token > o.arrival);
            assert!(o.completion >= o.first_token);
            if o.output_len > 1 {
                assert!(o.completion > o.first_token);
            }
        }
        assert!(r.makespan >= trace.duration());
        assert!(r.prefill_steps > 0 && r.decode_steps > 0);
    }

    #[test]
    fn empty_trace_yields_zero_report() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = RequestTrace::from_requests(vec![]);
        let r = sim.run(Design::Basic, &trace).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.makespan, Seconds::ZERO);
        assert_eq!(r.throughput_rps, 0.0);
        assert_eq!(r.ttft.n, 0);
    }

    #[test]
    fn replicas_split_the_load() {
        let trace = tiny_trace(16);
        let mut one = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let mut two = ServingSim::new(presets::ipu_pod4(), tiny_config().with_replicas(2));
        let r1 = one.run(Design::ElkFull, &trace).unwrap();
        let r2 = two.run(Design::ElkFull, &trace).unwrap();
        assert_eq!(r2.completed, 16);
        assert_eq!(r2.replicas, 2);
        // Twice the hardware under the same load should not be slower.
        assert!(r2.e2e.mean <= r1.e2e.mean * 1.01);
        let replicas_used: std::collections::HashSet<usize> =
            r2.outcomes.iter().map(|o| o.replica).collect();
        assert_eq!(replicas_used.len(), 2);
    }

    #[test]
    fn parallel_replicas_match_sequential_byte_for_byte() {
        let trace = tiny_trace(16);
        let mut seq = ServingSim::new(presets::ipu_pod4(), tiny_config().with_replicas(2));
        let mut par = ServingSim::new(
            presets::ipu_pod4(),
            tiny_config().with_replicas(2).with_threads(4),
        );
        for design in [Design::ElkFull, Design::Basic] {
            let mut a = seq.run(design, &trace).unwrap();
            let mut b = par.run(design, &trace).unwrap();
            // Outcomes and latencies are thread-count invariant; only
            // the hit/miss split may shift (warming), so blank it for
            // the whole-report comparison.
            a.cache = crate::cache::CacheStats::default();
            b.cache = crate::cache::CacheStats::default();
            assert_eq!(a, b, "{design}: parallel run diverged");
        }
    }

    #[test]
    fn recorded_timeline_is_byte_identical_across_thread_counts() {
        use elk_obs::{export, MemRecorder};

        let trace = tiny_trace(16);
        let run = |threads: usize| {
            let rec = Arc::new(MemRecorder::new());
            let mut sim = ServingSim::new(
                presets::ipu_pod4(),
                tiny_config().with_replicas(2).with_threads(threads),
            );
            sim.set_obs(Obs::new(rec.clone(), 64));
            sim.run(Design::ElkFull, &trace).unwrap();
            let buf = rec.take_buf();
            (
                serde_json::to_string(&export::chrome_trace(&buf)).unwrap(),
                serde_json::to_string(&export::metrics(&buf)).unwrap(),
            )
        };
        let (trace1, metrics1) = run(1);
        let (trace4, metrics4) = run(4);
        assert_eq!(trace1, trace4, "timeline must not depend on thread count");
        assert_eq!(
            metrics1, metrics4,
            "metrics must not depend on thread count"
        );
        assert!(trace1.contains("req/"), "request lanes recorded");
        assert!(trace1.contains("serve/replica1"), "kernel track recorded");
        assert!(metrics1.contains("serve.cache.lookups"));
        assert!(metrics1.contains("serve.cache.signatures"));
    }

    #[test]
    fn cache_hits_accumulate_across_runs() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = tiny_trace(12);
        let first = sim.run(Design::ElkFull, &trace).unwrap();
        let second = sim.run(Design::ElkFull, &trace).unwrap();
        assert!(first.cache.misses > 0);
        assert!(first.cache.hits > 0, "repeated shapes must hit in-run");
        assert_eq!(second.cache.misses, 0, "second run must be fully cached");
        assert!(second.cache.hits > 0);
    }
}
