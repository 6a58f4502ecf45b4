//! The serving engine: replays a request trace against compiled plans.
//!
//! Each replica is an event source on its own [`elk_sim_core`] kernel,
//! running one group of the shared step core ([`GroupCore`]): arrivals
//! and step completions are typed events on one total-ordered queue,
//! and the simulation clock only moves when an event fires. A scheduler
//! step compiles (or cache-hits) the Elk plan for its bucketed workload
//! signature and schedules its completion at the simulated step latency
//! from [`elk_sim`]'s `SimReport`. Requests are routed round-robin
//! across `replicas` independent chip groups that share one plan cache.

use std::sync::Arc;

use elk_baselines::{Design, DesignRunner};
use elk_core::CompileError;
use elk_model::TransformerConfig;
use elk_obs::{MemRecorder, Obs, ObsBuf};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::Seconds;

use crate::batcher::BatchConfig;
use crate::cache::{PlanCache, StepMemo};
use crate::group::{GroupCore, GroupFold};
use crate::metrics::{RequestOutcome, SloConfig};
use crate::report::ServingReport;
use crate::trace::{Request, RequestTrace};

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
    /// concurrently against the shared single-flight plan cache. Reports
    /// are identical at any setting, the cache's hit/miss split
    /// included; only wall-clock can shift.
    pub threads: usize,
}

impl ServeConfig {
    /// The most replicas one engine may run, `2¹⁰`: each holds its own
    /// step memo and event loop.
    pub const MAX_REPLICAS: usize = 1 << 10;

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
    #[must_use]
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Sets the worker-thread count (`0` = all available cores).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Checks the config: the batching knobs, between one and
    /// [`MAX_REPLICAS`](Self::MAX_REPLICAS) replicas, and a shard count
    /// that splits the model evenly.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first ill-formed field.
    pub fn validate(&self) -> Result<(), String> {
        self.batch.validate()?;
        if !(1..=Self::MAX_REPLICAS).contains(&self.replicas) {
            return Err(format!(
                "replicas must be in 1..={}, got {}",
                Self::MAX_REPLICAS,
                self.replicas
            ));
        }
        self.model.check_shards(self.shards)
    }
}

/// Trace-driven serving simulator for one (system, model) pair.
///
/// Holds the [`DesignRunner`] it is given (fitted cost model) and owns
/// the [`PlanCache`], so consecutive [`run`](ServingSim::run) calls — across designs,
/// traces, and replicas — reuse catalogs and compiled plans. Each
/// replica prices its steps through its own [`StepMemo`], kept for the
/// engine's life, so a replica looks each step shape up in the cache
/// once, in its own sequential order, at any thread count.
#[derive(Debug)]
pub struct ServingSim {
    runner: DesignRunner,
    config: ServeConfig,
    cache: PlanCache,
    memos: Vec<StepMemo>,
    obs: Obs,
}

/// Typed events on a replica's simulation timeline.
enum Ev {
    /// The request at this replica-local index joins the waiting queue.
    Arrival(usize),
    /// The in-flight scheduler step completes.
    StepDone,
}

/// One replica's event-loop output, merged deterministically by
/// [`ServingSim::run`].
struct ReplicaRun {
    /// The replica's drained group, its outcomes indexed by the
    /// replica-local request slot.
    core: GroupCore,
    /// Kernel events fired by this replica's timeline.
    events: u64,
    /// Peak future-event heap size on this replica's kernel.
    peak: usize,
    /// Locally recorded observations, absorbed in replica order by the
    /// parent so the merged stream is thread-schedule independent.
    obs: Option<ObsBuf>,
}

impl ServingSim {
    /// Creates a simulator for `config` on the system of `runner`,
    /// sharing its cost model and plan sets.
    ///
    /// # Panics
    ///
    /// Panics where [`ServeConfig::validate`] fails.
    #[must_use]
    pub fn new(runner: impl Into<DesignRunner>, config: ServeConfig) -> Self {
        config.validate().unwrap_or_else(|e| panic!("{e}"));
        // The serving pool already parallelizes across replicas; keep
        // the nested compiler pools sequential so worker counts do not
        // multiply (replicas × candidate orders).
        ServingSim {
            runner: runner.into().with_threads(1),
            memos: (0..config.replicas)
                .map(|_| StepMemo::new(&config.batch))
                .collect(),
            config,
            cache: PlanCache::new(),
            obs: Obs::null(),
        }
    }

    /// Attaches an observation handle: per-replica kernel dispatch
    /// spans, per-request lanes (sampled by trace index), TTFT/TPOT
    /// histograms, and plan-cache counters (lookups and signatures).
    /// Only thread-invariant quantities are recorded, so recorded output
    /// stays byte-identical at any thread count.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Cumulative plan-cache counters (across all runs so far).
    /// Memoized steps do not reach the cache, so they are not counted.
    #[must_use]
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Serves `trace` under `design` and reports request-level metrics.
    /// The plan cache and the step memos persist across calls, so a
    /// second design reuses catalogs, and the same trace again reuses
    /// every step latency.
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
        let replicas: Vec<usize> = (0..self.config.replicas).collect();
        let this = &*self;
        let runs = elk_par::try_par_map(
            this.config.threads.min(replicas.len()),
            &replicas,
            |_, &replica| this.run_replica(design, trace, replica),
        )?;

        // Deterministic merge in replica order (the same order the
        // sequential loop produced). Replica r served trace indices
        // r, r + R, r + 2R, ...
        let stride = self.config.replicas;
        let outcomes = (0..trace.len())
            .map(|i| {
                let (replica, slot) = (i % stride, i / stride);
                let outcome = runs[replica].core.outcomes[slot].expect("every request completes");
                RequestOutcome { replica, ..outcome }
            })
            .collect();
        let mut groups = Vec::with_capacity(stride);
        let mut sim_events = 0u64;
        let mut peak_q = 0usize;
        for run in runs {
            groups.extend(run.core.groups);
            sim_events += run.events;
            peak_q = peak_q.max(run.peak);
            // Replica buffers fold in replica index order — the same
            // order the sequential loop records in.
            if let Some(buf) = run.obs {
                self.obs.absorb(buf);
            }
        }
        let cache = self.cache.stats().since(stats_before);
        if self.obs.enabled() {
            // Total lookups and distinct compiled signatures; the
            // hit/miss split goes to the report.
            self.obs
                .counter("serve.cache.lookups", cache.hits + cache.misses);
            self.obs.counter(
                "serve.cache.signatures",
                (self.cache.catalogs() - catalogs_before) as u64,
            );
        }
        let fold = GroupFold::of(
            groups,
            outcomes,
            &self.config.slo,
            trace.total_output_tokens(),
        );
        fold.record(&self.obs, "serve", "replica");
        let l = fold.latency;
        Ok(ServingReport {
            design,
            replicas: self.config.replicas,
            requests: trace.len(),
            completed: fold.outcomes.len(),
            makespan: fold.makespan,
            ttft: l.ttft,
            tpot: l.tpot,
            e2e: l.e2e,
            slo: self.config.slo,
            slo_attainment: l.slo_attainment,
            goodput_rps: l.goodput_rps,
            throughput_rps: l.throughput_rps,
            tokens_per_sec: l.tokens_per_sec,
            prefill_steps: fold.prefill_steps,
            decode_steps: fold.decode_steps,
            mean_queue_depth: fold.mean_queue_depth,
            max_queue_depth: fold.max_queue_depth,
            queue_depth: fold.queue_depth,
            sim_events,
            peak_event_queue_len: peak_q,
            cache,
            outcomes: fold.outcomes,
        })
    }

    /// Runs one replica as an event source on its own simulation
    /// kernel, over the replica's round-robin share of the trace.
    ///
    /// Arrivals fire at class [`PRIO_ARRIVAL`] and step completions at
    /// [`PRIO_STEP_DONE`], so a step finishing at the same instant a
    /// request arrives observes that arrival in its scheduling decision.
    /// Scheduling decisions are deferred until every event at the
    /// current instant has fired.
    fn run_replica(
        &self,
        design: Design,
        trace: &RequestTrace,
        replica: usize,
    ) -> Result<ReplicaRun, CompileError> {
        let reqs: Vec<Request> = trace
            .requests
            .iter()
            .skip(replica)
            .step_by(self.config.replicas)
            .cloned()
            .collect();
        let mut core = GroupCore::new(1, reqs.len());
        let c = &self.config;
        let price = |w| {
            self.cache
                .step_latency(&self.runner, &c.model, c.shards, design, w, &c.sim)
        };

        // A replica-local recorder: worker threads never write to the
        // shared sink directly, so the merged stream only depends on
        // the (deterministic) absorb order in `run`.
        let rec = self.obs.enabled().then(|| Arc::new(MemRecorder::new()));
        let obs = rec
            .clone()
            .map_or_else(Obs::null, |r| Obs::new(r, self.obs.sample()));
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.observe(
            obs,
            &format!("serve/replica{replica}"),
            &[(PRIO_ARRIVAL, "arrival"), (PRIO_STEP_DONE, "step_done")],
        );
        q.feed(
            reqs.iter()
                .enumerate()
                .map(|(i, req)| (req.arrival, PRIO_ARRIVAL, Ev::Arrival(i))),
        );

        while let Some(fired) = q.pop() {
            let now: Seconds = q.now();
            match fired.event {
                Ev::Arrival(i) => core.enqueue(0, i, now),
                Ev::StepDone => core.finish_step(0, now, &reqs, |_, _| {}),
            }
            let done = |_| (PRIO_STEP_DONE, Ev::StepDone);
            core.dispatch(&mut q, &c.batch, &reqs, done, |_, _, wl| {
                self.memos[replica].price(design, wl, |e| e, &price)
            })?;
        }
        Ok(ReplicaRun {
            core,
            events: q.events_processed(),
            peak: q.peak_len(),
            obs: rec.map(|r| r.take_buf()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LengthModel, RateShape, TraceConfig};
    use elk_hw::presets;
    use elk_model::{zoo, Phase, SeqBuckets, Workload};

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
            rate: RateShape::Constant { rate_rps: 200.0 },
            prompt_len: LengthModel::Uniform { lo: 200, hi: 700 },
            output_len: LengthModel::Uniform { lo: 2, hi: 12 },
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
            let a = seq.run(design, &trace).unwrap();
            let b = par.run(design, &trace).unwrap();
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
    fn memo_hits_skip_the_cache_across_runs() {
        let mut sim = ServingSim::new(presets::ipu_pod4(), tiny_config());
        let trace = tiny_trace(12);
        let first = sim.run(Design::ElkFull, &trace).unwrap();
        let lookups = first.cache.hits + first.cache.misses;
        assert!(first.cache.misses > 0);
        assert!(
            lookups < first.prefill_steps + first.decode_steps,
            "repeated shapes must hit the memo in-run: {lookups} lookups"
        );
        // A second design misses on its own plans; the first design's
        // repeat run prices every step from the memo.
        let other = sim.run(Design::Basic, &trace).unwrap();
        assert!(other.cache.misses > 0);
        let second = sim.run(Design::ElkFull, &trace).unwrap();
        let blank = crate::cache::CacheStats::default();
        assert_eq!(second.cache, blank, "a repeat run makes no lookups");
        assert_eq!(
            second,
            ServingReport {
                cache: blank,
                ..first
            }
        );
    }

    /// Asserts that every step `memo` priced has a table slot, and
    /// counts the shapes that ran as two half batches: their latency is
    /// exactly the sum of their memoized halves.
    pub(crate) fn split_steps(memo: &StepMemo, cfg: &BatchConfig) -> usize {
        assert_eq!(memo.spilled(), 0, "a priced step has no table slot");
        let mut splits = 0;
        for design in Design::ALL {
            for phase in [Phase::Decode, Phase::Prefill] {
                for batch in 2..=cfg.max_batch.next_power_of_two() {
                    for seq_len in cfg.seq_buckets.ladder() {
                        let at = |batch| {
                            memo.get(
                                design,
                                Workload {
                                    batch,
                                    seq_len,
                                    phase,
                                },
                            )
                        };
                        let lo = batch / 2;
                        if let (Some(t), Some(a), Some(b)) = (at(batch), at(lo), at(batch - lo)) {
                            splits += usize::from(t == a + b);
                        }
                    }
                }
            }
        }
        splits
    }

    /// Long prompts at once: whole prefill batches exceed SRAM and run
    /// as half batches.
    fn long_prompts(requests: usize) -> RequestTrace {
        TraceConfig {
            seed: 5,
            requests,
            rate: RateShape::Constant { rate_rps: 5000.0 },
            prompt_len: LengthModel::Uniform { lo: 1100, hi: 2000 },
            output_len: LengthModel::Uniform { lo: 2, hi: 4 },
        }
        .generate()
    }

    #[test]
    fn every_priced_step_has_a_table_slot() {
        for bucket_batch in [true, false] {
            let mut config = tiny_config().with_replicas(2);
            config.batch.bucket_batch = bucket_batch;
            config.batch.max_prefill_tokens = 1 << 16;
            let mut sim = ServingSim::new(presets::ipu_pod4(), config);
            let trace = long_prompts(20);
            for design in [Design::Basic, Design::ElkFull] {
                assert_eq!(sim.run(design, &trace).unwrap().completed, 20);
            }
            let splits: usize = sim
                .memos
                .iter()
                .map(|m| split_steps(m, &sim.config.batch))
                .sum();
            assert!(splits > 0, "bucket_batch {bucket_batch}: no step split");
        }
    }
}
