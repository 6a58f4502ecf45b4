//! Cluster-level serving: routed request replay over `dp` replica
//! groups, each running a `(tp, pp)` pipeline plan.
//!
//! Where [`elk_serve::ServingSim`] pre-partitions its trace round-robin
//! so replicas can simulate independently, the cluster engine routes
//! **dynamically**: all groups share one [`elk_sim_core`] event queue,
//! so arrivals and step completions interleave in global time order and
//! a [`Router`] picks each arrival's group from the outstanding counts
//! observable *at that instant* — never from steps that only finish
//! later. This makes load-aware policies (least-outstanding,
//! power-of-two choices) meaningful, at the cost of a sequential event
//! loop — worker threads still accelerate the compiler behind the
//! shared single-flight [`PlanCache`], and because cached step
//! latencies are deterministic the emitted report is byte-identical at
//! any thread count.
//!
//! A group's step latency is the pipeline composition of its stages:
//! each stage's sub-graph is compiled and simulated through the exact
//! `DesignRunner` path (cached per stage *shape*, so equal-sized
//! interior stages compile once), plus the stage-boundary transfer
//! priced on the [`CollectiveModel`].

use std::sync::Arc;

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_model::TransformerConfig;
use elk_obs::Obs;
use elk_serve::{
    BatchConfig, GroupCore, GroupFold, LatencyStats, PlanCache, RequestOutcome, RequestTrace,
    Router, RouterPolicy, SloConfig,
};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::Seconds;

use crate::plan::ParallelismPlan;
use crate::pricing::StepPricer;
use crate::ClusterError;

/// Everything cluster serving is parameterized by (except the design
/// and router policy, which are per-run so runs share one engine and
/// cache).
#[derive(Debug, Clone)]
pub struct ClusterServeConfig {
    /// Model to serve (dense transformers only, like [`elk_serve`]).
    pub model: TransformerConfig,
    /// The `(tp, pp, dp)` layout; `dp` is the replica-group count.
    pub plan: ParallelismPlan,
    /// Continuous-batching knobs, applied per group.
    pub batch: BatchConfig,
    /// Latency SLO for goodput accounting.
    pub slo: SloConfig,
    /// Chip-simulator options used when a plan is compiled.
    pub sim: SimOptions,
    /// Compile worker threads (`0` = all cores): the plan compiler's
    /// pool on a cache miss; the event loop itself is sequential and
    /// outputs are byte-identical at any setting.
    pub threads: usize,
}

impl ClusterServeConfig {
    /// A config serving `model` under `plan` with default batching, SLO,
    /// and simulator knobs.
    #[must_use]
    pub fn new(model: TransformerConfig, plan: ParallelismPlan) -> Self {
        ClusterServeConfig {
            model,
            plan,
            batch: BatchConfig::default(),
            slo: SloConfig::default(),
            sim: SimOptions::default(),
            threads: 1,
        }
    }
}

/// Aggregated result of one routed cluster serving run.
///
/// Unlike [`elk_serve::ServingReport`] this report carries no cache
/// hit/miss split. Like every report, it is byte-identical across
/// `--threads` settings.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterServingReport {
    /// The design that served the trace.
    pub design: Design,
    /// The router policy requests were dispatched with.
    pub policy: RouterPolicy,
    /// The `(tp, pp, dp)` layout.
    pub plan: ParallelismPlan,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion (the loop drains every queue).
    pub completed: usize,
    /// Trace start to the last token of the last request.
    pub makespan: Seconds,
    /// Time-to-first-token summary.
    pub ttft: LatencyStats,
    /// Time-per-output-token summary (multi-token requests only).
    pub tpot: LatencyStats,
    /// End-to-end latency summary.
    pub e2e: LatencyStats,
    /// The SLO the run was scored against.
    pub slo: SloConfig,
    /// Fraction of completed requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second of makespan.
    pub goodput_rps: f64,
    /// All completions per second of makespan.
    pub throughput_rps: f64,
    /// Generated tokens per second of makespan (all groups).
    pub tokens_per_sec: f64,
    /// Prefill iterations across all groups.
    pub prefill_steps: u64,
    /// Decode iterations across all groups.
    pub decode_steps: u64,
    /// Requests dispatched to each replica group, in group order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean waiting-queue depth: total depth×time area
    /// over total simulated group-time (same contract as
    /// [`elk_serve::ServingReport`]).
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth transitions, all groups interleaved in
    /// time order — the same timestamped shape `elk-serve` reports.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// Simulation-kernel events fired (arrivals + step completions).
    pub sim_events: u64,
    /// Largest future-event heap the shared kernel held at once — the
    /// memory-pressure proxy matching `sim_events`' throughput one.
    pub peak_event_queue_len: usize,
    /// Per-request timelines, in trace order (`replica` is the group).
    pub outcomes: Vec<RequestOutcome>,
}

/// Typed events on the cluster's shared simulation timeline.
enum Ev {
    /// The request at this trace index reaches the front-end router.
    Arrival(usize),
    /// This group's in-flight scheduler step completes.
    StepDone {
        /// Index of the group whose step finished.
        gid: usize,
    },
}

/// Trace-driven cluster serving simulator for one (pod, model, plan).
///
/// Prices steps through the group-level `DesignRunner` it is given
/// (fitted cost model) and owns the shared single-flight `PlanCache`,
/// so consecutive runs — across designs and router policies — reuse
/// stage catalogs and compiled plans.
#[derive(Debug)]
pub struct ClusterServingSim {
    config: ClusterServeConfig,
    pricer: StepPricer,
    obs: Obs,
}

impl ClusterServingSim {
    /// Creates a simulator for `config` on the pod of `runner`, sharing
    /// its cost model and plan sets.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the plan does not fit the pod or
    /// the model. Only the structural constraints apply — step batches
    /// are dynamic, and a `dp` beyond a short trace's request count
    /// merely leaves the extra groups idle.
    pub fn new(
        runner: impl Into<DesignRunner>,
        config: ClusterServeConfig,
    ) -> Result<Self, ClusterError> {
        let runner = runner.into().with_threads(config.threads);
        config.batch.validate().map_err(ClusterError::Invalid)?;
        config
            .plan
            .validate_structure(runner.system(), &config.model)
            .map_err(ClusterError::Invalid)?;
        let pricer = StepPricer::new(
            &runner,
            config.model.clone(),
            config.plan,
            config.sim,
            &config.batch,
            Arc::new(PlanCache::new()),
        );
        Ok(ClusterServingSim {
            pricer,
            config,
            obs: Obs::null(),
        })
    }

    /// Attaches an observation handle: kernel dispatch spans on the
    /// shared timeline, per-request lanes tagged with their group, and
    /// latency histograms. The event loop is sequential, so recording
    /// goes straight to the shared sink and stays deterministic.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterServeConfig {
        &self.config
    }

    /// Cumulative plan-cache counters (across all runs so far). Not part
    /// of any emitted report.
    #[must_use]
    pub fn cache_stats(&self) -> elk_serve::CacheStats {
        self.pricer.cache_stats()
    }

    /// Serves `trace` under `design`, dispatching with `policy`, and
    /// reports request-level metrics. The plan cache persists across
    /// calls, so a second design or policy reuses compiled stages.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    pub fn run(
        &mut self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
    ) -> Result<ClusterServingReport, ClusterError> {
        let dp = self.config.plan.dp as usize;
        let mut router = Router::new(policy, dp);
        let mut core = GroupCore::new(dp, trace.len());
        let reqs = &trace.requests;

        // One shared kernel timeline: arrivals and every group's step
        // completions interleave in global `(time, priority, seq)`
        // order, so the router observes exactly the state a front-end
        // would see at the arrival instant.
        let stats_before = self.pricer.cache_stats();
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.observe(
            self.obs.clone(),
            "cluster/kernel",
            &[(PRIO_ARRIVAL, "arrival"), (PRIO_STEP_DONE, "step_done")],
        );
        q.feed(
            reqs.iter()
                .enumerate()
                .map(|(idx, req)| (req.arrival, PRIO_ARRIVAL, Ev::Arrival(idx))),
        );

        while let Some(fired) = q.pop() {
            let now = q.now();
            match fired.event {
                Ev::Arrival(idx) => {
                    let pick = router.route_by(|g| core.groups[g].outstanding());
                    core.enqueue(pick, idx, now);
                }
                Ev::StepDone { gid } => core.finish_step(gid, now, reqs, |_, _| {}),
            }
            let done = |gid| (PRIO_STEP_DONE, Ev::StepDone { gid });
            core.dispatch(&mut q, &self.config.batch, reqs, done, |_, _, wl| {
                self.pricer.split_step(design, wl)
            })?;
        }

        if self.obs.enabled() {
            let d = self.pricer.cache_stats().since(stats_before);
            self.obs.counter("cluster.cache.lookups", d.hits + d.misses);
        }
        let fold = core.fold(&self.config.slo, trace.total_output_tokens());
        Ok(ClusterServingReport::assemble(
            design,
            policy,
            &self.config,
            trace.len(),
            fold,
            (q.events_processed(), q.peak_len()),
            &self.obs,
        ))
    }
}

impl ClusterServingReport {
    /// Builds the report from a folded run and records its request
    /// lanes. Shared by the plain cluster engine and the tenancy engine
    /// — the latter folds only the *served* requests and tokens
    /// (rejected requests generate nothing).
    pub(crate) fn assemble(
        design: Design,
        policy: RouterPolicy,
        config: &ClusterServeConfig,
        requests: usize,
        fold: GroupFold,
        (sim_events, peak_event_queue_len): (u64, usize),
        obs: &Obs,
    ) -> Self {
        fold.record(obs, "cluster", "group");
        let l = fold.latency;
        ClusterServingReport {
            design,
            policy,
            plan: config.plan,
            requests,
            completed: fold.outcomes.len(),
            makespan: fold.makespan,
            ttft: l.ttft,
            tpot: l.tpot,
            e2e: l.e2e,
            slo: config.slo,
            slo_attainment: l.slo_attainment,
            goodput_rps: l.goodput_rps,
            throughput_rps: l.throughput_rps,
            tokens_per_sec: l.tokens_per_sec,
            prefill_steps: fold.prefill_steps,
            decode_steps: fold.decode_steps,
            per_group_requests: fold.per_group_requests,
            mean_queue_depth: fold.mean_queue_depth,
            max_queue_depth: fold.max_queue_depth,
            queue_depth: fold.queue_depth,
            sim_events,
            peak_event_queue_len,
            outcomes: fold.outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{LengthModel, RateShape, TraceConfig};

    fn tiny_config(plan: ParallelismPlan) -> ClusterServeConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        ClusterServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_prefill_tokens: 2048,
                seq_buckets: SeqBuckets::new(256, 2048),
                bucket_batch: true,
            },
            ..ClusterServeConfig::new(model, plan)
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
    fn recorded_timeline_is_byte_identical_across_thread_counts() {
        use elk_obs::export::{chrome_trace, metrics};
        use elk_obs::MemRecorder;
        use std::sync::Arc;

        let trace = tiny_trace(14);
        let run = |threads: usize| {
            let mut sim = ClusterServingSim::new(
                presets::ipu_pod4(),
                ClusterServeConfig {
                    threads,
                    ..tiny_config(ParallelismPlan::new(2, 1, 2))
                },
            )
            .unwrap();
            let rec = Arc::new(MemRecorder::new());
            sim.set_obs(Obs::new(rec.clone(), 64));
            sim.run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
                .unwrap();
            let buf = rec.take_buf();
            (
                serde_json::to_string(&chrome_trace(&buf)).unwrap(),
                serde_json::to_string(&metrics(&buf)).unwrap(),
            )
        };
        let (t1_trace, t1_metrics) = run(1);
        let (t4_trace, t4_metrics) = run(4);
        assert_eq!(t1_trace, t4_trace, "timeline must not depend on threads");
        assert_eq!(t1_metrics, t4_metrics, "metrics must not depend on threads");
        assert!(t1_trace.contains("req/"), "per-request lanes recorded");
        assert!(t1_trace.contains("cluster/kernel"), "kernel track recorded");
        assert!(t1_metrics.contains("cluster.cache.lookups"));
        assert!(t1_metrics.contains("cluster.ttft"));
    }

    #[test]
    fn every_request_completes_under_every_policy() {
        let trace = tiny_trace(14);
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(2, 1, 2)),
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let r = sim.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(r.completed, 14, "{policy}");
            assert_eq!(r.per_group_requests.iter().sum::<usize>(), 14);
            for o in &r.outcomes {
                assert!(o.first_token > o.arrival, "{policy}");
                assert!(o.completion >= o.first_token);
                assert!(o.replica < 2);
            }
        }
    }

    #[test]
    fn least_outstanding_steers_around_a_busy_group() {
        // One giant request arrives first and monopolizes whichever
        // group receives it; the rest trickle in afterwards. A blind
        // round-robin keeps alternating onto the busy group; the
        // load-aware policy routes everything else to the idle one.
        let mut requests = vec![elk_serve::Request {
            id: 0,
            arrival: Seconds::ZERO,
            prompt_len: 512,
            output_len: 4000,
        }];
        for i in 1..9u64 {
            requests.push(elk_serve::Request {
                id: i,
                arrival: Seconds::from_millis(10.0 * i as f64),
                prompt_len: 256,
                output_len: 2,
            });
        }
        let trace = RequestTrace::from_requests(requests);
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2)),
        )
        .unwrap();
        let rr = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        let lo = sim
            .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
            .unwrap();
        assert_eq!(rr.completed, lo.completed);
        let busy = lo.outcomes[0].replica;
        let sent_to_busy = |r: &ClusterServingReport, g: usize| {
            r.outcomes[1..].iter().filter(|o| o.replica == g).count()
        };
        assert!(
            sent_to_busy(&lo, busy) < sent_to_busy(&rr, rr.outcomes[0].replica),
            "least-outstanding must send fewer trailing requests to the busy group \
             ({} vs {})",
            sent_to_busy(&lo, busy),
            sent_to_busy(&rr, rr.outcomes[0].replica)
        );
        assert!(lo.e2e.mean <= rr.e2e.mean, "steering must pay off here");
    }

    #[test]
    fn pipeline_plan_serves_and_reuses_the_stage_cache() {
        let trace = tiny_trace(6);
        let mut sim = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 2, 2)),
        )
        .unwrap();
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        assert_eq!(r.completed, 6);
        let after_first = sim.cache_stats();
        assert!(after_first.misses > 0);
        // Same design again: everything cached.
        let r2 = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        assert_eq!(sim.cache_stats().misses, after_first.misses);
        assert_eq!(r.outcomes, r2.outcomes, "replay is deterministic");
    }

    #[test]
    fn thread_count_does_not_change_outcomes() {
        let trace = tiny_trace(10);
        let plan = ParallelismPlan::new(2, 2, 1);
        let mut seq = ClusterServingSim::new(presets::ipu_pod4(), tiny_config(plan)).unwrap();
        let mut par = ClusterServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                threads: 4,
                ..tiny_config(plan)
            },
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let a = seq.run(Design::ElkFull, policy, &trace).unwrap();
            let b = par.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{policy}: cluster serving must be byte-identical across thread counts"
            );
        }
    }

    #[test]
    fn oversized_plan_is_rejected_up_front() {
        let e = ClusterServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(4, 1, 2)),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(e.to_string().contains("chips"), "{e}");
    }

    #[test]
    fn every_priced_step_has_a_table_slot() {
        let trace = crate::pricing::tests::long_prompts(20);
        let mut config = tiny_config(ParallelismPlan::new(1, 1, 2));
        config.batch.max_prefill_tokens = 1 << 16;
        for bucket_batch in [true, false] {
            config.batch.bucket_batch = bucket_batch;
            let mut sim = ClusterServingSim::new(presets::ipu_pod4(), config.clone()).unwrap();
            let r = sim.run(Design::ElkFull, RouterPolicy::RoundRobin, &trace);
            assert_eq!(r.unwrap().completed, 20);
            let splits = sim.pricer.split_steps(&config.batch);
            assert!(splits > 0, "bucket_batch {bucket_batch}: no step split");
        }
    }
}
