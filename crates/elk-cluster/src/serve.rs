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
//! loop — worker threads still accelerate the compile side through the
//! shared single-flight [`PlanCache`], and because cached step
//! latencies are deterministic the emitted report is byte-identical at
//! any thread count.
//!
//! A group's step latency is the pipeline composition of its stages:
//! each stage's sub-graph is compiled and simulated through the exact
//! `DesignRunner` path (cached per stage *shape*, so equal-sized
//! interior stages compile once), plus the stage-boundary transfer
//! priced on the [`CollectiveModel`].

use serde::Serialize;

use elk_baselines::Design;
use elk_hw::SystemConfig;
use elk_model::{Phase, TransformerConfig};
use elk_obs::Obs;
use elk_serve::{
    next_step, BatchConfig, LatencyStats, RequestOutcome, RequestTrace, Router, RouterPolicy,
    SloConfig, StepPlan,
};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, QueueStat, PRIO_ARRIVAL, PRIO_STEP_DONE};
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
    /// Compile worker threads (`0` = all cores): accelerates plan-cache
    /// warming only; the event loop itself is sequential and outputs
    /// are byte-identical at any setting.
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
/// hit/miss split — the split legitimately shifts with the compile
/// worker count, and cluster reports are byte-identical across
/// `--threads` settings by contract.
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

/// What a group's in-flight step will do when its completion fires.
/// Crate-visible so the tenancy engine reuses the same step machinery.
pub(crate) enum PendingStep {
    /// Prefill of these trace indices.
    Prefill {
        /// Trace indices admitted into the step.
        batch: Vec<usize>,
    },
    /// One decode iteration over the group's active set.
    Decode,
}

/// One replica group's live state during the event loop.
pub(crate) struct Group {
    /// Waiting queue, trace indices in dispatch order (FIFO).
    pub(crate) waiting: Vec<usize>,
    /// Active (decoding) requests.
    pub(crate) active: Vec<InFlight>,
    /// The step currently running on the group's chips, if any.
    pub(crate) pending: Option<PendingStep>,
    pub(crate) prefill_steps: u64,
    pub(crate) decode_steps: u64,
    /// Waiting-queue depth trace (transitions + time-weighted area).
    pub(crate) queue: QueueStat,
    pub(crate) served: usize,
    /// Completion time of the group's last step.
    pub(crate) end: Seconds,
}

pub(crate) struct InFlight {
    pub(crate) idx: usize,
    pub(crate) generated: u64,
}

impl Group {
    pub(crate) fn new() -> Self {
        Group {
            waiting: Vec::new(),
            active: Vec::new(),
            pending: None,
            prefill_steps: 0,
            decode_steps: 0,
            queue: QueueStat::new(),
            served: 0,
            end: Seconds::ZERO,
        }
    }

    /// Queued + in-flight requests, as a front-end router observes them:
    /// requests inside an unfinished prefill step still count.
    pub(crate) fn outstanding(&self) -> usize {
        let in_step = match &self.pending {
            Some(PendingStep::Prefill { batch }) => batch.len(),
            _ => 0,
        };
        self.waiting.len() + self.active.len() + in_step
    }
}

/// Trace-driven cluster serving simulator for one (pod, model, plan).
///
/// Owns the group-level `DesignRunner` (fitted cost model) and the
/// shared single-flight `PlanCache`, so consecutive runs — across
/// designs and router policies — reuse stage catalogs and compiled
/// plans.
#[derive(Debug)]
pub struct ClusterServingSim {
    config: ClusterServeConfig,
    pricer: StepPricer,
    obs: Obs,
}

impl ClusterServingSim {
    /// Creates a simulator for `config` on the pod `system`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the plan does not fit the pod or
    /// the model. Only the structural constraints apply — step batches
    /// are dynamic, and a `dp` beyond a short trace's request count
    /// merely leaves the extra groups idle.
    pub fn new(system: SystemConfig, config: ClusterServeConfig) -> Result<Self, ClusterError> {
        config.batch.validate();
        config
            .plan
            .validate_structure(&system, &config.model)
            .map_err(ClusterError::Invalid)?;
        let pricer = StepPricer::new(
            &system,
            config.model.clone(),
            config.plan,
            config.sim,
            config.threads,
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
    /// of any emitted report — the hit/miss split shifts with the
    /// compile worker count.
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
        let mut groups: Vec<Group> = (0..dp).map(|_| Group::new()).collect();
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
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
                    let pick = router.route_by(|g| groups[g].outstanding());
                    let group = &mut groups[pick];
                    group.waiting.push(idx);
                    group.served += 1;
                    group.queue.record(now, group.waiting.len());
                }
                Ev::StepDone { gid } => {
                    let group = &mut groups[gid];
                    match group.pending.take().expect("StepDone implies a step") {
                        PendingStep::Prefill { batch } => {
                            group.prefill_steps += 1;
                            for idx in batch {
                                outcomes[idx] = Some(RequestOutcome {
                                    id: reqs[idx].id,
                                    replica: gid,
                                    arrival: reqs[idx].arrival,
                                    first_token: now,
                                    completion: now,
                                    output_len: reqs[idx].output_len,
                                });
                                if reqs[idx].output_len > 1 {
                                    group.active.push(InFlight { idx, generated: 1 });
                                }
                            }
                        }
                        PendingStep::Decode => {
                            group.decode_steps += 1;
                            group.active.retain_mut(|a| {
                                a.generated += 1;
                                let outcome = outcomes[a.idx].as_mut().expect("prefilled");
                                outcome.completion = now;
                                a.generated < reqs[a.idx].output_len
                            });
                        }
                    }
                    group.end = now;
                }
            }
            // Defer dispatch until every event at this instant has
            // fired, then scan groups in index order (deterministic).
            if q.peek_time() == Some(now) {
                continue;
            }
            for (gid, group) in groups.iter_mut().enumerate() {
                if group.pending.is_some() {
                    continue;
                }
                let prompts = group.waiting.iter().map(|&i| reqs[i].prompt_len);
                let Some(step) = next_step(&self.config.batch, prompts, group.active.len()) else {
                    continue;
                };
                let latency = match step {
                    StepPlan::Prefill { admit } => {
                        let batch: Vec<usize> = group.waiting.drain(..admit).collect();
                        group.queue.record(now, group.waiting.len());
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
                        let latency = self
                            .pricer
                            .split_step(design, wl)
                            .map_err(|(stage, source)| ClusterError::Compile { stage, source })?;
                        group.pending = Some(PendingStep::Prefill { batch });
                        latency
                    }
                    StepPlan::Decode => {
                        let deepest = group
                            .active
                            .iter()
                            .map(|a| reqs[a.idx].prompt_len + a.generated)
                            .max()
                            .expect("decode requires >= 1 active");
                        let wl = self.config.batch.step_workload(
                            Phase::Decode,
                            group.active.len() as u64,
                            deepest,
                        );
                        let latency = self
                            .pricer
                            .split_step(design, wl)
                            .map_err(|(stage, source)| ClusterError::Compile { stage, source })?;
                        group.pending = Some(PendingStep::Decode);
                        latency
                    }
                };
                q.schedule_after(latency, PRIO_STEP_DONE, Ev::StepDone { gid });
            }
        }

        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("the drain completes every request"))
            .collect();
        if self.obs.enabled() {
            let d = self.pricer.cache_stats().since(stats_before);
            self.obs.counter("cluster.cache.lookups", d.hits + d.misses);
        }
        Ok(summarize_groups(
            design,
            policy,
            self.config.plan,
            self.config.slo,
            trace.len(),
            trace.total_output_tokens(),
            groups,
            outcomes,
            (q.events_processed(), q.peak_len()),
            &self.obs,
        ))
    }
}

/// Folds per-request outcomes into the aggregate report. Shared by the
/// plain cluster engine and the tenancy engine — the latter passes the
/// *served* token total (rejected requests generate nothing) and an
/// outcome list that may be shorter than the trace.
#[allow(clippy::too_many_arguments)]
pub(crate) fn summarize_groups(
    design: Design,
    policy: RouterPolicy,
    plan: ParallelismPlan,
    slo: SloConfig,
    requests: usize,
    served_tokens: u64,
    groups: Vec<Group>,
    outcomes: Vec<RequestOutcome>,
    (sim_events, peak_event_queue_len): (u64, usize),
    obs: &Obs,
) -> ClusterServingReport {
    if obs.enabled() {
        // Lanes and histograms derive from the final outcome list
        // (trace order), so they are deterministic by construction.
        for (i, o) in outcomes.iter().enumerate() {
            obs.histogram("cluster.ttft", o.ttft());
            if let Some(t) = o.tpot() {
                obs.histogram("cluster.tpot", t);
            }
            obs.histogram("cluster.e2e", o.e2e());
            if !obs.sampled(i) {
                continue;
            }
            let track = format!("req/{}", o.id);
            let args = [("group", o.replica.to_string())];
            obs.span(
                &track,
                "prefill",
                o.arrival,
                o.first_token - o.arrival,
                &args,
            );
            if o.completion > o.first_token {
                obs.span(
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
    let met = outcomes.iter().filter(|o| o.meets(&slo)).count();
    let makespan = groups
        .iter()
        .map(|g| g.end)
        .fold(Seconds::ZERO, Seconds::max);
    let span = makespan.as_secs();
    let per_sec = |x: f64| if span > 0.0 { x / span } else { 0.0 };
    // Time-weighted queue mean: each group's depth integrated over
    // its own timeline, pooled over total simulated group-time.
    let depth_area: f64 = groups.iter().map(|g| g.queue.area_until(g.end)).sum();
    let sim_time: f64 = groups.iter().map(|g| g.end.as_secs()).sum();
    let max_queue_depth = groups
        .iter()
        .map(|g| g.queue.max_depth())
        .max()
        .unwrap_or(0);
    let prefill_steps = groups.iter().map(|g| g.prefill_steps).sum();
    let decode_steps = groups.iter().map(|g| g.decode_steps).sum();
    let per_group_requests = groups.iter().map(|g| g.served).collect();
    let mut queue_depth: Vec<(Seconds, usize)> = groups
        .into_iter()
        .flat_map(|g| g.queue.into_samples())
        .collect();
    queue_depth.sort_by_key(|&(t, _)| t);
    ClusterServingReport {
        design,
        policy,
        plan,
        requests,
        completed: outcomes.len(),
        makespan,
        ttft: LatencyStats::of(&ttft),
        tpot: LatencyStats::of(&tpot),
        e2e: LatencyStats::of(&e2e),
        slo,
        slo_attainment: if outcomes.is_empty() {
            0.0
        } else {
            met as f64 / outcomes.len() as f64
        },
        goodput_rps: per_sec(met as f64),
        throughput_rps: per_sec(outcomes.len() as f64),
        tokens_per_sec: per_sec(served_tokens as f64),
        prefill_steps,
        decode_steps,
        per_group_requests,
        mean_queue_depth: if sim_time > 0.0 {
            depth_area / sim_time
        } else {
            0.0
        },
        max_queue_depth,
        queue_depth,
        sim_events,
        peak_event_queue_len,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{ArrivalProcess, LengthDist, TraceConfig};

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
            arrivals: ArrivalProcess::Poisson { rate_rps: 200.0 },
            prompt_len: LengthDist::Uniform { lo: 200, hi: 700 },
            output_len: LengthDist::Uniform { lo: 2, hi: 12 },
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
}
