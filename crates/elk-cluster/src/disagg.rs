//! Disaggregated prefill/decode serving: two chip pools on one
//! deterministic timeline.
//!
//! Where [`ClusterServingSim`](crate::ClusterServingSim) colocates
//! prefill and decode on every replica group (a group cannot decode
//! while a prefill step occupies its pipeline), the disaggregated
//! engine splits the pod into a **prefill pool** and a **decode pool**,
//! each with its own [`ParallelismPlan`] and dp groups:
//!
//! * arrivals are routed over the prefill groups by a front-tier
//!   [`Router`];
//! * a completed prompt's KV cache is handed off to a decode group
//!   picked by a back-tier router, paying the point-to-point transfer
//!   `CollectiveModel::p2p(layers × kv_heads × head_dim × prompt_len ×
//!   dtype)` on the pod's interconnect;
//! * decode groups run pure token-generation steps, so a mega-prompt
//!   prefill never stalls another request's decode;
//! * **chunked prefill** (`chunk_tokens > 0`) caps the prompt tokens
//!   one prefill step may process, bounding step granularity so
//!   finished prompts stream to the decode pool at chunk cadence
//!   instead of draining only when a giant mixed step retires.
//!
//! The two pools price steps through one shared single-flight
//! [`PlanCache`](elk_serve::PlanCache) — the cache keys carry the tp
//! degree and the workload phase, exactly the split the pools need.
//!
//! ## The degenerate config is the colocated engine
//!
//! With `shared_chips` set, both pools are mapped onto the *same*
//! groups of one pod: prefill group `i` and decode group `i` time-share
//! one pipeline, the KV handoff is free (the cache already sits in the
//! group's memory) and stays on group `i`. With chunking disabled and
//! identical pool plans this engine reproduces
//! [`ClusterServingSim`](crate::ClusterServingSim) **bit-for-bit** —
//! same outcomes, same percentiles, same step counts — which is pinned
//! by a differential test. The disaggregation machinery is therefore a
//! strict generalization of the colocated engine, not a second engine
//! that can drift.

use std::sync::Arc;

use serde::Serialize;

use elk_baselines::Design;
use elk_hw::{CollectiveModel, SystemConfig};
use elk_model::{DType, Phase, TransformerConfig};
use elk_obs::Obs;
use elk_serve::{
    decode_workload, next_step, queue_depth_fold, record_latency_histograms, BatchConfig, InFlight,
    LatencyFold, LatencyStats, PlanCache, RequestOutcome, RequestTrace, Router, RouterPolicy,
    SloConfig, StepPlan,
};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, QueueStat, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::{Bytes, Seconds};

use crate::plan::ParallelismPlan;
use crate::pricing::StepPricer;
use crate::ClusterError;

/// KV handoffs settle after the step completions of the same instant,
/// so a prefill that finishes at `t` has published its outcome before
/// the transferred request joins a decode group at the same `t`.
const PRIO_HANDOFF: u8 = 2;

/// Everything disaggregated serving is parameterized by (except the
/// design and router policy, which are per-run so runs share the
/// engine and its plan cache).
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Model to serve (dense transformers only, like [`elk_serve`]).
    pub model: TransformerConfig,
    /// The prefill pool's `(tp, pp, dp)` layout.
    pub prefill: ParallelismPlan,
    /// The decode pool's `(tp, pp, dp)` layout.
    pub decode: ParallelismPlan,
    /// Continuous-batching knobs, applied per group in both pools.
    pub batch: BatchConfig,
    /// Latency SLO for goodput accounting.
    pub slo: SloConfig,
    /// Chip-simulator options used when a plan is compiled.
    pub sim: SimOptions,
    /// Compile worker threads (`0` = all cores): accelerates plan-cache
    /// warming only; reports are byte-identical at any setting.
    pub threads: usize,
    /// Prompt-token cap per prefill step; `0` disables chunking and
    /// reproduces the colocated admission rule exactly.
    pub chunk_tokens: u64,
    /// Map both pools onto the *same* dp groups of one pod: prefill
    /// group `i` and decode group `i` time-share one pipeline and the
    /// KV handoff is free and stays on group `i`. Requires identical
    /// pool plans — this is the degenerate config under which the
    /// engine equals [`ClusterServingSim`](crate::ClusterServingSim).
    pub shared_chips: bool,
}

impl DisaggConfig {
    /// A config serving `model` with the given pool layouts and default
    /// batching, SLO, and simulator knobs (chunking off, pools on
    /// disjoint chips).
    #[must_use]
    pub fn new(
        model: TransformerConfig,
        prefill: ParallelismPlan,
        decode: ParallelismPlan,
    ) -> Self {
        DisaggConfig {
            model,
            prefill,
            decode,
            batch: BatchConfig::default(),
            slo: SloConfig::default(),
            sim: SimOptions::default(),
            threads: 1,
            chunk_tokens: 0,
            shared_chips: false,
        }
    }
}

/// The KV cache a finished prompt ships to its decode group:
/// `layers × kv_heads × head_dim × prompt_len` elements of the KV
/// dtype (f16), per the paper's cache layout.
#[must_use]
pub fn kv_handoff_bytes(model: &TransformerConfig, prompt_len: u64) -> Bytes {
    DType::F16.bytes_for(u64::from(model.layers) * model.kv_heads * model.head_dim * prompt_len)
}

/// One completed prompt's pool-to-pool transfer, in handoff-completion
/// order (which is time order — the conservation tests assert it).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HandoffRecord {
    /// Request id.
    pub id: u64,
    /// Prefill group that produced the KV cache.
    pub from: usize,
    /// Decode group the cache landed on.
    pub to: usize,
    /// When the prompt's last prefill chunk retired.
    pub prefill_done: Seconds,
    /// When the KV transfer completed (`prefill_done` + p2p latency).
    pub handoff_done: Seconds,
    /// Transferred volume (zero on shared chips).
    pub bytes: Bytes,
}

/// Aggregated result of one disaggregated serving run.
///
/// Field conventions follow
/// [`ClusterServingReport`](crate::ClusterServingReport): no wall-clock
/// fields, no cache hit/miss split, byte-identical across `--threads`
/// settings.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DisaggServingReport {
    /// The design that served the trace.
    pub design: Design,
    /// The router policy used at both tiers.
    pub policy: RouterPolicy,
    /// The prefill pool's layout.
    pub prefill_plan: ParallelismPlan,
    /// The decode pool's layout.
    pub decode_plan: ParallelismPlan,
    /// `true` when both pools time-share one set of groups.
    pub shared_chips: bool,
    /// Prompt-token cap per prefill step (`0` = chunking off).
    pub chunk_tokens: u64,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests that ran to completion (the loop drains every queue).
    pub completed: usize,
    /// Trace start to the last step retired on either pool.
    pub makespan: Seconds,
    /// Time-to-first-token summary (the first token is released when
    /// the KV handoff lands on the decode pool).
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
    /// Prefill iterations across the prefill pool.
    pub prefill_steps: u64,
    /// Decode iterations across the decode pool.
    pub decode_steps: u64,
    /// Prompt tokens processed by prefill steps — exactly the trace's
    /// total prompt tokens when every request prefills exactly once
    /// (chunks included), which the conservation tests assert.
    pub prefill_tokens: u64,
    /// Requests routed to each prefill group, in group order.
    pub per_prefill_group_requests: Vec<usize>,
    /// Requests handed off to each decode group, in group order.
    pub per_decode_group_requests: Vec<usize>,
    /// Total KV volume moved between the pools.
    pub kv_moved: Bytes,
    /// Summed p2p latency of every handoff.
    pub handoff_total: Seconds,
    /// Time-weighted mean waiting-queue depth over the prefill tier
    /// (same contract as the colocated report's `mean_queue_depth`).
    pub prefill_mean_queue_depth: f64,
    /// Deepest prefill waiting queue observed at any instant.
    pub prefill_max_queue_depth: usize,
    /// Time-weighted mean depth of KV arrivals waiting to join a
    /// decode batch.
    pub decode_mean_queue_depth: f64,
    /// Deepest decode-side arrival queue observed at any instant.
    pub decode_max_queue_depth: usize,
    /// `(time, waiting)` prefill-queue transitions, all groups
    /// interleaved in time order.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// Simulation-kernel events fired (arrivals + steps + handoffs).
    pub sim_events: u64,
    /// Every pool-to-pool transfer, in completion (time) order.
    pub handoffs: Vec<HandoffRecord>,
    /// Per-request timelines, in trace order (`replica` is the decode
    /// group).
    pub outcomes: Vec<RequestOutcome>,
}

/// Typed events on the shared two-pool timeline.
enum Ev {
    /// The request at this trace index reaches the front-end router.
    Arrival(usize),
    /// This prefill group's in-flight step completes.
    PrefillDone {
        /// Prefill-pool group index.
        gid: usize,
    },
    /// This decode group's in-flight step completes.
    DecodeDone {
        /// Decode-pool group index.
        gid: usize,
    },
    /// This request's KV cache lands on decode group `to`.
    Handoff {
        /// Trace index of the transferred request.
        idx: usize,
        /// Destination decode group.
        to: usize,
    },
}

/// One prefill group's live state: a FIFO of prompts (partially
/// prefilled heads return to the front) and at most one step in
/// flight.
#[derive(Default)]
struct PGroup {
    waiting: Vec<usize>,
    /// `(idx, tokens)` pairs the in-flight step is processing.
    pending: Option<Vec<(usize, u64)>>,
    prefill_steps: u64,
    queue: QueueStat,
    served: usize,
    end: Seconds,
}

impl PGroup {
    /// Requests inside the in-flight step.
    fn in_step(&self) -> usize {
        self.pending.as_ref().map_or(0, Vec::len)
    }
}

/// One decode group's live state: landed KV arrivals stage in
/// `arrived` until a batch slot frees, `active` decodes one token per
/// step.
#[derive(Default)]
struct DGroup {
    /// Handed-off requests waiting for a decode batch slot.
    arrived: Vec<InFlight>,
    active: Vec<InFlight>,
    /// `true` while a decode step is in flight.
    pending: bool,
    /// Handoffs in transit destined for this group.
    inbound: usize,
    decode_steps: u64,
    queue: QueueStat,
    served: usize,
    end: Seconds,
}

impl DGroup {
    /// Requests a back-tier router counts against this group: decoding,
    /// staged, and in-transit.
    fn outstanding(&self) -> usize {
        self.active.len() + self.arrived.len() + self.inbound
    }

    /// Moves staged arrivals into the decode batch up to the batch cap,
    /// preserving landing order.
    fn admit(&mut self, now: Seconds, max_batch: usize) {
        let free = max_batch.saturating_sub(self.active.len());
        let n = free.min(self.arrived.len());
        if n > 0 {
            self.active.extend(self.arrived.drain(..n));
            self.queue.record(now, self.arrived.len());
        }
    }
}

/// Trace-driven disaggregated serving simulator for one
/// (pod, model, prefill plan, decode plan).
///
/// Owns one `StepPricer` per pool; both price through a shared
/// single-flight plan cache, so consecutive runs — across designs and
/// router policies — reuse stage catalogs and compiled plans, and
/// identical pool plans compile once.
#[derive(Debug)]
pub struct DisaggServingSim {
    config: DisaggConfig,
    links: CollectiveModel,
    prefill_pricer: StepPricer,
    decode_pricer: StepPricer,
    obs: Obs,
}

impl DisaggServingSim {
    /// Creates a simulator for `config` on the pod `system`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when either pool plan does not fit the
    /// pod or the model, the two pools together need more chips than
    /// the pod has (disjoint pools only), or `shared_chips` is set with
    /// differing pool plans.
    pub fn new(system: SystemConfig, config: DisaggConfig) -> Result<Self, ClusterError> {
        config.batch.validate();
        config
            .prefill
            .validate_structure(&system, &config.model)
            .map_err(|e| ClusterError::Invalid(format!("prefill pool: {e}")))?;
        config
            .decode
            .validate_structure(&system, &config.model)
            .map_err(|e| ClusterError::Invalid(format!("decode pool: {e}")))?;
        if config.shared_chips {
            if config.prefill != config.decode {
                return Err(ClusterError::Invalid(format!(
                    "shared_chips maps both pools onto the same groups, so the pool \
                     plans must match (prefill {}, decode {})",
                    config.prefill, config.decode
                )));
            }
        } else {
            let needed = config.prefill.chips_used() + config.decode.chips_used();
            if needed > system.chips {
                return Err(ClusterError::Invalid(format!(
                    "disjoint pools need {needed} chips (prefill {} + decode {}) but \
                     the pod has {}",
                    config.prefill, config.decode, system.chips
                )));
            }
        }
        let cache = Arc::new(PlanCache::new().with_threads(config.threads));
        let prefill_pricer = StepPricer::with_cache(
            &system,
            config.model.clone(),
            config.prefill,
            config.sim,
            Arc::clone(&cache),
        );
        let decode_pricer = StepPricer::with_cache(
            &system,
            config.model.clone(),
            config.decode,
            config.sim,
            cache,
        );
        Ok(DisaggServingSim {
            links: system.collective(),
            prefill_pricer,
            decode_pricer,
            config,
            obs: Obs::null(),
        })
    }

    /// Attaches a recorder: subsequent runs emit kernel dispatch spans,
    /// per-request lanes (with explicit `handoff` spans), and
    /// `disagg.*` metrics. All recorded quantities are sim-time only
    /// and byte-identical across `threads` settings.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &DisaggConfig {
        &self.config
    }

    /// Cumulative plan-cache counters across both pools (they share one
    /// cache). Not part of any emitted report.
    #[must_use]
    pub fn cache_stats(&self) -> elk_serve::CacheStats {
        self.prefill_pricer.cache_stats()
    }

    /// Serves `trace` under `design`, routing both tiers with `policy`,
    /// and reports request-level metrics. The plan cache persists
    /// across calls.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    #[allow(clippy::too_many_lines)] // one event loop over both pools
    pub fn run(
        &mut self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
    ) -> Result<DisaggServingReport, ClusterError> {
        let shared = self.config.shared_chips;
        let max_batch = self.config.batch.max_batch as usize;
        let p_dp = self.config.prefill.dp as usize;
        let d_dp = self.config.decode.dp as usize;
        let mut front = Router::new(policy, p_dp);
        let mut back = Router::new(policy, d_dp);
        let mut pgroups: Vec<PGroup> = (0..p_dp).map(|_| PGroup::default()).collect();
        let mut dgroups: Vec<DGroup> = (0..d_dp).map(|_| DGroup::default()).collect();
        let reqs = &trace.requests;
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        // Per-request prefill progress and handoff bookkeeping.
        let mut prefilled: Vec<u64> = vec![0; trace.len()];
        let mut prefill_done: Vec<Seconds> = vec![Seconds::ZERO; trace.len()];
        let mut handoff_from: Vec<usize> = vec![0; trace.len()];
        let mut handoff_bytes: Vec<Bytes> = vec![Bytes::ZERO; trace.len()];
        let mut handoffs: Vec<HandoffRecord> = Vec::with_capacity(trace.len());
        let mut kv_moved = Bytes::ZERO;
        let mut handoff_total = Seconds::ZERO;
        let mut prefill_tokens = 0u64;

        let stats_before = self.prefill_pricer.cache_stats();
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.observe(
            self.obs.clone(),
            "disagg/kernel",
            &[
                (PRIO_ARRIVAL, "arrival"),
                (PRIO_STEP_DONE, "step_done"),
                (PRIO_HANDOFF, "handoff"),
            ],
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
                    // The front tier sees a prefill group's queue plus,
                    // on shared chips, everything occupying the same
                    // pipeline from the decode side — exactly the
                    // colocated router's view.
                    let pick = front.route_by(|i| {
                        let own = pgroups[i].waiting.len() + pgroups[i].in_step();
                        if shared {
                            own + dgroups[i].outstanding()
                        } else {
                            own
                        }
                    });
                    let group = &mut pgroups[pick];
                    group.waiting.push(idx);
                    group.served += 1;
                    group.queue.record(now, group.waiting.len());
                }
                Ev::PrefillDone { gid } => {
                    let group = &mut pgroups[gid];
                    let batch = group.pending.take().expect("PrefillDone implies a step");
                    group.prefill_steps += 1;
                    group.end = now;
                    let mut unfinished: Vec<usize> = Vec::new();
                    for (idx, tokens) in batch {
                        prefilled[idx] += tokens;
                        prefill_tokens += tokens;
                        if prefilled[idx] < reqs[idx].prompt_len {
                            unfinished.push(idx);
                            continue;
                        }
                        // Prompt complete: route the KV cache to a
                        // decode group. On shared chips it is already
                        // where it needs to be.
                        let to = if shared {
                            gid
                        } else {
                            back.route_by(|i| dgroups[i].outstanding())
                        };
                        let bytes = if shared {
                            Bytes::ZERO
                        } else {
                            kv_handoff_bytes(&self.config.model, reqs[idx].prompt_len)
                        };
                        let latency = self.links.p2p(bytes);
                        prefill_done[idx] = now;
                        handoff_from[idx] = gid;
                        handoff_bytes[idx] = bytes;
                        kv_moved += bytes;
                        handoff_total += latency;
                        dgroups[to].inbound += 1;
                        dgroups[to].served += 1;
                        q.schedule_after(latency, PRIO_HANDOFF, Ev::Handoff { idx, to });
                    }
                    // A chunked head returns to the front of its FIFO.
                    if !unfinished.is_empty() {
                        let group = &mut pgroups[gid];
                        group.waiting.splice(0..0, unfinished);
                        group.queue.record(now, group.waiting.len());
                    }
                }
                Ev::Handoff { idx, to } => {
                    let group = &mut dgroups[to];
                    group.inbound -= 1;
                    handoffs.push(HandoffRecord {
                        id: reqs[idx].id,
                        from: handoff_from[idx],
                        to,
                        prefill_done: prefill_done[idx],
                        handoff_done: now,
                        bytes: handoff_bytes[idx],
                    });
                    outcomes[idx] = Some(RequestOutcome {
                        id: reqs[idx].id,
                        replica: to,
                        arrival: reqs[idx].arrival,
                        first_token: now,
                        completion: now,
                        output_len: reqs[idx].output_len,
                    });
                    if reqs[idx].output_len > 1 {
                        group.arrived.push(InFlight { idx, generated: 1 });
                        group.queue.record(now, group.arrived.len());
                    }
                }
                Ev::DecodeDone { gid } => {
                    let group = &mut dgroups[gid];
                    assert!(group.pending, "DecodeDone implies a step");
                    group.pending = false;
                    group.decode_steps += 1;
                    group.active.retain_mut(|a| {
                        a.generated += 1;
                        let outcome = outcomes[a.idx].as_mut().expect("handed off");
                        outcome.completion = now;
                        a.generated < reqs[a.idx].output_len
                    });
                    group.end = now;
                }
            }
            // Defer dispatch until every event at this instant has
            // fired, then scan groups in index order (deterministic).
            if q.peek_time() == Some(now) {
                continue;
            }
            if shared {
                // One pipeline per group pair: prefill-priority step
                // selection over the pair's joint state, i.e. the
                // colocated scheduler.
                for gid in 0..p_dp {
                    if pgroups[gid].pending.is_some() || dgroups[gid].pending {
                        continue;
                    }
                    dgroups[gid].admit(now, max_batch);
                    let active = dgroups[gid].active.len();
                    if let Some(batch) =
                        self.plan_prefill(&mut pgroups[gid], reqs, &prefilled, now, active)
                    {
                        let latency = self.prefill_latency(design, &prefilled, &batch)?;
                        pgroups[gid].pending = Some(batch);
                        q.schedule_after(latency, PRIO_STEP_DONE, Ev::PrefillDone { gid });
                    } else if active > 0 {
                        let latency = self.decode_latency(design, reqs, &dgroups[gid])?;
                        dgroups[gid].pending = true;
                        q.schedule_after(latency, PRIO_STEP_DONE, Ev::DecodeDone { gid });
                    }
                }
            } else {
                for (gid, group) in pgroups.iter_mut().enumerate() {
                    if group.pending.is_some() {
                        continue;
                    }
                    let Some(batch) = self.plan_prefill(group, reqs, &prefilled, now, 0) else {
                        continue;
                    };
                    let latency = self.prefill_latency(design, &prefilled, &batch)?;
                    group.pending = Some(batch);
                    q.schedule_after(latency, PRIO_STEP_DONE, Ev::PrefillDone { gid });
                }
                for (gid, group) in dgroups.iter_mut().enumerate() {
                    if group.pending {
                        continue;
                    }
                    group.admit(now, max_batch);
                    if group.active.is_empty() {
                        continue;
                    }
                    let latency = self.decode_latency(design, reqs, group)?;
                    group.pending = true;
                    q.schedule_after(latency, PRIO_STEP_DONE, Ev::DecodeDone { gid });
                }
            }
        }

        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("the drain completes every request"))
            .collect();
        if self.obs.enabled() {
            // Lookups (hits + misses) are thread-invariant; the split
            // and per-design plan counts are not, so they stay out of
            // the recorded stream.
            let d = self.prefill_pricer.cache_stats().since(stats_before);
            self.obs.counter("disagg.cache.lookups", d.hits + d.misses);
        }
        let sim_events = q.events_processed();
        Ok(self.summarize(
            design,
            policy,
            trace,
            pgroups,
            dgroups,
            outcomes,
            handoffs,
            kv_moved,
            handoff_total,
            prefill_tokens,
            sim_events,
        ))
    }

    /// Plans the next prefill step for one group: the colocated
    /// admission rule when chunking is off, a budget-capped FIFO walk
    /// (partial heads allowed) when it is on. Returns the `(idx,
    /// tokens)` pairs the step will process, draining them from the
    /// waiting queue, or `None` for an idle/decode turn.
    fn plan_prefill(
        &self,
        group: &mut PGroup,
        reqs: &[elk_serve::Request],
        prefilled: &[u64],
        now: Seconds,
        active: usize,
    ) -> Option<Vec<(usize, u64)>> {
        let cfg = &self.config.batch;
        if self.config.chunk_tokens == 0 {
            let prompts = group.waiting.iter().map(|&i| reqs[i].prompt_len);
            return match next_step(cfg, prompts, active)? {
                StepPlan::Prefill { admit } => {
                    let batch: Vec<(usize, u64)> = group
                        .waiting
                        .drain(..admit)
                        .map(|i| (i, reqs[i].prompt_len))
                        .collect();
                    group.queue.record(now, group.waiting.len());
                    Some(batch)
                }
                StepPlan::Decode => None,
            };
        }
        // Chunked: spend up to `chunk_tokens` on the FIFO, head first
        // (a partially prefilled head resumes where its last chunk
        // stopped); only the last admitted request can be cut
        // mid-prompt.
        let free = (cfg.max_batch as usize).saturating_sub(active);
        if free == 0 || group.waiting.is_empty() {
            return None;
        }
        let mut budget = self.config.chunk_tokens;
        let mut batch: Vec<(usize, u64)> = Vec::new();
        for &idx in group.waiting.iter().take(free) {
            if budget == 0 {
                break;
            }
            let remaining = reqs[idx].prompt_len - prefilled[idx];
            let take = remaining.min(budget);
            batch.push((idx, take));
            budget -= take;
        }
        group.waiting.drain(..batch.len());
        group.queue.record(now, group.waiting.len());
        Some(batch)
    }

    /// Prices one prefill step over `batch`: the step's sequence length
    /// is the deepest context reached (`prefilled + tokens`), which for
    /// unchunked admission is exactly the longest prompt — the
    /// colocated formula.
    fn prefill_latency(
        &self,
        design: Design,
        prefilled: &[u64],
        batch: &[(usize, u64)],
    ) -> Result<Seconds, ClusterError> {
        let deepest = batch
            .iter()
            .map(|&(idx, tokens)| prefilled[idx] + tokens)
            .max()
            .expect("prefill admits >= 1");
        let wl = self
            .config
            .batch
            .step_workload(Phase::Prefill, batch.len() as u64, deepest);
        self.prefill_pricer.split_step(design, wl)
    }

    /// Prices one decode step over a group's active set.
    fn decode_latency(
        &self,
        design: Design,
        reqs: &[elk_serve::Request],
        group: &DGroup,
    ) -> Result<Seconds, ClusterError> {
        let wl = decode_workload(&self.config.batch, reqs, &group.active);
        self.decode_pricer.split_step(design, wl)
    }

    /// Folds per-request outcomes into the aggregate report.
    #[allow(clippy::too_many_arguments)]
    fn summarize(
        &self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
        pgroups: Vec<PGroup>,
        dgroups: Vec<DGroup>,
        outcomes: Vec<RequestOutcome>,
        handoffs: Vec<HandoffRecord>,
        kv_moved: Bytes,
        handoff_total: Seconds,
        prefill_tokens: u64,
        sim_events: u64,
    ) -> DisaggServingReport {
        if self.obs.enabled() {
            record_latency_histograms(&self.obs, "disagg", &outcomes);
            let by_id: std::collections::BTreeMap<u64, &HandoffRecord> =
                handoffs.iter().map(|h| (h.id, h)).collect();
            for (idx, o) in outcomes.iter().enumerate() {
                if !self.obs.sampled(idx) {
                    continue;
                }
                let track = format!("req/{}", o.id);
                let h = by_id.get(&o.id).expect("every request hands off once");
                self.obs.span(
                    &track,
                    "prefill",
                    o.arrival,
                    h.prefill_done - o.arrival,
                    &[("prefill_group", h.from.to_string())],
                );
                self.obs.span(
                    &track,
                    "handoff",
                    h.prefill_done,
                    h.handoff_done - h.prefill_done,
                    &[
                        ("decode_group", h.to.to_string()),
                        ("bytes", h.bytes.get().to_string()),
                    ],
                );
                if o.completion > o.first_token {
                    self.obs.span(
                        &track,
                        "decode",
                        o.first_token,
                        o.completion - o.first_token,
                        &[("decode_group", o.replica.to_string())],
                    );
                }
            }
        }
        let makespan = pgroups
            .iter()
            .map(|g| g.end)
            .chain(dgroups.iter().map(|g| g.end))
            .fold(Seconds::ZERO, Seconds::max);
        let l = LatencyFold::of(
            &outcomes,
            &self.config.slo,
            makespan,
            trace.total_output_tokens(),
        );
        let (prefill_mean_queue_depth, prefill_max_queue_depth) =
            queue_depth_fold(pgroups.iter().map(|g| (&g.queue, g.end)));
        let (decode_mean_queue_depth, decode_max_queue_depth) =
            queue_depth_fold(dgroups.iter().map(|g| (&g.queue, g.end)));
        let prefill_steps = pgroups.iter().map(|g| g.prefill_steps).sum();
        let decode_steps = dgroups.iter().map(|g| g.decode_steps).sum();
        let per_prefill_group_requests = pgroups.iter().map(|g| g.served).collect();
        let per_decode_group_requests = dgroups.iter().map(|g| g.served).collect();
        let mut queue_depth: Vec<(Seconds, usize)> = pgroups
            .into_iter()
            .flat_map(|g| g.queue.into_samples())
            .collect();
        queue_depth.sort_by_key(|&(t, _)| t);
        DisaggServingReport {
            design,
            policy,
            prefill_plan: self.config.prefill,
            decode_plan: self.config.decode,
            shared_chips: self.config.shared_chips,
            chunk_tokens: self.config.chunk_tokens,
            requests: trace.len(),
            completed: outcomes.len(),
            makespan,
            ttft: l.ttft,
            tpot: l.tpot,
            e2e: l.e2e,
            slo: self.config.slo,
            slo_attainment: l.slo_attainment,
            goodput_rps: l.goodput_rps,
            throughput_rps: l.throughput_rps,
            tokens_per_sec: l.tokens_per_sec,
            prefill_steps,
            decode_steps,
            prefill_tokens,
            per_prefill_group_requests,
            per_decode_group_requests,
            kv_moved,
            handoff_total,
            prefill_mean_queue_depth,
            prefill_max_queue_depth,
            decode_mean_queue_depth,
            decode_max_queue_depth,
            queue_depth,
            sim_events,
            handoffs,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterServeConfig, ClusterServingSim};
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{ArrivalProcess, LengthDist, TraceConfig};

    fn tiny_model() -> TransformerConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        model
    }

    fn tiny_batch() -> BatchConfig {
        BatchConfig {
            max_batch: 8,
            max_prefill_tokens: 2048,
            seq_buckets: SeqBuckets::new(256, 2048),
            bucket_batch: true,
        }
    }

    fn tiny_config(prefill: ParallelismPlan, decode: ParallelismPlan) -> DisaggConfig {
        DisaggConfig {
            batch: tiny_batch(),
            ..DisaggConfig::new(tiny_model(), prefill, decode)
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
    fn degenerate_config_reproduces_the_colocated_engine() {
        // shared chips + identical plans + no chunking = the colocated
        // scheduler: outcomes, latency summaries, step counts, and
        // routing must match bit-for-bit under every policy.
        let trace = tiny_trace(14);
        let plan = ParallelismPlan::new(2, 1, 2);
        let mut disagg = DisaggServingSim::new(
            presets::ipu_pod4(),
            DisaggConfig {
                shared_chips: true,
                ..tiny_config(plan, plan)
            },
        )
        .unwrap();
        let mut colo = ClusterServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                batch: tiny_batch(),
                ..ClusterServeConfig::new(tiny_model(), plan)
            },
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let d = disagg.run(Design::ElkFull, policy, &trace).unwrap();
            let c = colo.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(d.outcomes, c.outcomes, "{policy}");
            assert_eq!(
                serde_json::to_string(&d.ttft).unwrap(),
                serde_json::to_string(&c.ttft).unwrap(),
                "{policy}: ttft must be bit-identical"
            );
            assert_eq!(
                serde_json::to_string(&d.tpot).unwrap(),
                serde_json::to_string(&c.tpot).unwrap(),
                "{policy}: tpot must be bit-identical"
            );
            assert_eq!(
                serde_json::to_string(&d.e2e).unwrap(),
                serde_json::to_string(&c.e2e).unwrap(),
                "{policy}: e2e must be bit-identical"
            );
            assert_eq!(d.makespan, c.makespan, "{policy}");
            assert_eq!(d.prefill_steps, c.prefill_steps, "{policy}");
            assert_eq!(d.decode_steps, c.decode_steps, "{policy}");
            assert_eq!(
                d.per_prefill_group_requests, c.per_group_requests,
                "{policy}"
            );
            assert_eq!(d.kv_moved, Bytes::ZERO, "{policy}: shared chips move no KV");
            assert_eq!(d.handoff_total, Seconds::ZERO, "{policy}");
        }
    }

    #[test]
    fn disjoint_pools_complete_every_request_and_price_every_handoff() {
        let trace = tiny_trace(12);
        let mut sim = DisaggServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2), ParallelismPlan::new(1, 1, 2)),
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let r = sim.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(r.completed, 12, "{policy}");
            assert_eq!(
                r.handoffs.len(),
                12,
                "{policy}: each request hands off once"
            );
            let expect: Bytes = trace
                .requests
                .iter()
                .map(|q| kv_handoff_bytes(&sim.config.model, q.prompt_len))
                .sum();
            assert_eq!(r.kv_moved, expect, "{policy}");
            assert!(r.handoff_total > Seconds::ZERO, "{policy}");
            for h in &r.handoffs {
                assert!(h.bytes.get() > 0, "{policy}");
                assert!(h.handoff_done > h.prefill_done, "{policy}: p2p takes time");
                assert!(h.from < 2 && h.to < 2, "{policy}");
            }
            for w in r.handoffs.windows(2) {
                assert!(
                    w[0].handoff_done <= w[1].handoff_done,
                    "{policy}: time order"
                );
            }
            assert_eq!(
                r.per_decode_group_requests.iter().sum::<usize>(),
                12,
                "{policy}"
            );
        }
    }

    #[test]
    fn chunked_prefill_conserves_prompt_tokens() {
        let trace = tiny_trace(10);
        let total_prompt: u64 = trace.requests.iter().map(|q| q.prompt_len).sum();
        let mut sim = DisaggServingSim::new(
            presets::ipu_pod4(),
            DisaggConfig {
                chunk_tokens: 256,
                ..tiny_config(ParallelismPlan::new(1, 1, 2), ParallelismPlan::new(1, 1, 2))
            },
        )
        .unwrap();
        let r = sim
            .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
            .unwrap();
        assert_eq!(r.completed, 10);
        assert_eq!(
            r.prefill_tokens, total_prompt,
            "chunks must cover each prompt exactly once"
        );
        // Prompts above the cap need multiple chunks, so there are more
        // prefill steps than an uncapped run would take.
        let unchunked = DisaggServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2), ParallelismPlan::new(1, 1, 2)),
        )
        .unwrap()
        .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
        .unwrap();
        assert!(r.prefill_steps > unchunked.prefill_steps);
        assert_eq!(unchunked.prefill_tokens, total_prompt);
    }

    #[test]
    fn thread_count_does_not_change_disagg_outcomes() {
        let trace = tiny_trace(10);
        let cfg = DisaggConfig {
            chunk_tokens: 512,
            ..tiny_config(ParallelismPlan::new(2, 1, 1), ParallelismPlan::new(1, 1, 2))
        };
        let mut seq = DisaggServingSim::new(presets::ipu_pod4(), cfg.clone()).unwrap();
        let mut par =
            DisaggServingSim::new(presets::ipu_pod4(), DisaggConfig { threads: 4, ..cfg }).unwrap();
        for policy in RouterPolicy::all() {
            let a = seq.run(Design::ElkFull, policy, &trace).unwrap();
            let b = par.run(Design::ElkFull, policy, &trace).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{policy}: disagg serving must be byte-identical across thread counts"
            );
        }
    }

    #[test]
    fn shared_chips_requires_matching_pool_plans() {
        let e = DisaggServingSim::new(
            presets::ipu_pod4(),
            DisaggConfig {
                shared_chips: true,
                ..tiny_config(ParallelismPlan::new(2, 1, 2), ParallelismPlan::new(1, 1, 2))
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(e.to_string().contains("match"), "{e}");
    }

    #[test]
    fn disjoint_pools_must_fit_the_pod() {
        let e = DisaggServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(2, 1, 2), ParallelismPlan::new(2, 1, 1)),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(e.to_string().contains("chips"), "{e}");
    }
}
