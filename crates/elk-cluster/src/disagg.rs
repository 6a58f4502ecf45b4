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

use elk_baselines::{Design, DesignRunner};
use elk_hw::CollectiveModel;
use elk_model::{DType, TransformerConfig};
use elk_obs::Obs;
use elk_serve::{
    BatchConfig, GroupCore, GroupFold, LatencyStats, PlanCache, RequestOutcome, RequestTrace,
    Router, RouterPolicy, SloConfig,
};
use elk_sim::SimOptions;
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};
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
    /// Compile worker threads (`0` = all cores): the plan compiler's
    /// pool on a cache miss; reports are byte-identical at any setting.
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
    /// Trace start to the later of the last step retired on either pool
    /// and the last KV handoff landing.
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
    /// Creates a simulator for `config` on the pod of `runner`, both
    /// pools sharing its cost model and plan sets.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when either pool plan does not fit the
    /// pod or the model, the two pools together need more chips than
    /// the pod has (disjoint pools only), or `shared_chips` is set with
    /// differing pool plans.
    pub fn new(
        runner: impl Into<DesignRunner>,
        config: DisaggConfig,
    ) -> Result<Self, ClusterError> {
        let base = runner.into().with_threads(config.threads);
        let system = base.system();
        config.batch.validate().map_err(ClusterError::Invalid)?;
        config
            .prefill
            .validate_structure(system, &config.model)
            .map_err(|e| ClusterError::Invalid(format!("prefill pool: {e}")))?;
        config
            .decode
            .validate_structure(system, &config.model)
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
            let needed = config
                .prefill
                .chips_used()
                .checked_add(config.decode.chips_used());
            if needed.is_none_or(|n| n > system.chips) {
                let needed = needed.map_or_else(|| "more than 2^64".into(), |n| n.to_string());
                return Err(ClusterError::Invalid(format!(
                    "disjoint pools need {needed} chips (prefill {} + decode {}) but \
                     the pod has {}",
                    config.prefill, config.decode, system.chips
                )));
            }
        }
        let cache = Arc::new(PlanCache::new());
        let prefill_pricer = StepPricer::new(
            &base,
            config.model.clone(),
            config.prefill,
            config.sim,
            &config.batch,
            Arc::clone(&cache),
        );
        let decode_pricer = StepPricer::new(
            &base,
            config.model.clone(),
            config.decode,
            config.sim,
            &config.batch,
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
    /// Each pool is one [`GroupCore`]: the prefill core admits under
    /// the chunk cap and hands every completed prompt off, and the
    /// decode core stages each KV cache when it lands.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    pub fn run(
        &mut self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
    ) -> Result<DisaggServingReport, ClusterError> {
        let shared = self.config.shared_chips;
        let reqs = &trace.requests;
        let p_dp = self.config.prefill.dp as usize;
        let d_dp = self.config.decode.dp as usize;
        let mut front = Router::new(policy, p_dp);
        let mut back = Router::new(policy, d_dp);
        let mut prefill = GroupCore::new(p_dp, reqs.len())
            .with_prefill_cap(self.config.chunk_tokens)
            .hand_off_prefills();
        let mut decode = GroupCore::new(d_dp, reqs.len());
        // Handoffs in transit to each decode group.
        let mut inbound = vec![0usize; d_dp];
        let mut handoffs: Vec<HandoffRecord> = Vec::with_capacity(reqs.len());
        let mut kv_moved = Bytes::ZERO;
        let mut handoff_total = Seconds::ZERO;
        // The KV cache request `idx` ships; on shared chips it already
        // sits where it needs to be.
        let kv = |idx: usize| {
            if shared {
                Bytes::ZERO
            } else {
                kv_handoff_bytes(&self.config.model, reqs[idx].prompt_len)
            }
        };

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
                        let own = prefill.groups[i].outstanding();
                        if shared {
                            own + decode.groups[i].outstanding() + inbound[i]
                        } else {
                            own
                        }
                    });
                    prefill.enqueue(pick, idx, now);
                }
                Ev::PrefillDone { gid } => prefill.finish_step(gid, now, reqs, |idx, _| {
                    let to = if shared {
                        gid
                    } else {
                        back.route_by(|i| decode.groups[i].outstanding() + inbound[i])
                    };
                    let bytes = kv(idx);
                    let latency = self.links.p2p(bytes);
                    kv_moved += bytes;
                    handoff_total += latency;
                    inbound[to] += 1;
                    q.schedule_after(latency, PRIO_HANDOFF, Ev::Handoff { idx, to });
                }),
                Ev::Handoff { idx, to } => {
                    inbound[to] -= 1;
                    let prefilled = prefill.outcomes[idx].as_ref().expect("prefilled");
                    handoffs.push(HandoffRecord {
                        id: reqs[idx].id,
                        from: prefilled.replica,
                        to,
                        prefill_done: prefilled.first_token,
                        handoff_done: now,
                        bytes: kv(idx),
                    });
                    decode.stage(to, idx, now, reqs);
                }
                Ev::DecodeDone { gid } => decode.finish_step(gid, now, reqs, |_, _| {}),
            }
            self.dispatch(design, &mut q, &mut prefill, &mut decode, reqs)?;
        }

        if self.obs.enabled() {
            // Lookups (hits + misses) are thread-invariant; the split
            // and per-design plan counts are not, so they stay out of
            // the recorded stream.
            let d = self.prefill_pricer.cache_stats().since(stats_before);
            self.obs.counter("disagg.cache.lookups", d.hits + d.misses);
        }
        let prefill_tokens = prefill.groups.iter().map(|g| g.prompt_tokens).sum();
        // Prefill outcomes end at the prompt, so only the decode pool's
        // are scored; every prompt lands no earlier than its last
        // prefill step retired, so the decode pool's makespan spans
        // both pools.
        let prefill_sums = GroupFold::of(prefill.groups, Vec::new(), &self.config.slo, 0);
        let fold = decode.fold(&self.config.slo, trace.total_output_tokens());
        debug_assert!(fold.makespan >= prefill_sums.makespan);
        fold.record_with(&self.obs, "disagg", "decode_group", |track, idx, o| {
            let prefilled = prefill.outcomes[idx].as_ref().expect("prefilled");
            let prefill_group = [("prefill_group", prefilled.replica.to_string())];
            let prefill_span = prefilled.first_token - o.arrival;
            self.obs
                .span(track, "prefill", o.arrival, prefill_span, &prefill_group);
            let handoff = [
                ("decode_group", o.replica.to_string()),
                ("bytes", kv(idx).get().to_string()),
            ];
            let handoff_span = o.first_token - prefilled.first_token;
            self.obs.span(
                track,
                "handoff",
                prefilled.first_token,
                handoff_span,
                &handoff,
            );
        });
        let l = fold.latency;
        Ok(DisaggServingReport {
            design,
            policy,
            prefill_plan: self.config.prefill,
            decode_plan: self.config.decode,
            shared_chips: shared,
            chunk_tokens: self.config.chunk_tokens,
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
            prefill_steps: prefill_sums.prefill_steps,
            decode_steps: fold.decode_steps,
            prefill_tokens,
            per_prefill_group_requests: prefill_sums.per_group_requests,
            per_decode_group_requests: fold.per_group_requests,
            kv_moved,
            handoff_total,
            prefill_mean_queue_depth: prefill_sums.mean_queue_depth,
            prefill_max_queue_depth: prefill_sums.max_queue_depth,
            decode_mean_queue_depth: fold.mean_queue_depth,
            decode_max_queue_depth: fold.max_queue_depth,
            queue_depth: prefill_sums.queue_depth,
            sim_events: q.events_processed(),
            handoffs,
            outcomes: fold.outcomes,
        })
    }

    /// The end-of-instant dispatch over both pools. Disjoint pools scan
    /// the prefill groups, then the decode groups. On shared chips,
    /// group `i` of each pool is one pipeline, idle only while neither
    /// side runs a step: staged requests join its batch, then it
    /// prefills if it can, else decodes — the colocated scheduler.
    fn dispatch(
        &self,
        design: Design,
        q: &mut EventQueue<Ev>,
        prefill: &mut GroupCore,
        decode: &mut GroupCore,
        reqs: &[elk_serve::Request],
    ) -> Result<(), ClusterError> {
        let cfg = &self.config.batch;
        let price_prefill = |wl| self.prefill_pricer.split_step(design, wl);
        let price_decode = |wl| self.decode_pricer.split_step(design, wl);
        if !self.config.shared_chips {
            let prefill_done = |gid| (PRIO_STEP_DONE, Ev::PrefillDone { gid });
            let decode_done = |gid| (PRIO_STEP_DONE, Ev::DecodeDone { gid });
            prefill.dispatch(q, cfg, reqs, prefill_done, |_, _, wl| price_prefill(wl))?;
            decode.dispatch(q, cfg, reqs, decode_done, |_, _, wl| price_decode(wl))?;
            return Ok(());
        }
        // Like `GroupCore::dispatch`, wait for the instant's last event.
        let now = q.now();
        if q.peek_time() == Some(now) {
            return Ok(());
        }
        for gid in 0..prefill.groups.len() {
            if prefill.groups[gid].pending.is_some() || decode.groups[gid].pending.is_some() {
                continue;
            }
            let busy = decode.groups[gid].admit_staged(now, cfg);
            if let Some(wl) = prefill.plan_step(gid, now, cfg, reqs, busy) {
                q.schedule_after(price_prefill(wl)?, PRIO_STEP_DONE, Ev::PrefillDone { gid });
            } else if let Some(wl) = decode.plan_step(gid, now, cfg, reqs, 0) {
                q.schedule_after(price_decode(wl)?, PRIO_STEP_DONE, Ev::DecodeDone { gid });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterServeConfig, ClusterServingSim};
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{LengthModel, RateShape, TraceConfig};

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
            rate: RateShape::Constant { rate_rps: 200.0 },
            prompt_len: LengthModel::Uniform { lo: 200, hi: 700 },
            output_len: LengthModel::Uniform { lo: 2, hi: 12 },
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
    fn makespan_covers_a_completion_at_handoff_landing() {
        // A single-token request completes when its KV cache lands on
        // the decode pool, which is not a step: here request 1's landing
        // is the run's last event.
        let req = |id, arrival, prompt_len, output_len| elk_serve::Request {
            id,
            arrival,
            prompt_len,
            output_len,
        };
        let trace = RequestTrace::from_requests(vec![
            req(0, Seconds::ZERO, 300, 4),
            req(1, Seconds::from_micros(10.0), 900, 1),
        ]);
        let mut sim = DisaggServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2), ParallelismPlan::new(1, 1, 2)),
        )
        .unwrap();
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
            .unwrap();
        let last = r.outcomes.iter().map(|o| o.completion).max().unwrap();
        assert_eq!(last, r.outcomes[1].completion, "the landing ends the run");
        assert_eq!(r.makespan, last);
        assert_eq!(r.throughput_rps, 2.0 / last.as_secs());
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

    #[test]
    fn disjoint_pools_whose_chip_sum_wraps_are_rejected() {
        // Each pool fits a 2⁶⁴−1-chip pod with 2⁶³ chips; together they
        // need 2⁶⁴, which wraps to 0 in a release build.
        let mut model = tiny_model();
        model.heads = 1 << 32;
        model.intermediate = 1 << 32;
        model.layers = 1 << 31;
        let pool = ParallelismPlan::new(1 << 32, 1 << 31, 1);
        let pod = elk_hw::SystemConfig {
            chips: u64::MAX,
            ..presets::ipu_pod4()
        };
        let e = DisaggServingSim::new(
            pod,
            DisaggConfig {
                batch: tiny_batch(),
                ..DisaggConfig::new(model, pool, pool)
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            e.to_string()
                .contains("disjoint pools need more than 2^64 chips"),
            "{e}"
        );
    }

    #[test]
    fn every_priced_step_has_a_table_slot() {
        let trace = crate::pricing::tests::long_prompts(20);
        let plan = ParallelismPlan::new(1, 1, 1);
        let mut config = tiny_config(plan, plan);
        config.batch.max_prefill_tokens = 1 << 16;
        for bucket_batch in [true, false] {
            config.batch.bucket_batch = bucket_batch;
            let mut sim = DisaggServingSim::new(presets::ipu_pod4(), config.clone()).unwrap();
            let r = sim.run(Design::ElkFull, RouterPolicy::RoundRobin, &trace);
            assert_eq!(r.unwrap().completed, 20);
            let splits = sim.prefill_pricer.split_steps(&config.batch);
            sim.decode_pricer.split_steps(&config.batch);
            assert!(splits > 0, "bucket_batch {bucket_batch}: no step split");
        }
    }
}
