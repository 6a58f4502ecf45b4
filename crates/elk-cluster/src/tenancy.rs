//! Multi-tenant cluster serving: SLO classes, admission control, and
//! priority-aware scheduling over the routed replay engine.
//!
//! [`TenantServingSim`] runs the shared group step core
//! ([`GroupCore`]) like [`ClusterServingSim`](crate::ClusterServingSim),
//! with three tenancy layers in front of it:
//!
//! * **Admission control at the router** — each tenant draws from a
//!   deterministic [`TokenBucket`] parameterized by its class
//!   (`rate_rps`, `burst`); an empty bucket rejects the arrival before
//!   it touches any queue. Behind the bucket, a load shedder watches
//!   the run's time-weighted mean waiting depth (all groups pooled) and
//!   past the threshold either rejects sheddable arrivals or defers
//!   them once by a fixed delay.
//! * **Priority-aware scheduling** — arrivals enter the shared kernel
//!   timeline at their class priority (`0..=63`; step completions fire
//!   at a reserved higher band), and the waiting queue is kept sorted
//!   by class priority with FIFO order inside a class. A
//!   single-default-class config therefore reproduces the plain
//!   engine's event ordering bit for bit — pinned by a differential
//!   test below.
//! * **Multi-model pods** — a class may name a model-zoo alias; the
//!   pod's `dp` groups are partitioned round-robin across the distinct
//!   models, each model gets its own router over its groups, and all
//!   per-model pricers share one single-flight [`PlanCache`] (cache
//!   keys carry the model name, so entries never collide).
//!
//! Every disposition is terminal and disjoint — `admitted + rejected +
//! deferred == arrivals`, per tenant — and the emitted report stays
//! byte-identical at any thread count.

use std::sync::Arc;

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_model::{zoo, TransformerConfig};
use elk_obs::Obs;
use elk_serve::{
    jain_index, Group, GroupCore, GroupFold, LatencyFold, PlanCache, Request, RequestOutcome,
    RequestTrace, Router, RouterPolicy, ShedPolicy, TenancyConfig, TenantReport, TokenBucket,
    MAX_CLASS_PRIORITY,
};
use elk_sim_core::{EventQueue, QueueStat};
use elk_units::Seconds;

use crate::pricing::StepPricer;
use crate::serve::{ClusterServeConfig, ClusterServingReport};
use crate::ClusterError;

/// Priority band for the tenancy engine's step completions: strictly
/// above every admissible class priority, so an arrival can never
/// overtake a completion at the same instant (mirroring the plain
/// engine's `PRIO_ARRIVAL < PRIO_STEP_DONE` ordering).
const PRIO_TENANT_STEP_DONE: u8 = MAX_CLASS_PRIORITY + 1;

/// Aggregated result of one multi-tenant cluster serving run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenancyServingReport {
    /// The whole-run aggregate in the plain cluster-report shape. For a
    /// single-default-class config this serializes byte-identically to
    /// the plain engine's report on the same inputs.
    pub base: ClusterServingReport,
    /// Requests admitted directly at first offer.
    pub admitted: usize,
    /// Requests dropped by the rate limiter or the load shedder.
    pub rejected: usize,
    /// Requests deferred once by the load shedder (these complete).
    pub deferred: usize,
    /// Per-tenant slices, in first-appearance order of the trace's
    /// tenant ids.
    pub tenants: Vec<TenantReport>,
    /// Jain fairness index over the per-tenant goodput shares.
    pub jain_fairness: f64,
}

/// Typed events on the tenancy engine's shared timeline.
enum Ev {
    /// The request at this trace index reaches the front-end router.
    Arrival(usize),
    /// A shed-deferred request is re-offered (served unconditionally).
    Deferred(usize),
    /// This group's in-flight scheduler step completes.
    StepDone {
        /// Index of the group whose step finished.
        gid: usize,
    },
}

/// Terminal admission disposition of one request.
#[derive(Clone, Copy, PartialEq)]
enum Disposition {
    Admitted,
    Rejected,
    Deferred,
}

/// Trace-driven multi-tenant serving simulator for one pod.
///
/// Owns one `StepPricer` per distinct class model, all sharing a
/// single-flight [`PlanCache`], so runs across designs, policies, and
/// models reuse compiled stages.
#[derive(Debug)]
pub struct TenantServingSim {
    config: ClusterServeConfig,
    tenancy: TenancyConfig,
    /// Distinct models served by the pod; index 0 is the base model.
    models: Vec<TransformerConfig>,
    /// For each class, the index into `models` it is served by.
    class_model: Vec<usize>,
    pricers: Vec<StepPricer>,
    obs: Obs,
}

impl TenantServingSim {
    /// Creates a simulator for `config` + `tenancy` on the pod of
    /// `runner`, every model's pricer sharing its cost model and plan
    /// sets.
    ///
    /// Class model aliases resolve through [`elk_model::zoo::by_name`]
    /// and inherit the base model's layer count, so every model passes
    /// the same structural plan validation the pod was sized for.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the tenancy config is
    /// inconsistent, an alias is unknown, the plan does not fit some
    /// class model, or `dp` is smaller than the distinct model count.
    pub fn new(
        runner: impl Into<DesignRunner>,
        config: ClusterServeConfig,
        tenancy: TenancyConfig,
    ) -> Result<Self, ClusterError> {
        let base = runner.into().with_threads(config.threads);
        config.batch.validate().map_err(ClusterError::Invalid)?;
        tenancy.validate().map_err(ClusterError::Invalid)?;

        let mut models = vec![config.model.clone()];
        let mut class_model = Vec::with_capacity(tenancy.classes.len());
        for class in &tenancy.classes {
            let idx = match &class.model {
                None => 0,
                Some(alias) => {
                    let mut resolved = zoo::by_name(alias).map_err(ClusterError::Invalid)?;
                    resolved.layers = config.model.layers;
                    match models.iter().position(|m| m.name == resolved.name) {
                        Some(i) => i,
                        None => {
                            models.push(resolved);
                            models.len() - 1
                        }
                    }
                }
            };
            class_model.push(idx);
        }
        if (config.plan.dp as usize) < models.len() {
            return Err(ClusterError::Invalid(format!(
                "plan dp {} cannot host {} distinct models (need dp >= models)",
                config.plan.dp,
                models.len()
            )));
        }
        for model in &models {
            config
                .plan
                .validate_structure(base.system(), model)
                .map_err(ClusterError::Invalid)?;
        }
        // One pricer per model over one pod runner and one single-flight
        // cache: keys carry the model name, so multi-model pods share
        // compile work without collisions.
        let cache = Arc::new(PlanCache::new());
        let pricers = models
            .iter()
            .map(|m| {
                StepPricer::new(
                    &base,
                    m.clone(),
                    config.plan,
                    config.sim,
                    &config.batch,
                    Arc::clone(&cache),
                )
            })
            .collect();
        Ok(TenantServingSim {
            config,
            tenancy,
            models,
            class_model,
            pricers,
            obs: Obs::null(),
        })
    }

    /// Attaches an observation handle: kernel dispatch spans, admitted
    /// request lanes (via the shared cluster summary), and
    /// tenant-tagged disposition markers (admitted / rejected /
    /// deferred) on each sampled request's lane.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterServeConfig {
        &self.config
    }

    /// The tenancy policy.
    #[must_use]
    pub fn tenancy(&self) -> &TenancyConfig {
        &self.tenancy
    }

    /// Distinct models served by the pod (index 0 is the base model).
    #[must_use]
    pub fn models(&self) -> &[TransformerConfig] {
        &self.models
    }

    /// Cumulative plan-cache counters (across all runs and models).
    #[must_use]
    pub fn cache_stats(&self) -> elk_serve::CacheStats {
        self.pricers[0].cache_stats()
    }

    /// Serves `trace` under `design`, dispatching each model's share of
    /// the pod with `policy`. `tenants` names the tenant of each
    /// request, indexed by trace position (the side channel
    /// [`elk_trace::TraceFile::tenant_assignments`] produces); an empty
    /// slice puts every request under the `"default"` tenant.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when `tenants` is non-empty but does
    /// not match the trace length; compile failures propagate as
    /// [`ClusterError::Compile`].
    ///
    /// [`elk_trace::TraceFile::tenant_assignments`]:
    /// https://docs.rs/elk-trace
    pub fn run(
        &mut self,
        design: Design,
        policy: RouterPolicy,
        trace: &RequestTrace,
        tenants: &[String],
    ) -> Result<TenancyServingReport, ClusterError> {
        if !tenants.is_empty() && tenants.len() != trace.len() {
            return Err(ClusterError::Invalid(format!(
                "tenant assignments ({}) do not match the trace ({} requests)",
                tenants.len(),
                trace.len()
            )));
        }
        let reqs = &trace.requests;
        let mut book = self.tenant_book(tenants, reqs.len());
        let req_prio: Vec<u8> = book
            .of
            .iter()
            .map(|&t| self.tenancy.classes[book.class[t]].priority)
            .collect();

        // Per-tenant token buckets (None = the class is unlimited).
        let mut buckets: Vec<Option<TokenBucket>> = book
            .class
            .iter()
            .map(|&c| {
                let class = &self.tenancy.classes[c];
                class.rate_rps.map(|r| TokenBucket::new(r, class.burst))
            })
            .collect();

        // Group partition: groups round-robin across distinct models,
        // one router per model over its own groups.
        let dp = self.config.plan.dp as usize;
        let n_models = self.models.len();
        let model_groups: Vec<Vec<usize>> = (0..n_models)
            .map(|m| (0..dp).filter(|g| g % n_models == m).collect())
            .collect();
        let mut routers: Vec<Router> = model_groups
            .iter()
            .map(|gs| Router::new(policy, gs.len()))
            .collect();

        let mut core = GroupCore::new(dp, reqs.len());
        // The load shedder's view: every group's waiting queue pooled
        // into one time-weighted depth.
        let mut shed_depth = QueueStat::new();
        let pooled = |groups: &[Group]| groups.iter().map(|g| g.waiting.len()).sum();
        // Routes an admitted request over its model's groups and
        // inserts it into the waiting queue priority-first: before the
        // first strictly-lower-priority entry (larger number = lower
        // priority), after every equal-priority one — FIFO inside a
        // class. With one class this is exactly a push, preserving the
        // plain engine's order.
        let mut admit = |idx: usize, now, core: &mut GroupCore, shed_depth: &mut QueueStat| {
            let m = self.class_model[book.class[book.of[idx]]];
            let members = &model_groups[m];
            let gid = members[routers[m].route_by(|i| core.groups[members[i]].outstanding())];
            let waiting = &core.groups[gid].waiting;
            let pos = waiting
                .iter()
                .position(|&w| req_prio[w] > req_prio[idx])
                .unwrap_or(waiting.len());
            core.enqueue_at(gid, pos, idx, now);
            shed_depth.record(now, pooled(&core.groups));
        };

        let mut q: EventQueue<Ev> = EventQueue::new();
        // Every admissible class priority dispatches as an "arrival"
        // (deferred re-offers included); only the reserved band above
        // them is a step completion.
        let mut classes: Vec<(u8, &str)> = req_prio
            .iter()
            .map(|&p| (p, "arrival"))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        classes.push((PRIO_TENANT_STEP_DONE, "step_done"));
        q.observe(self.obs.clone(), "tenancy/kernel", &classes);
        q.feed(
            reqs.iter()
                .enumerate()
                .map(|(idx, req)| (req.arrival, req_prio[idx], Ev::Arrival(idx))),
        );

        while let Some(fired) = q.pop() {
            let now = q.now();
            match fired.event {
                Ev::Arrival(idx) => {
                    let t = book.of[idx];
                    let class = &self.tenancy.classes[book.class[t]];
                    let verdict = if !buckets[t].as_mut().is_none_or(|b| b.try_take(now)) {
                        Disposition::Rejected
                    } else {
                        // Past the threshold, the load shedder applies
                        // its policy to sheddable classes.
                        let shed = self.tenancy.shed_queue_depth.filter(|&threshold| {
                            class.sheddable
                                && now.as_secs() > 0.0
                                && shed_depth.area_until(now) / now.as_secs() > threshold
                        });
                        match shed.map(|_| self.tenancy.shed_policy) {
                            Some(ShedPolicy::Reject) => Disposition::Rejected,
                            Some(ShedPolicy::Defer) => Disposition::Deferred,
                            None => Disposition::Admitted,
                        }
                    };
                    book.disposition[idx] = Some(verdict);
                    match verdict {
                        Disposition::Admitted => admit(idx, now, &mut core, &mut shed_depth),
                        Disposition::Deferred => {
                            let delay = Seconds::new(self.tenancy.defer_s);
                            q.schedule_after(delay, req_prio[idx], Ev::Deferred(idx));
                        }
                        Disposition::Rejected => {}
                    }
                }
                // One-shot backpressure: the re-offer is served
                // unconditionally (its disposition stays Deferred).
                Ev::Deferred(idx) => admit(idx, now, &mut core, &mut shed_depth),
                Ev::StepDone { gid } => core.finish_step(gid, now, reqs, |_, _| {}),
            }
            let done = |gid| (PRIO_TENANT_STEP_DONE, Ev::StepDone { gid });
            core.dispatch(&mut q, &self.config.batch, reqs, done, |gid, groups, wl| {
                // A prefill drains the pooled waiting depth.
                if groups[gid].in_step() > 0 {
                    shed_depth.record(now, pooled(groups));
                }
                self.pricers[gid % n_models].split_step(design, wl)
            })?;
        }

        self.record_dispositions(&book, reqs);
        let GroupCore {
            groups, outcomes, ..
        } = core;
        // Rejected requests never complete and generate nothing.
        let completed: Vec<RequestOutcome> = outcomes.iter().flatten().copied().collect();
        let served_tokens = completed.iter().map(|o| o.output_len).sum();
        let fold = GroupFold::of(groups, completed, &self.config.slo, served_tokens);
        let base = ClusterServingReport::assemble(
            design,
            policy,
            &self.config,
            trace.len(),
            fold,
            (q.events_processed(), q.peak_len()),
            &self.obs,
        );
        Ok(self.tenant_report(base, &book, &outcomes))
    }

    /// Resolves each request's tenant: distinct tenants in
    /// first-appearance order, each with its class. Untagged traces
    /// collapse to one "default" tenant.
    fn tenant_book(&self, tenants: &[String], requests: usize) -> TenantBook {
        let mut ids: Vec<String> = Vec::new();
        let of = (0..requests)
            .map(|i| {
                let name = tenants.get(i).map_or("default", String::as_str);
                ids.iter().position(|t| t == name).unwrap_or_else(|| {
                    ids.push(name.to_string());
                    ids.len() - 1
                })
            })
            .collect();
        let class = ids.iter().map(|t| self.tenancy.class_index_of(t)).collect();
        TenantBook {
            ids,
            of,
            class,
            disposition: vec![None; requests],
        }
    }

    /// Tenant-tagged disposition markers on each sampled request's
    /// lane (the arrival→admission leg of its path) plus per-kind
    /// counters.
    fn record_dispositions(&self, book: &TenantBook, reqs: &[Request]) {
        if !self.obs.enabled() {
            return;
        }
        for (idx, d) in book.disposition.iter().enumerate() {
            let Some(d) = *d else { continue };
            let name = match d {
                Disposition::Admitted => "admitted",
                Disposition::Rejected => "rejected",
                Disposition::Deferred => "deferred",
            };
            self.obs.counter(&format!("tenancy.{name}"), 1);
            if !self.obs.sampled(idx) {
                continue;
            }
            let t = book.of[idx];
            let args = [
                ("tenant", book.ids[t].clone()),
                ("class", self.tenancy.classes[book.class[t]].name.clone()),
            ];
            self.obs.instant(
                &format!("req/{}", reqs[idx].id),
                name,
                reqs[idx].arrival,
                &args,
            );
        }
    }

    /// The tenancy report: the base aggregate plus per-tenant slices
    /// and the fairness index.
    fn tenant_report(
        &self,
        base: ClusterServingReport,
        book: &TenantBook,
        outcomes: &[Option<RequestOutcome>],
    ) -> TenancyServingReport {
        for (idx, d) in book.disposition.iter().enumerate() {
            let d = d.expect("every arrival fired");
            debug_assert_eq!(
                outcomes[idx].is_some(),
                d != Disposition::Rejected,
                "request {idx}: disposition and completion must agree"
            );
        }
        let count = |t: usize, want: Disposition| {
            book.disposition
                .iter()
                .enumerate()
                .filter(|&(idx, &d)| book.of[idx] == t && d == Some(want))
                .count()
        };
        let tenants: Vec<TenantReport> = book
            .ids
            .iter()
            .enumerate()
            .map(|(t, tenant)| {
                let class = &self.tenancy.classes[book.class[t]];
                let done: Vec<RequestOutcome> = outcomes
                    .iter()
                    .enumerate()
                    .filter(|&(idx, _)| book.of[idx] == t)
                    .filter_map(|(_, o)| *o)
                    .collect();
                let l = LatencyFold::of(&done, &class.slo, base.makespan, 0);
                TenantReport {
                    tenant: tenant.clone(),
                    class: class.name.clone(),
                    arrivals: book.of.iter().filter(|&&x| x == t).count(),
                    admitted: count(t, Disposition::Admitted),
                    rejected: count(t, Disposition::Rejected),
                    deferred: count(t, Disposition::Deferred),
                    completed: done.len(),
                    slo_attainment: l.slo_attainment,
                    goodput_rps: l.goodput_rps,
                    ttft: l.ttft,
                    tpot: l.tpot,
                    e2e: l.e2e,
                }
            })
            .collect();
        let shares: Vec<f64> = tenants.iter().map(|t| t.goodput_rps).collect();
        TenancyServingReport {
            admitted: tenants.iter().map(|t| t.admitted).sum(),
            rejected: tenants.iter().map(|t| t.rejected).sum(),
            deferred: tenants.iter().map(|t| t.deferred).sum(),
            jain_fairness: jain_index(&shares),
            tenants,
            base,
        }
    }
}

/// Who each request belongs to and what admission did with it.
struct TenantBook {
    /// Distinct tenant ids, in first-appearance order.
    ids: Vec<String>,
    /// Each request's index into `ids`.
    of: Vec<usize>,
    /// Each tenant's class index.
    class: Vec<usize>,
    /// Each request's terminal disposition, once its arrival fired.
    disposition: Vec<Option<Disposition>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ParallelismPlan;
    use crate::serve::ClusterServingSim;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{BatchConfig, LengthModel, RateShape, SloConfig, TenantClass, TraceConfig};

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

    fn cycle_tenants(trace: &RequestTrace, ids: &[&str]) -> Vec<String> {
        (0..trace.len())
            .map(|i| ids[i % ids.len()].to_string())
            .collect()
    }

    #[test]
    fn trivial_tenancy_reproduces_the_plain_engine_bit_for_bit() {
        let trace = tiny_trace(12);
        let plan = ParallelismPlan::new(2, 1, 2);
        let mut plain = ClusterServingSim::new(presets::ipu_pod4(), tiny_config(plan)).unwrap();
        let mut tenanted = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(plan),
            TenancyConfig::default(),
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let a = plain.run(Design::ElkFull, policy, &trace).unwrap();
            let b = tenanted.run(Design::ElkFull, policy, &trace, &[]).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b.base).unwrap(),
                "{policy}: a trivial tenancy layer must not perturb the engine"
            );
            assert_eq!(b.rejected, 0);
            assert_eq!(b.deferred, 0);
            assert_eq!(b.admitted, trace.len());
            assert_eq!(b.jain_fairness, 1.0, "one tenant is trivially fair");
        }
    }

    #[test]
    fn token_bucket_rejections_conserve_and_skip_the_queues() {
        let trace = tiny_trace(16);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass {
                    rate_rps: Some(1.0),
                    burst: 2,
                    ..TenantClass::named("limited")
                },
                TenantClass::named("free"),
            ],
            tenants: vec![("t0".to_string(), "limited".to_string())],
            default_class: "free".to_string(),
            ..TenancyConfig::default()
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2)),
            tenancy,
        )
        .unwrap();
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert!(
            r.rejected > 0,
            "a 1 rps bucket must reject a 200 rps tenant"
        );
        for t in &r.tenants {
            assert_eq!(
                t.arrivals,
                t.admitted + t.rejected + t.deferred,
                "{}",
                t.tenant
            );
            assert_eq!(t.completed, t.admitted + t.deferred, "{}", t.tenant);
        }
        let free = r.tenants.iter().find(|t| t.tenant == "t1").unwrap();
        assert_eq!(free.rejected, 0, "the unlimited class never sheds");
        assert_eq!(
            r.base.completed,
            r.admitted + r.deferred,
            "rejected requests never reach a step"
        );
        assert_eq!(
            r.base.per_group_requests.iter().sum::<usize>(),
            r.base.completed,
            "groups only ever saw admitted requests"
        );
        assert!(
            r.jain_fairness < 1.0,
            "throttling one tenant shows up in fairness"
        );
    }

    #[test]
    fn priority_classes_reorder_equal_time_queues() {
        // Two tenants, premium priority 0 vs bulk priority 9. Large
        // prompts cap each prefill at 2 requests, so the queue drains
        // over several steps and priority insertion is observable: the
        // late-arriving vip pair must prefill before bulk requests that
        // arrived earlier (under FIFO they would go last).
        let mut requests = Vec::new();
        for i in 0..8u64 {
            requests.push(elk_serve::Request {
                id: i,
                arrival: Seconds::from_millis(0.5 * i as f64),
                prompt_len: 1024,
                output_len: 2,
            });
        }
        let trace = RequestTrace::from_requests(requests);
        let tenants: Vec<String> = (0..8)
            .map(|i| if i < 6 { "bulk" } else { "vip" }.to_string())
            .collect();
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("premium"),
                TenantClass {
                    priority: 9,
                    ..TenantClass::named("bulk_class")
                },
            ],
            tenants: vec![("vip".to_string(), "premium".to_string())],
            default_class: "bulk_class".to_string(),
            ..TenancyConfig::default()
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 1)),
            tenancy,
        )
        .unwrap();
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        let vip = r.tenants.iter().find(|t| t.tenant == "vip").unwrap();
        assert_eq!(vip.class, "premium");
        let first_token = |id: u64| {
            r.base
                .outcomes
                .iter()
                .find(|o| o.id == id)
                .unwrap()
                .first_token
        };
        let vip_last = first_token(6).max(first_token(7));
        let overtaken = (0..6).filter(|&id| first_token(id) > vip_last).count();
        assert!(
            overtaken >= 2,
            "priority must move the vip pair ahead of earlier bulk arrivals \
             (only {overtaken} bulk requests prefilled after them)"
        );
    }

    #[test]
    fn defer_policy_delays_but_completes_everything() {
        let trace = tiny_trace(16);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("premium"),
                TenantClass {
                    priority: 5,
                    sheddable: true,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("t0".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: Some(0.05),
            shed_policy: ShedPolicy::Defer,
            defer_s: 0.2,
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 1)),
            tenancy,
        )
        .unwrap();
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert!(r.deferred > 0, "pressure must defer some best-effort work");
        assert_eq!(r.rejected, 0, "defer policy never drops");
        assert_eq!(
            r.base.completed,
            trace.len(),
            "deferred work still completes"
        );
        let premium = r.tenants.iter().find(|t| t.tenant == "t0").unwrap();
        assert_eq!(
            premium.deferred, 0,
            "non-sheddable classes are never deferred"
        );
    }

    #[test]
    fn mixed_models_share_one_pod_and_one_cache() {
        let trace = tiny_trace(10);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("default"),
                TenantClass {
                    model: Some("opt30".to_string()),
                    ..TenantClass::named("opt_class")
                },
            ],
            tenants: vec![("t1".to_string(), "opt_class".to_string())],
            ..TenancyConfig::default()
        };
        let mut sim = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 2)),
            tenancy,
        )
        .unwrap();
        assert_eq!(sim.models().len(), 2);
        assert_eq!(sim.models()[1].name, "OPT-30B");
        assert_eq!(
            sim.models()[1].layers,
            sim.models()[0].layers,
            "class models inherit the pod-sized layer count"
        );
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let r = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert_eq!(r.base.completed, 10);
        // The llama tenant lands only on even groups, the OPT tenant
        // only on odd ones (round-robin model partition).
        for o in &r.base.outcomes {
            let t = &tenants[o.id as usize];
            assert_eq!(o.replica % 2, usize::from(t == "t1"), "request {}", o.id);
        }
        let misses = sim.cache_stats().misses;
        let r2 = sim
            .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
            .unwrap();
        assert_eq!(
            sim.cache_stats().misses,
            misses,
            "second run is fully cached"
        );
        assert_eq!(r.base.outcomes, r2.base.outcomes, "replay is deterministic");
    }

    #[test]
    fn dp_must_cover_the_distinct_models() {
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("default"),
                TenantClass {
                    model: Some("opt30".to_string()),
                    ..TenantClass::named("opt_class")
                },
            ],
            ..TenancyConfig::default()
        };
        let e = TenantServingSim::new(
            presets::ipu_pod4(),
            tiny_config(ParallelismPlan::new(1, 1, 1)),
            tenancy,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(e.to_string().contains("distinct models"), "{e}");
    }

    #[test]
    fn thread_count_does_not_change_tenancy_outcomes() {
        let trace = tiny_trace(10);
        let plan = ParallelismPlan::new(2, 1, 2);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("premium"),
                TenantClass {
                    priority: 7,
                    sheddable: true,
                    rate_rps: Some(50.0),
                    burst: 4,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("t0".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: Some(0.5),
            shed_policy: ShedPolicy::Reject,
            ..TenancyConfig::default()
        };
        let tenants = cycle_tenants(&trace, &["t0", "t1", "t2"]);
        let mut seq =
            TenantServingSim::new(presets::ipu_pod4(), tiny_config(plan), tenancy.clone()).unwrap();
        let mut par = TenantServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                threads: 4,
                ..tiny_config(plan)
            },
            tenancy,
        )
        .unwrap();
        for policy in RouterPolicy::all() {
            let a = seq.run(Design::ElkFull, policy, &trace, &tenants).unwrap();
            let b = par.run(Design::ElkFull, policy, &trace, &tenants).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{policy}: tenancy reports must be byte-identical across threads"
            );
        }
    }

    #[test]
    fn admission_control_protects_premium_goodput_under_overload() {
        // Saturating burst: one group, everyone piles in at once. With
        // admission control the best-effort firehose is shed, so the
        // premium tenant's requests clear faster and meet a tight SLO.
        let trace = TraceConfig {
            seed: 5,
            requests: 40,
            rate: RateShape::bursty(400.0, 4.0, 0.5, 0.2).expect("valid burst recipe"),
            prompt_len: LengthModel::Uniform { lo: 200, hi: 600 },
            output_len: LengthModel::Uniform { lo: 2, hi: 8 },
        }
        .generate();
        let tenants = cycle_tenants(&trace, &["prem", "be", "be", "be"]);
        let slo = SloConfig {
            ttft: Seconds::from_millis(400.0),
            tpot: Seconds::from_millis(60.0),
        };
        let classes = |limit: bool| TenancyConfig {
            classes: vec![
                TenantClass {
                    slo,
                    ..TenantClass::named("premium")
                },
                TenantClass {
                    priority: 9,
                    sheddable: true,
                    rate_rps: limit.then_some(30.0),
                    burst: 4,
                    slo,
                    ..TenantClass::named("best_effort")
                },
            ],
            tenants: vec![("prem".to_string(), "premium".to_string())],
            default_class: "best_effort".to_string(),
            shed_queue_depth: limit.then_some(2.0),
            shed_policy: ShedPolicy::Reject,
            ..TenancyConfig::default()
        };
        let run = |tenancy: TenancyConfig| {
            let mut sim = TenantServingSim::new(
                presets::ipu_pod4(),
                tiny_config(ParallelismPlan::new(1, 1, 1)),
                tenancy,
            )
            .unwrap();
            sim.run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants)
                .unwrap()
        };
        let open = run(classes(false));
        let managed = run(classes(true));
        assert!(
            managed.rejected > 0,
            "overload must trigger admission control"
        );
        let prem = |r: &TenancyServingReport| {
            r.tenants
                .iter()
                .find(|t| t.tenant == "prem")
                .unwrap()
                .goodput_rps
        };
        assert!(
            prem(&managed) > prem(&open),
            "admission control must protect premium goodput ({} vs {})",
            prem(&managed),
            prem(&open)
        );
    }

    #[test]
    fn every_priced_step_has_a_table_slot() {
        let trace = crate::pricing::tests::long_prompts(20);
        let tenancy = TenancyConfig {
            classes: vec![
                TenantClass::named("llama"),
                TenantClass {
                    model: Some("opt30".into()),
                    ..TenantClass::named("opt")
                },
            ],
            tenants: vec![("t1".to_string(), "opt".to_string())],
            default_class: "llama".to_string(),
            ..TenancyConfig::default()
        };
        let tenants = cycle_tenants(&trace, &["t0", "t1"]);
        let mut config = tiny_config(ParallelismPlan::new(2, 1, 2));
        config.batch.max_prefill_tokens = 1 << 16;
        for bucket_batch in [true, false] {
            config.batch.bucket_batch = bucket_batch;
            let mut sim =
                TenantServingSim::new(presets::ipu_pod4(), config.clone(), tenancy.clone())
                    .unwrap();
            let r = sim.run(Design::ElkFull, RouterPolicy::RoundRobin, &trace, &tenants);
            assert_eq!(r.unwrap().base.completed, 20);
            let splits: usize = sim
                .pricers
                .iter()
                .map(|p| p.split_steps(&config.batch))
                .sum();
            assert!(splits > 0, "bucket_batch {bucket_batch}: no step split");
        }
    }
}
