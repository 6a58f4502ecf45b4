//! Autoscaling cluster serving: an elastic `dp` fleet on the shared
//! deterministic event kernel.
//!
//! [`AutoscaleServingSim`] replays a request trace like
//! [`ClusterServingSim`](crate::ClusterServingSim), but the number of
//! live replica groups is controlled at runtime: a periodic controller
//! compares the **time-weighted waiting-queue depth** per ready group
//! and the **windowed SLO attainment** against thresholds and grows or
//! shrinks the ready set between `min_groups` and `max_groups`.
//!
//! Spinning up a group is not free: the group must compile its stage
//! plans, so its cold start equals its plan-compilation cost —
//! [`AutoscaleConfig::cold_start_steps`] warm-up step latencies priced
//! through the same single-flight `PlanCache` the serving steps use.
//! Once the fleet has compiled the warm-up shapes, later spin-ups are
//! warm starts (the cache already holds the plans) and become ready
//! immediately — the cold/warm-start dynamic FaaS simulators model for
//! containers, with plan compilation as the cold path.
//!
//! Everything runs on the [`elk_sim_core`] kernel in one global event
//! order, the controller included, so reports are byte-identical at
//! any compile-thread count. No wall-clock quantity may be added to
//! [`AutoscaleReport`] — see the `PlanSearchStats` convention in
//! `elk-spec`.

use std::sync::Arc;

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_model::Phase;
use elk_obs::Obs;
use elk_serve::{
    check_positive, GroupCore, LatencyStats, PlanCache, RequestOutcome, RequestTrace, SloConfig,
};
use elk_sim_core::{EventQueue, PRIO_ARRIVAL, PRIO_STEP_DONE};
use elk_units::Seconds;

use crate::plan::ParallelismPlan;
use crate::pricing::StepPricer;
use crate::serve::ClusterServeConfig;
use crate::ClusterError;

/// Controller events fire after every arrival and step completion at
/// the same instant, so scaling decisions see settled state.
const PRIO_CONTROL: u8 = 2;

/// Autoscaling controller policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AutoscaleConfig {
    /// Groups provisioned at trace start and the floor the controller
    /// never shrinks below (`>= 1`).
    pub min_groups: u64,
    /// Ceiling on simultaneously provisioned groups; `tp * pp *
    /// max_groups` must fit the pod.
    pub max_groups: u64,
    /// Controller decision cadence (simulated seconds).
    pub interval: Seconds,
    /// Scale up when the window's time-weighted waiting depth per
    /// ready group exceeds this.
    pub up_queue_depth: f64,
    /// Scale down when the per-group depth falls below this (and the
    /// SLO target holds).
    pub down_queue_depth: f64,
    /// Windowed SLO-attainment floor: attainment below this also
    /// triggers a scale-up, and blocks scale-downs.
    pub slo_target: f64,
    /// Cold-start size: warm-up step latencies a fresh group pays
    /// before it can serve, priced through the plan cache.
    pub cold_start_steps: f64,
}

impl Default for AutoscaleConfig {
    /// One always-on group, up to four, quarter-second decisions.
    fn default() -> Self {
        AutoscaleConfig {
            min_groups: 1,
            max_groups: 4,
            interval: Seconds::new(0.25),
            up_queue_depth: 4.0,
            down_queue_depth: 0.5,
            slo_target: 0.9,
            cold_start_steps: 25.0,
        }
    }
}

impl AutoscaleConfig {
    /// The most controller ticks one run may take, `2²⁰`: a quarter-second
    /// interval covers three days of simulated time. A run whose trace
    /// has not drained by then fails instead of ticking on.
    pub const MAX_TICKS: u64 = 1 << 20;

    /// Checks the controller policy: `1 <= min_groups <= max_groups <=`
    /// [`ParallelismPlan::MAX_GROUPS`], a finite positive interval, ordered non-negative thresholds, an
    /// SLO target in `[0, 1]`, and a non-negative cold start.
    fn validate(&self) -> Result<(), String> {
        if self.min_groups < 1 {
            return Err("autoscale min_groups must be >= 1".into());
        }
        if self.max_groups < self.min_groups {
            return Err(format!(
                "autoscale max_groups ({}) must be >= min_groups ({})",
                self.max_groups, self.min_groups
            ));
        }
        if self.max_groups > ParallelismPlan::MAX_GROUPS {
            return Err(format!(
                "autoscale max_groups ({}) must be at most {}",
                self.max_groups,
                ParallelismPlan::MAX_GROUPS
            ));
        }
        check_positive("autoscale interval", self.interval.as_secs())?;
        if !(self.down_queue_depth >= 0.0 && self.up_queue_depth > self.down_queue_depth) {
            return Err(format!(
                "autoscale thresholds need up_queue_depth ({}) > down_queue_depth ({}) >= 0",
                self.up_queue_depth, self.down_queue_depth
            ));
        }
        if !(0.0..=1.0).contains(&self.slo_target) {
            return Err(format!(
                "autoscale slo_target must be in [0, 1], got {}",
                self.slo_target
            ));
        }
        if self.cold_start_steps < 0.0 {
            return Err("autoscale cold_start_steps must be >= 0".into());
        }
        Ok(())
    }
}

/// A fleet transition, in controller order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaleEventKind {
    /// The controller provisioned the group (it starts warming, or is
    /// ready at once on a warm start).
    Up,
    /// The group finished its cold start and joined the ready set.
    Ready,
    /// The controller marked the group draining: no new requests, and
    /// it leaves once its queue empties.
    Down,
    /// A drained group released its chips.
    Off,
}

/// One entry of the fleet transition log.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScaleEvent {
    /// Simulated time of the transition.
    pub time: Seconds,
    /// What happened.
    pub kind: ScaleEventKind,
    /// The group it happened to.
    pub group: usize,
    /// Ready groups immediately after the transition.
    pub ready: usize,
    /// Cold-start delay paid (`Up` only; zero on warm starts and
    /// reactivations).
    pub cold_start: Seconds,
}

/// Aggregated result of one autoscaled serving run. Deterministic: no
/// wall-clock fields, byte-identical at any `threads` setting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AutoscaleReport {
    /// The design that served the trace.
    pub design: Design,
    /// Group shape and fleet ceiling: `(tp, pp, max_groups)`.
    pub plan: ParallelismPlan,
    /// Fleet floor.
    pub min_groups: u64,
    /// Fleet ceiling.
    pub max_groups: u64,
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
    /// Requests dispatched to each group slot, in slot order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean waiting-queue depth (same contract as
    /// [`ClusterServingReport`](crate::ClusterServingReport)).
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth transitions, all groups interleaved.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// Up transitions the controller issued (initial provisioning
    /// included).
    pub scale_ups: u64,
    /// Down transitions the controller issued.
    pub scale_downs: u64,
    /// Spin-ups that paid a fresh plan compile (the rest were warm).
    pub cold_starts: u64,
    /// Total simulated seconds spent in cold starts.
    pub cold_start_total: Seconds,
    /// Provisioned chip-time: Σ over groups of (time from `Up` to
    /// `Off` or makespan) × `tp` × `pp`, in chip-seconds. The
    /// autoscaler's cost side; compare against `dp × tp × pp ×
    /// makespan` for a static fleet.
    pub chip_seconds: f64,
    /// Most groups simultaneously provisioned (warming included).
    pub peak_groups: usize,
    /// The fleet transition log, time-monotone.
    pub transitions: Vec<ScaleEvent>,
    /// Simulation-kernel events fired (arrivals, step completions,
    /// controller ticks, ready events).
    pub sim_events: u64,
    /// Per-request timelines, in trace order (`replica` is the group).
    pub outcomes: Vec<RequestOutcome>,
}

/// Lifecycle of a group slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum GroupState {
    /// Released: no chips held, receives nothing.
    #[default]
    Off,
    /// Provisioned, compiling its plans; receives nothing yet.
    Warming,
    /// Serving and eligible for new arrivals.
    Ready,
    /// Finishing its queue; receives no new arrivals.
    Draining,
}

/// Events on the autoscaled fleet's shared timeline.
enum Ev {
    /// The request at this trace index reaches the front-end router.
    Arrival(usize),
    /// This group's in-flight scheduler step completes.
    StepDone {
        /// Index of the group whose step finished.
        gid: usize,
    },
    /// This group's cold start finishes.
    GroupReady {
        /// Index of the group that finished warming.
        gid: usize,
    },
    /// Periodic controller decision point.
    ScaleTick,
}

/// One group slot's lifecycle; its serving state lives in the shared
/// [`GroupCore`].
#[derive(Default)]
struct Slot {
    state: GroupState,
    /// When the slot was last provisioned (None while off).
    on_since: Option<Seconds>,
    /// Accumulated provisioned time from finished on-intervals.
    on_time: Seconds,
}

/// Trace-driven serving simulator with an elastic group fleet.
///
/// Owns the same `StepPricer` machinery as
/// [`ClusterServingSim`](crate::ClusterServingSim): stage plans live in
/// one single-flight cache, so serving steps and cold-start warm-ups
/// price identically and consecutive runs reuse compiled stages.
#[derive(Debug)]
pub struct AutoscaleServingSim {
    config: ClusterServeConfig,
    auto: AutoscaleConfig,
    pricer: StepPricer,
    obs: Obs,
}

impl AutoscaleServingSim {
    /// Creates a simulator on the pod of `runner`, sharing its cost model
    /// and plan sets. The `(tp, pp)` of `config.plan` shapes every group;
    /// its `dp` is ignored — the fleet runs between `auto.min_groups` and
    /// `auto.max_groups`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Invalid`] when the controller config is
    /// ill-formed or `tp * pp * max_groups` does not fit the pod.
    pub fn new(
        runner: impl Into<DesignRunner>,
        config: ClusterServeConfig,
        auto: AutoscaleConfig,
    ) -> Result<Self, ClusterError> {
        let runner = runner.into().with_threads(config.threads);
        config.batch.validate().map_err(ClusterError::Invalid)?;
        auto.validate().map_err(ClusterError::Invalid)?;
        let plan = ParallelismPlan::new(config.plan.tp, config.plan.pp, auto.max_groups);
        plan.validate_structure(runner.system(), &config.model)
            .map_err(ClusterError::Invalid)?;
        let config = ClusterServeConfig { plan, ..config };
        let pricer = StepPricer::new(
            &runner,
            config.model.clone(),
            config.plan,
            config.sim,
            &config.batch,
            Arc::new(PlanCache::new()),
        );
        Ok(AutoscaleServingSim {
            config,
            auto,
            pricer,
            obs: Obs::null(),
        })
    }

    /// Attaches a recorder: subsequent runs emit kernel dispatch spans,
    /// per-request lanes, fleet-transition instants on the `fleet`
    /// track, and `autoscale.*` metrics. All recorded quantities are
    /// sim-time only and byte-identical across `threads` settings.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The serve configuration (with `plan.dp` set to `max_groups`).
    #[must_use]
    pub fn config(&self) -> &ClusterServeConfig {
        &self.config
    }

    /// The cold-start delay a fresh (cache-cold) group pays under
    /// `design` for a trace whose longest prompt is `prompt_hint`
    /// tokens: [`AutoscaleConfig::cold_start_steps`] × the warm-up
    /// shape set's step latencies, priced through the plan cache.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`].
    pub fn cold_start_cost(
        &self,
        design: Design,
        prompt_hint: u64,
    ) -> Result<Seconds, ClusterError> {
        let batch = &self.config.batch;
        let warmup = [
            batch.step_workload(Phase::Prefill, 1, prompt_hint),
            batch.step_workload(Phase::Decode, batch.max_batch, prompt_hint),
        ];
        let mut total = Seconds::ZERO;
        for wl in warmup {
            total += self.pricer.split_step(design, wl)?;
        }
        Ok(Seconds::new(total.as_secs() * self.auto.cold_start_steps))
    }

    /// Serves `trace` under `design` with the elastic fleet and
    /// reports request-level metrics plus the scale transition log.
    ///
    /// # Errors
    ///
    /// Propagates compile failures as [`ClusterError::Compile`], and
    /// returns [`ClusterError::Invalid`] when the controller would tick
    /// more than [`AutoscaleConfig::MAX_TICKS`] times.
    pub fn run(
        &mut self,
        design: Design,
        trace: &RequestTrace,
    ) -> Result<AutoscaleReport, ClusterError> {
        let max = self.auto.max_groups as usize;
        let min = self.auto.min_groups as usize;
        let reqs = &trace.requests;
        let mut core = GroupCore::new(max, trace.len());
        let mut fleet = Fleet::new(max, min);
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.observe(
            self.obs.clone(),
            "autoscale/kernel",
            &[
                (PRIO_ARRIVAL, "arrival"),
                (PRIO_STEP_DONE, "step_done"),
                (PRIO_CONTROL, "control"),
            ],
        );

        // The warm-up shape set prices against the trace's worst-case
        // prompt, so the cold start covers the plans the group will
        // actually need.
        let prompt_hint = reqs.iter().map(|r| r.prompt_len).max().unwrap_or(1);
        let cold_cost = self.cold_start_cost(design, prompt_hint)?;

        q.feed(
            reqs.iter()
                .enumerate()
                .map(|(idx, req)| (req.arrival, PRIO_ARRIVAL, Ev::Arrival(idx))),
        );
        if !trace.is_empty() {
            q.schedule(self.auto.interval, PRIO_CONTROL, Ev::ScaleTick);
        }

        let mut completed = 0usize;
        let mut ticks = 0u64;
        let mut window_completed = 0usize;
        let mut window_met = 0usize;
        let mut area_prev = 0.0f64;

        while let Some(fired) = q.pop() {
            let now = q.now();
            match fired.event {
                Ev::Arrival(idx) => {
                    // Least-outstanding over the ready set, lowest
                    // index on ties — deterministic, and requests are
                    // never routed to warming or draining groups.
                    let pick = fleet
                        .slots
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.state == GroupState::Ready)
                        .min_by_key(|&(gid, _)| (core.groups[gid].outstanding(), gid))
                        .map(|(gid, _)| gid)
                        .expect("the fleet floor keeps >= 1 group ready");
                    core.enqueue(pick, idx, now);
                }
                Ev::StepDone { gid } => core.finish_step(gid, now, reqs, |_, o| {
                    completed += 1;
                    window_completed += 1;
                    window_met += usize::from(o.meets(&self.config.slo));
                }),
                Ev::GroupReady { gid } => {
                    debug_assert_eq!(fleet.slots[gid].state, GroupState::Warming);
                    fleet.slots[gid].state = GroupState::Ready;
                    fleet.log(now, ScaleEventKind::Ready, gid, Seconds::ZERO);
                }
                Ev::ScaleTick => {
                    ticks += 1;
                    if ticks > AutoscaleConfig::MAX_TICKS {
                        return Err(ClusterError::Invalid(format!(
                            "autoscale interval ({:?} s) is too short: the controller ticked \
                             {} times, its limit, before the trace drained",
                            self.auto.interval.as_secs(),
                            AutoscaleConfig::MAX_TICKS
                        )));
                    }
                    let area_now: f64 = core.groups.iter().map(|g| g.queue.area_until(now)).sum();
                    let ready = fleet.ready().max(1) as f64;
                    let depth = (area_now - area_prev) / self.auto.interval.as_secs() / ready;
                    area_prev = area_now;
                    let attainment = if window_completed > 0 {
                        window_met as f64 / window_completed as f64
                    } else {
                        1.0
                    };
                    window_completed = 0;
                    window_met = 0;
                    if let Some((gid, cold)) =
                        self.control(&mut fleet, now, depth, attainment, cold_cost)
                    {
                        q.schedule_after(cold, PRIO_CONTROL, Ev::GroupReady { gid });
                    }
                    if completed < trace.len() {
                        q.schedule_after(self.auto.interval, PRIO_CONTROL, Ev::ScaleTick);
                    }
                }
            }
            // Off and warming groups hold no requests, so the scan only
            // ever starts steps on ready or draining groups.
            let done = |gid| (PRIO_STEP_DONE, Ev::StepDone { gid });
            let closed = core.dispatch(&mut q, &self.config.batch, reqs, done, |_, _, wl| {
                self.pricer.split_step(design, wl)
            })?;
            // At the end of the instant, an idle draining group releases
            // its chips.
            if !closed {
                continue;
            }
            for gid in 0..max {
                if fleet.slots[gid].state == GroupState::Draining && core.groups[gid].drained() {
                    fleet.release(now, gid);
                }
            }
        }

        let sim_events = q.events_processed();
        Ok(self.summarize(design, trace, core, fleet, sim_events))
    }

    /// One controller decision at `now` from the window's per-group
    /// waiting depth and SLO attainment: at most one transition per
    /// tick, and none while a group warms — a cooldown so the
    /// controller waits for ordered capacity before ordering more.
    /// Returns the group whose cold start `now` began, with its delay.
    fn control(
        &self,
        fleet: &mut Fleet,
        now: Seconds,
        depth: f64,
        attainment: f64,
        cold_cost: Seconds,
    ) -> Option<(usize, Seconds)> {
        let ready = fleet.ready();
        let warming = fleet.slots.iter().any(|s| s.state == GroupState::Warming);
        let overloaded = depth > self.auto.up_queue_depth || attainment < self.auto.slo_target;
        let idle = depth < self.auto.down_queue_depth && attainment >= self.auto.slo_target;
        let state = |want: GroupState| fleet.slots.iter().position(|s| s.state == want);
        if !warming && overloaded && ready < fleet.slots.len() {
            if let Some(gid) = state(GroupState::Draining) {
                // Cheapest capacity first: a draining group is still
                // warm and running — reactivate.
                fleet.slots[gid].state = GroupState::Ready;
                fleet.log(now, ScaleEventKind::Up, gid, Seconds::ZERO);
                fleet.log(now, ScaleEventKind::Ready, gid, Seconds::ZERO);
            } else if let Some(gid) = state(GroupState::Off) {
                // Only the run's first spin-up compiles the warm-up
                // shapes; later ones hit the shared cache and start
                // warm. Deliberately NOT read from PlanCache counters —
                // those shift with the compile worker count.
                let cold = if fleet.warm { Seconds::ZERO } else { cold_cost };
                fleet.warm = true;
                fleet.slots[gid].state = GroupState::Warming;
                fleet.slots[gid].on_since = Some(now);
                let on = fleet.slots.iter().filter(|s| s.state != GroupState::Off);
                fleet.peak_groups = fleet.peak_groups.max(on.count());
                fleet.log(now, ScaleEventKind::Up, gid, cold);
                return Some((gid, cold));
            }
        } else if !warming && idle && ready > self.auto.min_groups as usize {
            // Drain the highest-index ready group: lowest indices stay
            // the stable core of the fleet.
            let gid = fleet
                .slots
                .iter()
                .rposition(|s| s.state == GroupState::Ready)
                .expect("ready > min >= 1");
            fleet.slots[gid].state = GroupState::Draining;
            fleet.log(now, ScaleEventKind::Down, gid, Seconds::ZERO);
        }
        None
    }

    /// Folds the run into the report: the shared group fold plus the
    /// fleet's transition log, counters and chip-seconds.
    fn summarize(
        &self,
        design: Design,
        trace: &RequestTrace,
        core: GroupCore,
        fleet: Fleet,
        sim_events: u64,
    ) -> AutoscaleReport {
        let kinds = |kind| fleet.transitions.iter().filter(|e| e.kind == kind).count() as u64;
        let (scale_ups, scale_downs) = (kinds(ScaleEventKind::Up), kinds(ScaleEventKind::Down));
        let colds = fleet
            .transitions
            .iter()
            .filter(|e| e.cold_start > Seconds::ZERO);
        let cold_starts = colds.clone().count() as u64;
        let cold_start_total = colds.fold(Seconds::ZERO, |t, e| t + e.cold_start);
        if self.obs.enabled() {
            self.obs.counter("autoscale.scale_ups", scale_ups);
            self.obs.counter("autoscale.scale_downs", scale_downs);
            self.obs.counter("autoscale.cold_starts", cold_starts);
            for ev in &fleet.transitions {
                let name = match ev.kind {
                    ScaleEventKind::Up => "up",
                    ScaleEventKind::Ready => "ready",
                    ScaleEventKind::Down => "down",
                    ScaleEventKind::Off => "off",
                };
                self.obs.instant(
                    "fleet",
                    name,
                    ev.time,
                    &[
                        ("group", ev.group.to_string()),
                        ("ready", ev.ready.to_string()),
                    ],
                );
                self.obs
                    .gauge("fleet", "ready_groups", ev.time, ev.ready as f64);
            }
        }
        let fold = core.fold(&self.config.slo, trace.total_output_tokens());
        fold.record(&self.obs, "autoscale", "group");
        let makespan = fold.makespan;
        // Groups still provisioned at the end bill until the makespan.
        let group_chips = (self.config.plan.tp * self.config.plan.pp) as f64;
        let chip_seconds: f64 = fleet
            .slots
            .iter()
            .map(|s| {
                let mut on = s.on_time;
                if let Some(since) = s.on_since {
                    if makespan > since {
                        on += makespan - since;
                    }
                }
                on.as_secs() * group_chips
            })
            .sum();
        let l = fold.latency;
        AutoscaleReport {
            design,
            plan: self.config.plan,
            min_groups: self.auto.min_groups,
            max_groups: self.auto.max_groups,
            requests: trace.len(),
            completed: fold.outcomes.len(),
            makespan,
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
            per_group_requests: fold.per_group_requests,
            mean_queue_depth: fold.mean_queue_depth,
            max_queue_depth: fold.max_queue_depth,
            queue_depth: fold.queue_depth,
            scale_ups,
            scale_downs,
            cold_starts,
            cold_start_total,
            chip_seconds,
            peak_groups: fleet.peak_groups,
            transitions: fleet.transitions,
            sim_events,
            outcomes: fold.outcomes,
        }
    }
}

/// The elastic fleet: slot lifecycles and the transition log, from
/// which the report's scale counters derive.
struct Fleet {
    slots: Vec<Slot>,
    transitions: Vec<ScaleEvent>,
    /// Most groups simultaneously provisioned (warming included).
    peak_groups: usize,
    /// `true` once a spin-up this run has compiled the warm-up shapes.
    warm: bool,
}

impl Fleet {
    /// `max` slots with the `min` floor provisioned and ready before
    /// the trace window opens.
    fn new(max: usize, min: usize) -> Self {
        let mut fleet = Fleet {
            slots: (0..max).map(|_| Slot::default()).collect(),
            transitions: Vec::new(),
            peak_groups: min,
            warm: false,
        };
        for gid in 0..min {
            fleet.log(Seconds::ZERO, ScaleEventKind::Up, gid, Seconds::ZERO);
            fleet.slots[gid].state = GroupState::Ready;
            fleet.slots[gid].on_since = Some(Seconds::ZERO);
            fleet.log(Seconds::ZERO, ScaleEventKind::Ready, gid, Seconds::ZERO);
        }
        fleet
    }

    /// Ready groups.
    fn ready(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state == GroupState::Ready)
            .count()
    }

    /// Logs a transition of `group`, stamped with the ready count after
    /// it.
    fn log(&mut self, time: Seconds, kind: ScaleEventKind, group: usize, cold_start: Seconds) {
        let ready = self.ready();
        self.transitions.push(ScaleEvent {
            time,
            kind,
            group,
            ready,
            cold_start,
        });
    }

    /// A drained group releases its chips.
    fn release(&mut self, now: Seconds, gid: usize) {
        let slot = &mut self.slots[gid];
        slot.state = GroupState::Off;
        if let Some(since) = slot.on_since.take() {
            slot.on_time += now - since;
        }
        self.log(now, ScaleEventKind::Off, gid, Seconds::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_hw::presets;
    use elk_model::{zoo, SeqBuckets};
    use elk_serve::{BatchConfig, Request, RouterPolicy};
    use elk_units::Seconds;

    fn tiny_config() -> ClusterServeConfig {
        let mut model = zoo::llama2_13b();
        model.layers = 2;
        ClusterServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_prefill_tokens: 2048,
                seq_buckets: SeqBuckets::new(256, 2048),
                bucket_batch: true,
            },
            ..ClusterServeConfig::new(model, ParallelismPlan::new(1, 1, 1))
        }
    }

    /// A front-loaded burst: `n` requests in a tight opening volley,
    /// then a sparse tail, so the controller first grows then shrinks.
    fn burst_trace(n: usize) -> RequestTrace {
        let mut requests: Vec<Request> = (0..n as u64)
            .map(|i| Request {
                id: i,
                arrival: Seconds::from_millis(2.0 * i as f64),
                prompt_len: 300 + 37 * (i % 5),
                output_len: 2 + i % 6,
            })
            .collect();
        for i in 0..6u64 {
            requests.push(Request {
                id: n as u64 + i,
                arrival: Seconds::new(3.0 + 0.5 * i as f64),
                prompt_len: 256,
                output_len: 2,
            });
        }
        RequestTrace::from_requests(requests)
    }

    fn sim(auto: AutoscaleConfig) -> AutoscaleServingSim {
        AutoscaleServingSim::new(presets::ipu_pod4(), tiny_config(), auto).expect("valid config")
    }

    fn busy_auto() -> AutoscaleConfig {
        AutoscaleConfig {
            interval: Seconds::new(0.1),
            up_queue_depth: 1.0,
            down_queue_depth: 0.25,
            ..AutoscaleConfig::default()
        }
    }

    #[test]
    fn burst_scales_up_then_back_down() {
        let report = sim(busy_auto())
            .run(Design::ElkFull, &burst_trace(40))
            .expect("runs");
        assert_eq!(report.completed, report.requests);
        assert!(report.scale_ups > 1, "the burst must trigger a spin-up");
        assert!(
            report.scale_downs >= 1,
            "the sparse tail must trigger a drain: {:?}",
            report.transitions
        );
        assert_eq!(report.cold_starts, 1, "first spin-up pays, later are warm");
        assert!(report.cold_start_total > Seconds::ZERO);
        assert!(report.peak_groups > 1);
        assert!(report.chip_seconds > 0.0);
        // The fleet never exceeds its bounds.
        assert!(report.peak_groups <= report.max_groups as usize);
    }

    #[test]
    fn a_controller_ticking_past_its_limit_fails_the_run() {
        let auto = AutoscaleConfig {
            interval: Seconds::new(1e-12),
            ..busy_auto()
        };
        let e = sim(auto).run(Design::ElkFull, &burst_trace(4)).unwrap_err();
        assert!(
            matches!(&e, ClusterError::Invalid(m) if m.contains("ticked 1048576 times")),
            "{e:?}"
        );
    }

    #[test]
    fn transitions_are_time_monotone_and_consistent() {
        let report = sim(busy_auto())
            .run(Design::ElkFull, &burst_trace(40))
            .expect("runs");
        let mut last = Seconds::ZERO;
        for ev in &report.transitions {
            assert!(ev.time >= last, "transition log must be time-sorted");
            last = ev.time;
        }
        let ups = report
            .transitions
            .iter()
            .filter(|e| e.kind == ScaleEventKind::Up)
            .count() as u64;
        assert_eq!(ups, report.scale_ups);
        // Every Up is eventually matched by a Ready for that group.
        for ev in &report.transitions {
            if ev.kind == ScaleEventKind::Up {
                assert!(
                    report
                        .transitions
                        .iter()
                        .any(|e| e.kind == ScaleEventKind::Ready
                            && e.group == ev.group
                            && e.time >= ev.time),
                    "group {} went up but never ready",
                    ev.group
                );
            }
        }
    }

    #[test]
    fn static_floor_matches_fixed_fleet() {
        // min == max disables scaling: the run must match the plain
        // cluster engine with the same dp and router, event for event.
        let auto = AutoscaleConfig {
            min_groups: 2,
            max_groups: 2,
            ..AutoscaleConfig::default()
        };
        let trace = burst_trace(20);
        let a = sim(auto).run(Design::ElkFull, &trace).expect("autoscaled");
        let mut fixed = crate::ClusterServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                ..ClusterServeConfig {
                    plan: ParallelismPlan::new(1, 1, 2),
                    ..tiny_config()
                }
            },
        )
        .expect("fixed fleet");
        let b = fixed
            .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &trace)
            .expect("fixed run");
        assert_eq!(a.outcomes, b.outcomes, "same routing, same timelines");
        assert_eq!(a.prefill_steps, b.prefill_steps);
        assert_eq!(a.decode_steps, b.decode_steps);
        assert_eq!(a.scale_ups, 2, "only the initial provisioning");
        assert_eq!(a.scale_downs, 0);
        assert_eq!(a.cold_starts, 0);
    }

    #[test]
    fn no_request_lands_on_an_unready_group() {
        let report = sim(busy_auto())
            .run(Design::ElkFull, &burst_trace(40))
            .expect("runs");
        // Reconstruct each group's ready intervals from the log and
        // check every outcome's arrival fell inside one.
        for o in &report.outcomes {
            let mut ready_at: Option<Seconds> = None;
            let mut covered = false;
            for ev in &report.transitions {
                if ev.group != o.replica || ev.time > o.arrival {
                    continue;
                }
                match ev.kind {
                    ScaleEventKind::Ready | ScaleEventKind::Up
                        if ev.kind == ScaleEventKind::Ready =>
                    {
                        ready_at = Some(ev.time);
                    }
                    ScaleEventKind::Down | ScaleEventKind::Off => ready_at = None,
                    _ => {}
                }
                covered = ready_at.is_some();
            }
            assert!(
                covered,
                "request {} arrived at {} on group {} outside a ready interval",
                o.id, o.arrival, o.replica
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let trace = burst_trace(30);
        let mut seq = sim(busy_auto());
        let mut par = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            ClusterServeConfig {
                threads: 8,
                ..tiny_config()
            },
            busy_auto(),
        )
        .expect("valid config");
        let a = seq.run(Design::ElkFull, &trace).expect("t1");
        let b = par.run(Design::ElkFull, &trace).expect("t8");
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "autoscaled serving must be byte-identical across thread counts"
        );
    }

    #[test]
    fn bad_configs_are_rejected() {
        let err = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            tiny_config(),
            AutoscaleConfig {
                min_groups: 0,
                ..AutoscaleConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("min_groups"), "{err}");
        let err = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            tiny_config(),
            AutoscaleConfig {
                max_groups: 8,
                ..AutoscaleConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("chips"), "{err}");
        let err = AutoscaleServingSim::new(
            presets::ipu_pod4(),
            tiny_config(),
            AutoscaleConfig {
                up_queue_depth: 0.1,
                down_queue_depth: 0.5,
                ..AutoscaleConfig::default()
            },
        )
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("up_queue_depth"), "{err}");
    }

    #[test]
    fn max_groups_past_the_group_limit_is_rejected() {
        let limit = ParallelismPlan::MAX_GROUPS;
        let auto = |max_groups| AutoscaleConfig {
            max_groups,
            ..AutoscaleConfig::default()
        };
        assert_eq!(auto(limit).validate(), Ok(()));
        let e = auto(limit + 1).validate().unwrap_err();
        assert_eq!(e, "autoscale max_groups (1025) must be at most 1024");
    }

    #[test]
    fn every_priced_step_has_a_table_slot() {
        let trace = crate::pricing::tests::long_prompts(20);
        let mut config = tiny_config();
        config.batch.max_prefill_tokens = 1 << 16;
        for bucket_batch in [true, false] {
            config.batch.bucket_batch = bucket_batch;
            let mut sim =
                AutoscaleServingSim::new(presets::ipu_pod4(), config.clone(), busy_auto()).unwrap();
            assert_eq!(sim.run(Design::ElkFull, &trace).unwrap().completed, 20);
            let splits = sim.pricer.split_steps(&config.batch);
            assert!(splits > 0, "bucket_batch {bucket_batch}: no step split");
        }
    }
}
