//! The continuous-batching step machine every colocated serving engine
//! runs: per-group waiting/active state, step planning and completion,
//! the end-of-instant dispatch scan, the micro-batch split fallback,
//! and the fold into the report fields the engines share.
//!
//! A [`GroupCore`] knows nothing about routing or pricing. An engine
//! owns the event queue and its event type, and drives the core with
//! three calls: [`enqueue`](GroupCore::enqueue) on an arrival it
//! routed, [`finish_step`](GroupCore::finish_step) when a group's
//! step-done event fires, and [`dispatch`](GroupCore::dispatch) after
//! every event, with a closure that prices each planned step.

use elk_core::CompileError;
use elk_model::{Phase, Workload};
use elk_obs::Obs;
use elk_sim_core::{EventQueue, QueueStat};
use elk_units::Seconds;

use crate::batcher::{next_step, BatchConfig, StepPlan};
use crate::metrics::{LatencyStats, RequestOutcome, SloConfig};
use crate::trace::Request;

/// A request past its prefill, generating one token per decode step.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// Index into the engine's request slice.
    pub idx: usize,
    /// Tokens generated so far (1 after prefill).
    pub generated: u64,
}

/// What a group's in-flight step does when it completes.
#[derive(Debug, Clone)]
pub enum PendingStep {
    /// Prefill of these request indices; each emits its first token at
    /// completion.
    Prefill {
        /// Request indices admitted into the step.
        batch: Vec<usize>,
    },
    /// One decode iteration over the group's whole active set.
    Decode,
}

/// One chip group's live serving state.
#[derive(Debug, Clone, Default)]
pub struct Group {
    /// Waiting queue of request indices, in admission order.
    pub waiting: Vec<usize>,
    /// Decoding requests.
    pub active: Vec<InFlight>,
    /// The step running on the group's chips, if any.
    pub pending: Option<PendingStep>,
    /// Prefill steps completed.
    pub prefill_steps: u64,
    /// Decode steps completed.
    pub decode_steps: u64,
    /// Waiting-queue depth trace (transitions + time-weighted area).
    pub queue: QueueStat,
    /// Requests enqueued on this group.
    pub served: usize,
    /// Completion time of the group's last step.
    pub end: Seconds,
}

impl Group {
    /// Requests inside the in-flight prefill step (0 while decoding or
    /// idle).
    #[must_use]
    pub fn in_step(&self) -> usize {
        match &self.pending {
            Some(PendingStep::Prefill { batch }) => batch.len(),
            _ => 0,
        }
    }

    /// Queued + in-flight requests, as a front-end router observes
    /// them: requests inside an unfinished prefill step still count.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.waiting.len() + self.active.len() + self.in_step()
    }

    /// `true` when the group holds no request and runs no step.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.waiting.is_empty() && self.active.is_empty() && self.pending.is_none()
    }
}

/// The live state of a set of chip groups serving one request slice.
#[derive(Debug, Clone)]
pub struct GroupCore {
    /// Group state, by group index.
    pub groups: Vec<Group>,
    /// Per-request timelines, indexed like the request slice; `None`
    /// until the request's prefill completes.
    pub outcomes: Vec<Option<RequestOutcome>>,
}

impl GroupCore {
    /// `groups` idle groups for a slice of `requests` requests.
    #[must_use]
    pub fn new(groups: usize, requests: usize) -> Self {
        GroupCore {
            groups: vec![Group::default(); groups],
            outcomes: vec![None; requests],
        }
    }

    /// Appends request `idx` to group `gid`'s waiting queue at `now`.
    pub fn enqueue(&mut self, gid: usize, idx: usize, now: Seconds) {
        let pos = self.groups[gid].waiting.len();
        self.enqueue_at(gid, pos, idx, now);
    }

    /// Inserts request `idx` at position `pos` of group `gid`'s waiting
    /// queue at `now`.
    pub fn enqueue_at(&mut self, gid: usize, pos: usize, idx: usize, now: Seconds) {
        let group = &mut self.groups[gid];
        group.waiting.insert(pos, idx);
        group.served += 1;
        group.queue.record(now, group.waiting.len());
    }

    /// Applies the completion of group `gid`'s in-flight step at `now`:
    /// a prefill emits each request's first token, a decode advances
    /// every active request by one token. `done` sees each request
    /// whose last token this step produced.
    ///
    /// # Panics
    ///
    /// Panics if the group has no step in flight.
    pub fn finish_step(
        &mut self,
        gid: usize,
        now: Seconds,
        reqs: &[Request],
        mut done: impl FnMut(&RequestOutcome),
    ) {
        let group = &mut self.groups[gid];
        let outcomes = &mut self.outcomes;
        match group.pending.take().expect("step done implies a step") {
            PendingStep::Prefill { batch } => {
                group.prefill_steps += 1;
                for idx in batch {
                    let req = &reqs[idx];
                    let outcome = RequestOutcome {
                        id: req.id,
                        replica: gid,
                        arrival: req.arrival,
                        first_token: now,
                        completion: now,
                        output_len: req.output_len,
                    };
                    if req.output_len > 1 {
                        group.active.push(InFlight { idx, generated: 1 });
                    } else {
                        done(&outcome);
                    }
                    outcomes[idx] = Some(outcome);
                }
            }
            PendingStep::Decode => {
                group.decode_steps += 1;
                group.active.retain_mut(|a| {
                    a.generated += 1;
                    let outcome = outcomes[a.idx].as_mut().expect("prefilled");
                    outcome.completion = now;
                    let live = a.generated < reqs[a.idx].output_len;
                    if !live {
                        done(outcome);
                    }
                    live
                });
            }
        }
        group.end = now;
    }

    /// Plans group `gid`'s next step at `now`: drains the admitted
    /// prefill batch from the waiting queue, or picks a decode over the
    /// active set, and marks the step in flight. Returns the bucketed
    /// step workload, or `None` when the group is busy or has nothing
    /// to run.
    fn plan_step(
        &mut self,
        gid: usize,
        now: Seconds,
        cfg: &BatchConfig,
        reqs: &[Request],
    ) -> Option<Workload> {
        let group = &mut self.groups[gid];
        if group.pending.is_some() {
            return None;
        }
        let prompts = group.waiting.iter().map(|&i| reqs[i].prompt_len);
        let (step, wl) = match next_step(cfg, prompts, group.active.len())? {
            StepPlan::Prefill { admit } => {
                let batch: Vec<usize> = group.waiting.drain(..admit).collect();
                group.queue.record(now, group.waiting.len());
                let longest = batch
                    .iter()
                    .map(|&i| reqs[i].prompt_len)
                    .max()
                    .expect("prefill admits >= 1");
                let wl = cfg.step_workload(Phase::Prefill, batch.len() as u64, longest);
                (PendingStep::Prefill { batch }, wl)
            }
            StepPlan::Decode => (
                PendingStep::Decode,
                decode_workload(cfg, reqs, &group.active),
            ),
        };
        group.pending = Some(step);
        Some(wl)
    }

    /// The end-of-instant dispatch. Defers until every event at the
    /// kernel's current instant has fired (so all simultaneous arrivals
    /// and completions are applied), then plans a step on every idle
    /// group in index order (deterministic), prices it with `price`
    /// (given the group's index, every group's state and the step
    /// workload) and schedules
    /// the `done(gid)` event, at its priority class, after the priced
    /// latency. Returns whether the scan ran.
    ///
    /// # Errors
    ///
    /// Propagates the first error `price` returns.
    pub fn dispatch<Ev, E>(
        &mut self,
        q: &mut EventQueue<Ev>,
        cfg: &BatchConfig,
        reqs: &[Request],
        done: impl Fn(usize) -> (u8, Ev),
        mut price: impl FnMut(usize, &[Group], Workload) -> Result<Seconds, E>,
    ) -> Result<bool, E> {
        let now = q.now();
        if q.peek_time() == Some(now) {
            return Ok(false);
        }
        for gid in 0..self.groups.len() {
            if let Some(wl) = self.plan_step(gid, now, cfg, reqs) {
                let latency = price(gid, &self.groups, wl)?;
                let (prio, event) = done(gid);
                q.schedule_after(latency, prio, event);
            }
        }
        Ok(true)
    }

    /// Folds a drained run into the shared report fields, scoring
    /// `tokens` generated tokens.
    ///
    /// # Panics
    ///
    /// Panics if some request never completed.
    #[must_use]
    pub fn fold(self, slo: &SloConfig, tokens: u64) -> GroupFold {
        let outcomes = self
            .outcomes
            .into_iter()
            .map(|o| o.expect("the drain completes every request"))
            .collect();
        GroupFold::of(self.groups, outcomes, slo, tokens)
    }
}

/// The bucketed workload of one decode step over `active`: every
/// request generates a token against its deepest context so far.
///
/// # Panics
///
/// Panics if `active` is empty.
#[must_use]
pub fn decode_workload(cfg: &BatchConfig, reqs: &[Request], active: &[InFlight]) -> Workload {
    let deepest = active
        .iter()
        .map(|a| reqs[a.idx].prompt_len + a.generated)
        .max()
        .expect("decode requires >= 1 active");
    cfg.step_workload(Phase::Decode, active.len() as u64, deepest)
}

/// The micro-batch fallback, one level deep: when the whole `wl` shape
/// has no feasible on-chip plan (`whole` failed with a capacity error —
/// prefill attention is quadratic in sequence length, so long-context
/// steps can exceed SRAM at batch sizes decode handles fine), the step
/// runs as two sequential half-batches priced through `half`. A batch-1
/// failure is a genuine error: the request cannot run on this chip.
///
/// Memo-agnostic: `compile_error` exposes the caller's error as a
/// [`CompileError`], and a caller with a memo routes `half` back
/// through it.
///
/// # Errors
///
/// `whole`'s error when it is not recoverable by splitting, else the
/// first error of `half`.
pub fn split_micro_batches<E>(
    wl: Workload,
    whole: Result<Seconds, E>,
    compile_error: impl Fn(&E) -> &CompileError,
    mut half: impl FnMut(Workload) -> Result<Seconds, E>,
) -> Result<Seconds, E> {
    match whole {
        Err(e)
            if wl.batch > 1
                && matches!(
                    compile_error(&e),
                    CompileError::NoFeasiblePlan { .. } | CompileError::CapacityExceeded { .. }
                ) =>
        {
            let lo = Workload {
                batch: wl.batch / 2,
                ..wl
            };
            let hi = Workload {
                batch: wl.batch - wl.batch / 2,
                ..wl
            };
            let a = half(lo)?;
            let b = if hi.batch == lo.batch { a } else { half(hi)? };
            Ok(a + b)
        }
        other => other,
    }
}

/// [`split_micro_batches`] all the way down, with no memo: every
/// shape, halves included, is priced by `price`.
pub(crate) fn split_unmemoized(
    wl: Workload,
    price: &impl Fn(Workload) -> Result<Seconds, CompileError>,
) -> Result<Seconds, CompileError> {
    split_micro_batches(wl, price(wl), |e| e, |half| split_unmemoized(half, price))
}

/// The latency and SLO fields every serving report carries.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyFold {
    /// Time-to-first-token summary.
    pub ttft: LatencyStats,
    /// Time-per-output-token summary (multi-token requests only).
    pub tpot: LatencyStats,
    /// End-to-end latency summary.
    pub e2e: LatencyStats,
    /// Fraction of completed requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second of makespan.
    pub goodput_rps: f64,
    /// All completions per second of makespan.
    pub throughput_rps: f64,
    /// Generated tokens per second of makespan.
    pub tokens_per_sec: f64,
}

impl LatencyFold {
    /// Scores `outcomes` against `slo` over `makespan`, with `tokens`
    /// generated tokens.
    #[must_use]
    pub fn of(
        outcomes: &[RequestOutcome],
        slo: &SloConfig,
        makespan: Seconds,
        tokens: u64,
    ) -> Self {
        let ttft: Vec<Seconds> = outcomes.iter().map(RequestOutcome::ttft).collect();
        let tpot: Vec<Seconds> = outcomes.iter().filter_map(RequestOutcome::tpot).collect();
        let e2e: Vec<Seconds> = outcomes.iter().map(RequestOutcome::e2e).collect();
        let met = outcomes.iter().filter(|o| o.meets(slo)).count();
        let span = makespan.as_secs();
        let per_sec = |x: f64| if span > 0.0 { x / span } else { 0.0 };
        LatencyFold {
            ttft: LatencyStats::of(&ttft),
            tpot: LatencyStats::of(&tpot),
            e2e: LatencyStats::of(&e2e),
            slo_attainment: met as f64 / outcomes.len().max(1) as f64,
            goodput_rps: per_sec(met as f64),
            throughput_rps: per_sec(outcomes.len() as f64),
            tokens_per_sec: per_sec(tokens as f64),
        }
    }
}

/// The report fields the colocated engines derive identically from
/// their groups and completed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFold {
    /// Trace start to the last step retired on any group.
    pub makespan: Seconds,
    /// Latency percentiles, SLO attainment and rates.
    pub latency: LatencyFold,
    /// Prefill iterations across all groups.
    pub prefill_steps: u64,
    /// Decode iterations across all groups.
    pub decode_steps: u64,
    /// Requests enqueued on each group, in group order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean waiting-queue depth ([`queue_depth_fold`]).
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group at any instant.
    pub max_queue_depth: usize,
    /// `(time, waiting)` depth transitions, all groups interleaved in
    /// time order.
    pub queue_depth: Vec<(Seconds, usize)>,
    /// The completed requests' timelines, in request order.
    pub outcomes: Vec<RequestOutcome>,
}

impl GroupFold {
    /// Folds `groups` and their completed `outcomes`, scoring `tokens`
    /// generated tokens against `slo`.
    #[must_use]
    pub fn of(
        groups: Vec<Group>,
        outcomes: Vec<RequestOutcome>,
        slo: &SloConfig,
        tokens: u64,
    ) -> Self {
        let makespan = groups
            .iter()
            .map(|g| g.end)
            .fold(Seconds::ZERO, Seconds::max);
        let (mean_queue_depth, max_queue_depth) =
            queue_depth_fold(groups.iter().map(|g| (&g.queue, g.end)));
        let prefill_steps = groups.iter().map(|g| g.prefill_steps).sum();
        let decode_steps = groups.iter().map(|g| g.decode_steps).sum();
        let per_group_requests = groups.iter().map(|g| g.served).collect();
        let mut queue_depth: Vec<(Seconds, usize)> = groups
            .into_iter()
            .flat_map(|g| g.queue.into_samples())
            .collect();
        queue_depth.sort_by_key(|&(t, _)| t);
        GroupFold {
            makespan,
            latency: LatencyFold::of(&outcomes, slo, makespan, tokens),
            prefill_steps,
            decode_steps,
            per_group_requests,
            mean_queue_depth,
            max_queue_depth,
            queue_depth,
            outcomes,
        }
    }

    /// Records the `{prefix}.ttft/tpot/e2e` histograms and, for sampled
    /// requests, a `req/<id>` lane with prefill and decode spans tagged
    /// `lane_arg` = the serving group. Derived from the final outcome
    /// list (request order), so deterministic by construction.
    pub fn record(&self, obs: &Obs, prefix: &str, lane_arg: &str) {
        if !obs.enabled() {
            return;
        }
        record_latency_histograms(obs, prefix, &self.outcomes);
        for (i, o) in self.outcomes.iter().enumerate() {
            if !obs.sampled(i) {
                continue;
            }
            let track = format!("req/{}", o.id);
            let args = [(lane_arg, o.replica.to_string())];
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
}

/// The time-weighted mean and the peak waiting depth of groups given as
/// `(queue, end)`: each queue is integrated over its own timeline and
/// pooled over total simulated group-time, so a long stall weighs by
/// its duration instead of counting as one sample.
pub fn queue_depth_fold<'a>(
    groups: impl Iterator<Item = (&'a QueueStat, Seconds)> + Clone,
) -> (f64, usize) {
    let area: f64 = groups.clone().map(|(q, end)| q.area_until(end)).sum();
    let time: f64 = groups.clone().map(|(_, end)| end.as_secs()).sum();
    let max = groups.map(|(q, _)| q.max_depth()).max().unwrap_or(0);
    (if time > 0.0 { area / time } else { 0.0 }, max)
}

/// Records every outcome into the `{prefix}.ttft`, `{prefix}.tpot`
/// (multi-token requests) and `{prefix}.e2e` histograms.
pub fn record_latency_histograms(obs: &Obs, prefix: &str, outcomes: &[RequestOutcome]) {
    if !obs.enabled() {
        return;
    }
    let (ttft, tpot, e2e) = (
        format!("{prefix}.ttft"),
        format!("{prefix}.tpot"),
        format!("{prefix}.e2e"),
    );
    for o in outcomes {
        obs.histogram(&ttft, o.ttft());
        if let Some(t) = o.tpot() {
            obs.histogram(&tpot, t);
        }
        obs.histogram(&e2e, o.e2e());
    }
}
