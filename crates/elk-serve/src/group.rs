//! The continuous-batching step machine every serving engine runs:
//! per-group waiting/active state, step planning and completion, the
//! end-of-instant dispatch scan, and the fold into the report fields
//! the engines share.
//!
//! A [`GroupCore`] knows nothing about routing or pricing. An engine
//! owns the event queue and its event type, and drives the core with
//! three calls: [`enqueue`](GroupCore::enqueue) on an arrival it
//! routed, [`finish_step`](GroupCore::finish_step) when a group's
//! step-done event fires, and [`dispatch`](GroupCore::dispatch) after
//! every event, with a closure that prices each planned step.
//!
//! Three capabilities let a core serve one half of a split pipeline.
//! Each is inert unless used, so a colocated engine never sees them:
//!
//! * **(a) chunked prefill admission** ([`with_prefill_cap`]): a
//!   prompt-token cap per prefill step, walked over the waiting queue
//!   head first. Only the last prompt admitted to a step can be cut;
//!   it returns to the front of the queue when the step retires, and
//!   its next step resumes where the cut stopped. Each group keeps at
//!   most one such partially prefilled head. A cap of 0 keeps the
//!   uncapped admission rule (free slots, `max_prefill_tokens`).
//! * **(b) a staged queue** ([`stage`]): requests whose prompt another
//!   group prefilled release their first token on arrival and wait
//!   there; [`plan_step`] admits them into the active set, up to
//!   `max_batch`, before it picks the step.
//! * **(c) prefill completions that leave the group**
//!   ([`hand_off_prefills`]): a completed prompt goes to
//!   [`finish_step`]'s callback, in batch order, instead of joining the
//!   group's active set.
//!
//! [`with_prefill_cap`]: GroupCore::with_prefill_cap
//! [`stage`]: GroupCore::stage
//! [`plan_step`]: GroupCore::plan_step
//! [`hand_off_prefills`]: GroupCore::hand_off_prefills
//! [`finish_step`]: GroupCore::finish_step

use elk_model::{Phase, Workload};
use elk_obs::Obs;
use elk_sim_core::{EventQueue, QueueStat};
use elk_units::Seconds;

use crate::batcher::{next_step, BatchConfig, StepPlan};
use crate::metrics::{LatencyStats, RequestOutcome, SloConfig};
use crate::trace::Request;

/// A request past its prefill, generating one token per decode step.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    /// Index into the engine's request slice.
    idx: usize,
    /// Tokens generated so far (1 after prefill).
    generated: u64,
}

/// What a group's in-flight step does when it completes.
#[derive(Debug, Clone)]
pub enum PendingStep {
    /// Prefill of these request indices; each emits its first token at
    /// completion, except a last prompt the prefill cap cut.
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
    /// Requests whose first token another group produced, waiting for
    /// a batch slot.
    staged: Vec<InFlight>,
    /// Decoding requests.
    active: Vec<InFlight>,
    /// The step running on the group's chips, if any.
    pub pending: Option<PendingStep>,
    /// Prompt tokens already prefilled of the group's partially
    /// prefilled request: the last of the in-flight prefill step, or
    /// the waiting head once that step retires. 0 when there is none.
    prefilled: u64,
    /// Prefill steps completed.
    pub prefill_steps: u64,
    /// Prompt tokens admitted into prefill steps.
    pub prompt_tokens: u64,
    /// Decode steps completed.
    pub decode_steps: u64,
    /// Queue depth trace (transitions + time-weighted area): waiting
    /// plus staged requests.
    pub queue: QueueStat,
    /// Requests enqueued or staged on this group.
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
        self.waiting.len() + self.staged.len() + self.active.len() + self.in_step()
    }

    /// `true` when the group holds no request and runs no step.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.waiting.is_empty()
            && self.staged.is_empty()
            && self.active.is_empty()
            && self.pending.is_none()
    }

    /// Records the queue depth at `now`.
    fn record_depth(&mut self, now: Seconds) {
        self.queue
            .record(now, self.waiting.len() + self.staged.len());
    }

    /// Moves staged requests into the active set at `now`, in staging
    /// order, up to `max_batch` active, and returns the active count.
    pub fn admit_staged(&mut self, now: Seconds, cfg: &BatchConfig) -> usize {
        let free = (cfg.max_batch as usize).saturating_sub(self.active.len());
        let n = free.min(self.staged.len());
        if n > 0 {
            self.active.extend(self.staged.drain(..n));
            self.record_depth(now);
        }
        self.active.len()
    }
}

/// The first-token outcome of `req` on group `gid` at `now`.
fn first_token(req: &Request, gid: usize, now: Seconds) -> RequestOutcome {
    RequestOutcome {
        id: req.id,
        replica: gid,
        arrival: req.arrival,
        first_token: now,
        completion: now,
        output_len: req.output_len,
    }
}

/// The live state of a set of chip groups serving one request slice.
#[derive(Debug, Clone)]
pub struct GroupCore {
    /// Group state, by group index.
    pub groups: Vec<Group>,
    /// Per-request timelines, indexed like the request slice; `None`
    /// until the request's first token.
    pub outcomes: Vec<Option<RequestOutcome>>,
    /// Prompt-token cap per prefill step; 0 admits by `next_step`.
    prefill_cap: u64,
    /// Completed prompts leave through `finish_step`'s callback.
    hand_off: bool,
}

impl GroupCore {
    /// `groups` idle groups for a slice of `requests` requests.
    #[must_use]
    pub fn new(groups: usize, requests: usize) -> Self {
        GroupCore {
            groups: vec![Group::default(); groups],
            outcomes: vec![None; requests],
            prefill_cap: 0,
            hand_off: false,
        }
    }

    /// Caps the prompt tokens one prefill step admits at `cap` (0 keeps
    /// the uncapped rule).
    #[must_use]
    pub fn with_prefill_cap(self, cap: u64) -> Self {
        GroupCore {
            prefill_cap: cap,
            ..self
        }
    }

    /// Sends every completed prompt to [`finish_step`](Self::finish_step)'s
    /// callback instead of the group's active set.
    #[must_use]
    pub fn hand_off_prefills(self) -> Self {
        GroupCore {
            hand_off: true,
            ..self
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
        group.record_depth(now);
    }

    /// Stages request `idx`, whose prompt another group prefilled, on
    /// group `gid` at `now`: its first token is released now. A
    /// multi-token request joins the active set at the group's next
    /// step; a single-token one completes here.
    pub fn stage(&mut self, gid: usize, idx: usize, now: Seconds, reqs: &[Request]) {
        let group = &mut self.groups[gid];
        group.served += 1;
        if reqs[idx].output_len > 1 {
            group.staged.push(InFlight { idx, generated: 1 });
            group.record_depth(now);
        }
        self.outcomes[idx] = Some(first_token(&reqs[idx], gid, now));
    }

    /// Applies the completion of group `gid`'s in-flight step at `now`:
    /// a prefill emits each completed prompt's first token (a prompt
    /// the cap cut returns to the front of the queue), a decode
    /// advances every active request by one token. `done` sees the
    /// index and outcome of each request leaving the group: its last
    /// token produced or, when prefills hand off, its prompt complete.
    ///
    /// # Panics
    ///
    /// Panics if the group has no step in flight.
    pub fn finish_step(
        &mut self,
        gid: usize,
        now: Seconds,
        reqs: &[Request],
        mut done: impl FnMut(usize, &RequestOutcome),
    ) {
        let hand_off = self.hand_off;
        let group = &mut self.groups[gid];
        let outcomes = &mut self.outcomes;
        match group.pending.take().expect("step done implies a step") {
            PendingStep::Prefill { mut batch } => {
                group.prefill_steps += 1;
                let cut = (group.prefilled > 0).then(|| batch.pop().expect("a cut prompt"));
                for idx in batch {
                    let outcome = first_token(&reqs[idx], gid, now);
                    if !hand_off && reqs[idx].output_len > 1 {
                        group.active.push(InFlight { idx, generated: 1 });
                    } else {
                        done(idx, &outcome);
                    }
                    outcomes[idx] = Some(outcome);
                }
                if let Some(idx) = cut {
                    group.waiting.insert(0, idx);
                    group.record_depth(now);
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
                        done(a.idx, outcome);
                    }
                    live
                });
            }
        }
        group.end = now;
    }

    /// Plans group `gid`'s next step at `now`, with `busy` batch slots
    /// held by requests outside the group: admits staged requests, then
    /// drains a prefill batch from the waiting queue, or else picks a
    /// decode over the active set, and marks the step in flight.
    /// Returns the bucketed step workload, or `None` when the group is
    /// busy or has nothing to run.
    pub fn plan_step(
        &mut self,
        gid: usize,
        now: Seconds,
        cfg: &BatchConfig,
        reqs: &[Request],
        busy: usize,
    ) -> Option<Workload> {
        let cap = self.prefill_cap;
        let group = &mut self.groups[gid];
        if group.pending.is_some() {
            return None;
        }
        group.admit_staged(now, cfg);
        let occupied = group.active.len() + busy;
        let limit = if cap == 0 {
            let prompts = group.waiting.iter().map(|&i| reqs[i].prompt_len);
            match next_step(cfg, prompts, occupied) {
                Some(StepPlan::Prefill { admit }) => admit,
                _ => 0,
            }
        } else {
            (cfg.max_batch as usize).saturating_sub(occupied)
        };
        // Spend the cap on the queue head first; uncapped, every
        // admitted prompt runs whole.
        let mut budget = if cap == 0 { u64::MAX } else { cap };
        let (mut admit, mut deepest) = (0, 0);
        for (k, &idx) in group.waiting.iter().take(limit).enumerate() {
            if budget == 0 {
                break;
            }
            let prompt = reqs[idx].prompt_len;
            let before = if k == 0 { group.prefilled } else { 0 };
            let take = (prompt - before).min(budget);
            budget -= take;
            admit += 1;
            group.prompt_tokens += take;
            deepest = deepest.max(before + take);
            group.prefilled = if before + take < prompt {
                before + take
            } else {
                0
            };
        }
        let (step, wl) = if admit > 0 {
            let batch = group.waiting.drain(..admit).collect();
            group.record_depth(now);
            let wl = cfg.step_workload(Phase::Prefill, admit as u64, deepest);
            (PendingStep::Prefill { batch }, wl)
        } else if group.active.is_empty() {
            return None;
        } else {
            (
                PendingStep::Decode,
                decode_workload(cfg, reqs, &group.active),
            )
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
            if let Some(wl) = self.plan_step(gid, now, cfg, reqs, 0) {
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
fn decode_workload(cfg: &BatchConfig, reqs: &[Request], active: &[InFlight]) -> Workload {
    let deepest = active
        .iter()
        .map(|a| reqs[a.idx].prompt_len + a.generated)
        .max()
        .expect("decode requires >= 1 active");
    cfg.step_workload(Phase::Decode, active.len() as u64, deepest)
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

/// The report fields the engines derive identically from their groups
/// and completed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFold {
    /// Trace start to the later of the last step retired on any group
    /// and the last completion (a staged single-token request completes
    /// outside any step).
    pub makespan: Seconds,
    /// Latency percentiles, SLO attainment and rates.
    pub latency: LatencyFold,
    /// Prefill iterations across all groups.
    pub prefill_steps: u64,
    /// Decode iterations across all groups.
    pub decode_steps: u64,
    /// Requests enqueued on each group, in group order.
    pub per_group_requests: Vec<usize>,
    /// Time-weighted mean queue depth: each group's depth integrated to
    /// its own `end`, pooled over total simulated group-time.
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
            .chain(outcomes.iter().map(|o| o.completion))
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
        self.record_with(obs, prefix, lane_arg, |track, _, o| {
            let args = [(lane_arg, o.replica.to_string())];
            obs.span(
                track,
                "prefill",
                o.arrival,
                o.first_token - o.arrival,
                &args,
            );
        });
    }

    /// [`record`](Self::record) with the spans up to a sampled request's
    /// first token written by `head(track, idx, outcome)`.
    pub fn record_with(
        &self,
        obs: &Obs,
        prefix: &str,
        lane_arg: &str,
        mut head: impl FnMut(&str, usize, &RequestOutcome),
    ) {
        if !obs.enabled() {
            return;
        }
        record_latency_histograms(obs, prefix, &self.outcomes);
        for (i, o) in self.outcomes.iter().enumerate() {
            if !obs.sampled(i) {
                continue;
            }
            let track = format!("req/{}", o.id);
            head(&track, i, o);
            if o.completion > o.first_token {
                obs.span(
                    &track,
                    "decode",
                    o.first_token,
                    o.completion - o.first_token,
                    &[(lane_arg, o.replica.to_string())],
                );
            }
        }
    }
}

/// The time-weighted mean and the peak waiting depth of groups given as
/// `(queue, end)`: each queue is integrated over its own timeline and
/// pooled over total simulated group-time, so a long stall weighs by
/// its duration instead of counting as one sample.
fn queue_depth_fold<'a>(
    groups: impl Iterator<Item = (&'a QueueStat, Seconds)> + Clone,
) -> (f64, usize) {
    let area: f64 = groups.clone().map(|(q, end)| q.area_until(end)).sum();
    let time: f64 = groups.clone().map(|(_, end)| end.as_secs()).sum();
    let max = groups.map(|(q, _)| q.max_depth()).max().unwrap_or(0);
    (if time > 0.0 { area / time } else { 0.0 }, max)
}

/// Records every outcome into the `{prefix}.ttft`, `{prefix}.tpot`
/// (multi-token requests) and `{prefix}.e2e` histograms.
fn record_latency_histograms(obs: &Obs, prefix: &str, outcomes: &[RequestOutcome]) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use elk_model::SeqBuckets;

    fn cfg(max_batch: u64) -> BatchConfig {
        BatchConfig {
            max_batch,
            max_prefill_tokens: 4096,
            seq_buckets: SeqBuckets::new(1, 4096),
            bucket_batch: false,
        }
    }

    fn req(id: u64, prompt_len: u64, output_len: u64) -> Request {
        Request {
            id,
            arrival: Seconds::ZERO,
            prompt_len,
            output_len,
        }
    }

    #[test]
    fn a_capped_prefill_cuts_only_the_last_prompt_and_resumes_it_at_the_head() {
        let reqs = [req(0, 250, 4), req(1, 60, 1)];
        let mut core = GroupCore::new(1, 2)
            .with_prefill_cap(100)
            .hand_off_prefills();
        core.enqueue(0, 0, Seconds::ZERO);
        core.enqueue(0, 1, Seconds::ZERO);
        let mut left = Vec::new();
        // (batch, deepest context) per step: 0..100, 100..200, then
        // 200..250 with 1's first 50 tokens, then 1's last 10.
        for (t, want) in [(1, 128), (1, 256), (2, 256), (1, 64)]
            .into_iter()
            .enumerate()
        {
            let now = Seconds::new(t as f64);
            let wl = core.plan_step(0, now, &cfg(8), &reqs, 0).expect("a step");
            assert_eq!((wl.batch, wl.seq_len), want, "step {t}");
            core.finish_step(0, now, &reqs, |idx, o| left.push((idx, o.first_token)));
        }
        assert_eq!(left, [(0, Seconds::new(2.0)), (1, Seconds::new(3.0))]);
        let group = &core.groups[0];
        assert_eq!((group.prefill_steps, group.prompt_tokens), (4, 310));
        assert!(group.drained(), "completed prompts leave the group");
    }

    #[test]
    fn staged_requests_join_the_batch_up_to_max_batch() {
        let reqs = [req(0, 100, 3), req(1, 100, 3), req(2, 100, 1)];
        let mut core = GroupCore::new(1, 3);
        for idx in 0..3 {
            core.stage(0, idx, Seconds::ZERO, &reqs);
        }
        // The single-token request completed on landing.
        assert_eq!(core.groups[0].outstanding(), 2);
        assert_eq!(core.outcomes[2].expect("landed").completion, Seconds::ZERO);
        let now = Seconds::new(1.0);
        let wl = core.plan_step(0, now, &cfg(1), &reqs, 0).expect("a decode");
        assert_eq!((wl.phase, wl.batch), (Phase::Decode, 1));
        assert_eq!(core.groups[0].queue.depth(), 1, "one request still staged");
        assert_eq!(core.groups[0].served, 3);
    }
}
