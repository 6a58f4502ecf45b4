//! Property tests for the serving engines' conservation invariants on
//! the shared `elk-sim-core` event kernel:
//!
//! * every arrival produces exactly one completion — no request is
//!   dropped or double-completed, whatever the trace shape;
//! * per-request timelines are causal: `arrival <= first_token <=
//!   completion`, and nothing outlives the reported makespan;
//! * the merged queue-depth transition log is monotone in time, and
//!   integrating it reproduces the reported time-weighted mean;
//! * under disaggregation, every arrival prefills exactly once, hands
//!   off exactly once, and decodes exactly once, with the handoff
//!   instant equal to the first token and every byte priced by the
//!   KV-handoff formula;
//! * under multi-tenant admission control, every arrival gets exactly
//!   one disposition (admitted, rejected, or deferred), admitted and
//!   deferred requests complete exactly once, rejected requests never
//!   reach a group's step log, the per-tenant slices sum back to the
//!   whole-run totals, and the token bucket never grants more credit
//!   than its burst plus simulated-time refill.
//!
//! One simulator instance is shared across all proptest cases (the
//! plan cache makes repeated runs cheap); the length distributions are
//! kept inside one coarse bucket ladder so only a handful of distinct
//! step shapes ever compile.

use std::sync::{Mutex, OnceLock};

use elk::baselines::Design;
use elk::cluster::{
    kv_handoff_bytes, AutoscaleConfig, AutoscaleServingSim, ClusterServeConfig, ClusterServingSim,
    DisaggConfig, DisaggServingSim, ParallelismPlan, ScaleEvent, ScaleEventKind, TenantServingSim,
};
use elk::prelude::*;
use elk::serve::{
    RequestOutcome, RouterPolicy, ShedPolicy, SloConfig, TenancyConfig, TenantClass, TokenBucket,
};
use proptest::prelude::*;

/// Serving dynamics are independent of layer count; two layers keep
/// compiles doctest-sized.
fn model() -> TransformerConfig {
    let mut cfg = zoo::llama2_13b();
    cfg.layers = 2;
    cfg
}

fn batch() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        max_prefill_tokens: 2048,
        seq_buckets: SeqBuckets::new(256, 2048),
        bucket_batch: true,
    }
}

fn trace(seed: u64, requests: usize, rate_rps: f64) -> RequestTrace {
    trace_with_outputs(seed, requests, rate_rps, 2)
}

/// [`trace`] with output lengths drawn from `output_lo..=12`.
fn trace_with_outputs(seed: u64, requests: usize, rate_rps: f64, output_lo: u64) -> RequestTrace {
    TraceConfig {
        seed,
        requests,
        rate: RateShape::Constant { rate_rps },
        prompt_len: LengthModel::Uniform { lo: 200, hi: 700 },
        output_len: LengthModel::Uniform {
            lo: output_lo,
            hi: 12,
        },
    }
    .generate()
}

/// The replica engine, shared so the plan cache persists across cases.
fn serving_sim() -> &'static Mutex<ServingSim> {
    static SIM: OnceLock<Mutex<ServingSim>> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut cfg = ServeConfig::new(model(), 2).with_replicas(2);
        cfg.batch = batch();
        Mutex::new(ServingSim::new(presets::ipu_pod4(), cfg))
    })
}

/// The routed cluster engine, likewise shared.
fn cluster_sim() -> &'static Mutex<ClusterServingSim> {
    static SIM: OnceLock<Mutex<ClusterServingSim>> = OnceLock::new();
    SIM.get_or_init(|| {
        let config = ClusterServeConfig {
            batch: batch(),
            ..ClusterServeConfig::new(model(), ParallelismPlan::new(1, 1, 2))
        };
        Mutex::new(ClusterServingSim::new(presets::ipu_pod4(), config).expect("pod4 plan"))
    })
}

/// The elastic-fleet engine, likewise shared. Aggressive thresholds
/// (spin up at one queued request, 50 ms control ticks) so short
/// proptest traces actually exercise spin-up and drain-down.
fn autoscale_sim() -> &'static Mutex<AutoscaleServingSim> {
    static SIM: OnceLock<Mutex<AutoscaleServingSim>> = OnceLock::new();
    SIM.get_or_init(|| {
        let config = ClusterServeConfig {
            batch: batch(),
            ..ClusterServeConfig::new(model(), ParallelismPlan::new(1, 1, 1))
        };
        let auto = AutoscaleConfig {
            min_groups: 1,
            max_groups: 3,
            interval: Seconds::from_millis(50.0),
            up_queue_depth: 1.0,
            down_queue_depth: 0.25,
            slo_target: 0.9,
            cold_start_steps: 10.0,
        };
        Mutex::new(
            AutoscaleServingSim::new(presets::ipu_pod4(), config, auto).expect("pod4 autoscale"),
        )
    })
}

/// The disaggregated prefill/decode engines, likewise shared: one per
/// `(shared_chips, chunk_tokens)` in {disjoint, shared} x {0, 256}. Two
/// prefill groups feed two decode groups (the same two on shared
/// chips), so every run exercises KV handoffs and routing at both
/// tiers, and half of them chunk accounting.
const DISAGG_ENGINES: [(bool, u64); 4] = [(false, 0), (false, 256), (true, 0), (true, 256)];

fn disagg_sim(engine: usize) -> &'static Mutex<DisaggServingSim> {
    static SIMS: [OnceLock<Mutex<DisaggServingSim>>; 4] = [const { OnceLock::new() }; 4];
    SIMS[engine].get_or_init(|| {
        let (shared_chips, chunk_tokens) = DISAGG_ENGINES[engine];
        let config = DisaggConfig {
            batch: batch(),
            shared_chips,
            chunk_tokens,
            ..DisaggConfig::new(
                model(),
                ParallelismPlan::new(1, 1, 2),
                ParallelismPlan::new(1, 1, 2),
            )
        };
        Mutex::new(DisaggServingSim::new(presets::ipu_pod4(), config).expect("pod4 disagg"))
    })
}

/// A two-class ladder under pressure: the premium tenant is never
/// limited, everyone else shares a tight rate limit and is sheddable
/// past a low queue-depth threshold, so short overload traces actually
/// exercise rejection (or deferral, per `policy`).
fn tenancy_config(policy: ShedPolicy) -> TenancyConfig {
    TenancyConfig {
        classes: vec![
            TenantClass::named("premium"),
            TenantClass {
                priority: 16,
                sheddable: true,
                rate_rps: Some(50.0),
                burst: 2,
                slo: SloConfig {
                    ttft: Seconds::from_millis(400.0),
                    tpot: Seconds::from_millis(60.0),
                },
                ..TenantClass::named("best_effort")
            },
        ],
        tenants: vec![("t0".to_string(), "premium".to_string())],
        default_class: "best_effort".to_string(),
        shed_queue_depth: Some(1.0),
        shed_policy: policy,
        ..TenancyConfig::default()
    }
}

/// The multi-tenant engines (one per shed policy), likewise shared.
fn tenancy_sim(policy: ShedPolicy) -> &'static Mutex<TenantServingSim> {
    static REJECT: OnceLock<Mutex<TenantServingSim>> = OnceLock::new();
    static DEFER: OnceLock<Mutex<TenantServingSim>> = OnceLock::new();
    let cell = match policy {
        ShedPolicy::Reject => &REJECT,
        ShedPolicy::Defer => &DEFER,
    };
    cell.get_or_init(|| {
        let config = ClusterServeConfig {
            batch: batch(),
            ..ClusterServeConfig::new(model(), ParallelismPlan::new(1, 1, 2))
        };
        Mutex::new(
            TenantServingSim::new(presets::ipu_pod4(), config, tenancy_config(policy))
                .expect("pod4 tenancy"),
        )
    })
}

/// Round-robin tenant tags: `t0` (premium), `t1`, `t2` (best-effort).
fn tenant_tags(requests: usize) -> Vec<String> {
    (0..requests).map(|i| format!("t{}", i % 3)).collect()
}

/// Whether `gid` was serving-eligible at instant `t` according to the
/// scale-event log: inside a `[Ready, Down)` interval. Boundary
/// instants accept either ordering — an arrival and a drain decision
/// at the same timestamp are both legal — but a group whose `Ready`
/// lies strictly in the future is never eligible, which is exactly the
/// "no request routed before cold-start finishes" invariant.
fn group_ready_at(transitions: &[ScaleEvent], gid: usize, t: Seconds) -> bool {
    let mut before = false; // state from events strictly before t
    let mut at = false; // state including events at t
    for ev in transitions.iter().filter(|ev| ev.group == gid) {
        if ev.time > t {
            break;
        }
        let state = match ev.kind {
            ScaleEventKind::Ready => Some(true),
            ScaleEventKind::Down | ScaleEventKind::Off => Some(false),
            ScaleEventKind::Up => None,
        };
        if let Some(s) = state {
            if ev.time < t {
                before = s;
            }
            at = s;
        }
    }
    before || at
}

/// Shared timeline checks for both engines' reports (panics on
/// violation, like the shim's `prop_assert*`).
fn check_conservation(
    requests: usize,
    completed: usize,
    makespan: Seconds,
    outcomes: &[RequestOutcome],
    queue_depth: &[(Seconds, usize)],
    mean_queue_depth: f64,
    max_queue_depth: usize,
) {
    // Every arrival completes exactly once: the outcome vector is in
    // trace order and each slot is filled by construction, so length
    // and completion count carry the whole invariant.
    assert_eq!(completed, requests, "every arrival must complete");
    assert_eq!(outcomes.len(), requests);
    for o in outcomes {
        assert!(o.arrival <= o.first_token, "prefill cannot precede arrival");
        assert!(
            o.first_token <= o.completion,
            "decode cannot precede prefill"
        );
        assert!(o.completion <= makespan, "nothing outlives the makespan");
        assert!(o.output_len >= 1);
    }
    // The merged transition log is time-monotone, and its peak matches
    // the reported max depth.
    let mut last = Seconds::ZERO;
    let mut peak = 0usize;
    for &(t, depth) in queue_depth {
        assert!(t >= last, "queue transitions must be time-sorted");
        last = t;
        peak = peak.max(depth);
    }
    assert_eq!(peak, max_queue_depth);
    assert!(mean_queue_depth >= 0.0);
    assert!(mean_queue_depth <= max_queue_depth as f64);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    // Replica engine: conservation holds for any seed, load, and size.
    #[test]
    fn serving_engine_conserves_requests(
        seed in 0u64..1000,
        requests in 1usize..40,
        rate in 50u32..600,
    ) {
        let t = trace(seed, requests, f64::from(rate));
        let report = serving_sim()
            .lock()
            .expect("sim lock")
            .run(Design::ElkFull, &t)
            .expect("serving run succeeds");
        check_conservation(
            requests,
            report.completed,
            report.makespan,
            &report.outcomes,
            &report.queue_depth,
            report.mean_queue_depth,
            report.max_queue_depth,
        );
    }

    // Routed cluster engine: the same invariants hold under every
    // router policy, and each request lands on a real group.
    #[test]
    fn cluster_engine_conserves_requests(
        seed in 0u64..1000,
        requests in 1usize..30,
        policy_idx in 0usize..3,
    ) {
        let t = trace(seed, requests, 200.0);
        let policy = RouterPolicy::all()[policy_idx];
        let report = cluster_sim()
            .lock()
            .expect("sim lock")
            .run(Design::ElkFull, policy, &t)
            .expect("cluster run succeeds");
        check_conservation(
            requests,
            report.completed,
            report.makespan,
            &report.outcomes,
            &report.queue_depth,
            report.mean_queue_depth,
            report.max_queue_depth,
        );
        prop_assert_eq!(
            report.per_group_requests.iter().sum::<usize>(),
            requests,
            "routing conserves requests across groups"
        );
        for o in &report.outcomes {
            prop_assert!(o.replica < report.per_group_requests.len());
        }
    }

    // Disaggregated engine: every arrival prefills exactly once (chunk
    // accounting sums back to the prompt), hands off exactly once, and
    // decodes exactly once; the per-request timeline threads
    // `arrival <= prefill_done <= handoff_done = first_token <=
    // completion`; routing conserves requests at both tiers; and the
    // handoff and queue transition logs are time-sorted.
    #[test]
    fn disagg_engine_conserves_requests(
        seed in 0u64..1000,
        requests in 1usize..30,
        policy_idx in 0usize..3,
        engine in 0usize..4,
    ) {
        // Single-token requests complete when their handoff lands,
        // outside any step.
        let t = trace_with_outputs(seed, requests, 200.0, 1);
        let policy = RouterPolicy::all()[policy_idx];
        let report = disagg_sim(engine)
            .lock()
            .expect("sim lock")
            .run(Design::ElkFull, policy, &t)
            .expect("disagg run succeeds");
        check_conservation(
            requests,
            report.completed,
            report.makespan,
            &report.outcomes,
            &report.queue_depth,
            report.prefill_mean_queue_depth,
            report.prefill_max_queue_depth,
        );

        // Exactly one handoff per arrival, each with a distinct id.
        prop_assert_eq!(report.handoffs.len(), requests);
        let mut ids: Vec<u64> = report.handoffs.iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), requests, "handoff ids must be unique");

        // Chunked prefill conserves prompt tokens exactly: however the
        // budget slices them, the chunks sum back to each prompt.
        prop_assert_eq!(
            report.prefill_tokens,
            t.requests.iter().map(|r| r.prompt_len).sum::<u64>()
        );

        // Per-request causality across the handoff, joined by id: the
        // transfer starts when prefill ends, and its completion IS the
        // first token the decode pool can stream.
        for h in &report.handoffs {
            let o = report
                .outcomes
                .iter()
                .find(|o| o.id == h.id)
                .expect("every handoff joins an outcome");
            prop_assert!(o.arrival <= h.prefill_done, "prefill precedes arrival");
            prop_assert!(h.prefill_done <= h.handoff_done, "transfer runs backwards");
            prop_assert_eq!(h.handoff_done, o.first_token, "handoff is the first token");
            prop_assert!(h.from < report.per_prefill_group_requests.len());
            prop_assert_eq!(h.to, o.replica, "handoff target serves the decode");
        }
        let mut last = Seconds::ZERO;
        for h in &report.handoffs {
            prop_assert!(h.handoff_done >= last, "handoff log must be time-sorted");
            last = h.handoff_done;
        }

        // Both tiers' routing conserves requests.
        prop_assert_eq!(
            report.per_prefill_group_requests.iter().sum::<usize>(),
            requests,
            "prefill routing conserves requests"
        );
        prop_assert_eq!(
            report.per_decode_group_requests.iter().sum::<usize>(),
            requests,
            "decode routing conserves requests"
        );

        // Every KV byte moved is priced by the handoff formula (shared
        // chips move none), and the report total is exactly the sum of
        // the per-handoff records.
        let expect: Bytes = if report.shared_chips {
            Bytes::ZERO
        } else {
            t.requests
                .iter()
                .map(|r| kv_handoff_bytes(&model(), r.prompt_len))
                .sum()
        };
        prop_assert_eq!(report.kv_moved, expect);
        prop_assert_eq!(
            report.kv_moved,
            report.handoffs.iter().map(|h| h.bytes).sum::<Bytes>()
        );

        // Decode-tier queue stats stay sane even though the merged
        // transition log reports the prefill tier.
        prop_assert!(report.decode_mean_queue_depth >= 0.0);
        prop_assert!(
            report.decode_mean_queue_depth <= report.decode_max_queue_depth as f64
        );
    }

    // Elastic fleet: conservation holds across spin-up and drain-down,
    // no request is ever routed to a group whose cold start has not
    // finished, and the scale-event log is time-monotone.
    #[test]
    fn autoscale_engine_conserves_requests_across_scaling(
        seed in 0u64..1000,
        requests in 1usize..30,
        rate in 50u32..900,
    ) {
        let t = trace(seed, requests, f64::from(rate));
        let report = autoscale_sim()
            .lock()
            .expect("sim lock")
            .run(Design::ElkFull, &t)
            .expect("autoscale run succeeds");
        check_conservation(
            requests,
            report.completed,
            report.makespan,
            &report.outcomes,
            &report.queue_depth,
            report.mean_queue_depth,
            report.max_queue_depth,
        );
        prop_assert_eq!(
            report.per_group_requests.iter().sum::<usize>(),
            requests,
            "scaling conserves requests across groups"
        );

        // Scale events are time-monotone and stay inside the fleet.
        let mut last = Seconds::ZERO;
        for ev in &report.transitions {
            prop_assert!(ev.time >= last, "scale events must be time-sorted");
            last = ev.time;
            prop_assert!(ev.group < report.max_groups as usize);
            prop_assert!(ev.ready <= report.max_groups as usize);
        }
        prop_assert!(report.peak_groups >= report.min_groups as usize);
        prop_assert!(report.peak_groups <= report.max_groups as usize);

        // Routing respects readiness: every outcome's arrival falls in
        // a [Ready, Down) interval of the group that served it.
        for o in &report.outcomes {
            prop_assert!(
                group_ready_at(&report.transitions, o.replica, o.arrival),
                "request {} routed to group {} outside its ready window",
                o.id,
                o.replica
            );
        }

        // Chip-seconds stay inside the provisioning envelope (one chip
        // per group here: tp = pp = 1).
        prop_assert!(report.chip_seconds > 0.0);
        prop_assert!(
            report.chip_seconds
                <= report.makespan.as_secs() * report.max_groups as f64 + 1e-9,
            "chip-seconds {} exceed max_groups x makespan",
            report.chip_seconds
        );
    }

    // Multi-tenant engine: dispositions are disjoint and exhaustive,
    // admitted + deferred arrivals complete exactly once, rejected
    // arrivals never touch a group, and the per-tenant slices sum back
    // to the whole-run totals — under both shed policies and every
    // router.
    #[test]
    fn tenancy_engine_conserves_dispositions(
        seed in 0u64..1000,
        requests in 1usize..30,
        rate in 100u32..900,
        policy_idx in 0usize..3,
        shed_defer in any::<bool>(),
    ) {
        let t = trace(seed, requests, f64::from(rate));
        let tags = tenant_tags(requests);
        let shed = if shed_defer { ShedPolicy::Defer } else { ShedPolicy::Reject };
        let policy = RouterPolicy::all()[policy_idx];
        let report = tenancy_sim(shed)
            .lock()
            .expect("sim lock")
            .run(Design::ElkFull, policy, &t, &tags)
            .expect("tenancy run succeeds");

        // Every arrival gets exactly one disposition, and only the
        // admitted + deferred ones reach the engine and complete.
        prop_assert_eq!(
            report.admitted + report.rejected + report.deferred,
            requests,
            "dispositions must partition the arrivals"
        );
        let served = report.admitted + report.deferred;
        check_conservation(
            served,
            report.base.completed,
            report.base.makespan,
            &report.base.outcomes,
            &report.base.queue_depth,
            report.base.mean_queue_depth,
            report.base.max_queue_depth,
        );

        // Completions carry distinct trace ids — nothing double-serves
        // — and rejected arrivals never land in any group's step log:
        // the per-group routing counts sum to the served set alone.
        let mut ids: Vec<u64> = report.base.outcomes.iter().map(|o| o.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), served, "completion ids must be unique");
        prop_assert!(ids.iter().all(|&id| id < requests as u64));
        prop_assert_eq!(
            report.base.per_group_requests.iter().sum::<usize>(),
            served,
            "rejected requests must never be routed to a group"
        );

        // Per-tenant slices are themselves conserved and sum back to
        // the whole-run totals; the fairness index stays in (0, 1].
        let mut arrivals = 0;
        let mut admitted = 0;
        let mut rejected = 0;
        let mut deferred = 0;
        for tr in &report.tenants {
            prop_assert_eq!(
                tr.admitted + tr.rejected + tr.deferred,
                tr.arrivals,
                "tenant {} dispositions must partition its arrivals",
                tr.tenant
            );
            prop_assert_eq!(tr.completed, tr.admitted + tr.deferred);
            prop_assert!(tr.slo_attainment >= 0.0 && tr.slo_attainment <= 1.0);
            arrivals += tr.arrivals;
            admitted += tr.admitted;
            rejected += tr.rejected;
            deferred += tr.deferred;
        }
        prop_assert_eq!(arrivals, requests);
        prop_assert_eq!(admitted, report.admitted);
        prop_assert_eq!(rejected, report.rejected);
        prop_assert_eq!(deferred, report.deferred);
        prop_assert!(
            report.jain_fairness > 0.0 && report.jain_fairness <= 1.0 + 1e-9,
            "jain index {} outside (0, 1]",
            report.jain_fairness
        );

        // The premium tenant is never limited or sheddable: all of its
        // arrivals are admitted outright.
        let premium = report.tenants.iter().find(|tr| tr.class == "premium");
        if let Some(premium) = premium {
            prop_assert_eq!(premium.admitted, premium.arrivals);
        }
    }

    // Token bucket: refill is driven only by the simulated clock, never
    // exceeds the burst capacity, only ever adds credit between takes,
    // and the grants over any horizon stay within burst + rate x time.
    #[test]
    fn token_bucket_refill_is_monotone_and_credit_bounded(
        rate in 1u32..200,
        burst in 1u64..8,
        deltas in prop::collection::vec(0.0f64..0.1, 1..40),
    ) {
        let mut bucket = TokenBucket::new(f64::from(rate), burst);
        let mut elapsed = 0.0;
        let mut granted = 0u64;
        for d in deltas {
            elapsed += d;
            let before = bucket.tokens();
            let taken = bucket.try_take(Seconds::new(elapsed));
            if taken {
                granted += 1;
            } else {
                // A failed take spends nothing, so the clock advance
                // can only have added credit.
                prop_assert!(bucket.tokens() >= before - 1e-12);
                prop_assert!(bucket.tokens() < 1.0);
            }
            prop_assert!(bucket.tokens() >= 0.0);
            prop_assert!(bucket.tokens() <= burst as f64);
            prop_assert!(
                granted as f64 <= burst as f64 + f64::from(rate) * elapsed + 1e-9,
                "granted {} exceeds the credit envelope",
                granted
            );
        }
    }
}

/// The limiter and the shedder actually engage on an overload trace —
/// the proptest invariants above hold vacuously if nothing is ever
/// rejected, so pin one deterministic case per policy where admission
/// control visibly fires (and, under `Defer`, deferred requests still
/// complete).
#[test]
fn tenancy_overload_sheds_and_deferred_requests_complete() {
    let t = trace(11, 24, 800.0);
    let tags = tenant_tags(24);
    let rejected = tenancy_sim(ShedPolicy::Reject)
        .lock()
        .expect("sim lock")
        .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &t, &tags)
        .expect("tenancy run succeeds");
    assert!(rejected.rejected > 0, "overload must trigger rejection");
    assert_eq!(
        rejected.base.completed,
        rejected.admitted + rejected.deferred
    );

    let deferred = tenancy_sim(ShedPolicy::Defer)
        .lock()
        .expect("sim lock")
        .run(Design::ElkFull, RouterPolicy::LeastOutstanding, &t, &tags)
        .expect("tenancy run succeeds");
    assert!(
        deferred.deferred > 0 || deferred.rejected > 0,
        "overload must trigger the shedder"
    );
    assert_eq!(
        deferred.base.completed,
        deferred.admitted + deferred.deferred,
        "deferred requests must still complete"
    );
}

/// Integrating the reported queue-depth transition log over the run
/// reproduces the reported time-weighted mean — the metric really is
/// depth x time area over simulated time, not a sample average (the
/// pre-kernel engines averaged per-step samples, which overweights
/// short decode steps).
#[test]
fn reported_mean_queue_depth_is_the_time_weighted_integral() {
    let mut cfg = ServeConfig::new(model(), 2); // one replica: one timeline
    cfg.batch = batch();
    let mut sim = ServingSim::new(presets::ipu_pod4(), cfg);
    let report = sim
        .run(Design::ElkFull, &trace(7, 30, 400.0))
        .expect("serving run succeeds");

    let mut area = 0.0;
    let mut prev_t = 0.0;
    let mut prev_d = 0.0;
    for &(t, depth) in &report.queue_depth {
        area += prev_d * (t.as_secs() - prev_t);
        prev_t = t.as_secs();
        prev_d = depth as f64;
    }
    area += prev_d * (report.makespan.as_secs() - prev_t);
    let want = area / report.makespan.as_secs();
    assert!(
        (report.mean_queue_depth - want).abs() < 1e-9,
        "reported {} vs integrated {}",
        report.mean_queue_depth,
        want
    );
    assert!(
        report.queue_depth.iter().any(|&(_, d)| d > 0),
        "the burst must actually queue"
    );
}
