//! Tenancy: admission control against an open front door on a burst
//! overload — the multi-tenant trade the single-tenant serving rows
//! cannot show. New to this reproduction (no paper analogue).
//!
//! One seeded burst-train trace tagged with four tenants replays twice
//! through the multi-tenant engine: once with every request admitted
//! (`open`), once with the best-effort class rate-limited and shed
//! under queue pressure (`managed`). The premium tenant is never
//! limited in either run. The headline claim — asserted, not just
//! reported — is that admission control strictly improves the premium
//! tenant's goodput under overload, at the cost of rejected
//! best-effort traffic (the fairness shift is visible in the Jain
//! index recorded for both runs).

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_cluster::{ClusterServeConfig, ParallelismPlan, TenancyServingReport, TenantServingSim};
use elk_model::{zoo, SeqBuckets};
use elk_serve::{
    BatchConfig, RouterPolicy, ShedPolicy, SloConfig, TenancyConfig, TenantClass, TraceConfig,
};
use elk_trace::{LengthModel, RateShape, TraceGenConfig};
use elk_units::Seconds;

use crate::ctx::{default_system, Ctx};

/// One admission policy's outcome on the shared overload trace.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Policy label: `open` or `managed`.
    pub policy: String,
    /// Requests admitted directly at first offer.
    pub admitted: usize,
    /// Requests dropped by the rate limiter or the load shedder.
    pub rejected: usize,
    /// Requests deferred once by the load shedder.
    pub deferred: usize,
    /// The premium tenant's class-SLO goodput (req/s).
    pub premium_goodput_rps: f64,
    /// The premium tenant's 99th-percentile TTFT (ms).
    pub premium_ttft_p99_ms: f64,
    /// Summed best-effort goodput across the other tenants (req/s).
    pub best_effort_goodput_rps: f64,
    /// Jain fairness index over per-tenant goodput shares.
    pub jain_fairness: f64,
}

/// The shared serving shape: two single-chip groups, paper batching
/// knobs, and a class SLO tight enough that queueing under the bursts
/// actually costs goodput.
fn pod_config(threads: usize) -> ClusterServeConfig {
    let mut model = zoo::llama2_13b();
    model.layers = 2;
    ClusterServeConfig {
        batch: BatchConfig {
            max_batch: 8,
            max_prefill_tokens: 4096,
            seq_buckets: SeqBuckets::new(256, 2048),
            bucket_batch: true,
        },
        slo: SloConfig {
            ttft: Seconds::from_millis(400.0),
            tpot: Seconds::from_millis(60.0),
        },
        threads,
        ..ClusterServeConfig::new(model, ParallelismPlan::new(1, 1, 2))
    }
}

/// The two-class ladder: premium (never limited, never shed) and
/// best-effort (rate-limited + sheddable only when `limit` is on).
fn tenancy(limit: bool) -> TenancyConfig {
    let slo = SloConfig {
        ttft: Seconds::from_millis(400.0),
        tpot: Seconds::from_millis(60.0),
    };
    TenancyConfig {
        classes: vec![
            TenantClass {
                slo,
                ..TenantClass::named("premium")
            },
            TenantClass {
                priority: 16,
                sheddable: true,
                rate_rps: limit.then_some(40.0),
                burst: 4,
                slo,
                ..TenantClass::named("best_effort")
            },
        ],
        tenants: vec![("t0".to_string(), "premium".to_string())],
        default_class: "best_effort".to_string(),
        shed_queue_depth: limit.then_some(2.0),
        shed_policy: ShedPolicy::Reject,
        ..TenancyConfig::default()
    }
}

fn summarize(policy: &str, r: &TenancyServingReport) -> Row {
    let premium = r
        .tenants
        .iter()
        .find(|t| t.class == "premium")
        .expect("the premium tenant appears in the trace");
    Row {
        policy: policy.to_string(),
        admitted: r.admitted,
        rejected: r.rejected,
        deferred: r.deferred,
        premium_goodput_rps: premium.goodput_rps,
        premium_ttft_p99_ms: premium.ttft.p99.as_millis(),
        best_effort_goodput_rps: r
            .tenants
            .iter()
            .filter(|t| t.class == "best_effort")
            .map(|t| t.goodput_rps)
            .sum(),
        jain_fairness: r.jain_fairness,
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if admission control fails its headline claim: premium
/// goodput strictly above the open-door run's, with a nonzero rejected
/// count proving the limiter actually engaged.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Tenancy: admission control vs open door, burst overload, 4 tenants");
    // Bursts at ~8x what the two groups sustain, with a floor the pod
    // clears easily — the premium tenant only suffers when best-effort
    // piles into the queues ahead of it.
    let requests = if ctx.full { 720 } else { 240 };
    let file = TraceGenConfig {
        trace: TraceConfig {
            seed: 0x7e17,
            requests,
            rate: RateShape::BurstTrain {
                base_rps: 40.0,
                burst_rps: 800.0,
                period_s: 1.0,
                burst_s: 0.25,
            },
            prompt_len: LengthModel::HeavyTail {
                lo: 64,
                alpha: 1.2,
                cap: 2048,
            },
            output_len: LengthModel::Uniform { lo: 4, hi: 12 },
        },
        tenants: 4,
    }
    .generate();
    let tenant_ids = file.tenant_assignments();
    let trace = file.to_request_trace();
    ctx.line(format!(
        "{} requests over {:.3} s across {} tenants: 0.25 s bursts at 800 rps on a 40 rps floor",
        trace.len(),
        trace.duration().as_secs(),
        4
    ));

    // One fit for both policies.
    let system = default_system();
    let base = DesignRunner::new(system.clone());
    let design = Design::ElkFull;
    let mut rows = Vec::new();
    for (label, limit) in [("open", false), ("managed", true)] {
        let mut sim = TenantServingSim::new(
            base.with_system(system.clone()),
            pod_config(ctx.threads),
            tenancy(limit),
        )
        .expect("tenancy config is valid");
        let r = sim
            .run(design, RouterPolicy::LeastOutstanding, &trace, &tenant_ids)
            .expect("tenancy serving run");
        assert_eq!(
            r.admitted + r.rejected + r.deferred,
            trace.len(),
            "{label}: every arrival gets exactly one disposition"
        );
        rows.push(summarize(label, &r));
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{}/{}/{}", r.admitted, r.rejected, r.deferred),
                format!("{:.2}", r.premium_goodput_rps),
                format!("{:.1}", r.premium_ttft_p99_ms),
                format!("{:.2}", r.best_effort_goodput_rps),
                format!("{:.3}", r.jain_fairness),
            ]
        })
        .collect();
    ctx.table(
        &[
            "policy",
            "adm/rej/def",
            "prem goodput",
            "prem TTFT-p99",
            "b-e goodput",
            "jain",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected: the open door lets best-effort bursts queue ahead of premium,");
    ctx.line("dragging its TTFT past the class SLO; the managed run sheds that backlog,");
    ctx.line("so premium goodput rises while the Jain index shifts toward the survivors.");

    let open = &rows[0];
    let managed = &rows[1];
    assert_eq!(open.rejected, 0, "the open door must admit everything");
    assert!(
        managed.rejected > 0,
        "overload must trigger admission control"
    );
    assert!(
        managed.premium_goodput_rps > open.premium_goodput_rps,
        "admission control must protect premium goodput ({:.2} vs {:.2})",
        managed.premium_goodput_rps,
        open.premium_goodput_rps
    );

    for r in &rows {
        ctx.metric(format!("{}.admitted", r.policy), r.admitted as f64);
        ctx.metric(format!("{}.rejected", r.policy), r.rejected as f64);
        ctx.metric(
            format!("{}.premium.goodput_rps", r.policy),
            r.premium_goodput_rps,
        );
        ctx.metric(
            format!("{}.premium.ttft_p99_ms", r.policy),
            r.premium_ttft_p99_ms,
        );
        ctx.metric(
            format!("{}.best_effort.goodput_rps", r.policy),
            r.best_effort_goodput_rps,
        );
        ctx.metric(format!("{}.jain_fairness", r.policy), r.jain_fairness);
    }
    ctx.finish(&rows);
}
