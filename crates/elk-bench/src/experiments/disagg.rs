//! Disaggregation: prefill/decode pool separation against colocated
//! continuous batching, on two workload mixes. New to this
//! reproduction (no paper analogue).
//!
//! The same four chips serve each trace two ways: **colocated** (four
//! `tp = pp = 1` groups, each interleaving prefill and decode under
//! prefill priority) and **disaggregated** (two prefill groups feeding
//! two decode groups, chunked prefill, KV handoff priced on the ring).
//! The headline claim — asserted, not just reported — is a crossover:
//!
//! * on the **long-prompt-heavy** trace, heavy-tail prompts stall
//!   colocated decode behind mega prefills, blowing the tight TPOT SLO,
//!   so the disaggregated split wins on goodput despite halving prefill
//!   capacity and paying for every KV transfer;
//! * on the **chat-heavy** trace, decode capacity binds — colocated
//!   brings four decode-capable groups to the disaggregated layout's
//!   two — so colocation wins or ties.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_cluster::{
    ClusterServeConfig, ClusterServingSim, DisaggConfig, DisaggServingSim, ParallelismPlan,
};
use elk_model::{zoo, SeqBuckets, TransformerConfig};
use elk_serve::{BatchConfig, RequestTrace, RouterPolicy, SloConfig, TraceConfig};
use elk_trace::{LengthModel, RateShape, TraceGenConfig};
use elk_units::Seconds;

use crate::ctx::{default_system, Ctx};

/// One serving layout's outcome on one trace.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Trace label: `longprompt` or `chat`.
    pub trace: String,
    /// Layout label: `colocated` or `disagg`.
    pub layout: String,
    /// Requests completed (always the full trace — conservation).
    pub completed: usize,
    /// 99th-percentile time-to-first-token (ms).
    pub ttft_p99_ms: f64,
    /// 99th-percentile time-per-output-token (ms).
    pub tpot_p99_ms: f64,
    /// Fraction of requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second.
    pub goodput_rps: f64,
    /// KV-cache volume moved between the pools (MiB; colocated: 0).
    pub kv_moved_mib: f64,
    /// Summed p2p latency of every KV handoff (ms; colocated: 0).
    pub handoff_total_ms: f64,
}

/// The model and batching knobs every layout shares.
fn tiny_model() -> TransformerConfig {
    let mut model = zoo::llama2_13b();
    model.layers = 2;
    model
}

fn batch() -> BatchConfig {
    BatchConfig {
        max_batch: 8,
        max_prefill_tokens: 4096,
        seq_buckets: SeqBuckets::new(256, 4096),
        bucket_batch: true,
    }
}

/// A long-prompt-heavy mix: heavy-tail prompts up to 2048 tokens with
/// interactive outputs and a tight TPOT SLO the mega prefills threaten.
fn longprompt_trace(requests: usize) -> RequestTrace {
    TraceGenConfig {
        trace: TraceConfig {
            seed: 808,
            requests,
            rate: RateShape::BurstTrain {
                base_rps: 40.0,
                burst_rps: 400.0,
                period_s: 1.0,
                burst_s: 0.2,
            },
            prompt_len: LengthModel::HeavyTail {
                lo: 128,
                alpha: 1.2,
                cap: 2048,
            },
            output_len: LengthModel::Uniform { lo: 24, hi: 64 },
        },
        tenants: 3,
    }
    .generate()
    .to_request_trace()
}

/// A chat-heavy mix: short prompts, long outputs, high rate — decode
/// capacity is the binding resource.
fn chat_trace(requests: usize) -> RequestTrace {
    TraceGenConfig {
        trace: TraceConfig {
            seed: 909,
            requests,
            rate: RateShape::BurstTrain {
                base_rps: 300.0,
                burst_rps: 900.0,
                period_s: 0.5,
                burst_s: 0.15,
            },
            prompt_len: LengthModel::Uniform { lo: 64, hi: 256 },
            output_len: LengthModel::Uniform { lo: 32, hi: 96 },
        },
        tenants: 3,
    }
    .generate()
    .to_request_trace()
}

/// Runs one trace through both layouts, on runners derived from
/// `base`, and returns the two rows.
fn compare(
    ctx: &Ctx,
    base: &DesignRunner,
    label: &str,
    trace: &RequestTrace,
    slo: SloConfig,
) -> Vec<Row> {
    let system = base.system();
    let design = Design::ElkFull;
    let policy = RouterPolicy::LeastOutstanding;

    let mut colo = ClusterServingSim::new(
        base.with_system(system.clone()),
        ClusterServeConfig {
            batch: batch(),
            slo,
            threads: ctx.threads,
            ..ClusterServeConfig::new(tiny_model(), ParallelismPlan::new(1, 1, 4))
        },
    )
    .expect("colocated config is valid");
    let c = colo.run(design, policy, trace).expect("colocated run");

    let mut disagg = DisaggServingSim::new(
        base.with_system(system.clone()),
        DisaggConfig {
            batch: batch(),
            slo,
            threads: ctx.threads,
            chunk_tokens: 512,
            ..DisaggConfig::new(
                tiny_model(),
                ParallelismPlan::new(1, 1, 2),
                ParallelismPlan::new(1, 1, 2),
            )
        },
    )
    .expect("disagg config is valid");
    let d = disagg.run(design, policy, trace).expect("disagg run");

    vec![
        Row {
            trace: label.to_string(),
            layout: "colocated".to_string(),
            completed: c.completed,
            ttft_p99_ms: c.ttft.p99.as_millis(),
            tpot_p99_ms: c.tpot.p99.as_millis(),
            slo_attainment: c.slo_attainment,
            goodput_rps: c.goodput_rps,
            kv_moved_mib: 0.0,
            handoff_total_ms: 0.0,
        },
        Row {
            trace: label.to_string(),
            layout: "disagg".to_string(),
            completed: d.completed,
            ttft_p99_ms: d.ttft.p99.as_millis(),
            tpot_p99_ms: d.tpot.p99.as_millis(),
            slo_attainment: d.slo_attainment,
            goodput_rps: d.goodput_rps,
            kv_moved_mib: d.kv_moved.get() as f64 / (1024.0 * 1024.0),
            handoff_total_ms: d.handoff_total.as_millis(),
        },
    ]
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the crossover fails: disaggregation must beat colocation
/// on goodput (and TPOT p99) for the long-prompt-heavy trace, and
/// colocation must win or tie on the chat-heavy trace.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Disaggregation: prefill/decode pools vs colocated batching, two mixes");
    let (long_n, chat_n) = if ctx.full { (144, 192) } else { (48, 64) };
    let longprompt = longprompt_trace(long_n);
    let chat = chat_trace(chat_n);
    ctx.line(format!(
        "longprompt: {} requests over {:.3} s; chat: {} requests over {:.3} s",
        longprompt.len(),
        longprompt.duration().as_secs(),
        chat.len(),
        chat.duration().as_secs()
    ));

    let tight_tpot = SloConfig {
        ttft: Seconds::from_millis(1000.0),
        tpot: Seconds::from_millis(0.8),
    };
    let chat_slo = SloConfig {
        ttft: Seconds::from_millis(100.0),
        tpot: Seconds::from_millis(2.0),
    };
    // One fit for both traces and both layouts.
    let base = DesignRunner::new(default_system());
    let mut rows = compare(ctx, &base, "longprompt", &longprompt, tight_tpot);
    rows.extend(compare(ctx, &base, "chat", &chat, chat_slo));

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                r.layout.clone(),
                r.completed.to_string(),
                format!("{:.1}", r.ttft_p99_ms),
                format!("{:.2}", r.tpot_p99_ms),
                format!("{:.0}%", r.slo_attainment * 100.0),
                format!("{:.2}", r.goodput_rps),
                format!("{:.1}", r.kv_moved_mib),
            ]
        })
        .collect();
    ctx.table(
        &[
            "trace", "layout", "done", "TTFT-p99", "TPOT-p99", "SLO", "goodput", "KV MiB",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected crossover: on the long-prompt mix, colocated decode stalls behind");
    ctx.line("mega prefills and misses the tight TPOT SLO, so the pool split wins even");
    ctx.line("after paying for every KV handoff; on the chat mix, decode capacity binds");
    ctx.line("and colocation's four decode-capable groups beat the split's two.");

    let by = |t: &str, l: &str| {
        rows.iter()
            .find(|r| r.trace == t && r.layout == l)
            .expect("row exists")
    };
    assert!(
        rows.iter().all(|r| r.completed > 0),
        "every layout must complete requests"
    );
    let (lc, ld) = (by("longprompt", "colocated"), by("longprompt", "disagg"));
    assert!(
        ld.goodput_rps > lc.goodput_rps,
        "long-prompt-heavy: disagg goodput {:.2} must beat colocated {:.2}",
        ld.goodput_rps,
        lc.goodput_rps
    );
    assert!(
        ld.tpot_p99_ms < lc.tpot_p99_ms,
        "long-prompt-heavy: disagg TPOT p99 {:.2} must beat colocated {:.2}",
        ld.tpot_p99_ms,
        lc.tpot_p99_ms
    );
    let (cc, cd) = (by("chat", "colocated"), by("chat", "disagg"));
    assert!(
        cc.goodput_rps >= cd.goodput_rps,
        "chat-heavy: colocated goodput {:.2} must win or tie disagg {:.2}",
        cc.goodput_rps,
        cd.goodput_rps
    );

    for r in &rows {
        ctx.metric(
            format!("{}.{}.goodput_rps", r.trace, r.layout),
            r.goodput_rps,
        );
        ctx.metric(
            format!("{}.{}.ttft_p99_ms", r.trace, r.layout),
            r.ttft_p99_ms,
        );
        ctx.metric(
            format!("{}.{}.tpot_p99_ms", r.trace, r.layout),
            r.tpot_p99_ms,
        );
        ctx.metric(
            format!("{}.{}.slo_attainment", r.trace, r.layout),
            r.slo_attainment,
        );
    }
    ctx.metric("longprompt.disagg.kv_moved_mib", ld.kv_moved_mib);
    ctx.metric("longprompt.disagg.handoff_total_ms", ld.handoff_total_ms);
    ctx.metric("chat.disagg.kv_moved_mib", cd.kv_moved_mib);
    ctx.finish(&rows);
}
