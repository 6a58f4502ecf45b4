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
//!
//! Each mix is a checked-in scenario (`scenarios/disagg_longprompt.json`,
//! `scenarios/disagg_chat.json`) replayed through `elk cluster`'s runner;
//! full mode only lengthens the traces.

use serde::Serialize;

use elk_obs::Obs;
use elk_spec::runner::{base_runner, resolve_trace, run_cluster_observed};
use elk_spec::TraceSourceSpec;

use crate::ctx::Ctx;
use crate::experiments::scenario;

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

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the crossover fails: disaggregation must beat colocation
/// on goodput (and TPOT p99) for the long-prompt-heavy trace, and
/// colocation must win or tie on the chat-heavy trace.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Disaggregation: prefill/decode pools vs colocated batching, two mixes");
    let mixes = [
        (
            "longprompt",
            include_str!("../../../../scenarios/disagg_longprompt.json"),
            144,
        ),
        (
            "chat",
            include_str!("../../../../scenarios/disagg_chat.json"),
            192,
        ),
    ]
    .map(|(label, json, full_requests)| {
        let mut spec = scenario(ctx, json);
        if let (true, Some(TraceSourceSpec::Generate(recipe))) =
            (ctx.full, &mut spec.workload.trace)
        {
            recipe.requests = full_requests;
        }
        let trace = resolve_trace(&spec).expect("the scenario's trace recipe is valid");
        (label, spec, trace)
    });
    let [(_, _, longprompt), (_, _, chat)] = &mixes;
    ctx.line(format!(
        "longprompt: {} requests over {:.3} s; chat: {} requests over {:.3} s",
        longprompt.len(),
        longprompt.duration().as_secs(),
        chat.len(),
        chat.duration().as_secs()
    ));

    // One fit for both traces and both layouts: the mixes share a pod.
    let base = base_runner(&mixes[0].1).expect("the pod4 preset is valid");
    let mut rows = Vec::new();
    for (label, spec, _) in &mixes {
        let report = run_cluster_observed(&base, spec, &Obs::null()).expect("the scenario runs");
        let c = &report.serving.expect("the scenario serves")[0];
        let d = &report.disagg.expect("the scenario disaggregates")[0];
        rows.push(Row {
            trace: label.to_string(),
            layout: "colocated".to_string(),
            completed: c.completed,
            ttft_p99_ms: c.ttft.p99.as_millis(),
            tpot_p99_ms: c.tpot.p99.as_millis(),
            slo_attainment: c.slo_attainment,
            goodput_rps: c.goodput_rps,
            kv_moved_mib: 0.0,
            handoff_total_ms: 0.0,
        });
        rows.push(Row {
            trace: label.to_string(),
            layout: "disagg".to_string(),
            completed: d.completed,
            ttft_p99_ms: d.ttft.p99.as_millis(),
            tpot_p99_ms: d.tpot.p99.as_millis(),
            slo_attainment: d.slo_attainment,
            goodput_rps: d.goodput_rps,
            kv_moved_mib: d.kv_moved.get() as f64 / (1024.0 * 1024.0),
            handoff_total_ms: d.handoff_total.as_millis(),
        });
    }

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
