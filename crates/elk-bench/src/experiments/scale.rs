//! Scale: one million requests through a routed multi-replica cluster
//! on the shared `elk-sim-core` event kernel.
//!
//! Not a paper figure: this is the harness's throughput stress for the
//! discrete-event kernel itself. It pushes `ELK_SCALE_REQUESTS`
//! (default 1 000 000) Poisson arrivals through a `(tp=1, pp=1, dp=4)`
//! IPU-POD4 cluster and records two kinds of numbers:
//!
//! * **deterministic** serving metrics (completions, makespan,
//!   time-weighted queue depths, step counts, kernel events) via
//!   [`Ctx::metric`] — byte-identical at any `--threads` count, which
//!   CI checks by diffing `results/scale.json` across thread counts;
//! * **measured** throughput (kernel events/sec, wall seconds, peak
//!   RSS) via [`Ctx::perf`] — printed to stdout only and consolidated
//!   into `BENCH.json`'s run-varying `perf` section, never into the
//!   transcript or JSON payload.

use std::time::Instant;

use serde::Serialize;

use elk_baselines::Design;
use elk_cluster::{ClusterServeConfig, ClusterServingSim, ParallelismPlan};
use elk_model::{zoo, SeqBuckets};
use elk_serve::{BatchConfig, LengthModel, RateShape, RouterPolicy, TraceConfig};

use crate::ctx::{default_system, peak_rss_bytes, Ctx};

/// Deterministic summary written to `results/scale.json`. Everything
/// here is simulated — no wall-clock quantity may be added, because CI
/// compares this file byte for byte between `--threads 1` and `8`.
#[derive(Debug, Serialize)]
pub struct Summary {
    /// Requests pushed through the cluster.
    pub requests: usize,
    /// Requests that ran to completion (must equal `requests`).
    pub completed: usize,
    /// Replica groups (the plan's `dp`).
    pub groups: usize,
    /// Kernel events fired (arrivals + step completions).
    pub sim_events: u64,
    /// Simulated seconds from first arrival to last token.
    pub makespan_s: f64,
    /// Completions per simulated second.
    pub throughput_rps: f64,
    /// Generated tokens per simulated second.
    pub tokens_per_sec: f64,
    /// Prefill iterations across all groups.
    pub prefill_steps: u64,
    /// Decode iterations across all groups.
    pub decode_steps: u64,
    /// Time-weighted mean waiting-queue depth across the fleet.
    pub mean_queue_depth: f64,
    /// Deepest waiting queue observed on any group.
    pub max_queue_depth: usize,
    /// Requests dispatched to each group, in group order.
    pub per_group_requests: Vec<usize>,
    /// Mean end-to-end latency in simulated milliseconds.
    pub e2e_mean_ms: f64,
    /// p99 time-to-first-token in simulated milliseconds.
    pub ttft_p99_ms: f64,
}

/// The request count: `ELK_SCALE_REQUESTS` if set and valid, else the
/// acceptance-scale one million. CI's smoke step drops it to ~20k.
#[must_use]
pub fn request_count() -> usize {
    std::env::var("ELK_SCALE_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1_000_000)
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the pod-4 plan fails to compile — the same fixture every
/// cluster test serves.
pub fn run(ctx: &mut Ctx) {
    let requests = request_count();
    ctx.header("Scale: million-request cluster serving on the event kernel");
    ctx.line(format!(
        "{requests} Poisson arrivals -> llama2-13b (2 layers) on tp1 x pp1 x dp4, round-robin"
    ));

    let mut model = zoo::llama2_13b();
    model.layers = 2; // per-step cost is irrelevant here; event volume is the point
    let config = ClusterServeConfig {
        batch: BatchConfig {
            max_batch: 8,
            max_prefill_tokens: 2048,
            seq_buckets: SeqBuckets::new(256, 2048),
            bucket_batch: true,
        },
        threads: ctx.threads,
        ..ClusterServeConfig::new(model, ParallelismPlan::new(1, 1, 4))
    };
    let trace = TraceConfig {
        seed: 11,
        requests,
        // Below the fixture's ~380 req/s service capacity, so queues
        // stay bounded and the run exercises steady-state serving
        // rather than an ever-growing backlog.
        rate: RateShape::Constant { rate_rps: 300.0 },
        prompt_len: LengthModel::Uniform { lo: 200, hi: 700 },
        output_len: LengthModel::Uniform { lo: 2, hi: 12 },
    }
    .generate();
    let mut sim = ClusterServingSim::new(default_system(), config).expect("pod4 plan is valid");

    // Wall-clock brackets the event loop only (plan compiles for the
    // handful of bucketed shapes happen inside and amortize to noise).
    let started = Instant::now();
    let report = sim
        .run(Design::ElkFull, RouterPolicy::RoundRobin, &trace)
        .expect("pod4 plan compiles");
    let wall = started.elapsed().as_secs_f64();

    assert_eq!(
        report.completed, requests,
        "conservation: every arrival completes"
    );

    let summary = Summary {
        requests,
        completed: report.completed,
        groups: report.per_group_requests.len(),
        sim_events: report.sim_events,
        makespan_s: report.makespan.as_secs(),
        throughput_rps: report.throughput_rps,
        tokens_per_sec: report.tokens_per_sec,
        prefill_steps: report.prefill_steps,
        decode_steps: report.decode_steps,
        mean_queue_depth: report.mean_queue_depth,
        max_queue_depth: report.max_queue_depth,
        per_group_requests: report.per_group_requests.clone(),
        e2e_mean_ms: report.e2e.mean.as_millis(),
        ttft_p99_ms: report.ttft.p99.as_millis(),
    };

    ctx.line("");
    ctx.table(
        &["metric", "value"],
        &[
            vec!["completed".into(), summary.completed.to_string()],
            vec!["sim events".into(), summary.sim_events.to_string()],
            vec![
                "makespan (sim s)".into(),
                format!("{:.1}", summary.makespan_s),
            ],
            vec![
                "throughput (req/sim s)".into(),
                format!("{:.1}", summary.throughput_rps),
            ],
            vec![
                "steps (prefill+decode)".into(),
                format!("{}+{}", summary.prefill_steps, summary.decode_steps),
            ],
            vec![
                "queue depth (mean/max)".into(),
                format!(
                    "{:.2}/{}",
                    summary.mean_queue_depth, summary.max_queue_depth
                ),
            ],
            vec![
                "e2e mean (ms)".into(),
                format!("{:.1}", summary.e2e_mean_ms),
            ],
            vec![
                "ttft p99 (ms)".into(),
                format!("{:.1}", summary.ttft_p99_ms),
            ],
        ],
    );

    ctx.metric("requests", summary.requests as f64);
    ctx.metric("completed", summary.completed as f64);
    #[allow(clippy::cast_precision_loss)]
    ctx.metric("sim_events", summary.sim_events as f64);
    ctx.metric("makespan_s", summary.makespan_s);
    ctx.metric("throughput_rps", summary.throughput_rps);
    ctx.metric("tokens_per_sec", summary.tokens_per_sec);
    ctx.metric("mean_queue_depth", summary.mean_queue_depth);
    ctx.metric("max_queue_depth", summary.max_queue_depth as f64);

    // Measured numbers: stdout only — never ctx.line, so the transcript
    // and JSON stay byte-identical run to run and across thread counts.
    #[allow(clippy::cast_precision_loss)]
    let events_per_sec = summary.sim_events as f64 / wall.max(1e-9);
    ctx.perf("events_per_sec", events_per_sec);
    ctx.perf("wall_seconds", wall);
    println!();
    println!("measured: {events_per_sec:.0} events/sec ({wall:.2} s wall)");
    if let Some(rss) = peak_rss_bytes() {
        #[allow(clippy::cast_precision_loss)]
        ctx.perf("peak_rss_bytes", rss as f64);
        println!(
            "measured: peak RSS {:.1} MiB",
            rss as f64 / (1024.0 * 1024.0)
        );
    }

    ctx.finish(&summary);
}
