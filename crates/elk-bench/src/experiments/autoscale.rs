//! Autoscale: the elastic dp fleet against static provisioning on a
//! bursty trace — the capacity-vs-latency trade the fixed-dp serving
//! rows cannot show. New to this reproduction (no paper analogue).
//!
//! Three fleets replay one seeded burst-train trace: static `dp = 1`
//! (cheap but swamped in bursts), static `dp = 4` (meets the SLO by
//! paying for peak capacity all the time), and the autoscaler
//! (`1..=4` groups, growing against queue depth and SLO attainment,
//! each spin-up paying a plan-compilation cold start). The headline
//! claim — asserted, not just reported — is that the autoscaler beats
//! static `dp = 1` on SLO goodput while spending fewer chip-seconds
//! than static `dp = 4`.

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_cluster::{
    AutoscaleConfig, AutoscaleServingSim, ClusterServeConfig, ClusterServingSim, ParallelismPlan,
};
use elk_model::{zoo, SeqBuckets};
use elk_serve::{BatchConfig, RouterPolicy, SloConfig, TraceConfig};
use elk_trace::{LengthModel, RateShape, TraceGenConfig};
use elk_units::Seconds;

use crate::ctx::{default_system, Ctx};

/// One fleet's outcome on the shared burst trace.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Fleet label: `static_dp1`, `static_dp4`, or `autoscale`.
    pub fleet: String,
    /// Requests completed (always the full trace — conservation).
    pub completed: usize,
    /// 99th-percentile time-to-first-token (ms).
    pub ttft_p99_ms: f64,
    /// Fraction of requests meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per second.
    pub goodput_rps: f64,
    /// Chip-seconds provisioned (static: `chips x makespan`;
    /// autoscale: the on-time integral over the fleet).
    pub chip_seconds: f64,
    /// Most groups simultaneously provisioned.
    pub peak_groups: usize,
    /// Spin-ups (autoscale only; includes the initial floor).
    pub scale_ups: u64,
    /// Drains back down (autoscale only).
    pub scale_downs: u64,
    /// Spin-ups that paid a plan-compilation cold start.
    pub cold_starts: u64,
    /// Total cold-start wait (ms).
    pub cold_start_total_ms: f64,
}

/// The shared per-group serving shape: one chip per group (`tp = pp =
/// 1`), paper batching knobs, and a tight interactive SLO the bursts
/// can actually violate.
fn fleet_config(dp: u64, threads: usize) -> ClusterServeConfig {
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
            ttft: Seconds::from_millis(150.0),
            tpot: Seconds::from_millis(25.0),
        },
        threads,
        ..ClusterServeConfig::new(model, ParallelismPlan::new(1, 1, dp))
    }
}

/// Runs the experiment.
///
/// # Panics
///
/// Panics if the autoscaler fails its headline claim: SLO goodput
/// above static `dp = 1` at fewer chip-seconds than static `dp = 4`.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Autoscale: elastic dp fleet vs static provisioning, burst-train trace");
    // ~90 requests per 1 s period: a 0.25 s burst at ~4x one group's
    // sustained capacity, then a 20 rps floor one group serves easily.
    // Quick mode spans ~4 periods, full ~11 — enough that the groups
    // the first burst spins up (paying the cold start) are warm and
    // waiting for the later bursts.
    let requests = if ctx.full { 960 } else { 360 };
    let trace = TraceGenConfig {
        trace: TraceConfig {
            seed: 0xe1a5,
            requests,
            rate: RateShape::BurstTrain {
                base_rps: 20.0,
                burst_rps: 520.0,
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
    .generate()
    .to_request_trace();
    ctx.line(format!(
        "{} requests over {:.3} s ({} output tokens): 0.25 s bursts at 520 rps on a 20 rps floor",
        trace.len(),
        trace.duration().as_secs(),
        trace.total_output_tokens()
    ));

    // One fit for the three fleets.
    let system = default_system();
    let base = DesignRunner::new(system.clone());
    let design = Design::ElkFull;
    let mut rows = Vec::new();

    for dp in [1u64, 4] {
        let mut sim = ClusterServingSim::new(
            base.with_system(system.clone()),
            fleet_config(dp, ctx.threads),
        )
        .expect("static fleet config is valid");
        let r = sim
            .run(design, RouterPolicy::LeastOutstanding, &trace)
            .expect("static serving run");
        rows.push(Row {
            fleet: format!("static_dp{dp}"),
            completed: r.completed,
            ttft_p99_ms: r.ttft.p99.as_millis(),
            slo_attainment: r.slo_attainment,
            goodput_rps: r.goodput_rps,
            chip_seconds: r.makespan.as_secs() * dp as f64,
            peak_groups: dp as usize,
            scale_ups: 0,
            scale_downs: 0,
            cold_starts: 0,
            cold_start_total_ms: 0.0,
        });
    }

    let auto = AutoscaleConfig {
        min_groups: 1,
        max_groups: 4,
        interval: Seconds::from_millis(100.0),
        up_queue_depth: 2.0,
        down_queue_depth: 0.25,
        slo_target: 0.9,
        cold_start_steps: 25.0,
    };
    let mut sim =
        AutoscaleServingSim::new(base.with_system(system), fleet_config(1, ctx.threads), auto)
            .expect("autoscale fleet config is valid");
    let r = sim.run(design, &trace).expect("autoscale serving run");
    rows.push(Row {
        fleet: "autoscale".to_string(),
        completed: r.completed,
        ttft_p99_ms: r.ttft.p99.as_millis(),
        slo_attainment: r.slo_attainment,
        goodput_rps: r.goodput_rps,
        chip_seconds: r.chip_seconds,
        peak_groups: r.peak_groups,
        scale_ups: r.scale_ups,
        scale_downs: r.scale_downs,
        cold_starts: r.cold_starts,
        cold_start_total_ms: r.cold_start_total.as_millis(),
    });

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.fleet.clone(),
                r.completed.to_string(),
                format!("{:.1}", r.ttft_p99_ms),
                format!("{:.0}%", r.slo_attainment * 100.0),
                format!("{:.2}", r.goodput_rps),
                format!("{:.2}", r.chip_seconds),
                r.peak_groups.to_string(),
                format!("{}/{}", r.scale_ups, r.scale_downs),
                format!("{} ({:.0} ms)", r.cold_starts, r.cold_start_total_ms),
            ]
        })
        .collect();
    ctx.table(
        &[
            "fleet",
            "done",
            "TTFT-p99",
            "SLO",
            "goodput",
            "chip-s",
            "peak",
            "up/down",
            "cold starts",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected: dp1 drowns in the bursts (queue-driven TTFT tail), dp4 meets the");
    ctx.line("SLO by paying for peak capacity throughout, and the autoscaler lands between:");
    ctx.line("near-dp4 goodput at well under dp4's chip-seconds, the cold starts visible");
    ctx.line("as the spin-up lag each burst front pays.");

    let dp1 = &rows[0];
    let dp4 = &rows[1];
    let auto_row = &rows[2];
    assert!(
        rows.iter().all(|r| r.completed == trace.len()),
        "every fleet must complete the whole trace"
    );
    assert!(
        auto_row.goodput_rps > dp1.goodput_rps,
        "autoscaler goodput {:.2} must beat static dp1 {:.2}",
        auto_row.goodput_rps,
        dp1.goodput_rps
    );
    assert!(
        auto_row.chip_seconds < dp4.chip_seconds,
        "autoscaler chip-seconds {:.2} must undercut static dp4 {:.2}",
        auto_row.chip_seconds,
        dp4.chip_seconds
    );

    for r in &rows {
        ctx.metric(format!("{}.goodput_rps", r.fleet), r.goodput_rps);
        ctx.metric(format!("{}.slo_attainment", r.fleet), r.slo_attainment);
        ctx.metric(format!("{}.chip_seconds", r.fleet), r.chip_seconds);
    }
    ctx.metric("autoscale.scale_ups", auto_row.scale_ups as f64);
    ctx.metric("autoscale.scale_downs", auto_row.scale_downs as f64);
    ctx.metric("autoscale.cold_starts", auto_row.cold_starts as f64);
    ctx.metric(
        "autoscale.cold_start_total_ms",
        auto_row.cold_start_total_ms,
    );
    ctx.metric("autoscale.peak_groups", auto_row.peak_groups as f64);
    ctx.finish(&rows);
}
