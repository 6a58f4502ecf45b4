//! Serving: request-level tail latency and goodput of every design on a
//! bursty trace — the end-to-end view the paper's per-batch numbers
//! (Fig. 17) do not show. New to this reproduction (no paper analogue).

use serde::Serialize;

use elk_baselines::{Design, DesignRunner};
use elk_model::zoo;
use elk_serve::{LengthModel, RateShape, ServeConfig, ServingSim, SloConfig, TraceConfig};
use elk_units::Seconds;

use crate::ctx::{default_system, Ctx};

/// Serving metrics of one design at one replica count.
#[derive(Debug, Serialize)]
pub struct Row {
    /// Design name.
    pub design: String,
    /// Chip-group replica count.
    pub replicas: usize,
    /// Median time-to-first-token (ms).
    pub ttft_p50_ms: f64,
    /// 99th-percentile time-to-first-token (ms).
    pub ttft_p99_ms: f64,
    /// Mean time-per-output-token (ms).
    pub tpot_mean_ms: f64,
    /// 99th-percentile time-per-output-token (ms).
    pub tpot_p99_ms: f64,
    /// 99th-percentile end-to-end latency (ms).
    pub e2e_p99_ms: f64,
    /// Trace start to last token (ms).
    pub makespan_ms: f64,
    /// SLO-meeting completions per second.
    pub goodput_rps: f64,
    /// Fraction of requests meeting the SLO.
    pub slo_attainment: f64,
    /// Plan-cache lookups past the step memos during the run.
    pub cache_lookups: u64,
}

/// Runs the experiment.
pub fn run(ctx: &mut Ctx) {
    ctx.header("Serving: TTFT/TPOT percentiles + goodput, bursty trace, 4-chip pod");
    let requests = if ctx.full { 96 } else { 48 };
    let trace = TraceConfig {
        seed: 0x5eed,
        requests,
        rate: RateShape::bursty(300.0, 3.5, 0.2, 0.25).expect("valid burst recipe"),
        prompt_len: LengthModel::Uniform { lo: 1700, hi: 3600 },
        output_len: LengthModel::Uniform { lo: 96, hi: 224 },
    }
    .generate();
    ctx.line(format!(
        "{} requests over {:.3} s, {} output tokens",
        trace.len(),
        trace.duration().as_secs(),
        trace.total_output_tokens()
    ));

    let replica_counts: &[usize] = if ctx.full { &[1, 2] } else { &[1] };
    // One fit for every replica count.
    let system = default_system();
    let base = DesignRunner::new(system.clone());
    let mut rows = Vec::new();
    for &replicas in replica_counts {
        let mut config = ServeConfig::new(zoo::llama2_13b(), 4)
            .with_replicas(replicas)
            .with_threads(ctx.threads);
        config.batch.max_batch = 32;
        config.slo = SloConfig {
            ttft: Seconds::new(20.0),
            tpot: Seconds::from_millis(25.0),
        };
        let mut sim = ServingSim::new(base.with_system(system.clone()), config);
        for design in Design::ALL {
            let r = sim.run(design, &trace).expect("serving run");
            rows.push(Row {
                design: design.to_string(),
                replicas,
                ttft_p50_ms: r.ttft.p50.as_millis(),
                ttft_p99_ms: r.ttft.p99.as_millis(),
                tpot_mean_ms: r.tpot.mean.as_millis(),
                tpot_p99_ms: r.tpot.p99.as_millis(),
                e2e_p99_ms: r.e2e.p99.as_millis(),
                makespan_ms: r.makespan.as_millis(),
                goodput_rps: r.goodput_rps,
                slo_attainment: r.slo_attainment,
                cache_lookups: r.cache.hits + r.cache.misses,
            });
        }
    }

    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.clone(),
                format!("x{}", r.replicas),
                format!("{:.1}", r.ttft_p50_ms),
                format!("{:.1}", r.ttft_p99_ms),
                format!("{:.2}", r.tpot_mean_ms),
                format!("{:.2}", r.tpot_p99_ms),
                format!("{:.1}", r.e2e_p99_ms),
                format!("{:.2}", r.goodput_rps),
                format!("{:.0}%", r.slo_attainment * 100.0),
                r.cache_lookups.to_string(),
            ]
        })
        .collect();
    ctx.table(
        &[
            "design", "repl", "TTFT-p50", "TTFT-p99", "TPOT", "TPOT-p99", "E2E-p99", "goodput",
            "SLO", "lookups",
        ],
        &cells,
    );
    ctx.line("");
    ctx.line("Expected: ELK-Full tracks Ideal on TPOT and goodput; Basic pays the");
    ctx.line("widest tail. Plan-cache lookups stay flat across designs, one per step shape.");
    for r in &rows {
        ctx.metric(
            format!("{}.x{}.goodput_rps", r.design, r.replicas),
            r.goodput_rps,
        );
        ctx.metric(
            format!("{}.x{}.tpot_mean_ms", r.design, r.replicas),
            r.tpot_mean_ms,
        );
    }
    ctx.finish(&rows);
}
