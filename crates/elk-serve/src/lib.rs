//! # elk-serve — request-level serving simulation over compiled Elk plans
//!
//! The paper evaluates Elk on steady-state per-batch latency (§6,
//! Fig. 17). This crate layers request-level dynamics on top of the
//! compiler and chip simulator: arrivals, queueing, prefill/decode
//! interleaving, and tail latency — the quantities a serving system is
//! actually judged on.
//!
//! ## Data flow
//!
//! ```text
//! trace (TraceConfig / RequestTrace)          requests with arrival,
//!        |                                    prompt_len, output_len
//!        v
//! batcher (BatchConfig)                       iteration-level continuous
//!        |                                    batching: prefill | decode
//!        v
//! plan cache (PlanCache)                      one Elk compile + simulate
//!        |                                    per bucketed (model, design,
//!        v                                    phase, batch, seq) signature
//! chip simulator (elk-sim SimReport)          step latency
//!        |
//!        v
//! metrics (ServingReport)                     TTFT / TPOT / e2e
//!                                             percentiles, goodput,
//!                                             queue depth
//! ```
//!
//! ## Knobs
//!
//! | knob | where | meaning |
//! |---|---|---|
//! | `seed`, `requests` | [`TraceConfig`] | deterministic trace size/stream, at most [`TraceConfig::MAX_REQUESTS`] requests and [`MAX_OUTPUT_TOKENS`] output tokens |
//! | `rate` | [`RateShape`] | `Constant`, `Diurnal`, or `BurstTrain`; [`RateShape::bursty`] lowers the on/off `Bursty { rate_rps, burst_factor, period_s, duty }` recipe |
//! | `prompt_len`, `output_len` | [`LengthModel`] | `Fixed`, `Uniform`, `HeavyTail`, or `Bimodal` token counts, at most [`MAX_TOKENS`] |
//! | `max_batch` | [`BatchConfig`] | concurrent requests per replica |
//! | `max_prefill_tokens` | [`BatchConfig`] | prompt-token budget per prefill step |
//! | `seq_buckets` | [`BatchConfig`] | pow-2 context bucketing for plan-cache keys |
//! | `bucket_batch` | [`BatchConfig`] | round batch shapes to powers of two |
//! | `shards` | [`ServeConfig`] | tensor-parallel chips per replica |
//! | `replicas` | [`ServeConfig`] | independent chip groups (round-robin routing), at most [`ServeConfig::MAX_REPLICAS`] |
//! | `threads` | [`ServeConfig`] | worker pool: concurrent replica loops (`1` = sequential, `0` = all cores) |
//! | `slo` | [`SloConfig`] | TTFT/TPOT bounds scored by goodput |
//! | `sim` | [`ServeConfig`] | chip-simulator noise/trace options |
//!
//! ## Example
//!
//! ```
//! use elk_serve::{LengthModel, RateShape, ServeConfig, ServingSim, TraceConfig};
//! use elk_baselines::Design;
//! use elk_hw::presets;
//! use elk_model::zoo;
//!
//! # fn main() -> Result<(), elk_core::CompileError> {
//! let trace = TraceConfig {
//!     seed: 7,
//!     requests: 10,
//!     rate: RateShape::Constant { rate_rps: 100.0 },
//!     prompt_len: LengthModel::Uniform { lo: 100, hi: 400 },
//!     output_len: LengthModel::Fixed(4),
//! }
//! .generate();
//!
//! let mut model = zoo::llama2_13b();
//! model.layers = 2; // doctest-sized
//! let mut sim = ServingSim::new(presets::ipu_pod4(), ServeConfig::new(model, 4));
//! let report = sim.run(Design::ElkFull, &trace)?;
//! assert_eq!(report.completed, 10);
//! assert!(report.ttft.p99 >= report.ttft.p50);
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batcher;
mod cache;
mod engine;
mod group;
mod metrics;
mod report;
mod router;
mod tenancy;
mod trace;

pub use batcher::BatchConfig;
pub use cache::{CacheStats, PlanCache, PlanKey, StepMemo};
pub use engine::{ServeConfig, ServingSim};
pub use group::{Group, GroupCore, GroupFold, LatencyFold, PendingStep};
pub use metrics::{percentile, LatencyStats, RequestOutcome, SloConfig};
pub use report::ServingReport;
pub use router::{Router, RouterPolicy};
pub use tenancy::{
    jain_index, ShedPolicy, TenancyConfig, TenantClass, TenantReport, TokenBucket,
    MAX_CLASS_PRIORITY,
};
pub use trace::{
    check_positive, check_span, LengthModel, RateShape, Request, RequestTrace, TraceConfig,
    MAX_OUTPUT_TOKENS, MAX_TOKENS,
};
