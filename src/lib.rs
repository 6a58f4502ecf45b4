//! # Elk — a DL compiler framework for inter-core connected AI chips
//!
//! Reproduction of *"Elk: Exploring the Efficiency of Inter-core Connected
//! AI Chips with Deep Learning Compiler Techniques"* (MICRO 2025), built
//! from scratch in Rust: the compiler (§4), the operator partitioner
//! (§2.2/§5), the cost models (§4.3), the ICCA-chip simulator (§5), and
//! the evaluation baselines (§6.1).
//!
//! This facade crate re-exports the workspace's public API under one
//! namespace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `elk-model` | operator graphs, model zoo, workloads |
//! | [`hw`] | `elk-hw` | chips, topologies, HBM, system presets |
//! | [`cost`] | `elk-cost` | analytic device + linear-tree cost models |
//! | [`partition`] | `elk-partition` | execute/preload-state plan enumeration |
//! | [`compiler`] | `elk-core` | scheduling, allocation, reordering, codegen |
//! | [`sim`] | `elk-sim` | event-driven chip simulator |
//! | [`sim_core`] | `elk-sim-core` | deterministic DES kernel: event queue, clock, seeded RNG, time-weighted stats |
//! | [`obs`] | `elk-obs` | deterministic sim-time observability: spans, counters, histograms, Chrome-trace export |
//! | [`baselines`] | `elk-baselines` | Basic / Static / Elk-Dyn / Elk-Full / Ideal |
//! | [`serve`] | `elk-serve` | request-level serving simulator (traces, batching, SLOs, routers) |
//! | [`trace`] | `elk-trace` | versioned trace files + production-shaped generators |
//! | [`cluster`] | `elk-cluster` | multi-chip (tp, pp, dp) planning, cluster estimation + serving, autoscaling |
//! | [`spec`] | `elk-spec` | declarative JSON scenario specs, runners, and sweeps |
//! | [`par`] | `elk-par` | scoped work-pool: deterministic `par_map`, single-flight |
//! | [`units`] | `elk-units` | typed bytes/seconds/bandwidth/FLOPs |
//!
//! ## Quickstart
//!
//! ```
//! use elk::prelude::*;
//!
//! # fn main() -> Result<(), elk::compiler::CompileError> {
//! // A (doctest-sized) LLM decode step on an IPU-POD4-class system.
//! let mut cfg = zoo::llama2_13b();
//! cfg.layers = 2;
//! let graph = cfg.build(Workload::decode(16, 512), 4);
//! let system = presets::ipu_pod4();
//!
//! // Compile with full Elk, then measure on the simulator.
//! let plan = Compiler::new(system.clone()).compile(&graph)?;
//! let report = simulate(&plan.program, &system, &SimOptions::default());
//! assert_eq!(report.capacity_violations, 0);
//! println!("per-token latency: {}", report.total);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios,
//! `crates/elk-bench` for the paper's tables and figures, and
//! [`docs/ARCHITECTURE.md`](https://example.invalid/elk/blob/main/docs/ARCHITECTURE.md)
//! (in the repository root) for the end-to-end dataflow — model →
//! partition → compile → simulate → serve → cluster → bench —
//! including the determinism contract of the [`par`] work-pool that
//! every stage's `threads` knob feeds into.

#![warn(missing_docs)]

pub use elk_baselines as baselines;
pub use elk_cluster as cluster;
pub use elk_core as compiler;
pub use elk_cost as cost;
pub use elk_hw as hw;
pub use elk_model as model;
pub use elk_obs as obs;
pub use elk_par as par;
pub use elk_partition as partition;
pub use elk_serve as serve;
pub use elk_sim as sim;
pub use elk_sim_core as sim_core;
pub use elk_spec as spec;
pub use elk_trace as trace;
pub use elk_units as units;

/// The common imports for application code.
pub mod prelude {
    pub use elk_baselines::{Design, DesignRunner};
    pub use elk_cluster::{ClusterEstimator, ClusterOptions, ParallelismPlan};
    pub use elk_core::{Compiler, CompilerOptions};
    pub use elk_hw::{
        presets, ChipConfig, CollectiveModel, HbmConfig, InterChipTopology, SystemConfig, Topology,
    };
    pub use elk_model::{zoo, ModelGraph, SeqBuckets, TransformerConfig, Workload};
    pub use elk_serve::{
        BatchConfig, LengthModel, RateShape, RequestTrace, ServeConfig, ServingReport, ServingSim,
        SloConfig, TraceConfig,
    };
    pub use elk_sim::{simulate, SimOptions, SimReport};
    pub use elk_spec::{ScenarioSpec, SpecError};
    pub use elk_trace::{TraceFile, TraceGenConfig};
    pub use elk_units::{ByteRate, Bytes, FlopRate, Flops, Seconds};
}
