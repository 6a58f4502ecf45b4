//! Machine-readable reports the scenario runners emit — the JSON the
//! `elk` CLI writes to `results/` and CI uploads as a build artifact.
//!
//! Every type here is `Serialize` over the vendored serde shim, so the
//! emitted files are deterministic (struct-declaration field order) and
//! round-trip through `serde_json` — the CI artifact step asserts this.

use serde::{Serialize, Value};

use elk_baselines::Design;
use elk_cluster::{
    AutoscaleReport, ClusterReport, ClusterServingReport, DisaggServingReport, PlanCandidate,
    TenancyServingReport,
};
use elk_core::CompileStats;
use elk_model::Workload;
use elk_serve::ServingReport;
use elk_sim::{SimReport, TimeBuckets};

/// The deterministic subset of [`CompileStats`]: everything except the
/// wall-clock compile time, which would break the byte-identity
/// guarantee of emitted reports (`elk sweep` at `--threads 1` vs `8`
/// must produce identical bytes).
#[derive(Debug, Clone, Serialize)]
pub struct PlanSearchStats {
    /// Preload orders generated (post pruning).
    pub orders_considered: usize,
    /// Orders that scheduled successfully.
    pub orders_feasible: usize,
    /// Edit distance of the winning order.
    pub chosen_edit_distance: usize,
    /// Distinct operator signatures (plan sets actually enumerated).
    pub distinct_signatures: usize,
    /// `P`: maximum feasible plans over all operators.
    pub max_plans_per_op: usize,
    /// Maximum simultaneously-resident operators observed.
    pub peak_resident_ops: usize,
    /// Mean preload number across operators.
    pub avg_preload_number: f64,
}

impl From<&CompileStats> for PlanSearchStats {
    fn from(s: &CompileStats) -> Self {
        PlanSearchStats {
            orders_considered: s.orders_considered,
            orders_feasible: s.orders_feasible,
            chosen_edit_distance: s.chosen_edit_distance,
            distinct_signatures: s.distinct_signatures,
            max_plans_per_op: s.max_plans_per_op,
            peak_resident_ops: s.peak_resident_ops,
            avg_preload_number: s.avg_preload_number,
        }
    }
}

/// Output of `elk compile`: per-design compiled-plan artifacts plus the
/// simulator measurement of each program.
#[derive(Debug, Clone, Serialize)]
pub struct CompileReport {
    /// Scenario name.
    pub scenario: String,
    /// Chip name of the target system.
    pub system: String,
    /// Chips in the pod.
    pub chips: u64,
    /// Model name.
    pub model: String,
    /// The compiled workload step.
    pub workload: Workload,
    /// Tensor-parallel shard count.
    pub shards: u64,
    /// One entry per design, in spec order.
    ///
    /// The worker-thread knob is deliberately *not* recorded: results
    /// are identical at any setting, and recording it would break the
    /// reports' byte-identity across `--threads` values.
    pub designs: Vec<DesignCompileReport>,
}

/// One design's compile outcome.
#[derive(Debug, Clone, Serialize)]
pub struct DesignCompileReport {
    /// The design.
    pub design: Design,
    /// Operators in the lowered device program.
    pub ops: usize,
    /// Device instructions emitted.
    pub instrs: usize,
    /// Compiler-side forward-timeline estimate of the makespan, ms.
    pub estimate_total_ms: f64,
    /// Elk plan-search statistics (`None` for the hand-built
    /// baselines).
    pub compile: Option<PlanSearchStats>,
    /// Simulator measurement of the compiled program.
    pub report: SimReport,
}

/// Output of `elk simulate`: the §6 design comparison on one workload.
#[derive(Debug, Clone, Serialize)]
pub struct SimulateReport {
    /// Scenario name.
    pub scenario: String,
    /// Chip name of the target system.
    pub system: String,
    /// Model name.
    pub model: String,
    /// The simulated workload step.
    pub workload: Workload,
    /// Tensor-parallel shard count.
    pub shards: u64,
    /// One row per design, in spec order.
    pub designs: Vec<DesignSimRow>,
}

/// One design's simulator measurement, in comparison-table form.
#[derive(Debug, Clone, Serialize)]
pub struct DesignSimRow {
    /// The design.
    pub design: Design,
    /// Step makespan, ms.
    pub total_ms: f64,
    /// Basic's makespan over this design's (1.0 for Basic itself;
    /// `None` when Basic is not in the design list).
    pub speedup_vs_basic: Option<f64>,
    /// Makespan decomposition (Fig. 18/20 buckets).
    pub buckets: TimeBuckets,
    /// Mean HBM bandwidth utilization.
    pub hbm_util: f64,
    /// Mean interconnect utilization.
    pub noc_util: f64,
    /// Achieved compute throughput per chip, TFLOPS.
    pub achieved_tflops: f64,
    /// Fraction of the makespan with preload/execute overlapped.
    pub overlap_fraction: f64,
    /// Residency events exceeding per-core SRAM (0 for sound plans).
    pub capacity_violations: usize,
}

/// Output of `elk serve`: request-level serving metrics per design.
///
/// Byte-identical run-to-run and across `--threads` settings, each
/// design's `cache` hit/miss split included: every plan is compiled
/// once, by a lookup that asked for it (see `elk_serve::PlanCache`).
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Scenario name.
    pub scenario: String,
    /// Model name.
    pub model: String,
    /// Requests in the generated trace.
    pub requests: usize,
    /// Replica count.
    pub replicas: usize,
    /// Tensor-parallel shard count per replica.
    pub shards: u64,
    /// One full serving report per design, in spec order.
    pub designs: Vec<ServingReport>,
    /// Multi-tenant replay, one row per design (when the scenario has
    /// a `serving.tenants` section).
    pub tenancy: Option<Vec<TenancyServingReport>>,
}

/// Output of `elk cluster`: the (searched or pinned) parallelism plan's
/// estimate, plus the routed serving comparison when enabled.
///
/// Byte-identical across `--threads` settings: the search merges in
/// grid order, the serving event loop is sequential, and no cache
/// hit/miss counters are recorded.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterRunReport {
    /// Scenario name.
    pub scenario: String,
    /// Chip name of the target system.
    pub system: String,
    /// Chips in the pod.
    pub chips: u64,
    /// Model name.
    pub model: String,
    /// Design the plan was compiled with (first of the spec's list).
    pub design: Design,
    /// Inter-chip link arrangement collectives were priced on.
    pub interconnect: String,
    /// `true` when the plan came from the auto-parallelism search.
    pub auto: bool,
    /// Every `(tp, pp, dp)` candidate in grid order (auto mode only).
    pub candidates: Option<Vec<PlanCandidate>>,
    /// The chosen plan's full estimate: per-stage timeline, bubble
    /// fraction, scaling efficiency.
    pub estimate: ClusterReport,
    /// Routed serving comparison, one row per design × router policy
    /// (when the scenario's `cluster.serve` is on).
    pub serving: Option<Vec<ClusterServingReport>>,
    /// Elastic-fleet replay, one row per design (when the scenario has
    /// a `cluster.autoscale` section and `cluster.serve` is on).
    pub autoscale: Option<Vec<AutoscaleReport>>,
    /// Disaggregated prefill/decode replay, one row per design × router
    /// policy (when the scenario has a `cluster.disaggregate` section
    /// and `cluster.serve` is on).
    pub disagg: Option<Vec<DisaggServingReport>>,
    /// Multi-tenant replay, one row per design × router policy (when
    /// the scenario has a `cluster.tenants` section and `cluster.serve`
    /// is on).
    pub tenancy: Option<Vec<TenancyServingReport>>,
}

/// Output of `elk trace gen`: a summary of the emitted trace file.
/// Deterministic — trace content is a pure function of the generator
/// spec, and no wall-clock field is recorded (the `PlanSearchStats`
/// convention).
#[derive(Debug, Clone, Serialize)]
pub struct TraceGenReport {
    /// Scenario name (the trace file's stem).
    pub scenario: String,
    /// Generator seed.
    pub seed: u64,
    /// Records emitted.
    pub requests: usize,
    /// First-to-last arrival span, simulated seconds.
    pub duration_s: f64,
    /// Sum of prompt lengths.
    pub total_prompt_tokens: u64,
    /// Sum of output lengths.
    pub total_output_tokens: u64,
    /// Distinct tenant ids stamped on records.
    pub tenants: usize,
}

/// Output of `elk sweep`: one report per grid point, in grid order.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Base scenario name.
    pub scenario: String,
    /// The per-point runner (`compile`, `simulate`, `serve`).
    pub command: String,
    /// Swept paths, in axis order (last axis varies fastest).
    pub axes: Vec<String>,
    /// Grid points, row-major over the axes.
    pub points: Vec<SweepPoint>,
}

/// One sweep grid point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Point name: the base name plus the overrides applied.
    pub name: String,
    /// The path → value overrides of this point, as a JSON object.
    pub overrides: Value,
    /// The point's full report (a [`CompileReport`], [`SimulateReport`],
    /// or [`ServeReport`] as a JSON value, matching `command`).
    pub report: Value,
}
