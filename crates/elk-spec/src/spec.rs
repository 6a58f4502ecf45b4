//! The scenario schema: serde-backed spec types mirroring the engine's
//! configuration surface in hand-authorable JSON.
//!
//! Every section except `name` and `model` is optional and defaults to
//! the paper's evaluation setup (§6.1), so the smallest valid scenario
//! is:
//!
//! ```json
//! { "name": "smallest", "model": { "zoo": "llama13" } }
//! ```
//!
//! The serde impls are derived with real-serde attributes:
//! `deny_unknown_fields` makes unknown keys anywhere in the spec parse
//! errors, so a typo'd knob never silently runs with defaults, and
//! each container's `rename` is the dotted context its errors carry.
//! Three shapes no attribute expresses keep hand-written impls over
//! the same strict [`MapReader`]: [`SystemSpec`] and [`ModelSpec`]
//! pick their variant by which key is present, and [`TenancySpec`]'s
//! `default_class` defaults from its `classes`.

use serde::{Deserialize, Error, MapReader, Serialize, Serializer, Value};

use elk_baselines::Design;
use elk_model::Phase;
use elk_serve::{LengthModel, RateShape, RouterPolicy};

use crate::SpecError;

/// One fully-described experiment: chip, model, workload, compiler,
/// simulator, and serving configuration, plus an optional sweep grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "scenario", deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Scenario name — the stem of every report file it produces.
    #[serde(deserialize_with = "non_empty")]
    pub name: String,
    /// Target system (preset or custom chip description).
    #[serde(default)]
    pub system: SystemSpec,
    /// Model under test.
    pub model: ModelSpec,
    /// Steady-state workload for `compile` / `simulate`.
    #[serde(default)]
    pub workload: WorkloadSpec,
    /// Compiler options: designs to run and worker threads.
    #[serde(default)]
    pub compiler: CompilerSpec,
    /// Chip-simulator options.
    #[serde(default)]
    pub sim: SimSpec,
    /// Request-level serving configuration for `serve`.
    #[serde(default)]
    pub serving: ServingSpec,
    /// Deterministic observability: timeline/metrics export knobs.
    #[serde(default)]
    pub observe: ObserveSpec,
    /// Optional multi-chip parallelism section for `elk cluster`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub cluster: Option<ClusterSpec>,
    /// Optional sweep grid for `elk sweep`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sweep: Option<SweepSpec>,
}

impl ScenarioSpec {
    /// Parses a scenario from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON, a missing
    /// required field, an unknown key, or a type mismatch.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        serde_json::from_str(json).map_err(SpecError::from)
    }

    /// Renders the spec as canonical pretty JSON (all fields explicit).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialization is infallible")
    }
}

/// `deserialize_with` for strings that must not be blank: names and
/// file paths.
fn non_empty<T: From<String>>(v: &Value) -> Result<T, Error> {
    let s = String::from_value(v)?;
    if s.trim().is_empty() {
        return Err(Error::msg("must be non-empty"));
    }
    Ok(s.into())
}

/// `deserialize_with` for lists that need at least one element.
fn non_empty_list<T: Deserialize>(v: &Value) -> Result<Vec<T>, Error> {
    let items = Vec::<T>::from_value(v)?;
    if items.is_empty() {
        return Err(Error::msg("the list must not be empty"));
    }
    Ok(items)
}

// ---- system ----

/// Target system: a named preset or an explicit chip/pod description.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemSpec {
    /// One of the paper's evaluation platforms by name
    /// (`ipu_pod4`, `ipu_pod4_mesh`, `single_chip`).
    Preset(String),
    /// A custom design point — the design-space-exploration path.
    Custom {
        /// Chip description.
        chip: ChipSpec,
        /// Chips in the pod.
        chips: u64,
        /// Per-chip HBM.
        hbm: HbmSpec,
        /// Aggregate inter-chip bandwidth in GiB/s.
        inter_chip_bw_gib_s: f64,
    },
}

impl Default for SystemSpec {
    /// The paper's default platform, `ipu_pod4`.
    fn default() -> Self {
        SystemSpec::Preset("ipu_pod4".into())
    }
}

impl Deserialize for SystemSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut r = MapReader::strict(
            "system",
            &["preset", "chip", "chips", "hbm", "inter_chip_bw_gib_s"],
            v,
        )?;
        let spec = if r.has("preset") {
            SystemSpec::Preset(r.req("preset")?)
        } else {
            SystemSpec::Custom {
                chip: r.req("chip")?,
                chips: r.opt("chips")?.unwrap_or(4),
                hbm: r.opt("hbm")?.unwrap_or_default(),
                inter_chip_bw_gib_s: r.opt("inter_chip_bw_gib_s")?.unwrap_or(640.0),
            }
        };
        r.finish()?;
        Ok(spec)
    }
}

impl Serialize for SystemSpec {
    fn to_value(&self) -> Value {
        match self {
            SystemSpec::Preset(name) => Value::Map(vec![("preset".into(), name.to_value())]),
            SystemSpec::Custom {
                chip,
                chips,
                hbm,
                inter_chip_bw_gib_s,
            } => Value::Map(vec![
                ("chip".into(), chip.to_value()),
                ("chips".into(), chips.to_value()),
                ("hbm".into(), hbm.to_value()),
                ("inter_chip_bw_gib_s".into(), inter_chip_bw_gib_s.to_value()),
            ]),
        }
    }
}

/// One custom ICCA chip. Compute rates are whole-chip numbers (the
/// paper quotes per-chip TFLOPS); per-core rates are derived by
/// dividing by `cores`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "chip", deny_unknown_fields)]
pub struct ChipSpec {
    /// Chip name for reports.
    #[serde(default = "ChipSpec::default_name")]
    pub name: String,
    /// Core count.
    pub cores: u64,
    /// Scratchpad SRAM per core, in KiB.
    #[serde(default = "ChipSpec::default_sram_per_core_kib")]
    pub sram_per_core_kib: u64,
    /// Reserved inter-core transfer buffer per core, in KiB.
    #[serde(default = "ChipSpec::default_io_buffer_per_core_kib")]
    pub io_buffer_per_core_kib: u64,
    /// Whole-chip peak MatMul throughput, in TFLOPS.
    pub matmul_tflops: f64,
    /// Whole-chip peak vector throughput, in TFLOPS.
    pub vector_tflops: f64,
    /// Local SRAM port bandwidth per core, in decimal GB/s.
    #[serde(default = "ChipSpec::default_sram_bw_gb_s")]
    pub sram_bw_gb_s: f64,
    /// `"blocking"` (IPU-style) or `"concurrent"` SRAM arbitration.
    #[serde(default = "ChipSpec::default_sram_contention")]
    pub sram_contention: String,
    /// On-chip interconnect.
    #[serde(default)]
    pub topology: TopologySpec,
}

/// Defaults for the optional chip fields: IPU MK2's values.
impl ChipSpec {
    fn default_name() -> String {
        "custom".into()
    }
    fn default_sram_per_core_kib() -> u64 {
        624
    }
    fn default_io_buffer_per_core_kib() -> u64 {
        8
    }
    fn default_sram_bw_gb_s() -> f64 {
        21.3
    }
    fn default_sram_contention() -> String {
        "blocking".into()
    }
}

/// On-chip interconnect spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "topology", rename_all = "snake_case", deny_unknown_fields)]
pub enum TopologySpec {
    /// Non-blocking all-to-all exchange with the given per-core link
    /// bandwidth in GiB/s (IPU MK2: 5.5).
    AllToAll {
        /// Per-core link bandwidth in GiB/s.
        #[serde(default = "TopologySpec::ipu_core_link_gib_s")]
        core_link_gib_s: f64,
    },
    /// Near-square 2D mesh provisioned to the given aggregate bandwidth
    /// in GiB/s.
    Mesh {
        /// Aggregate interconnect bandwidth in GiB/s.
        total_gib_s: f64,
    },
}

impl TopologySpec {
    /// IPU MK2's per-core exchange link bandwidth, GiB/s.
    fn ipu_core_link_gib_s() -> f64 {
        5.5
    }
}

impl Default for TopologySpec {
    /// IPU MK2's 5.5 GiB/s per-core all-to-all exchange.
    fn default() -> Self {
        TopologySpec::AllToAll {
            core_link_gib_s: Self::ipu_core_link_gib_s(),
        }
    }
}

/// Per-chip HBM spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "hbm", default, deny_unknown_fields)]
pub struct HbmSpec {
    /// HBM channels (controller nodes) per chip.
    pub channels: u64,
    /// Sustained bandwidth per channel in GiB/s.
    pub channel_bw_gib_s: f64,
    /// Per-chip capacity in GiB (the cluster planner's HBM-feasibility
    /// bound).
    pub capacity_gib: u64,
}

impl Default for HbmSpec {
    /// The paper's emulated platform: 4 HBM3E channels at 1 TiB/s each,
    /// 96 GiB per chip.
    fn default() -> Self {
        HbmSpec {
            channels: 4,
            channel_bw_gib_s: 1024.0,
            capacity_gib: 96,
        }
    }
}

// ---- model ----

/// Model under test: a zoo name (with an optional depth override for
/// quick runs) or explicit architecture hyper-parameters.
///
/// The explicit bodies are the engine configs' own derived impls, which
/// reject unknown keys.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// A model from [`elk_model::zoo`] by CLI alias (`llama13`,
    /// `gemma27`, `opt30`, `llama70`, `mixtral`, `dit`).
    Zoo {
        /// The alias.
        zoo: String,
        /// Optional layer-count override (doctest-sized runs).
        layers: Option<u32>,
    },
    /// Explicit dense-transformer hyper-parameters.
    Transformer(elk_model::TransformerConfig),
    /// Explicit mixture-of-experts hyper-parameters.
    Moe(elk_model::moe::MoeConfig),
    /// Explicit diffusion-transformer hyper-parameters.
    Dit(elk_model::dit::DitConfig),
}

impl Deserialize for ModelSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let mut r = MapReader::strict("model", &["zoo", "layers", "transformer", "moe", "dit"], v)?;
        let spec = if r.has("zoo") {
            ModelSpec::Zoo {
                zoo: r.req("zoo")?,
                layers: r.opt("layers")?,
            }
        } else if let Some(cfg) = r.opt("transformer")? {
            ModelSpec::Transformer(cfg)
        } else if let Some(cfg) = r.opt("moe")? {
            ModelSpec::Moe(cfg)
        } else if let Some(cfg) = r.opt("dit")? {
            ModelSpec::Dit(cfg)
        } else {
            return Err(Error::msg(
                "model: expected one of `zoo`, `transformer`, `moe`, `dit`",
            ));
        };
        r.finish()?;
        Ok(spec)
    }
}

impl Serialize for ModelSpec {
    fn to_value(&self) -> Value {
        match self {
            ModelSpec::Zoo { zoo, layers } => {
                let mut m = vec![("zoo".into(), zoo.to_value())];
                if let Some(layers) = layers {
                    m.push(("layers".into(), layers.to_value()));
                }
                Value::Map(m)
            }
            ModelSpec::Transformer(cfg) => Value::Map(vec![("transformer".into(), cfg.to_value())]),
            ModelSpec::Moe(cfg) => Value::Map(vec![("moe".into(), cfg.to_value())]),
            ModelSpec::Dit(cfg) => Value::Map(vec![("dit".into(), cfg.to_value())]),
        }
    }
}

// ---- workload ----

/// Steady-state workload for `compile` / `simulate`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "workload", default, deny_unknown_fields)]
pub struct WorkloadSpec {
    /// `"decode"`, `"prefill"`, or `"training_forward"`.
    #[serde(with = "phase_str")]
    pub phase: Phase,
    /// Requests per batch.
    pub batch: u64,
    /// Context length.
    pub seq_len: u64,
    /// Tensor-parallel shard count; defaults to the system's chip count.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shards: Option<u64>,
    /// Request trace for replay commands (`serve`, `cluster`,
    /// `trace gen`): a recorded `elk-trace` file or a seeded generator.
    /// When set it supersedes `serving.trace`, so recorded and
    /// synthetic traces flow through one path.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<TraceSourceSpec>,
}

impl Default for WorkloadSpec {
    /// The paper's default serving workload: decode, batch 32, seq 2048.
    fn default() -> Self {
        WorkloadSpec {
            phase: Phase::Decode,
            batch: 32,
            seq_len: 2048,
            shards: None,
            trace: None,
        }
    }
}

/// Where a replayed request trace comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(
    rename = "workload.trace",
    rename_all = "snake_case",
    deny_unknown_fields
)]
pub enum TraceSourceSpec {
    /// A recorded `elk-trace` JSONL file (versioned header + one record
    /// per line), resolved relative to the working directory.
    #[serde(deserialize_with = "non_empty")]
    File(String),
    /// A seeded production-shaped generator, emitted in the same format.
    Generate(TraceGenSpec),
}

/// Seeded trace-generator recipe (mirrors [`elk_trace::TraceGenConfig`]).
///
/// `rate` takes the [`RateShape`] variants as externally-tagged objects
/// — `{"Constant": {"rate_rps": 100.0}}`, `{"Diurnal": {...}}`,
/// `{"BurstTrain": {...}}` — and the length models take
/// `{"Fixed": n}`, `{"Uniform": {...}}`, `{"HeavyTail": {...}}`, or
/// `{"Bimodal": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "workload.trace.generate", default, deny_unknown_fields)]
pub struct TraceGenSpec {
    /// RNG seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Arrival-rate shape over time.
    pub rate: RateShape,
    /// Prompt-length model.
    pub prompt_len: LengthModel,
    /// Output-length model.
    pub output_len: LengthModel,
    /// Distinct tenant ids to stamp on records (0 = untagged).
    pub tenants: u64,
}

impl Default for TraceGenSpec {
    /// [`elk_trace::TraceGenConfig`]'s defaults.
    fn default() -> Self {
        let d = elk_trace::TraceGenConfig::default();
        TraceGenSpec {
            seed: d.trace.seed,
            requests: d.trace.requests,
            rate: d.trace.rate,
            prompt_len: d.trace.prompt_len,
            output_len: d.trace.output_len,
            tenants: d.tenants,
        }
    }
}

/// Parses a lowercase phase name.
fn parse_phase(name: &str) -> Result<Phase, Error> {
    match name {
        "decode" => Ok(Phase::Decode),
        "prefill" => Ok(Phase::Prefill),
        "training_forward" => Ok(Phase::TrainingForward),
        other => Err(Error::msg(format!(
            "unknown phase '{other}': expected decode, prefill, training_forward"
        ))),
    }
}

/// Canonical lowercase phase name.
#[must_use]
pub fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Decode => "decode",
        Phase::Prefill => "prefill",
        Phase::TrainingForward => "training_forward",
    }
}

/// `with` module for [`Phase`] fields: the lowercase name.
mod phase_str {
    use super::{Deserialize, Error, Phase, Serializer, Value};

    pub(super) fn serialize<S: Serializer + ?Sized>(phase: &Phase, out: &mut S) {
        out.str(super::phase_name(*phase));
    }

    pub(super) fn deserialize(v: &Value) -> Result<Phase, Error> {
        super::parse_phase(&String::from_value(v)?)
    }
}

// ---- compiler ----

/// Compiler options: designs to run and worker threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "compiler", default, deny_unknown_fields)]
pub struct CompilerSpec {
    /// Designs to compile, in run order. The JSON accepts a single
    /// name, `"all"`, or an array of names.
    #[serde(with = "design_list")]
    pub design: Vec<Design>,
    /// Worker threads for catalog construction and order search
    /// (`0` = all available cores). Outputs are byte-identical at any
    /// setting.
    pub threads: usize,
}

impl Default for CompilerSpec {
    /// Full Elk on one worker thread.
    fn default() -> Self {
        CompilerSpec {
            design: vec![Design::ElkFull],
            threads: 1,
        }
    }
}

/// Parses a lowercase design name.
fn parse_design(name: &str) -> Result<Design, Error> {
    match name {
        "basic" => Ok(Design::Basic),
        "static" => Ok(Design::Static),
        "elk_dyn" => Ok(Design::ElkDyn),
        "elk_full" => Ok(Design::ElkFull),
        "ideal" => Ok(Design::Ideal),
        other => Err(Error::msg(format!(
            "unknown design '{other}': expected basic, static, elk_dyn, elk_full, ideal, or all"
        ))),
    }
}

/// Canonical lowercase design name.
#[must_use]
pub fn design_name(design: Design) -> &'static str {
    match design {
        Design::Basic => "basic",
        Design::Static => "static",
        Design::ElkDyn => "elk_dyn",
        Design::ElkFull => "elk_full",
        Design::Ideal => "ideal",
    }
}

/// `with` module for the `design` key: one name, `"all"`, or a
/// non-empty array of names; written back as an array of names.
mod design_list {
    use super::{Design, Error, Serializer, Value};

    pub(super) fn serialize<S: Serializer + ?Sized>(designs: &[Design], out: &mut S) {
        out.seq_begin(designs.len());
        for &d in designs {
            out.str(super::design_name(d));
        }
        out.seq_end();
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<Design>, Error> {
        match v {
            Value::Str(s) if s == "all" => Ok(Design::ALL.to_vec()),
            Value::Str(s) => Ok(vec![super::parse_design(s)?]),
            Value::Seq(_) => super::non_empty_list::<String>(v)?
                .iter()
                .map(|n| super::parse_design(n))
                .collect(),
            other => Err(Error::msg(format!(
                "expected a name or an array of names, found {}",
                other.kind()
            ))),
        }
    }
}

// ---- simulator ----

/// Chip-simulator options (mirrors [`elk_sim::SimOptions`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "sim", default, deny_unknown_fields)]
pub struct SimSpec {
    /// Relative magnitude of the deterministic timing noise.
    pub noise_sigma: f64,
    /// Timing-noise seed.
    pub noise_seed: u64,
    /// Bandwidth-trace samples (0 = no trace).
    pub trace_samples: usize,
}

impl Default for SimSpec {
    fn default() -> Self {
        let d = elk_sim::SimOptions::default();
        SimSpec {
            noise_sigma: d.noise_sigma,
            noise_seed: d.noise_seed,
            trace_samples: d.trace_samples,
        }
    }
}

// ---- serving ----

/// Request-level serving configuration for `elk serve`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "serving", default, deny_unknown_fields)]
pub struct ServingSpec {
    /// Synthetic trace recipe.
    pub trace: TraceSpec,
    /// Independent chip-group replicas (round-robin routing).
    pub replicas: usize,
    /// Concurrent requests per replica.
    pub max_batch: u64,
    /// Prompt-token budget per prefill step.
    pub max_prefill_tokens: u64,
    /// Sequence-length bucket ladder `[min, max]` for plan-cache keys.
    pub seq_buckets: SeqBucketsSpec,
    /// Round step batch sizes up to powers of two.
    pub bucket_batch: bool,
    /// Latency SLO scored by goodput.
    pub slo: SloSpec,
    /// Optional multi-tenant section: when present, the replay also
    /// runs through the tenancy engine with SLO classes and admission
    /// control.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenancySpec>,
    /// Worker threads for the serving pool (`0` = all cores).
    pub threads: usize,
}

impl Default for ServingSpec {
    /// A small smoke-sized serving setup: 16 requests, one replica,
    /// batch cap 32.
    fn default() -> Self {
        ServingSpec {
            trace: TraceSpec::default(),
            replicas: 1,
            max_batch: 32,
            max_prefill_tokens: 8192,
            seq_buckets: SeqBucketsSpec::default(),
            bucket_batch: true,
            slo: SloSpec::default(),
            tenants: None,
            threads: 1,
        }
    }
}

/// Synthetic request-trace recipe (lowers to [`elk_serve::TraceConfig`]).
///
/// `arrivals` takes `{"Poisson": {"rate_rps": 100.0}}` or
/// `{"Bursty": {...}}` (see [`ArrivalsSpec`]); the length fields take
/// the same forms as `workload.trace.generate`'s, e.g.
/// `{"Uniform": {"lo": 128, "hi": 512}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "trace", default, deny_unknown_fields)]
pub struct TraceSpec {
    /// RNG seed.
    pub seed: u64,
    /// Requests to generate.
    pub requests: usize,
    /// Arrival process, as written.
    pub arrivals: ArrivalsSpec,
    /// Prompt-length model.
    pub prompt_len: LengthModel,
    /// Output-length model.
    pub output_len: LengthModel,
}

/// `serving.trace.arrivals`, kept as written so canonical specs keep
/// their bytes; [`TraceSpec::to_config`] lowers it onto a [`RateShape`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename = "arrivals", deny_unknown_fields)]
pub enum ArrivalsSpec {
    /// Memoryless arrivals; lowers to [`RateShape::Constant`].
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_rps: f64,
    },
    /// On/off-modulated arrivals; lowers through [`RateShape::bursty`],
    /// which documents the fields.
    Bursty {
        /// Long-run mean arrival rate in requests per second.
        rate_rps: f64,
        /// Rate multiplier inside a burst.
        burst_factor: f64,
        /// Burst cycle length in seconds.
        period_s: f64,
        /// Fraction of each period spent bursting.
        duty: f64,
    },
}

impl Default for TraceSpec {
    /// 16 Poisson arrivals at 100 req/s with short prompts and outputs —
    /// sized so a scenario smoke run stays fast.
    fn default() -> Self {
        TraceSpec {
            seed: 0x5eed,
            requests: 16,
            arrivals: ArrivalsSpec::Poisson { rate_rps: 100.0 },
            prompt_len: LengthModel::Uniform { lo: 128, hi: 512 },
            output_len: LengthModel::Uniform { lo: 4, hi: 16 },
        }
    }
}

/// Sequence-length bucket ladder (mirrors [`elk_model::SeqBuckets`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename = "seq_buckets", default, deny_unknown_fields)]
pub struct SeqBucketsSpec {
    /// Smallest bucket (must be a power of two).
    pub min: u64,
    /// Largest bucket.
    pub max: u64,
}

impl Default for SeqBucketsSpec {
    fn default() -> Self {
        let d = elk_model::SeqBuckets::default();
        SeqBucketsSpec {
            min: d.min,
            max: d.max,
        }
    }
}

/// Latency SLO in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename = "slo", default, deny_unknown_fields)]
pub struct SloSpec {
    /// Time-to-first-token bound, ms.
    pub ttft_ms: f64,
    /// Mean time-per-output-token bound, ms.
    pub tpot_ms: f64,
}

impl Default for SloSpec {
    /// The serving layer's interactive-chat default: 2 s TTFT, 60 ms
    /// TPOT.
    fn default() -> Self {
        SloSpec {
            ttft_ms: 2000.0,
            tpot_ms: 60.0,
        }
    }
}

// ---- tenancy ----

/// One tenant SLO class (mirrors [`elk_serve::TenantClass`], with SLO
/// bounds in ms like the `slo` section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "tenants.classes", deny_unknown_fields)]
pub struct TenantClassSpec {
    /// Class name; tenant ids map onto it.
    pub name: String,
    /// Scheduling priority, `0` (highest) ..= `63`.
    #[serde(default)]
    pub priority: u64,
    /// Per-class latency SLO.
    #[serde(default)]
    pub slo: SloSpec,
    /// Token-bucket refill rate, requests/s; omit for unlimited.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub rate_rps: Option<f64>,
    /// Token-bucket capacity (burst allowance).
    #[serde(default = "TenantClassSpec::default_burst")]
    pub burst: u64,
    /// Model-zoo alias served for this class; omit for the scenario's
    /// base model. Layer count is inherited from the base model.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub model: Option<String>,
    /// Whether load shedding may reject or defer this class.
    #[serde(default)]
    pub sheddable: bool,
}

impl TenantClassSpec {
    /// One request of burst allowance.
    fn default_burst() -> u64 {
        1
    }
}

impl Default for TenantClassSpec {
    /// Highest priority, default SLO, unlimited and never shed.
    fn default() -> Self {
        TenantClassSpec {
            name: "default".into(),
            priority: 0,
            slo: SloSpec::default(),
            rate_rps: None,
            burst: Self::default_burst(),
            model: None,
            sheddable: false,
        }
    }
}

/// Multi-tenant serving configuration (mirrors
/// [`elk_serve::TenancyConfig`]).
///
/// The `map` object assigns tenant ids to class names
/// (`{"acme": "premium"}`); unmapped tenants fall back to
/// `default_class`, which itself defaults to the first class.
#[derive(Debug, Clone, PartialEq)]
pub struct TenancySpec {
    /// SLO classes, highest-priority first by convention.
    pub classes: Vec<TenantClassSpec>,
    /// Tenant id → class name assignments, in file order.
    pub map: Vec<(String, String)>,
    /// Class for tenants absent from `map`.
    pub default_class: String,
    /// Shed sheddable classes when the time-weighted mean pooled
    /// waiting depth crosses this; omit to never shed.
    pub shed_queue_depth: Option<f64>,
    /// What shedding does: `"reject"` or `"defer"`.
    pub shed_policy: String,
    /// One-shot re-admission delay for deferred requests, ms.
    pub defer_ms: f64,
}

impl Default for TenancySpec {
    /// A single default class: every tenant admitted, nothing shed —
    /// the config that reproduces the plain engines bit-for-bit.
    fn default() -> Self {
        TenancySpec {
            classes: vec![TenantClassSpec::default()],
            map: Vec::new(),
            default_class: "default".into(),
            shed_queue_depth: None,
            shed_policy: "reject".into(),
            defer_ms: 50.0,
        }
    }
}

impl Deserialize for TenancySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let d = TenancySpec::default();
        let mut r = MapReader::strict(
            "tenants",
            &[
                "classes",
                "map",
                "default_class",
                "shed_queue_depth",
                "shed_policy",
                "defer_ms",
            ],
            v,
        )?;
        let classes: Vec<TenantClassSpec> = r.opt("classes")?.unwrap_or(d.classes);
        let map = r
            .read("map", |m| {
                let mut pairs = Vec::new();
                for (tenant, class) in serde::expect_map(m, "tenants.map")? {
                    let class = String::from_value(class)
                        .map_err(|e| Error::msg(format!("{tenant}: {e}")))?;
                    pairs.push((tenant.clone(), class));
                }
                Ok(pairs)
            })?
            .unwrap_or_default();
        let default_class = match r.opt("default_class")? {
            Some(name) => name,
            None => classes.first().map_or(d.default_class, |c| c.name.clone()),
        };
        Ok(TenancySpec {
            classes,
            map,
            default_class,
            shed_queue_depth: r.opt("shed_queue_depth")?,
            shed_policy: r.opt("shed_policy")?.unwrap_or(d.shed_policy),
            defer_ms: r.opt("defer_ms")?.unwrap_or(d.defer_ms),
        })
    }
}

impl Serialize for TenancySpec {
    fn to_value(&self) -> Value {
        let mut m = vec![("classes".into(), self.classes.to_value())];
        if !self.map.is_empty() {
            m.push((
                "map".into(),
                Value::Map(
                    self.map
                        .iter()
                        .map(|(t, c)| (t.clone(), c.to_value()))
                        .collect(),
                ),
            ));
        }
        m.push(("default_class".into(), self.default_class.to_value()));
        if let Some(depth) = self.shed_queue_depth {
            m.push(("shed_queue_depth".into(), depth.to_value()));
        }
        m.push(("shed_policy".into(), self.shed_policy.to_value()));
        m.push(("defer_ms".into(), self.defer_ms.to_value()));
        Value::Map(m)
    }
}

// ---- observe ----

/// Deterministic observability knobs for `elk-obs` recording: whether
/// runs record at all, where the Chrome-trace timeline lands, and how
/// many per-request lanes are sampled. Recording is purely additive —
/// it never changes a report — and recorded streams are byte-identical
/// at any thread count. The `--timeline <path>` CLI flag overrides
/// `timeline` and implies `enable`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "observe", default, deny_unknown_fields)]
pub struct ObserveSpec {
    /// Record spans/counters/histograms during runs.
    pub enable: bool,
    /// Chrome-trace output path (relative to the working directory);
    /// omit to derive `<out>/<name>.timeline.json` when enabled.
    #[serde(
        skip_serializing_if = "Option::is_none",
        deserialize_with = "non_empty"
    )]
    pub timeline: Option<String>,
    /// Per-request lane sampling cap: the first `sample` requests of a
    /// trace get individual timeline lanes (metrics always cover all).
    pub sample: u64,
}

impl Default for ObserveSpec {
    /// Recording off; 64 request lanes when switched on.
    fn default() -> Self {
        ObserveSpec {
            enable: false,
            timeline: None,
            sample: 64,
        }
    }
}

// ---- cluster ----

/// A fixed `(tp, pp, dp)` parallelism assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename = "cluster.plan", deny_unknown_fields)]
pub struct PlanSpec {
    /// Tensor-parallel degree.
    pub tp: u64,
    /// Pipeline-parallel degree.
    pub pp: u64,
    /// Data-parallel degree (replica groups).
    pub dp: u64,
}

/// Multi-chip parallelism configuration for `elk cluster`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "cluster", default, deny_unknown_fields)]
pub struct ClusterSpec {
    /// Fixed `(tp, pp, dp)` assignment; omit for auto-parallelism
    /// search over the whole grid.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub plan: Option<PlanSpec>,
    /// Microbatches per pipeline round (default: the pipeline depth).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub microbatches: Option<u64>,
    /// Inter-chip link arrangement: `"ring"` or `"fully_connected"`.
    pub interconnect: String,
    /// Router policies for cluster serving, compared in order. The JSON
    /// accepts a single name, an array of names, or
    /// `{"power_of_two": {"seed": N}}` objects.
    #[serde(with = "router_list")]
    pub router: Vec<RouterPolicy>,
    /// Also replay the scenario's serving trace across the replica
    /// groups (`true` by default; estimate-only scenarios switch it
    /// off).
    pub serve: bool,
    /// Optional autoscaling controller: when present (and `serve` is
    /// on), the replay also runs with an elastic dp fleet between
    /// `min_groups` and `max_groups` of the plan's `(tp, pp)` groups.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub autoscale: Option<AutoscaleSpec>,
    /// Optional disaggregated prefill/decode pools: when present (and
    /// `serve` is on), the replay also runs with separate prefill and
    /// decode pools and KV-cache handoff priced on the interconnect.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub disaggregate: Option<DisaggSpec>,
    /// Optional multi-tenant section: when present (and `serve` is
    /// on), the replay also runs through the tenancy engine with SLO
    /// classes, admission control, and multi-model pods.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub tenants: Option<TenancySpec>,
    /// Worker threads for the plan search and compile fan-out (`0` =
    /// all cores). Reports are byte-identical at any setting.
    pub threads: usize,
}

impl Default for ClusterSpec {
    /// Auto-search on ring links, round-robin serving, one thread.
    fn default() -> Self {
        ClusterSpec {
            plan: None,
            microbatches: None,
            interconnect: "ring".into(),
            router: vec![RouterPolicy::RoundRobin],
            serve: true,
            autoscale: None,
            disaggregate: None,
            tenants: None,
            threads: 1,
        }
    }
}

/// Disaggregated prefill/decode pool configuration (mirrors
/// [`elk_cluster::DisaggConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename = "cluster.disaggregate", deny_unknown_fields)]
pub struct DisaggSpec {
    /// The prefill pool's `(tp, pp, dp)` layout.
    pub prefill: PlanSpec,
    /// The decode pool's `(tp, pp, dp)` layout.
    pub decode: PlanSpec,
    /// Prompt-token cap per prefill step (`0` disables chunking).
    #[serde(default)]
    pub chunk_tokens: u64,
    /// Map both pools onto the same groups of one pod (the degenerate
    /// config that equals colocated serving).
    #[serde(default)]
    pub shared_chips: bool,
}

/// Autoscaling controller knobs (mirrors
/// [`elk_cluster::AutoscaleConfig`], with the interval in ms like the
/// SLO section).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(rename = "cluster.autoscale", default, deny_unknown_fields)]
pub struct AutoscaleSpec {
    /// Fleet floor (always-on groups).
    pub min_groups: u64,
    /// Fleet ceiling.
    pub max_groups: u64,
    /// Controller decision cadence, ms.
    pub interval_ms: f64,
    /// Scale up above this time-weighted waiting depth per ready group.
    pub up_queue_depth: f64,
    /// Scale down below this depth (when the SLO target holds).
    pub down_queue_depth: f64,
    /// Windowed SLO-attainment floor.
    pub slo_target: f64,
    /// Cold-start size in warm-up step latencies.
    pub cold_start_steps: f64,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        let d = elk_cluster::AutoscaleConfig::default();
        AutoscaleSpec {
            min_groups: d.min_groups,
            max_groups: d.max_groups,
            interval_ms: d.interval.as_secs() * 1e3,
            up_queue_depth: d.up_queue_depth,
            down_queue_depth: d.down_queue_depth,
            slo_target: d.slo_target,
            cold_start_steps: d.cold_start_steps,
        }
    }
}

/// Strict reader for one router policy: a lowercase name or a
/// `{"power_of_two": {"seed": N}}` object.
fn parse_router(v: &Value) -> Result<RouterPolicy, Error> {
    if let Value::Str(s) = v {
        return match s.as_str() {
            "round_robin" => Ok(RouterPolicy::RoundRobin),
            "least_outstanding" => Ok(RouterPolicy::LeastOutstanding),
            "power_of_two" => Ok(RouterPolicy::PowerOfTwoChoices { seed: 2 }),
            other => Err(Error::msg(format!(
                "unknown router policy '{other}': expected round_robin, \
                 least_outstanding, power_of_two"
            ))),
        };
    }
    let body = MapReader::strict("router", &["power_of_two"], v)?
        .raw("power_of_two")
        .ok_or_else(|| Error::msg("router: expected a policy name or a `power_of_two` object"))?;
    let seed = MapReader::strict("router.power_of_two", &["seed"], body)?.opt("seed")?;
    Ok(RouterPolicy::PowerOfTwoChoices {
        seed: seed.unwrap_or(2),
    })
}

/// `with` module for the `router` key: one policy or a non-empty array
/// of policies; written back as an array.
mod router_list {
    use super::{Error, RouterPolicy, Serialize, Serializer, Value};

    pub(super) fn serialize<S: Serializer + ?Sized>(policies: &[RouterPolicy], out: &mut S) {
        out.seq_begin(policies.len());
        for &policy in policies {
            match policy {
                RouterPolicy::PowerOfTwoChoices { seed } => {
                    out.map_begin(1);
                    out.key("power_of_two");
                    out.map_begin(1);
                    out.key("seed");
                    seed.serialize(out);
                    out.map_end();
                    out.map_end();
                }
                other => out.str(other.name()),
            }
        }
        out.seq_end();
    }

    pub(super) fn deserialize(v: &Value) -> Result<Vec<RouterPolicy>, Error> {
        match v {
            Value::Seq(items) if items.is_empty() => Err(Error::msg("the list must not be empty")),
            Value::Seq(items) => items.iter().map(super::parse_router).collect(),
            single => Ok(vec![super::parse_router(single)?]),
        }
    }
}

// ---- sweep ----

/// A grid sweep over arbitrary spec fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "sweep", deny_unknown_fields)]
pub struct SweepSpec {
    /// Which runner each grid point goes through.
    #[serde(default)]
    pub command: SweepCommand,
    /// Sweep axes; the grid is their cartesian product in file order
    /// (last axis fastest).
    #[serde(deserialize_with = "SweepSpec::unshadowed_axes")]
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// `deserialize_with` for `axes`: non-empty, and no axis sets an
    /// earlier axis's path or an ancestor of it, which would overwrite
    /// that axis at every point (a later descendant stays legal).
    fn unshadowed_axes(v: &Value) -> Result<Vec<SweepAxis>, Error> {
        let axes: Vec<SweepAxis> = non_empty_list(v)?;
        for (i, later) in axes.iter().enumerate() {
            let shadows = |e: &&SweepAxis| {
                e.path
                    .strip_prefix(later.path.as_str())
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            };
            if let Some(earlier) = axes[..i].iter().find(shadows) {
                return Err(Error::msg(format!(
                    "axis `{}` overwrites the earlier axis `{}` at every point",
                    later.path, earlier.path
                )));
            }
        }
        Ok(axes)
    }
}

/// The runner a sweep fans its grid points through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename = "sweep.command", rename_all = "lowercase")]
pub enum SweepCommand {
    /// `elk compile` per point.
    #[default]
    Compile,
    /// `elk simulate` per point.
    Simulate,
    /// `elk serve` per point.
    Serve,
}

impl SweepCommand {
    /// Canonical lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SweepCommand::Compile => "compile",
            SweepCommand::Simulate => "simulate",
            SweepCommand::Serve => "serve",
        }
    }
}

/// One sweep axis: a dotted path into the scenario document and the
/// values it takes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename = "sweep axis", deny_unknown_fields)]
pub struct SweepAxis {
    /// Dotted path, e.g. `"workload.batch"` or `"system.chip.cores"`.
    #[serde(deserialize_with = "SweepAxis::dotted_path")]
    pub path: String,
    /// Values substituted at `path`, one grid column per value.
    #[serde(deserialize_with = "non_empty_list")]
    pub values: Vec<Value>,
}

impl SweepAxis {
    /// `deserialize_with` for `path`: non-empty dot-separated segments.
    fn dotted_path(v: &Value) -> Result<String, Error> {
        let path = String::from_value(v)?;
        if path.split('.').any(str::is_empty) {
            return Err(Error::msg(format!("malformed path {path:?}")));
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_scenario_parses_with_defaults() {
        let s = ScenarioSpec::from_json(r#"{"name": "t", "model": {"zoo": "llama13"}}"#).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.system, SystemSpec::Preset("ipu_pod4".into()));
        assert_eq!(s.workload.batch, 32);
        assert_eq!(s.compiler.design, vec![Design::ElkFull]);
        assert!(s.sweep.is_none());
    }

    #[test]
    fn empty_name_is_rejected() {
        for name in ["", "  "] {
            let e = ScenarioSpec::from_json(&format!(
                r#"{{"name": "{name}", "model": {{"zoo": "llama13"}}}}"#
            ))
            .unwrap_err();
            assert!(e.to_string().contains("non-empty"), "{e}");
        }
    }

    #[test]
    fn unknown_top_level_key_is_an_error() {
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"}, "wrokload": {}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("wrokload"), "{e}");
    }

    #[test]
    fn design_accepts_string_all_and_array() {
        let one: CompilerSpec = serde_json::from_str(r#"{"design": "basic"}"#).unwrap();
        assert_eq!(one.design, vec![Design::Basic]);
        let all: CompilerSpec = serde_json::from_str(r#"{"design": "all"}"#).unwrap();
        assert_eq!(all.design, Design::ALL.to_vec());
        let arr: CompilerSpec =
            serde_json::from_str(r#"{"design": ["ideal", "elk_dyn"]}"#).unwrap();
        assert_eq!(arr.design, vec![Design::Ideal, Design::ElkDyn]);
        let err: Result<CompilerSpec, _> = serde_json::from_str(r#"{"design": "elkful"}"#);
        assert!(err.unwrap_err().to_string().contains("elkful"));
    }

    #[test]
    fn canonical_serialization_round_trips() {
        let s = ScenarioSpec::from_json(
            r#"{
              "name": "rt",
              "model": {"zoo": "gemma27", "layers": 3},
              "system": {"chip": {"cores": 64, "matmul_tflops": 10.0, "vector_tflops": 1.0,
                                  "topology": {"mesh": {"total_gib_s": 512.0}}},
                         "chips": 2},
              "workload": {"phase": "prefill", "batch": 4, "seq_len": 256, "shards": 2},
              "compiler": {"design": "all", "threads": 2},
              "serving": {"trace": {"requests": 5, "output_len": {"Fixed": 8}}},
              "sweep": {"command": "simulate",
                        "axes": [{"path": "workload.batch", "values": [4, 8]}]}
            }"#,
        )
        .unwrap();
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn sweep_axes_may_not_shadow_an_earlier_axis() {
        let sweep = |axes: &str| {
            ScenarioSpec::from_json(&format!(
                r#"{{"name": "t", "model": {{"zoo": "llama13"}}, "sweep": {{"axes": {axes}}}}}"#
            ))
        };
        // A repeated path, or a later ancestor of an earlier path, would
        // overwrite the earlier axis at every point.
        for (axes, shadowed) in [
            (
                r#"[{"path": "workload.batch", "values": [8, 64]},
                    {"path": "workload.batch", "values": [16]}]"#,
                "`workload.batch` overwrites the earlier axis `workload.batch`",
            ),
            (
                r#"[{"path": "system.chip.cores", "values": [64]},
                    {"path": "workload.seq_len", "values": [512]},
                    {"path": "system.chip", "values": [{"cores": 32}]}]"#,
                "`system.chip` overwrites the earlier axis `system.chip.cores`",
            ),
        ] {
            let e = sweep(axes).unwrap_err().to_string();
            assert!(e.contains(shadowed), "{e}");
            assert!(matches!(sweep(axes), Err(SpecError::Parse(_))));
        }
        // A later descendant edits inside the earlier value, and a
        // shared string prefix is not a shared segment.
        for axes in [
            r#"[{"path": "system.chip", "values": [{"cores": 32}]},
                {"path": "system.chip.cores", "values": [64]}]"#,
            r#"[{"path": "serving.trace.requests", "values": [4]},
                {"path": "serving.tr", "values": [1]}]"#,
        ] {
            sweep(axes).unwrap_or_else(|e| panic!("{axes}: {e}"));
        }
    }

    #[test]
    fn nested_engine_sections_reject_unknown_keys() {
        // Typo inside an explicit transformer body.
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"transformer": {
                "name": "x", "layers": 2, "hidden": 1024, "heads": 8, "kv_heads": 8,
                "head_dim": 128, "intermediate": 3072, "vocab": 32000, "glu": true,
                "norm": "Rms", "rope": true, "post_norms": false, "tpyo_knob": 99}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("tpyo_knob"), "{e}");

        // A Bursty-only knob smuggled into a Poisson arrivals body.
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "serving": {"trace": {"arrivals":
                  {"Poisson": {"rate_rps": 10.0, "burst_factor": 3.0}}}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("burst_factor"), "{e}");

        // Stray field in a length distribution.
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "serving": {"trace": {"prompt_len":
                  {"Uniform": {"lo": 1, "hi": 2, "mean": 3}}}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("mean"), "{e}");
    }

    #[test]
    fn duplicate_keys_anywhere_are_parse_errors() {
        let e = ScenarioSpec::from_json(
            r#"{"name": "t", "model": {"zoo": "llama13"},
                "workload": {"batch": 16, "batch": 32}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("duplicate key `batch`"), "{e}");
    }

    #[test]
    fn cluster_section_parses_with_defaults_and_strictness() {
        let s = ScenarioSpec::from_json(
            r#"{"name": "c", "model": {"zoo": "llama13"},
                "cluster": {}}"#,
        )
        .unwrap();
        let c = s.cluster.expect("cluster section present");
        assert_eq!(c, ClusterSpec::default());

        let s = ScenarioSpec::from_json(
            r#"{"name": "c", "model": {"zoo": "llama13"},
                "cluster": {"plan": {"tp": 2, "pp": 2, "dp": 1},
                            "microbatches": 4,
                            "interconnect": "fully_connected",
                            "router": ["round_robin", {"power_of_two": {"seed": 7}}],
                            "serve": false}}"#,
        )
        .unwrap();
        let c = s.cluster.unwrap();
        assert_eq!(
            c.plan,
            Some(PlanSpec {
                tp: 2,
                pp: 2,
                dp: 1
            })
        );
        assert_eq!(c.microbatches, Some(4));
        assert_eq!(c.interconnect, "fully_connected");
        assert_eq!(
            c.router,
            vec![
                RouterPolicy::RoundRobin,
                RouterPolicy::PowerOfTwoChoices { seed: 7 }
            ]
        );
        assert!(!c.serve);

        // Typos anywhere in the section are errors.
        for bad in [
            r#"{"plan": {"tp": 2, "pp": 1, "dp": 1, "ep": 1}}"#,
            r#"{"router": "fastest"}"#,
            r#"{"mircobatches": 2}"#,
        ] {
            let e = ScenarioSpec::from_json(&format!(
                r#"{{"name": "c", "model": {{"zoo": "llama13"}}, "cluster": {bad}}}"#
            ))
            .unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("ep") || msg.contains("fastest") || msg.contains("mircobatches"),
                "{msg}"
            );
        }
    }

    #[test]
    fn cluster_section_round_trips() {
        let s = ScenarioSpec::from_json(
            r#"{"name": "c", "model": {"zoo": "llama13"},
                "cluster": {"plan": {"tp": 4, "pp": 1, "dp": 1},
                            "router": ["least_outstanding", "power_of_two"]}}"#,
        )
        .unwrap();
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn workload_trace_and_autoscale_sections_round_trip() {
        let s = ScenarioSpec::from_json(
            r#"{"name": "tr", "model": {"zoo": "llama13"},
                "workload": {"trace": {"generate": {
                    "seed": 7, "requests": 32,
                    "rate": {"Diurnal": {"mean_rps": 80.0, "amplitude": 0.6,
                                         "period_s": 4.0}},
                    "prompt_len": {"HeavyTail": {"lo": 64, "alpha": 1.2, "cap": 2048}},
                    "output_len": {"Fixed": 8},
                    "tenants": 3}}},
                "cluster": {"autoscale": {"max_groups": 3, "interval_ms": 125.0}}}"#,
        )
        .unwrap();
        let trace = s.workload.trace.clone().expect("trace parsed");
        let TraceSourceSpec::Generate(g) = &trace else {
            panic!("generator source");
        };
        assert_eq!(g.seed, 7);
        assert!(matches!(g.rate, RateShape::Diurnal { amplitude, .. } if amplitude == 0.6));
        assert_eq!(g.tenants, 3);
        let auto = s.cluster.as_ref().unwrap().autoscale.expect("autoscale");
        assert_eq!(auto.max_groups, 3);
        assert_eq!(auto.min_groups, 1, "unset knobs default");
        let back = ScenarioSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);

        // File sources round-trip too, and empty paths are rejected.
        let s = ScenarioSpec::from_json(
            r#"{"name": "tr", "model": {"zoo": "llama13"},
                "workload": {"trace": {"file": "traces/golden_small.jsonl"}}}"#,
        )
        .unwrap();
        assert_eq!(
            s.workload.trace,
            Some(TraceSourceSpec::File("traces/golden_small.jsonl".into()))
        );
        assert_eq!(ScenarioSpec::from_json(&s.to_json()).unwrap(), s);
        let e = ScenarioSpec::from_json(
            r#"{"name": "tr", "model": {"zoo": "llama13"},
                "workload": {"trace": {"file": " "}}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("non-empty"), "{e}");

        // Typos inside the new sections are errors.
        for bad in [
            r#""workload": {"trace": {"generate": {"rtae": {}}}}"#,
            r#""workload": {"trace": {"generate": {"rate": {"Constant": {"rps": 1.0}}}}}"#,
            r#""cluster": {"autoscale": {"max_gruops": 2}}"#,
        ] {
            let e = ScenarioSpec::from_json(&format!(
                r#"{{"name": "tr", "model": {{"zoo": "llama13"}}, {bad}}}"#
            ))
            .unwrap_err();
            let msg = e.to_string();
            assert!(
                msg.contains("rtae") || msg.contains("rps") || msg.contains("max_gruops"),
                "{msg}"
            );
        }
    }

    #[test]
    fn phase_names_round_trip() {
        for phase in [Phase::Decode, Phase::Prefill, Phase::TrainingForward] {
            assert_eq!(parse_phase(phase_name(phase)).unwrap(), phase);
        }
        assert!(parse_phase("Decode").is_err(), "names are lowercase");
    }

    #[test]
    fn design_names_round_trip() {
        for design in Design::ALL {
            assert_eq!(parse_design(design_name(design)).unwrap(), design);
        }
    }
}
