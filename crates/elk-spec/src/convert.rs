//! Conversions from spec types into the engine's configuration types.
//!
//! This module converts units (ms to seconds, TFLOP/s to per-core
//! FLOP/s, KiB and GiB to bytes) and resolves names (presets, zoo
//! aliases, policies). The invariants on the converted values live on
//! their owning types — [`TraceConfig::validate`],
//! [`BatchConfig::validate`], [`TransformerConfig::check_workload`],
//! [`elk_serve::TenancyConfig::validate`], the fallible unit
//! constructors and so on — and are checked there once. Here their
//! messages only gain the dotted scenario path, so a bad scenario
//! becomes a [`SpecError::Invalid`] instead of a panic deep inside the
//! engine. The few rules no engine type states (positive chip rates,
//! non-zero chip and pod sizes) are checked here.

use elk_cluster::{ClusterOptions, ParallelismPlan};
use elk_hw::{
    presets, ChipConfig, HbmConfig, InterChipTopology, SramContention, SystemConfig, Topology,
};
use elk_model::{ModelGraph, SeqBuckets, TransformerConfig, Workload};
use elk_serve::{
    check_positive, check_span, BatchConfig, RateShape, ServeConfig, SloConfig, TraceConfig,
};
use elk_sim::SimOptions;
use elk_units::{ByteRate, Bytes, FlopRate, Seconds};

use elk_trace::TraceGenConfig;

use crate::spec::{
    ArrivalsSpec, AutoscaleSpec, ChipSpec, ClusterSpec, DisaggSpec, HbmSpec, ModelSpec,
    ScenarioSpec, ServingSpec, SimSpec, SystemSpec, TenancySpec, TopologySpec, TraceGenSpec,
    TraceSpec, WorkloadSpec,
};
use crate::SpecError;

fn invalid(msg: impl Into<String>) -> SpecError {
    SpecError::Invalid(msg.into())
}

/// Prefixes an owning type's message with the scenario path it came
/// from. `path` carries its separator: `"serving."` before a message
/// that starts with the owner's field name, `"tenants: "` before any
/// other.
fn at(path: &str) -> impl FnOnce(String) -> SpecError + '_ {
    move |msg| invalid(format!("{path}{msg}"))
}

/// [`check_positive`] on a field as the scenario wrote it.
fn positive(path: &str, x: f64) -> Result<f64, SpecError> {
    check_positive(path, x).map_err(invalid)?;
    Ok(x)
}

/// A positive bandwidth field in GiB/s, as a [`ByteRate`].
fn gib_per_sec(path: &str, gib: f64) -> Result<ByteRate, SpecError> {
    ByteRate::try_gib_per_sec(positive(path, gib)?).map_err(at_field(path, gib, "GiB/s"))
}

/// A byte-count field in `unit`, converted by `checked`.
fn bytes(
    path: &str,
    n: u64,
    unit: &str,
    checked: fn(u64) -> Option<Bytes>,
) -> Result<Bytes, SpecError> {
    checked(n).ok_or_else(|| invalid(format!("{path}: {n} {unit} overflows a 64-bit byte count")))
}

/// A millisecond field as [`Seconds`].
fn millis(path: &str, ms: f64) -> Result<Seconds, SpecError> {
    Seconds::try_new(ms / 1e3).map_err(at_field(path, ms, "ms"))
}

/// Prefixes a unit type's message with the field and its value as the
/// scenario wrote it.
fn at_field<'a>(path: &'a str, x: f64, unit: &'a str) -> impl FnOnce(String) -> SpecError + 'a {
    move |msg| invalid(format!("{path} ({x:?} {unit}): {msg}"))
}

/// A preset alias paired with its constructor (mirrors
/// [`elk_model::zoo::LlmAlias`]).
pub type SystemPreset = (&'static str, fn() -> SystemConfig);

/// The system presets a scenario can name, with their constructors.
pub const SYSTEM_PRESETS: [SystemPreset; 3] = [
    ("ipu_pod4", presets::ipu_pod4),
    ("ipu_pod4_mesh", presets::ipu_pod4_mesh),
    ("single_chip", presets::single_chip),
];

impl SystemSpec {
    /// Builds the [`SystemConfig`] this spec describes.
    ///
    /// Preset scenarios resolve to the exact hardcoded preset, so
    /// results are byte-identical to the non-spec code path.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for an unknown preset name or an
    /// ill-formed custom description.
    pub fn to_system(&self) -> Result<SystemConfig, SpecError> {
        match self {
            SystemSpec::Preset(name) => SYSTEM_PRESETS
                .iter()
                .find(|(alias, _)| alias == name)
                .map(|(_, build)| build())
                .ok_or_else(|| {
                    let valid: Vec<&str> = SYSTEM_PRESETS.iter().map(|(a, _)| *a).collect();
                    invalid(format!(
                        "unknown system preset '{name}': expected one of {}",
                        valid.join(", ")
                    ))
                }),
            SystemSpec::Custom {
                chip,
                chips,
                hbm,
                inter_chip_bw_gib_s,
            } => {
                if *chips == 0 {
                    return Err(invalid("system.chips must be > 0"));
                }
                Ok(SystemConfig {
                    chip: chip.to_chip()?,
                    hbm: hbm.to_hbm()?,
                    chips: *chips,
                    inter_chip_bw: gib_per_sec("system.inter_chip_bw_gib_s", *inter_chip_bw_gib_s)?,
                    inter_chip_topology: elk_hw::InterChipTopology::Ring,
                })
            }
        }
    }
}

impl ChipSpec {
    /// Builds the [`ChipConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for zero cores, non-positive
    /// rates, a size or rate that overflows its unit, or an unknown
    /// contention mode.
    pub fn to_chip(&self) -> Result<ChipConfig, SpecError> {
        if self.cores == 0 {
            return Err(invalid("chip.cores must be > 0"));
        }
        if self.sram_per_core_kib == 0 {
            return Err(invalid("chip.sram_per_core_kib must be > 0"));
        }
        if self.io_buffer_per_core_kib >= self.sram_per_core_kib {
            return Err(invalid(format!(
                "chip.io_buffer_per_core_kib ({}) must be smaller than sram_per_core_kib ({})",
                self.io_buffer_per_core_kib, self.sram_per_core_kib
            )));
        }
        let sram_contention = match self.sram_contention.as_str() {
            "blocking" => SramContention::Blocking,
            "concurrent" => SramContention::Concurrent,
            other => {
                return Err(invalid(format!(
                    "chip.sram_contention '{other}': expected blocking or concurrent"
                )))
            }
        };
        let cores = self.cores;
        let per_core = |path: &str, tflops: f64| {
            FlopRate::try_new(positive(path, tflops)? * 1e12 / cores as f64)
                .map_err(at_field(path, tflops, "TFLOP/s"))
        };
        let kib = |path, n| bytes(path, n, "KiB", Bytes::checked_kib);
        Ok(ChipConfig {
            name: self.name.clone(),
            cores,
            sram_per_core: kib("chip.sram_per_core_kib", self.sram_per_core_kib)?,
            io_buffer_per_core: kib("chip.io_buffer_per_core_kib", self.io_buffer_per_core_kib)?,
            matmul_rate_per_core: per_core("chip.matmul_tflops", self.matmul_tflops)?,
            vector_rate_per_core: per_core("chip.vector_tflops", self.vector_tflops)?,
            sram_bw_per_core: ByteRate::try_new(
                positive("chip.sram_bw_gb_s", self.sram_bw_gb_s)? * 1e9,
            )
            .map_err(at_field("chip.sram_bw_gb_s", self.sram_bw_gb_s, "GB/s"))?,
            sram_contention,
            topology: self.topology.to_topology(cores)?,
        })
    }
}

impl TopologySpec {
    /// Builds the [`Topology`] this spec describes for a `cores`-core
    /// chip.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for non-positive or overflowing
    /// bandwidths.
    pub fn to_topology(&self, cores: u64) -> Result<Topology, SpecError> {
        match self {
            TopologySpec::AllToAll { core_link_gib_s } => Ok(Topology::AllToAll {
                core_link: gib_per_sec("topology.all_to_all.core_link_gib_s", *core_link_gib_s)?,
            }),
            TopologySpec::Mesh { total_gib_s } => Ok(Topology::mesh_with_total(
                gib_per_sec("topology.mesh.total_gib_s", *total_gib_s)?,
                cores,
            )),
        }
    }
}

impl HbmSpec {
    /// Builds the [`HbmConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for zero channels or capacity, or a
    /// non-positive or overflowing bandwidth or capacity.
    pub fn to_hbm(&self) -> Result<HbmConfig, SpecError> {
        let channel_bw = gib_per_sec("hbm.channel_bw_gib_s", self.channel_bw_gib_s)?;
        let hbm = HbmConfig::try_new(self.channels, channel_bw).map_err(at("hbm."))?;
        if self.capacity_gib == 0 {
            return Err(invalid("hbm.capacity_gib must be > 0"));
        }
        let capacity = bytes(
            "hbm.capacity_gib",
            self.capacity_gib,
            "GiB",
            Bytes::checked_gib,
        )?;
        Ok(hbm.with_capacity(capacity))
    }
}

/// A resolved model: zoo lookups done and layer overrides applied.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedModel {
    /// Dense transformer.
    Llm(elk_model::TransformerConfig),
    /// Mixture of experts.
    Moe(elk_model::moe::MoeConfig),
    /// Diffusion transformer.
    Dit(elk_model::dit::DitConfig),
}

impl ResolvedModel {
    /// Model name for reports.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            ResolvedModel::Llm(cfg) => &cfg.name,
            ResolvedModel::Moe(cfg) => &cfg.name,
            ResolvedModel::Dit(cfg) => &cfg.name,
        }
    }

    /// The model config's `check_workload`: `shards` splits the model
    /// evenly, and every per-shard element and byte count of `workload`'s
    /// graph fits in a `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`], under `workload.`, where the
    /// check fails.
    pub fn check_workload(&self, workload: Workload, shards: u64) -> Result<(), SpecError> {
        match self {
            ResolvedModel::Llm(cfg) => cfg.check_workload(workload, shards),
            ResolvedModel::Moe(cfg) => cfg.check_workload(workload, shards),
            ResolvedModel::Dit(cfg) => cfg.check_workload(workload, shards),
        }
        .map_err(at("workload."))
    }

    /// Builds the operator graph for one `workload` step on `shards`
    /// tensor-parallel shards.
    #[must_use]
    pub fn build(&self, workload: Workload, shards: u64) -> ModelGraph {
        match self {
            ResolvedModel::Llm(cfg) => cfg.build(workload, shards),
            ResolvedModel::Moe(cfg) => cfg.build(workload, shards),
            ResolvedModel::Dit(cfg) => cfg.build(workload, shards),
        }
    }
}

impl ResolvedModel {
    /// The deepest model a scenario may describe: `2¹²` layers, 51× the
    /// deepest zoo model (Llama-2-70B, 80). A run's graph, catalog and
    /// chip simulation grow with depth, in time faster than linearly. On
    /// a 2-core x86 container, `elk simulate` of Llama-2-13B decode (b32,
    /// s2048) takes 0.3 s and 59 MiB peak at 2¹² layers, 2.0 s and
    /// 228 MiB at 2¹⁴, and 24 s and 909 MiB at 2¹⁶, and `elk serve` of
    /// the same scenario 0.5 s at 2¹² and 4.2 s at 2¹⁴; Mixtral and
    /// DiT-XL stay within 0.4 s and 110 MiB at 2¹². At 2³¹ a run grows
    /// until the OS kills it.
    pub const MAX_LAYERS: u32 = 1 << 12;

    /// Rejects a zero dimension (which the graph builders would turn
    /// into a failed plan search or a silently wrong report), a stack
    /// deeper than [`MAX_LAYERS`](Self::MAX_LAYERS), and a MoE routing
    /// more experts per token than it has.
    fn check_dims(&self) -> Result<(), SpecError> {
        let (kind, dims): (&str, Vec<(&str, u64)>) = match self {
            ResolvedModel::Llm(c) => (
                "transformer",
                vec![
                    ("layers", c.layers.into()),
                    ("hidden", c.hidden),
                    ("heads", c.heads),
                    ("kv_heads", c.kv_heads),
                    ("head_dim", c.head_dim),
                    ("intermediate", c.intermediate),
                    ("vocab", c.vocab),
                ],
            ),
            ResolvedModel::Moe(c) => (
                "moe",
                vec![
                    ("layers", c.layers.into()),
                    ("hidden", c.hidden),
                    ("heads", c.heads),
                    ("kv_heads", c.kv_heads),
                    ("head_dim", c.head_dim),
                    ("expert_intermediate", c.expert_intermediate),
                    ("experts", c.experts),
                    ("experts_per_token", c.experts_per_token),
                    ("vocab", c.vocab),
                ],
            ),
            ResolvedModel::Dit(c) => (
                "dit",
                vec![
                    ("layers", c.layers.into()),
                    ("hidden", c.hidden),
                    ("heads", c.heads),
                    ("head_dim", c.head_dim),
                    ("mlp_ratio", c.mlp_ratio),
                    ("tokens", c.tokens),
                ],
            ),
        };
        if let Some((name, _)) = dims.iter().find(|&&(_, v)| v == 0) {
            return Err(invalid(format!("model.{kind}.{name} must be > 0")));
        }
        let layers = match self {
            ResolvedModel::Llm(c) => c.layers,
            ResolvedModel::Moe(c) => c.layers,
            ResolvedModel::Dit(c) => c.layers,
        };
        if layers > Self::MAX_LAYERS {
            return Err(invalid(format!(
                "model.{kind}.layers ({layers}) must be at most {}",
                Self::MAX_LAYERS
            )));
        }
        match self {
            ResolvedModel::Moe(c) if c.experts_per_token > c.experts => Err(invalid(format!(
                "model.moe.experts_per_token ({}) must not exceed experts ({})",
                c.experts_per_token, c.experts
            ))),
            _ => Ok(()),
        }
    }
}

impl ModelSpec {
    /// Resolves zoo names and applies the optional layer override.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for an unknown zoo alias, a layer
    /// count of zero or above [`ResolvedModel::MAX_LAYERS`], a zero
    /// dimension in an explicit config, or a MoE with
    /// `experts_per_token > experts`.
    pub fn resolve(&self) -> Result<ResolvedModel, SpecError> {
        let model = match self {
            ModelSpec::Zoo { zoo, layers } => {
                let mut model = match zoo.as_str() {
                    "mixtral" => ResolvedModel::Moe(elk_model::zoo::mixtral_8x7b()),
                    "dit" => ResolvedModel::Dit(elk_model::zoo::dit_xl()),
                    name => ResolvedModel::Llm(
                        elk_model::zoo::by_name(name)
                            .map_err(|e| invalid(format!("{e}, mixtral, dit")))?,
                    ),
                };
                if let Some(layers) = *layers {
                    if !(1..=ResolvedModel::MAX_LAYERS).contains(&layers) {
                        return Err(invalid(format!(
                            "model.layers override ({layers}) must be in 1..={}",
                            ResolvedModel::MAX_LAYERS
                        )));
                    }
                    match &mut model {
                        ResolvedModel::Llm(cfg) => cfg.layers = layers,
                        ResolvedModel::Moe(cfg) => cfg.layers = layers,
                        ResolvedModel::Dit(cfg) => cfg.layers = layers,
                    }
                }
                model
            }
            ModelSpec::Transformer(cfg) => ResolvedModel::Llm(cfg.clone()),
            ModelSpec::Moe(cfg) => ResolvedModel::Moe(cfg.clone()),
            ModelSpec::Dit(cfg) => ResolvedModel::Dit(cfg.clone()),
        };
        model.check_dims()?;
        Ok(model)
    }

    /// The dense-transformer config, if this model is servable by
    /// `elk serve` (the serving engine batches dense transformers only).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for MoE and DiT models.
    pub fn as_transformer(&self) -> Result<TransformerConfig, SpecError> {
        match self.resolve()? {
            ResolvedModel::Llm(cfg) => Ok(cfg),
            other => Err(invalid(format!(
                "serving requires a dense transformer model, got {}",
                other.name()
            ))),
        }
    }
}

impl WorkloadSpec {
    /// Builds the [`Workload`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for zero batch or sequence length.
    pub fn to_workload(&self) -> Result<Workload, SpecError> {
        let workload = Workload {
            batch: self.batch,
            seq_len: self.seq_len,
            phase: self.phase,
        };
        workload.validate().map_err(at("workload."))?;
        Ok(workload)
    }

    /// The tensor-parallel shard count, defaulting to the system's chip
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for a zero shard override.
    pub fn shards_for(&self, system: &SystemConfig) -> Result<u64, SpecError> {
        let shards = self.shards.unwrap_or(system.chips);
        elk_model::check_split(shards, &[]).map_err(at("workload."))?;
        Ok(shards)
    }

    /// [`shards_for`](Self::shards_for), checked against `model`:
    /// tensor parallelism splits the attention heads and the FFN width
    /// evenly across shards, so the shard count must divide both, and the
    /// workload's per-shard sizes must fit in 64 bits.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for a zero shard count, one that
    /// does not divide the model's heads or FFN width, an invalid
    /// workload, or one whose per-shard element or byte counts overflow.
    pub fn shards_for_model(
        &self,
        system: &SystemConfig,
        model: &ResolvedModel,
    ) -> Result<u64, SpecError> {
        let shards = self.shards_for(system)?;
        model.check_workload(self.to_workload()?, shards)?;
        Ok(shards)
    }
}

impl SimSpec {
    /// Builds the [`SimOptions`] this spec describes. The Ideal design
    /// adds its dedicated-interconnect assumption itself (see
    /// [`elk_baselines::DesignRunner::run`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] where [`SimOptions::validate`]
    /// fails.
    pub fn to_options(&self) -> Result<SimOptions, SpecError> {
        let options = SimOptions {
            noise_sigma: self.noise_sigma,
            noise_seed: self.noise_seed,
            dedicated_interconnects: false,
            trace_samples: self.trace_samples,
        };
        options.validate().map_err(at("sim."))?;
        Ok(options)
    }
}

impl ArrivalsSpec {
    /// Lowers the process onto the generator's rate shape: `Poisson` to
    /// `Constant`, `Bursty` through [`RateShape::bursty`]. Errors name
    /// the field as written, `rate_rps` (both means) for [`check_span`].
    fn to_rate(self, requests: usize) -> Result<RateShape, String> {
        let (rate_rps, rate) = match self {
            ArrivalsSpec::Poisson { rate_rps } => {
                check_positive("rate_rps", rate_rps)?;
                (rate_rps, RateShape::Constant { rate_rps })
            }
            ArrivalsSpec::Bursty {
                rate_rps,
                burst_factor,
                period_s,
                duty,
            } => (
                rate_rps,
                RateShape::bursty(rate_rps, burst_factor, period_s, duty)?,
            ),
        };
        check_span("rate_rps", rate_rps, requests)?;
        Ok(rate)
    }
}

impl TraceSpec {
    /// Builds the [`TraceConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for zero requests, where the
    /// arrival process does not lower (see [`ArrivalsSpec`]), or where
    /// [`TraceConfig::validate`] fails (the conditions
    /// [`TraceConfig::generate`] would panic on).
    pub fn to_config(&self) -> Result<TraceConfig, SpecError> {
        if self.requests == 0 {
            return Err(invalid("serving.trace.requests must be > 0"));
        }
        let config = TraceConfig {
            seed: self.seed,
            requests: self.requests,
            rate: self
                .arrivals
                .to_rate(self.requests)
                .map_err(at("serving.trace.arrivals."))?,
            prompt_len: self.prompt_len,
            output_len: self.output_len,
        };
        config.validate().map_err(at("serving.trace."))?;
        Ok(config)
    }
}

impl TraceGenSpec {
    /// Builds the [`TraceGenConfig`] this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for zero requests or where
    /// [`TraceGenConfig::validate`] fails (the conditions
    /// [`TraceGenConfig::generate`] would panic on).
    pub fn to_config(&self) -> Result<TraceGenConfig, SpecError> {
        if self.requests == 0 {
            return Err(invalid("workload.trace.generate.requests must be > 0"));
        }
        let config = TraceGenConfig {
            trace: TraceConfig {
                seed: self.seed,
                requests: self.requests,
                rate: self.rate,
                prompt_len: self.prompt_len,
                output_len: self.output_len,
            },
            tenants: self.tenants,
        };
        config.validate().map_err(at("workload.trace.generate."))?;
        Ok(config)
    }
}

impl AutoscaleSpec {
    /// Builds the [`elk_cluster::AutoscaleConfig`] this spec describes.
    /// The policy is checked by [`elk_cluster::AutoscaleConfig::validate`]
    /// when [`elk_cluster::AutoscaleServingSim::new`] takes it; only the
    /// unit conversion is checked here.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for an interval that is not a
    /// valid duration.
    pub fn to_config(&self) -> Result<elk_cluster::AutoscaleConfig, SpecError> {
        Ok(elk_cluster::AutoscaleConfig {
            min_groups: self.min_groups,
            max_groups: self.max_groups,
            interval: millis("cluster.autoscale.interval_ms", self.interval_ms)?,
            up_queue_depth: self.up_queue_depth,
            down_queue_depth: self.down_queue_depth,
            slo_target: self.slo_target,
            cold_start_steps: self.cold_start_steps,
        })
    }
}

impl DisaggSpec {
    /// The two pool plans this spec pins, prefill first. Each is
    /// checked against the pod and the model, its pool named, by
    /// [`elk_cluster::DisaggServingSim::new`].
    #[must_use]
    pub fn to_plans(&self) -> (ParallelismPlan, ParallelismPlan) {
        (
            ParallelismPlan::new(self.prefill.tp, self.prefill.pp, self.prefill.dp),
            ParallelismPlan::new(self.decode.tp, self.decode.pp, self.decode.dp),
        )
    }
}

impl TenancySpec {
    /// Builds the [`elk_serve::TenancyConfig`] this spec describes.
    ///
    /// SLO bounds convert from ms to seconds and the shed policy name
    /// resolves here; the invariants (unique names, priority band,
    /// positive SLOs, resolvable classes, the defer delay) are then
    /// checked by [`elk_serve::TenancyConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for an unknown shed policy, an SLO
    /// bound that is not a valid duration, a priority beyond 8 bits, or
    /// any violation `validate` reports.
    pub fn to_config(&self) -> Result<elk_serve::TenancyConfig, SpecError> {
        let shed_policy = match self.shed_policy.as_str() {
            "reject" => elk_serve::ShedPolicy::Reject,
            "defer" => elk_serve::ShedPolicy::Defer,
            other => {
                return Err(invalid(format!(
                    "tenants.shed_policy '{other}': expected reject or defer"
                )))
            }
        };
        let classes = self
            .classes
            .iter()
            .map(|c| {
                let at_class = |key: &str| format!("tenants.classes '{}' {key}", c.name);
                Ok(elk_serve::TenantClass {
                    name: c.name.clone(),
                    priority: u8::try_from(c.priority).map_err(|_| {
                        invalid(format!(
                            "{}: {} is out of range",
                            at_class("priority"),
                            c.priority
                        ))
                    })?,
                    slo: SloConfig {
                        ttft: millis(&at_class("slo.ttft_ms"), c.slo.ttft_ms)?,
                        tpot: millis(&at_class("slo.tpot_ms"), c.slo.tpot_ms)?,
                    },
                    rate_rps: c.rate_rps,
                    burst: c.burst,
                    model: c.model.clone(),
                    sheddable: c.sheddable,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        let config = elk_serve::TenancyConfig {
            classes,
            tenants: self.map.clone(),
            default_class: self.default_class.clone(),
            shed_queue_depth: self.shed_queue_depth,
            shed_policy,
            defer_s: self.defer_ms / 1e3,
        };
        config
            .check_defer_delay("tenants.defer_ms", self.defer_ms)
            .map_err(invalid)?;
        config.validate().map_err(at("tenants: "))?;
        Ok(config)
    }
}

impl ServingSpec {
    /// Builds the [`ServeConfig`] for `model` on `shards`-way tensor
    /// parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for a non-positive SLO bound or
    /// where [`ServeConfig::validate`] fails (the conditions
    /// [`elk_serve::ServingSim::new`] would panic on).
    pub fn to_config(
        &self,
        model: TransformerConfig,
        shards: u64,
        sim: SimOptions,
    ) -> Result<ServeConfig, SpecError> {
        let config = ServeConfig {
            model,
            shards,
            replicas: self.replicas,
            batch: BatchConfig {
                max_batch: self.max_batch,
                max_prefill_tokens: self.max_prefill_tokens,
                seq_buckets: SeqBuckets {
                    min: self.seq_buckets.min,
                    max: self.seq_buckets.max,
                },
                bucket_batch: self.bucket_batch,
            },
            slo: SloConfig {
                ttft: Seconds::new(positive("serving.slo.ttft_ms", self.slo.ttft_ms)? / 1e3),
                tpot: Seconds::new(positive("serving.slo.tpot_ms", self.slo.tpot_ms)? / 1e3),
            },
            sim,
            threads: self.threads,
        };
        config.validate().map_err(at("serving."))?;
        Ok(config)
    }
}

impl ClusterSpec {
    /// The inter-chip link arrangement this spec names.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for an unknown name.
    pub fn to_interconnect(&self) -> Result<InterChipTopology, SpecError> {
        match self.interconnect.as_str() {
            "ring" => Ok(InterChipTopology::Ring),
            "fully_connected" => Ok(InterChipTopology::FullyConnected),
            other => Err(invalid(format!(
                "cluster.interconnect '{other}': expected ring or fully_connected"
            ))),
        }
    }

    /// The estimator options this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for a zero microbatch count. A
    /// fixed plan is checked against the pod and the model by the
    /// estimator.
    pub fn to_options(&self) -> Result<ClusterOptions, SpecError> {
        if self.microbatches == Some(0) {
            return Err(invalid("cluster.microbatches must be > 0"));
        }
        Ok(ClusterOptions {
            microbatches: self.microbatches,
            threads: self.threads,
        })
    }

    /// The fixed plan, if one is pinned (`None` = auto-search).
    #[must_use]
    pub fn to_plan(&self) -> Option<ParallelismPlan> {
        self.plan
            .as_ref()
            .map(|p| ParallelismPlan::new(p.tp, p.pp, p.dp))
    }
}

impl ScenarioSpec {
    /// `true` when `elk serve` can run this scenario (the model is a
    /// dense transformer).
    ///
    /// Note this is also `false` when the model fails to resolve at
    /// all; a caller that must distinguish "skip" from "broken" (the
    /// CLI does) should match [`ModelSpec::resolve`] instead and
    /// propagate its error.
    #[must_use]
    pub fn servable(&self) -> bool {
        matches!(self.model.resolve(), Ok(ResolvedModel::Llm(_)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SeqBucketsSpec;

    #[test]
    fn preset_resolves_to_the_exact_hardcoded_system() {
        let spec = SystemSpec::Preset("ipu_pod4".into());
        assert_eq!(spec.to_system().unwrap(), presets::ipu_pod4());
        let mesh = SystemSpec::Preset("ipu_pod4_mesh".into());
        assert_eq!(mesh.to_system().unwrap(), presets::ipu_pod4_mesh());
        let e = SystemSpec::Preset("tpu".into()).to_system().unwrap_err();
        assert!(e.to_string().contains("ipu_pod4"), "{e}");
    }

    #[test]
    fn custom_chip_builds_and_validates() {
        let chip = ChipSpec {
            name: "toy".into(),
            cores: 64,
            sram_per_core_kib: 256,
            io_buffer_per_core_kib: 8,
            matmul_tflops: 16.0,
            vector_tflops: 2.0,
            sram_bw_gb_s: 21.3,
            sram_contention: "concurrent".into(),
            topology: TopologySpec::Mesh { total_gib_s: 512.0 },
        };
        let cfg = chip.to_chip().unwrap();
        assert_eq!(cfg.cores, 64);
        assert_eq!(cfg.sram_contention, SramContention::Concurrent);
        assert!((cfg.matmul_rate().as_tera() - 16.0).abs() < 1e-9);
        assert!(matches!(cfg.topology, Topology::Mesh2d { .. }));

        let bad = ChipSpec {
            io_buffer_per_core_kib: 256,
            ..chip
        };
        assert!(bad.to_chip().is_err());
    }

    #[test]
    fn zoo_layer_override_applies() {
        let spec = ModelSpec::Zoo {
            zoo: "llama13".into(),
            layers: Some(2),
        };
        let ResolvedModel::Llm(cfg) = spec.resolve().unwrap() else {
            panic!("llama13 is dense");
        };
        assert_eq!(cfg.layers, 2);
        assert_eq!(cfg.name, "Llama-2-13B");
    }

    #[test]
    fn moe_and_dit_resolve_but_are_not_servable() {
        for zoo in ["mixtral", "dit"] {
            let spec = ModelSpec::Zoo {
                zoo: zoo.into(),
                layers: None,
            };
            assert!(spec.resolve().is_ok(), "{zoo} must resolve");
            assert!(spec.as_transformer().is_err(), "{zoo} must not serve");
        }
        let unknown = ModelSpec::Zoo {
            zoo: "gpt5".into(),
            layers: None,
        };
        let e = unknown.resolve().unwrap_err().to_string();
        assert!(e.contains("mixtral"), "aliases listed: {e}");
    }

    #[test]
    fn explicit_configs_reject_zero_dimensions() {
        let mut llm = elk_model::zoo::llama2_13b();
        llm.hidden = 0;
        let e = ModelSpec::Transformer(llm).resolve().unwrap_err();
        assert!(matches!(e, SpecError::Invalid(_)), "{e}");
        assert!(e.to_string().contains("model.transformer.hidden"), "{e}");

        let mut llm = elk_model::zoo::llama2_13b();
        llm.kv_heads = 0;
        let e = ModelSpec::Transformer(llm).resolve().unwrap_err();
        assert!(e.to_string().contains("model.transformer.kv_heads"), "{e}");

        let mut moe = elk_model::zoo::mixtral_8x7b();
        moe.expert_intermediate = 0;
        let e = ModelSpec::Moe(moe).resolve().unwrap_err();
        assert!(
            e.to_string().contains("model.moe.expert_intermediate"),
            "{e}"
        );

        let mut dit = elk_model::zoo::dit_xl();
        dit.tokens = 0;
        let e = ModelSpec::Dit(dit).resolve().unwrap_err();
        assert!(e.to_string().contains("model.dit.tokens"), "{e}");

        let mut dit = elk_model::zoo::dit_xl();
        dit.layers = 0;
        let e = ModelSpec::Dit(dit).resolve().unwrap_err();
        assert!(e.to_string().contains("model.dit.layers"), "{e}");
    }

    #[test]
    fn moe_cannot_route_to_more_experts_than_it_has() {
        let mut moe = elk_model::zoo::mixtral_8x7b();
        moe.experts = 2;
        moe.experts_per_token = 4;
        let e = ModelSpec::Moe(moe.clone()).resolve().unwrap_err();
        assert!(matches!(e, SpecError::Invalid(_)), "{e}");
        assert!(e.to_string().contains("experts_per_token (4)"), "{e}");
        moe.experts_per_token = 2;
        assert!(
            ModelSpec::Moe(moe).resolve().is_ok(),
            "top-k == experts is valid"
        );
    }

    #[test]
    fn workload_defaults_shards_to_chip_count() {
        let spec = WorkloadSpec::default();
        let sys = presets::ipu_pod4();
        assert_eq!(spec.shards_for(&sys).unwrap(), 4);
        assert_eq!(spec.to_workload().unwrap(), Workload::decode(32, 2048));
    }

    #[test]
    fn shards_must_divide_heads_and_ffn_width() {
        let sys = presets::ipu_pod4();
        let llama = ModelSpec::Zoo {
            zoo: "llama13".into(),
            layers: Some(2),
        }
        .resolve()
        .unwrap();
        let with = |shards| WorkloadSpec {
            shards: Some(shards),
            ..WorkloadSpec::default()
        };
        assert_eq!(with(4).shards_for_model(&sys, &llama).unwrap(), 4);
        let e = with(3).shards_for_model(&sys, &llama).unwrap_err();
        assert!(matches!(e, SpecError::Invalid(_)), "{e}");
        assert!(e.to_string().contains("heads (40)"), "{e}");
        // 80 heads split 80 ways, but 13824 FFN columns do not.
        let mut cfg = elk_model::zoo::llama2_13b();
        cfg.heads = 80;
        let e = with(80)
            .shards_for_model(&sys, &ResolvedModel::Llm(cfg))
            .unwrap_err();
        assert!(e.to_string().contains("intermediate (13824)"), "{e}");
    }

    #[test]
    fn serving_invariants_are_checked() {
        let model = elk_model::zoo::llama2_13b();
        let sim = SimOptions::default();
        let mut spec = ServingSpec::default();
        assert!(spec.to_config(model.clone(), 4, sim).is_ok());
        spec.seq_buckets = SeqBucketsSpec { min: 3, max: 8 };
        assert!(spec.to_config(model, 4, sim).is_err());
    }

    #[test]
    fn overdriven_burst_is_an_error_not_a_panic() {
        let spec = TraceSpec {
            arrivals: ArrivalsSpec::Bursty {
                rate_rps: 10.0,
                burst_factor: 5.0,
                period_s: 1.0,
                duty: 0.5,
            },
            ..TraceSpec::default()
        };
        let e = spec.to_config().unwrap_err().to_string();
        assert!(e.contains("serving.trace.arrivals.burst_factor"), "{e}");
    }

    #[test]
    fn defer_error_names_the_scenario_key_and_value() {
        let spec = TenancySpec {
            shed_queue_depth: Some(2.0),
            shed_policy: "defer".into(),
            defer_ms: -5.0,
            ..TenancySpec::default()
        };
        let e = spec.to_config().unwrap_err().to_string();
        assert!(
            e.contains("tenants.defer_ms") && e.contains("got -5"),
            "{e}"
        );
        assert!(!e.contains("defer_s"), "{e}");
    }
}
