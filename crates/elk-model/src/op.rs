use std::fmt;

use serde::{Deserialize, Serialize};

use elk_units::{Bytes, Flops};

use crate::DType;

/// Index of an operator within a [`crate::ModelGraph`]'s execution order.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct OpId(pub usize);

impl OpId {
    /// The underlying index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Where an operator's *stationary* operand (weights, KV cache, embedding
/// table) resides before execution.
///
/// HBM-resident operands must be preloaded through the interconnect; on-chip
/// operands are activations produced by earlier operators and already live
/// in distributed SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperandSource {
    /// Model parameters stored in HBM, reused across requests in a batch.
    HbmWeight,
    /// KV-cache entries stored in HBM, unique per request (no batch reuse).
    HbmKvCache,
    /// Activation output of an earlier operator, already in on-chip SRAM.
    OnChip,
    /// The operator has no stationary operand.
    None,
}

impl OperandSource {
    /// `true` if the operand must be loaded from off-chip memory.
    #[must_use]
    pub const fn is_hbm(self) -> bool {
        matches!(self, OperandSource::HbmWeight | OperandSource::HbmKvCache)
    }
}

/// Row-wise reduction flavour for [`OpKind::RowReduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceKind {
    /// Numerically-stable softmax (max, exp, sum, divide).
    Softmax,
    /// RMSNorm (square, mean, rsqrt, scale).
    RmsNorm,
    /// LayerNorm (mean, variance, normalize, scale+shift).
    LayerNorm,
    /// Plain sum/mean reduction.
    Sum,
}

impl ReduceKind {
    /// Approximate FLOPs per element for the reduction flavour.
    #[must_use]
    pub const fn flops_per_elem(self) -> u64 {
        match self {
            ReduceKind::Softmax => 5,
            ReduceKind::RmsNorm => 4,
            ReduceKind::LayerNorm => 6,
            ReduceKind::Sum => 1,
        }
    }
}

/// Element-wise operation flavour for [`OpKind::Elementwise`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryKind {
    /// Addition (residual connections).
    Add,
    /// Pointwise multiply (gating).
    Mul,
    /// SiLU / SwiGLU activation (with gating multiply).
    Silu,
    /// GeLU activation.
    Gelu,
    /// Rotary positional embedding.
    Rope,
    /// Scale-and-shift modulation (DiT adaLN).
    Modulate,
    /// Memory-movement only (KV-cache append, reshape).
    Copy,
}

impl UnaryKind {
    /// Approximate FLOPs per element.
    #[must_use]
    pub const fn flops_per_elem(self) -> u64 {
        match self {
            UnaryKind::Add | UnaryKind::Mul => 1,
            UnaryKind::Silu => 5,
            UnaryKind::Gelu => 8,
            UnaryKind::Rope => 6,
            UnaryKind::Modulate => 2,
            UnaryKind::Copy => 0,
        }
    }
}

/// The computation performed by one operator, with its full (per-chip
/// shard) iteration space.
///
/// These are the operator classes the paper's evaluation exercises:
/// `MatMul` / `BatchMatMul` carry virtually all FLOPs and HBM traffic,
/// `RowReduce` covers softmax and normalization, `Elementwise` covers
/// activations / residuals / RoPE, and `Gather` covers embedding lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Dense `[m×k] · [k×n]` product. `A` is the moving operand
    /// (activations), `B` the stationary operand.
    MatMul {
        /// Rows of `A` (tokens in flight).
        m: u64,
        /// Contraction length.
        k: u64,
        /// Columns of `B`.
        n: u64,
    },
    /// `batch` independent `[m×k] · [k×n]` products (attention).
    BatchMatMul {
        /// Independent product count (batch × heads).
        batch: u64,
        /// Rows per product.
        m: u64,
        /// Contraction length per product.
        k: u64,
        /// Columns per product.
        n: u64,
    },
    /// Row-wise reduction over a `[rows × cols]` view.
    RowReduce {
        /// Independent rows.
        rows: u64,
        /// Reduced elements per row.
        cols: u64,
        /// Reduction flavour.
        kind: ReduceKind,
    },
    /// Element-wise map over `elems` elements with `arity` input tensors.
    Elementwise {
        /// Total elements.
        elems: u64,
        /// Number of input tensors.
        arity: u64,
        /// Operation flavour.
        kind: UnaryKind,
    },
    /// Row gather of `rows` rows of width `width` from a
    /// `[table_rows × width]` table.
    Gather {
        /// Rows gathered.
        rows: u64,
        /// Row width.
        width: u64,
        /// Table height.
        table_rows: u64,
    },
}

impl OpKind {
    /// Total floating-point operations of the full (un-tiled) computation.
    #[must_use]
    pub fn flops(&self) -> Flops {
        let f = match *self {
            OpKind::MatMul { m, k, n } => 2.0 * m as f64 * k as f64 * n as f64,
            OpKind::BatchMatMul { batch, m, k, n } => {
                2.0 * batch as f64 * m as f64 * k as f64 * n as f64
            }
            OpKind::RowReduce { rows, cols, kind } => (rows * cols * kind.flops_per_elem()) as f64,
            OpKind::Elementwise { elems, kind, .. } => (elems * kind.flops_per_elem()) as f64,
            OpKind::Gather { .. } => 0.0,
        };
        Flops::new(f)
    }

    /// Elements of the moving (activation) input.
    #[must_use]
    pub fn input_elems(&self) -> u64 {
        match *self {
            OpKind::MatMul { m, k, .. } => m * k,
            OpKind::BatchMatMul { batch, m, k, .. } => batch * m * k,
            OpKind::RowReduce { rows, cols, .. } => rows * cols,
            OpKind::Elementwise { elems, arity, .. } => elems * arity,
            OpKind::Gather { rows, .. } => rows,
        }
    }

    /// Elements of the stationary input (`0` when there is none).
    #[must_use]
    pub fn stationary_elems(&self) -> u64 {
        match *self {
            OpKind::MatMul { k, n, .. } => k * n,
            OpKind::BatchMatMul { batch, k, n, .. } => batch * k * n,
            OpKind::RowReduce { cols, .. } => cols,
            OpKind::Elementwise { .. } => 0,
            OpKind::Gather {
                table_rows, width, ..
            } => table_rows * width,
        }
    }

    /// Elements of the output.
    #[must_use]
    pub fn output_elems(&self) -> u64 {
        match *self {
            OpKind::MatMul { m, n, .. } => m * n,
            OpKind::BatchMatMul { batch, m, n, .. } => batch * m * n,
            OpKind::RowReduce { rows, cols, kind } => match kind {
                ReduceKind::Sum => rows,
                _ => rows * cols,
            },
            OpKind::Elementwise { elems, .. } => elems,
            OpKind::Gather { rows, width, .. } => rows * width,
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpKind::MatMul { m, k, n } => write!(f, "MatMul[{m}x{k}x{n}]"),
            OpKind::BatchMatMul { batch, m, k, n } => {
                write!(f, "BatchMatMul[{batch}:{m}x{k}x{n}]")
            }
            OpKind::RowReduce { rows, cols, kind } => {
                write!(f, "RowReduce[{rows}x{cols}:{kind:?}]")
            }
            OpKind::Elementwise { elems, kind, .. } => write!(f, "Elementwise[{elems}:{kind:?}]"),
            OpKind::Gather { rows, width, .. } => write!(f, "Gather[{rows}x{width}]"),
        }
    }
}

/// Semantic role of an operator within a transformer block, used to select
/// representative operators (Fig. 5) and to label reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OpRole {
    Embed,
    AttnNorm,
    AttnQkv,
    Rope,
    KvAppend,
    AttnScores,
    AttnSoftmax,
    AttnContext,
    AttnOut,
    Residual,
    MlpNorm,
    MlpUp,
    MlpAct,
    MlpDown,
    PostNorm,
    FinalNorm,
    LmHead,
    Modulation,
    Other,
}

impl fmt::Display for OpRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One tensor operator in a model's sequential execution order.
///
/// All sizes are **per chip shard** — a graph built with `shards = 4`
/// describes the work one of four tensor-parallel chips performs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operator {
    id: OpId,
    name: String,
    role: OpRole,
    layer: Option<u32>,
    kind: OpKind,
    dtype: DType,
    stationary: OperandSource,
    stationary_bytes: Bytes,
    hbm_store: Bytes,
    allreduce: Bytes,
}

impl Operator {
    /// Creates an operator. `stationary_bytes` may differ from
    /// `kind.stationary_elems()` (for example GQA attention reads one KV head
    /// per query-head group, so the loaded volume is smaller than the
    /// logical operand).
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        id: OpId,
        name: impl Into<String>,
        role: OpRole,
        layer: Option<u32>,
        kind: OpKind,
        dtype: DType,
        stationary: OperandSource,
        stationary_bytes: Bytes,
    ) -> Self {
        Operator {
            id,
            name: name.into(),
            role,
            layer,
            kind,
            dtype,
            stationary,
            stationary_bytes,
            hbm_store: Bytes::ZERO,
            allreduce: Bytes::ZERO,
        }
    }

    /// Sets the HBM write-back volume (KV-cache append).
    #[must_use]
    pub fn with_hbm_store(mut self, bytes: Bytes) -> Self {
        self.hbm_store = bytes;
        self
    }

    /// Sets the inter-chip all-reduce volume required after this operator.
    #[must_use]
    pub fn with_allreduce(mut self, bytes: Bytes) -> Self {
        self.allreduce = bytes;
        self
    }

    /// Position in the execution order.
    #[must_use]
    pub fn id(&self) -> OpId {
        self.id
    }

    /// Re-numbers the operator (used when graphs are assembled).
    pub(crate) fn set_id(&mut self, id: OpId) {
        self.id = id;
    }

    /// Human-readable name, e.g. `"l12.attn_qkv"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Semantic role.
    #[must_use]
    pub fn role(&self) -> OpRole {
        self.role
    }

    /// Transformer layer index, if the operator belongs to a repeated layer.
    #[must_use]
    pub fn layer(&self) -> Option<u32> {
        self.layer
    }

    /// The computation.
    #[must_use]
    pub fn kind(&self) -> &OpKind {
        &self.kind
    }

    /// Element datatype.
    #[must_use]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Stationary-operand source.
    #[must_use]
    pub fn stationary(&self) -> OperandSource {
        self.stationary
    }

    /// Stationary-operand size (what preloading must deliver on-chip).
    #[must_use]
    pub fn stationary_bytes(&self) -> Bytes {
        self.stationary_bytes
    }

    /// Total floating-point work.
    #[must_use]
    pub fn flops(&self) -> Flops {
        self.kind.flops()
    }

    /// Bytes that must be loaded from HBM before execution.
    #[must_use]
    pub fn hbm_load(&self) -> Bytes {
        if self.stationary.is_hbm() {
            self.stationary_bytes
        } else {
            Bytes::ZERO
        }
    }

    /// Bytes written back to HBM by this operator.
    #[must_use]
    pub fn hbm_store(&self) -> Bytes {
        self.hbm_store
    }

    /// Inter-chip all-reduce volume after this operator.
    #[must_use]
    pub fn allreduce(&self) -> Bytes {
        self.allreduce
    }

    /// Moving-input (activation) footprint.
    #[must_use]
    pub fn input_bytes(&self) -> Bytes {
        self.dtype.bytes_for(self.kind.input_elems())
    }

    /// Output footprint.
    #[must_use]
    pub fn output_bytes(&self) -> Bytes {
        self.dtype.bytes_for(self.kind.output_elems())
    }
}

impl fmt::Display for Operator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} ({})", self.id, self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul(m: u64, k: u64, n: u64) -> Operator {
        Operator::new(
            OpId(0),
            "mm",
            OpRole::AttnQkv,
            Some(0),
            OpKind::MatMul { m, k, n },
            DType::F16,
            OperandSource::HbmWeight,
            DType::F16.bytes_for(k * n),
        )
    }

    #[test]
    fn matmul_accounting() {
        let op = matmul(32, 5120, 15360);
        assert_eq!(op.flops().get(), 2.0 * 32.0 * 5120.0 * 15360.0);
        assert_eq!(op.hbm_load(), Bytes::new(5120 * 15360 * 2));
        assert_eq!(op.input_bytes(), Bytes::new(32 * 5120 * 2));
        assert_eq!(op.output_bytes(), Bytes::new(32 * 15360 * 2));
    }

    #[test]
    fn onchip_stationary_loads_nothing() {
        let op = Operator::new(
            OpId(1),
            "scores",
            OpRole::AttnScores,
            Some(0),
            OpKind::BatchMatMul {
                batch: 64,
                m: 1,
                k: 128,
                n: 2048,
            },
            DType::F16,
            OperandSource::OnChip,
            DType::F16.bytes_for(64 * 128 * 2048),
        );
        assert_eq!(op.hbm_load(), Bytes::ZERO);
    }

    #[test]
    fn kv_cache_volume_can_differ_from_logical_operand() {
        // GQA: 8 query heads share 1 KV head; loaded bytes < logical elems.
        let kind = OpKind::BatchMatMul {
            batch: 32 * 8,
            m: 1,
            k: 128,
            n: 2048,
        };
        let loaded = DType::F16.bytes_for(32 * 128 * 2048); // one KV head
        let op = Operator::new(
            OpId(2),
            "scores",
            OpRole::AttnScores,
            Some(0),
            kind,
            DType::F16,
            OperandSource::HbmKvCache,
            loaded,
        );
        assert!(op.hbm_load() < DType::F16.bytes_for(kind.stationary_elems()));
    }

    #[test]
    fn softmax_output_keeps_shape_sum_reduces() {
        let soft = OpKind::RowReduce {
            rows: 10,
            cols: 7,
            kind: ReduceKind::Softmax,
        };
        assert_eq!(soft.output_elems(), 70);
        let sum = OpKind::RowReduce {
            rows: 10,
            cols: 7,
            kind: ReduceKind::Sum,
        };
        assert_eq!(sum.output_elems(), 10);
    }

    #[test]
    fn builder_extras() {
        let op = matmul(1, 2, 3)
            .with_hbm_store(Bytes::new(64))
            .with_allreduce(Bytes::new(128));
        assert_eq!(op.hbm_store(), Bytes::new(64));
        assert_eq!(op.allreduce(), Bytes::new(128));
    }
}
