use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use elk_units::{Bytes, Flops};

use crate::{DType, OpId, OpKind, OpRole, OperandSource, Operator, ReduceKind, Workload};

/// The operator range of one repeated transformer layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerSpan {
    /// Layer index.
    pub layer: u32,
    /// Operator-index range (half-open) in execution order.
    pub ops: Range<usize>,
}

/// A model's operators in sequential execution order, per chip shard.
///
/// ICCA chips execute one partitioned operator at a time across all cores
/// (§2.2), so the graph is a sequence rather than a DAG: the builders
/// linearize the model in dependency order, exactly like the paper's ONNX
/// frontend does before scheduling.
///
/// # Examples
///
/// ```
/// use elk_model::{zoo, Workload};
///
/// let g = zoo::opt_30b().build(Workload::decode(32, 2048), 4);
/// assert!(g.len() > 500);
/// assert_eq!(g.layer_spans().len(), 48);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelGraph {
    name: String,
    workload: Workload,
    shards: u64,
    ops: Vec<Operator>,
    layers: Vec<LayerSpan>,
}

impl ModelGraph {
    /// Assembles a graph, re-numbering operators to match execution order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or any layer span is out of bounds.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        workload: Workload,
        shards: u64,
        mut ops: Vec<Operator>,
        layers: Vec<LayerSpan>,
    ) -> Self {
        assert!(shards > 0, "shard count must be > 0");
        for (i, op) in ops.iter_mut().enumerate() {
            op.set_id(OpId(i));
        }
        for span in &layers {
            assert!(
                span.ops.end <= ops.len() && span.ops.start < span.ops.end,
                "layer {} span {:?} out of bounds (n={})",
                span.layer,
                span.ops,
                ops.len()
            );
        }
        ModelGraph {
            name: name.into(),
            workload,
            shards,
            ops,
            layers,
        }
    }

    /// Model name, e.g. `"Llama-2-13B"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload this graph was instantiated for.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Number of tensor-parallel shards (chips) the graph assumes.
    #[must_use]
    pub fn shards(&self) -> u64 {
        self.shards
    }

    /// Number of operators.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the graph has no operators.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operators in execution order.
    #[must_use]
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// The operator at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.index()]
    }

    /// Iterates over operators in execution order.
    pub fn iter(&self) -> std::slice::Iter<'_, Operator> {
        self.ops.iter()
    }

    /// Repeated-layer spans in execution order.
    #[must_use]
    pub fn layer_spans(&self) -> &[LayerSpan] {
        &self.layers
    }

    /// Total HBM read volume of one step (per shard).
    #[must_use]
    pub fn total_hbm_load(&self) -> Bytes {
        self.ops.iter().map(Operator::hbm_load).sum()
    }

    /// Total floating-point work of one step (per shard).
    #[must_use]
    pub fn total_flops(&self) -> Flops {
        self.ops.iter().map(Operator::flops).sum()
    }

    /// Total parameter bytes (per shard): HBM weights only, excluding
    /// KV cache.
    #[must_use]
    pub fn weight_bytes(&self) -> Bytes {
        self.ops
            .iter()
            .filter(|o| o.stationary() == crate::OperandSource::HbmWeight)
            .map(Operator::stationary_bytes)
            .sum()
    }

    /// The HBM-heavy threshold of §4.4: "for LLM decoding, the average size
    /// is model size divided by operator count" — i.e. weight bytes over
    /// `N`, not total HBM traffic over `N`.
    #[must_use]
    pub fn hbm_heavy_threshold(&self) -> Bytes {
        if self.ops.is_empty() {
            Bytes::ZERO
        } else {
            Bytes::new(self.weight_bytes().get() / self.ops.len() as u64)
        }
    }

    /// `true` if `op` is HBM-heavy (its load volume is above the mean),
    /// making it a preload-reordering candidate (§4.4).
    #[must_use]
    pub fn is_hbm_heavy(&self, id: OpId) -> bool {
        self.op(id).hbm_load() > self.hbm_heavy_threshold()
    }

    /// HBM-heavy operator ids in execution order.
    #[must_use]
    pub fn hbm_heavy_ops(&self) -> Vec<OpId> {
        let thr = self.hbm_heavy_threshold();
        self.ops
            .iter()
            .filter(|o| o.hbm_load() > thr)
            .map(Operator::id)
            .collect()
    }
}

impl<'a> IntoIterator for &'a ModelGraph {
    type Item = &'a Operator;
    type IntoIter = std::slice::Iter<'a, Operator>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl fmt::Display for ModelGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] ({} ops, {} layers, {} weights/shard, {} HBM/step)",
            self.name,
            self.workload,
            self.ops.len(),
            self.layers.len(),
            self.weight_bytes(),
            self.total_hbm_load(),
        )
    }
}

/// Element type of every operator the builders emit.
pub(crate) const DTYPE: DType = DType::F16;

/// Per-shard operator emission shared by the dense, MoE and DiT builders.
///
/// It names and tags each operator for the open layer (`l{n}.` prefix,
/// `layer: Some(n)`), builds the operator shapes every builder uses, and
/// closes each layer span.
#[derive(Default)]
pub(crate) struct GraphBuilder {
    ops: Vec<Operator>,
    layers: Vec<LayerSpan>,
    open: Option<u32>,
}

impl GraphBuilder {
    /// Emits `body` as layer `layer`: its operators are named `l{layer}.*`,
    /// tagged with the layer, and recorded as one span.
    pub(crate) fn layer(&mut self, layer: u32, body: impl FnOnce(&mut Self)) {
        let start = self.ops.len();
        self.open = Some(layer);
        body(self);
        self.open = None;
        self.layers.push(LayerSpan {
            layer,
            ops: start..self.ops.len(),
        });
    }

    /// An operator whose stationary operand is `bytes` from `src`.
    pub(crate) fn op(
        &self,
        name: &str,
        role: OpRole,
        kind: OpKind,
        src: OperandSource,
        bytes: Bytes,
    ) -> Operator {
        let name = match self.open {
            Some(l) => format!("l{l}.{name}"),
            None => name.to_string(),
        };
        Operator::new(OpId(0), name, role, self.open, kind, DTYPE, src, bytes)
    }

    /// An operator with no stationary operand.
    pub(crate) fn free(&self, name: &str, role: OpRole, kind: OpKind) -> Operator {
        self.op(name, role, kind, OperandSource::None, Bytes::ZERO)
    }

    /// A weight-stationary `[m×k]·[k×n]` product loading its `k·n` weights
    /// from HBM.
    pub(crate) fn matmul(&self, name: &str, role: OpRole, m: u64, k: u64, n: u64) -> Operator {
        let (kind, weights) = (OpKind::MatMul { m, k, n }, DTYPE.bytes_for(k * n));
        self.op(name, role, kind, OperandSource::HbmWeight, weights)
    }

    /// Appends `op` to the execution order.
    pub(crate) fn push(&mut self, op: Operator) {
        self.ops.push(op);
    }

    /// Attention over `heads` independent heads of `q` query rows against
    /// `keys` keys of width `d`: scores, softmax and context. Both products
    /// read `kv` bytes of keys or values from `src`; the scores operator
    /// writes `store` bytes back to HBM.
    pub(crate) fn attention(
        &mut self,
        [heads, q, keys, d]: [u64; 4],
        src: OperandSource,
        kv: Bytes,
        store: Bytes,
    ) {
        let scores = OpKind::BatchMatMul {
            batch: heads,
            m: q,
            k: d,
            n: keys,
        };
        let softmax = OpKind::RowReduce {
            rows: heads * q,
            cols: keys,
            kind: ReduceKind::Softmax,
        };
        let context = OpKind::BatchMatMul {
            batch: heads,
            m: q,
            k: keys,
            n: d,
        };
        self.push(
            self.op("attn_scores", OpRole::AttnScores, scores, src, kv)
                .with_hbm_store(store),
        );
        self.push(self.free("attn_softmax", OpRole::AttnSoftmax, softmax));
        self.push(self.op("attn_context", OpRole::AttnContext, context, src, kv));
    }

    /// The assembled graph.
    pub(crate) fn finish(self, name: String, workload: Workload, shards: u64) -> ModelGraph {
        ModelGraph::new(name, workload, shards, self.ops, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> ModelGraph {
        let mk = |n: &str, hbm: u64| {
            Operator::new(
                OpId(0),
                n,
                OpRole::Other,
                Some(0),
                OpKind::MatMul { m: 4, k: 8, n: 8 },
                DType::F16,
                if hbm > 0 {
                    OperandSource::HbmWeight
                } else {
                    OperandSource::OnChip
                },
                Bytes::new(hbm.max(128)),
            )
        };
        ModelGraph::new(
            "tiny",
            Workload::decode(1, 16),
            1,
            vec![mk("a", 1000), mk("b", 0), mk("c", 4000)],
            vec![LayerSpan {
                layer: 0,
                ops: 0..3,
            }],
        )
    }

    #[test]
    fn renumbers_ids() {
        let g = tiny_graph();
        for (i, op) in g.iter().enumerate() {
            assert_eq!(op.id(), OpId(i));
        }
    }

    #[test]
    fn hbm_accounting_skips_onchip() {
        let g = tiny_graph();
        assert_eq!(g.total_hbm_load(), Bytes::new(5000));
        assert_eq!(g.weight_bytes(), Bytes::new(5000));
    }

    #[test]
    fn heavy_classification_uses_mean() {
        let g = tiny_graph();
        // mean = 5000/3 = 1666; only "c" (4000) is above.
        assert_eq!(g.hbm_heavy_ops(), vec![OpId(2)]);
        assert!(!g.is_hbm_heavy(OpId(1)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_layer_span_rejected() {
        let g = tiny_graph();
        let _ = ModelGraph::new(
            "bad",
            g.workload(),
            1,
            g.ops().to_vec(),
            vec![LayerSpan {
                layer: 0,
                ops: 0..9,
            }],
        );
    }
}
