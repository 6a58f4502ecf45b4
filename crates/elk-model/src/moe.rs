//! Mixture-of-experts graphs (§7 "Apply Elk to MoE").
//!
//! At compile time all experts share one shape, so Elk plans a *generic
//! expert* (§7): each MoE layer emits a router operator followed by
//! `experts_per_token` expert-FFN instances, each loading one expert's
//! weights from HBM. At run time the chip binds the actual expert indices
//! when the preload is issued — which works precisely because Elk's
//! scheduler places preloads as late as the overlap windows allow (§4.2),
//! keeping expert preloads close to (and after) the routing decision.

use serde::{Deserialize, Serialize};

use elk_units::Bytes;

use crate::{
    DType, LayerSpan, ModelGraph, NormKind, OpId, OpKind, OpRole, OperandSource, Operator,
    ReduceKind, UnaryKind, Workload,
};

/// Architecture hyper-parameters of a decoder-only MoE transformer
/// (Mixtral-style: top-k routing over dense SwiGLU experts).
///
/// # Examples
///
/// ```
/// use elk_model::{zoo, Workload};
///
/// let g = zoo::mixtral_8x7b().build(Workload::decode(16, 1024), 4);
/// assert!(g.total_hbm_load().get() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MoeConfig {
    /// Model name.
    pub name: String,
    /// Transformer layers.
    pub layers: u32,
    /// Model dimension.
    pub hidden: u64,
    /// Query heads.
    pub heads: u64,
    /// KV heads (GQA).
    pub kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// Expert FFN intermediate dimension.
    pub expert_intermediate: u64,
    /// Experts per layer.
    pub experts: u64,
    /// Experts activated per token (top-k).
    pub experts_per_token: u64,
    /// Vocabulary size.
    pub vocab: u64,
}

impl MoeConfig {
    /// Total parameters (all experts included).
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let h = self.hidden;
        let attn =
            h * (self.heads + 2 * self.kv_heads) * self.head_dim + self.heads * self.head_dim * h;
        let expert = 3 * h * self.expert_intermediate;
        let router = h * self.experts;
        self.layers as u64 * (attn + self.experts * expert + router) + 2 * self.vocab * h
    }

    /// Parameters touched per token (active experts only) — what one
    /// decode step actually loads from HBM.
    #[must_use]
    pub fn active_param_count(&self) -> u64 {
        let h = self.hidden;
        let attn =
            h * (self.heads + 2 * self.kv_heads) * self.head_dim + self.heads * self.head_dim * h;
        let expert = 3 * h * self.expert_intermediate;
        let router = h * self.experts;
        self.layers as u64 * (attn + self.experts_per_token * expert + router) + 2 * self.vocab * h
    }

    /// Checks that `shards`-way tensor parallelism splits this model
    /// evenly: the shard count must divide `heads` and
    /// `expert_intermediate`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the shard count and the dimension it
    /// does not divide.
    pub fn check_shards(&self, shards: u64) -> Result<(), String> {
        crate::check_split(
            shards,
            &[
                ("heads", self.heads),
                ("expert_intermediate", self.expert_intermediate),
            ],
        )
    }

    /// Builds the per-shard operator graph using the generic-expert plan.
    ///
    /// # Panics
    ///
    /// Panics where [`check_shards`](Self::check_shards) fails.
    #[must_use]
    pub fn build(&self, workload: Workload, shards: u64) -> ModelGraph {
        self.check_shards(shards).unwrap_or_else(|e| panic!("{e}"));
        // Reuse the dense-transformer builder for attention, then splice
        // the router + expert FFNs per layer.
        let dense = crate::TransformerConfig {
            name: self.name.clone(),
            layers: self.layers,
            hidden: self.hidden,
            heads: self.heads,
            kv_heads: self.kv_heads,
            head_dim: self.head_dim,
            intermediate: self.expert_intermediate,
            vocab: self.vocab,
            glu: true,
            norm: NormKind::Rms,
            rope: true,
            post_norms: false,
        };
        let base = dense.build(workload, shards);
        let dtype = DType::F16;
        let t = workload.tokens_in_flight();
        let h = self.hidden;
        let i_s = self.expert_intermediate / shards;

        let mut ops: Vec<Operator> = Vec::with_capacity(base.len() * 2);
        let mut layers: Vec<LayerSpan> = Vec::new();
        for span in base.layer_spans() {
            let start = ops.len();
            let l = span.layer;
            for op in &base.ops()[span.ops.clone()] {
                // Keep attention/norm ops; replace the dense FFN trio
                // (mlp_up, mlp_act, mlp_down) with router + experts.
                match op.role() {
                    OpRole::MlpUp => {
                        // Router: tiny matmul + top-k softmax.
                        ops.push(Operator::new(
                            OpId(0),
                            format!("l{l}.router"),
                            OpRole::Other,
                            Some(l),
                            OpKind::MatMul {
                                m: t,
                                k: h,
                                n: self.experts,
                            },
                            dtype,
                            OperandSource::HbmWeight,
                            dtype.bytes_for(h * self.experts),
                        ));
                        ops.push(Operator::new(
                            OpId(0),
                            format!("l{l}.router_softmax"),
                            OpRole::Other,
                            Some(l),
                            OpKind::RowReduce {
                                rows: t,
                                cols: self.experts,
                                kind: ReduceKind::Softmax,
                            },
                            dtype,
                            OperandSource::None,
                            Bytes::ZERO,
                        ));
                        // Generic experts (§7): one FFN instance per
                        // activated-expert slot, each processing the full
                        // token batch — total FLOPs equal `top-k × dense
                        // FFN` and HBM traffic equals `top-k` expert loads,
                        // regardless of which experts routing picks.
                        let te = t;
                        for e in 0..self.experts_per_token {
                            let allreduce = dtype.bytes_for(te * h);
                            ops.push(Operator::new(
                                OpId(0),
                                format!("l{l}.expert{e}.up"),
                                OpRole::MlpUp,
                                Some(l),
                                OpKind::MatMul {
                                    m: te,
                                    k: h,
                                    n: 2 * i_s,
                                },
                                dtype,
                                OperandSource::HbmWeight,
                                dtype.bytes_for(h * 2 * i_s),
                            ));
                            ops.push(Operator::new(
                                OpId(0),
                                format!("l{l}.expert{e}.act"),
                                OpRole::MlpAct,
                                Some(l),
                                OpKind::Elementwise {
                                    elems: te * i_s,
                                    arity: 2,
                                    kind: UnaryKind::Silu,
                                },
                                dtype,
                                OperandSource::None,
                                Bytes::ZERO,
                            ));
                            ops.push(
                                Operator::new(
                                    OpId(0),
                                    format!("l{l}.expert{e}.down"),
                                    OpRole::MlpDown,
                                    Some(l),
                                    OpKind::MatMul {
                                        m: te,
                                        k: i_s,
                                        n: h,
                                    },
                                    dtype,
                                    OperandSource::HbmWeight,
                                    dtype.bytes_for(i_s * h),
                                )
                                .with_allreduce(allreduce),
                            );
                        }
                        // Weighted combination of expert outputs.
                        ops.push(Operator::new(
                            OpId(0),
                            format!("l{l}.expert_combine"),
                            OpRole::Residual,
                            Some(l),
                            OpKind::Elementwise {
                                elems: t * h,
                                arity: self.experts_per_token,
                                kind: UnaryKind::Mul,
                            },
                            dtype,
                            OperandSource::None,
                            Bytes::ZERO,
                        ));
                    }
                    OpRole::MlpAct | OpRole::MlpDown => {} // replaced above
                    _ => ops.push(op.clone()),
                }
            }
            layers.push(LayerSpan {
                layer: l,
                ops: start..ops.len(),
            });
        }
        // Head ops (outside layers) from the dense graph.
        let tail_start = base.layer_spans().last().map_or(0, |s| s.ops.end);
        for op in &base.ops()[tail_start..] {
            ops.push(op.clone());
        }

        ModelGraph::new(self.name.clone(), workload, shards, ops, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn mixtral_parameter_scale() {
        let cfg = zoo::mixtral_8x7b();
        let total = cfg.param_count() as f64;
        let active = cfg.active_param_count() as f64;
        assert!((40e9..55e9).contains(&total), "total params {total:.3e}");
        assert!((11e9..16e9).contains(&active), "active params {active:.3e}");
    }

    #[test]
    fn decode_loads_only_active_experts() {
        let cfg = zoo::mixtral_8x7b();
        let g = cfg.build(Workload::decode(16, 1024), 4);
        // Per-shard weight bytes should track active params / shards, not
        // total params (idle experts stay in HBM).
        let per_shard = g.weight_bytes().as_f64();
        let active = cfg.active_param_count() as f64 * 2.0 / 4.0;
        let ratio = per_shard / active;
        assert!(
            (0.7..1.3).contains(&ratio),
            "per-shard weights {per_shard:.3e} vs active/shard {active:.3e}"
        );
    }

    #[test]
    fn layer_structure_replaces_dense_ffn() {
        let cfg = zoo::mixtral_8x7b();
        let g = cfg.build(Workload::decode(8, 512), 4);
        let span = &g.layer_spans()[1];
        let names: Vec<&str> = g.ops()[span.ops.clone()].iter().map(|o| o.name()).collect();
        assert!(names.iter().any(|n| n.contains("router")));
        assert!(names.iter().any(|n| n.contains("expert0.up")));
        assert!(names.iter().any(|n| n.contains("expert1.down")));
        assert!(names.iter().any(|n| n.contains("expert_combine")));
    }
}
