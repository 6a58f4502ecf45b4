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

use crate::graph::GraphBuilder;
use crate::{
    ModelGraph, NormKind, OpKind, OpRole, ReduceKind, TransformerConfig, UnaryKind, Workload,
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

    /// As [`TransformerConfig::check_workload`], for this model's graph.
    ///
    /// # Errors
    ///
    /// Where [`check_shards`](Self::check_shards) fails, or a count
    /// overflows.
    pub fn check_workload(&self, workload: Workload, shards: u64) -> Result<(), String> {
        self.dense_twin().check_workload(workload, shards)?;
        let (batch, q) = (
            workload.batch,
            workload.phase.tokens_per_request(workload.seq_len),
        );
        crate::check_counts(
            &self.name,
            workload,
            shards,
            // Router logits, and the top-k expert outputs combined.
            &[
                &[batch, q, self.experts],
                &[batch, q, self.hidden, self.experts_per_token],
            ],
        )
    }

    /// The dense transformer with this model's attention and one expert's
    /// SwiGLU FFN in place of the experts.
    fn dense_twin(&self) -> TransformerConfig {
        TransformerConfig {
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
        }
    }

    /// Builds the per-shard operator graph using the generic-expert plan:
    /// the dense Mixtral-style layer with each FFN replaced by a router,
    /// the expert FFNs and their weighted combination.
    ///
    /// # Panics
    ///
    /// Panics where [`check_shards`](Self::check_shards) fails.
    #[must_use]
    pub fn build(&self, workload: Workload, shards: u64) -> ModelGraph {
        self.check_shards(shards).unwrap_or_else(|e| panic!("{e}"));
        let dense = self.dense_twin();
        let t = workload.tokens_in_flight();
        let (h, experts, top_k) = (self.hidden, self.experts, self.experts_per_token);
        let expert_ffn = |b: &mut GraphBuilder| {
            // Router: tiny matmul + top-k softmax.
            let softmax = OpKind::RowReduce {
                rows: t,
                cols: experts,
                kind: ReduceKind::Softmax,
            };
            b.push(b.matmul("router", OpRole::Other, t, h, experts));
            b.push(b.free("router_softmax", OpRole::Other, softmax));
            // Generic experts (§7): one FFN instance per activated-expert
            // slot, each processing the full token batch — total FLOPs
            // equal `top-k × dense FFN` and HBM traffic equals `top-k`
            // expert loads, regardless of which experts routing picks.
            for e in 0..top_k {
                dense.ffn(b, t, shards, &format!("expert{e}."));
            }
            // Weighted combination of expert outputs.
            let combine = OpKind::Elementwise {
                elems: t * h,
                arity: top_k,
                kind: UnaryKind::Mul,
            };
            b.push(b.free("expert_combine", OpRole::Residual, combine));
        };
        dense
            .emit(workload, shards, 0..self.layers, true, true, expert_ffn)
            .finish(self.name.clone(), workload, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{zoo, OpId, Operator};

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
    fn moe_graph_is_its_dense_twin_with_expert_ffns() {
        // Dropping the router, experts and combine from the MoE graph and
        // the dense FFN trio from its dense twin leaves the same graph:
        // embedding, attention, norms, residuals and head.
        let cfg = zoo::mixtral_8x7b();
        let strip = |g: ModelGraph, drop: fn(&Operator) -> bool| -> Vec<Operator> {
            let kept = g.iter().filter(|o| !drop(o)).cloned();
            kept.enumerate()
                .map(|(i, mut o)| {
                    o.set_id(OpId(i));
                    o
                })
                .collect()
        };
        for wl in [Workload::decode(16, 1024), Workload::prefill(2, 256)] {
            let moe = strip(cfg.build(wl, 4), |o| {
                o.name().contains(".router") || o.name().contains(".expert")
            });
            let dense = strip(cfg.dense_twin().build(wl, 4), |o| {
                matches!(o.role(), OpRole::MlpUp | OpRole::MlpAct | OpRole::MlpDown)
            });
            assert_eq!(moe, dense, "{wl}");
        }
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
