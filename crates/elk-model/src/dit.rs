//! Diffusion-transformer (DiT) graphs.
//!
//! DiT-XL (Fig. 23) is compute-intensive: every step processes all latent
//! tokens, attention operands are on-chip activations, and the only
//! HBM-resident tensors are layer weights — so preload efficiency matters
//! less than for LLM decoding, which is exactly the contrast the paper
//! draws.

use serde::{Deserialize, Serialize};

use elk_units::Bytes;

use crate::{
    DType, LayerSpan, ModelGraph, OpId, OpKind, OpRole, OperandSource, Operator, ReduceKind,
    UnaryKind, Workload,
};

/// Architecture hyper-parameters of a DiT (adaLN-zero) diffusion
/// transformer.
///
/// # Examples
///
/// ```
/// use elk_model::{zoo, Workload};
///
/// let g = zoo::dit_xl().build(Workload::decode(8, 256), 1);
/// assert!(g.total_flops().get() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DitConfig {
    /// Model name.
    pub name: String,
    /// Transformer blocks.
    pub layers: u32,
    /// Model dimension.
    pub hidden: u64,
    /// Attention heads.
    pub heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// FFN expansion ratio.
    pub mlp_ratio: u64,
    /// Latent tokens per image (latent size / patch size, squared).
    pub tokens: u64,
}

impl DitConfig {
    /// Approximate parameter count.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let h = self.hidden;
        let per_layer = 4 * h * h            // qkv + out
            + 2 * h * (self.mlp_ratio * h)   // fc1 + fc2
            + 6 * h * h; // adaLN modulation
        self.layers as u64 * per_layer
    }

    /// Checks that `shards`-way tensor parallelism splits this model
    /// evenly: the shard count must divide `heads`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the shard count and the heads.
    pub fn check_shards(&self, shards: u64) -> Result<(), String> {
        crate::check_split(shards, &[("heads", self.heads)])
    }

    /// Builds the operator graph for one denoising step over
    /// `workload.batch` images. The `seq_len` of the workload is ignored;
    /// the token count comes from the architecture.
    ///
    /// # Panics
    ///
    /// Panics where [`check_shards`](Self::check_shards) fails.
    #[must_use]
    pub fn build(&self, workload: Workload, shards: u64) -> ModelGraph {
        self.check_shards(shards).unwrap_or_else(|e| panic!("{e}"));
        let dtype = DType::F16;
        let b = workload.batch;
        let t = b * self.tokens; // tokens in flight
        let h = self.hidden;
        let hs = self.heads / shards;
        let d = self.head_dim;
        let i_s = self.mlp_ratio * h / shards;
        let allreduce = dtype.bytes_for(t * h);

        let mut ops = Vec::new();
        let mut layers = Vec::new();

        // Patch + timestep/class conditioning embed.
        ops.push(Operator::new(
            OpId(0),
            "patch_embed".to_string(),
            OpRole::Embed,
            None,
            OpKind::MatMul { m: t, k: 16, n: h },
            dtype,
            OperandSource::HbmWeight,
            dtype.bytes_for(16 * h),
        ));

        for l in 0..self.layers {
            let start = ops.len();
            let pfx = |op: &str| format!("l{l}.{op}");
            let norm = |name: String, rows: u64| {
                Operator::new(
                    OpId(0),
                    name,
                    OpRole::AttnNorm,
                    Some(l),
                    OpKind::RowReduce {
                        rows,
                        cols: h,
                        kind: ReduceKind::LayerNorm,
                    },
                    dtype,
                    OperandSource::None,
                    Bytes::ZERO,
                )
            };

            // adaLN modulation: conditioning vector -> 6 (shift,scale,gate).
            ops.push(Operator::new(
                OpId(0),
                pfx("adaln"),
                OpRole::Modulation,
                Some(l),
                OpKind::MatMul {
                    m: b,
                    k: h,
                    n: 6 * h / shards,
                },
                dtype,
                OperandSource::HbmWeight,
                dtype.bytes_for(h * 6 * h / shards),
            ));
            ops.push(norm(pfx("norm1"), t));
            ops.push(Operator::new(
                OpId(0),
                pfx("modulate1"),
                OpRole::Modulation,
                Some(l),
                OpKind::Elementwise {
                    elems: t * h,
                    arity: 3,
                    kind: UnaryKind::Modulate,
                },
                dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));
            ops.push(Operator::new(
                OpId(0),
                pfx("attn_qkv"),
                OpRole::AttnQkv,
                Some(l),
                OpKind::MatMul {
                    m: t,
                    k: h,
                    n: 3 * hs * d,
                },
                dtype,
                OperandSource::HbmWeight,
                dtype.bytes_for(h * 3 * hs * d),
            ));
            // Full self-attention over on-chip activations.
            let kv = dtype.bytes_for(b * hs * self.tokens * d);
            ops.push(Operator::new(
                OpId(0),
                pfx("attn_scores"),
                OpRole::AttnScores,
                Some(l),
                OpKind::BatchMatMul {
                    batch: b * hs,
                    m: self.tokens,
                    k: d,
                    n: self.tokens,
                },
                dtype,
                OperandSource::OnChip,
                kv,
            ));
            ops.push(Operator::new(
                OpId(0),
                pfx("attn_softmax"),
                OpRole::AttnSoftmax,
                Some(l),
                OpKind::RowReduce {
                    rows: b * hs * self.tokens,
                    cols: self.tokens,
                    kind: ReduceKind::Softmax,
                },
                dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));
            ops.push(Operator::new(
                OpId(0),
                pfx("attn_context"),
                OpRole::AttnContext,
                Some(l),
                OpKind::BatchMatMul {
                    batch: b * hs,
                    m: self.tokens,
                    k: self.tokens,
                    n: d,
                },
                dtype,
                OperandSource::OnChip,
                kv,
            ));
            ops.push(
                Operator::new(
                    OpId(0),
                    pfx("attn_out"),
                    OpRole::AttnOut,
                    Some(l),
                    OpKind::MatMul {
                        m: t,
                        k: hs * d,
                        n: h,
                    },
                    dtype,
                    OperandSource::HbmWeight,
                    dtype.bytes_for(hs * d * h),
                )
                .with_allreduce(allreduce),
            );
            ops.push(Operator::new(
                OpId(0),
                pfx("gate_residual1"),
                OpRole::Residual,
                Some(l),
                OpKind::Elementwise {
                    elems: t * h,
                    arity: 3,
                    kind: UnaryKind::Modulate,
                },
                dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));

            ops.push(norm(pfx("norm2"), t));
            ops.push(Operator::new(
                OpId(0),
                pfx("modulate2"),
                OpRole::Modulation,
                Some(l),
                OpKind::Elementwise {
                    elems: t * h,
                    arity: 3,
                    kind: UnaryKind::Modulate,
                },
                dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));
            ops.push(Operator::new(
                OpId(0),
                pfx("mlp_fc1"),
                OpRole::MlpUp,
                Some(l),
                OpKind::MatMul { m: t, k: h, n: i_s },
                dtype,
                OperandSource::HbmWeight,
                dtype.bytes_for(h * i_s),
            ));
            ops.push(Operator::new(
                OpId(0),
                pfx("mlp_gelu"),
                OpRole::MlpAct,
                Some(l),
                OpKind::Elementwise {
                    elems: t * i_s,
                    arity: 1,
                    kind: UnaryKind::Gelu,
                },
                dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));
            ops.push(
                Operator::new(
                    OpId(0),
                    pfx("mlp_fc2"),
                    OpRole::MlpDown,
                    Some(l),
                    OpKind::MatMul { m: t, k: i_s, n: h },
                    dtype,
                    OperandSource::HbmWeight,
                    dtype.bytes_for(i_s * h),
                )
                .with_allreduce(allreduce),
            );
            ops.push(Operator::new(
                OpId(0),
                pfx("gate_residual2"),
                OpRole::Residual,
                Some(l),
                OpKind::Elementwise {
                    elems: t * h,
                    arity: 3,
                    kind: UnaryKind::Modulate,
                },
                dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));

            layers.push(LayerSpan {
                layer: l,
                ops: start..ops.len(),
            });
        }

        // Final adaLN + linear head back to patches.
        ops.push(Operator::new(
            OpId(0),
            "final_norm".to_string(),
            OpRole::FinalNorm,
            None,
            OpKind::RowReduce {
                rows: t,
                cols: h,
                kind: ReduceKind::LayerNorm,
            },
            dtype,
            OperandSource::None,
            Bytes::ZERO,
        ));
        ops.push(Operator::new(
            OpId(0),
            "final_linear".to_string(),
            OpRole::LmHead,
            None,
            OpKind::MatMul { m: t, k: h, n: 32 },
            dtype,
            OperandSource::HbmWeight,
            dtype.bytes_for(h * 32),
        ));

        ModelGraph::new(self.name.clone(), workload, shards, ops, layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn param_count_near_675m() {
        let p = zoo::dit_xl().param_count() as f64;
        assert!((0.5e9..0.9e9).contains(&p), "DiT-XL params {p:.3e}");
    }

    #[test]
    fn compute_intensity_far_exceeds_llm_decode() {
        let dit = zoo::dit_xl().build(Workload::decode(8, 256), 1);
        let llm = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let intensity = |g: &ModelGraph| g.total_flops().get() / g.total_hbm_load().as_f64();
        assert!(intensity(&dit) > 10.0 * intensity(&llm));
    }

    #[test]
    fn no_kv_cache_traffic() {
        let g = zoo::dit_xl().build(Workload::decode(8, 256), 1);
        assert!(g
            .iter()
            .all(|o| o.stationary() != OperandSource::HbmKvCache));
    }
}
