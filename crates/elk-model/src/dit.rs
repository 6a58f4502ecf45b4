//! Diffusion-transformer (DiT) graphs.
//!
//! DiT-XL (Fig. 23) is compute-intensive: every step processes all latent
//! tokens, attention operands are on-chip activations, and the only
//! HBM-resident tensors are layer weights — so preload efficiency matters
//! less than for LLM decoding, which is exactly the contrast the paper
//! draws.

use serde::{Deserialize, Serialize};

use elk_units::Bytes;

use crate::graph::{GraphBuilder, DTYPE};
use crate::{ModelGraph, OpKind, OpRole, OperandSource, ReduceKind, UnaryKind, Workload};

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
        let batch = workload.batch;
        let tokens = self.tokens;
        let t = batch * tokens; // tokens in flight
        let h = self.hidden;
        let hs = self.heads / shards;
        let d = self.head_dim;
        let i_s = self.mlp_ratio * h / shards;
        let allreduce = DTYPE.bytes_for(t * h);
        let norm = |b: &GraphBuilder, name, role| {
            let kind = OpKind::RowReduce {
                rows: t,
                cols: h,
                kind: ReduceKind::LayerNorm,
            };
            b.free(name, role, kind)
        };
        let modulate = |b: &GraphBuilder, name, role| {
            let kind = OpKind::Elementwise {
                elems: t * h,
                arity: 3,
                kind: UnaryKind::Modulate,
            };
            b.free(name, role, kind)
        };

        let mut b = GraphBuilder::default();
        // Patch + timestep/class conditioning embed.
        b.push(b.matmul("patch_embed", OpRole::Embed, t, 16, h));
        for l in 0..self.layers {
            b.layer(l, |b| {
                // adaLN modulation: conditioning vector -> 6 (shift,scale,gate).
                let adaln = OpKind::MatMul {
                    m: batch,
                    k: h,
                    n: 6 * h / shards,
                };
                let weights = DTYPE.bytes_for(h * 6 * h / shards);
                b.push(b.op(
                    "adaln",
                    OpRole::Modulation,
                    adaln,
                    OperandSource::HbmWeight,
                    weights,
                ));
                b.push(norm(b, "norm1", OpRole::AttnNorm));
                b.push(modulate(b, "modulate1", OpRole::Modulation));
                b.push(b.matmul("attn_qkv", OpRole::AttnQkv, t, h, 3 * hs * d));
                // Full self-attention over on-chip activations.
                let kv = DTYPE.bytes_for(batch * hs * tokens * d);
                b.attention(
                    [batch * hs, tokens, tokens, d],
                    OperandSource::OnChip,
                    kv,
                    Bytes::ZERO,
                );
                b.push(
                    b.matmul("attn_out", OpRole::AttnOut, t, hs * d, h)
                        .with_allreduce(allreduce),
                );
                b.push(modulate(b, "gate_residual1", OpRole::Residual));

                b.push(norm(b, "norm2", OpRole::AttnNorm));
                b.push(modulate(b, "modulate2", OpRole::Modulation));
                b.push(b.matmul("mlp_fc1", OpRole::MlpUp, t, h, i_s));
                let gelu = OpKind::Elementwise {
                    elems: t * i_s,
                    arity: 1,
                    kind: UnaryKind::Gelu,
                };
                b.push(b.free("mlp_gelu", OpRole::MlpAct, gelu));
                b.push(
                    b.matmul("mlp_fc2", OpRole::MlpDown, t, i_s, h)
                        .with_allreduce(allreduce),
                );
                b.push(modulate(b, "gate_residual2", OpRole::Residual));
            });
        }
        // Final adaLN + linear head back to patches.
        b.push(norm(&b, "final_norm", OpRole::FinalNorm));
        b.push(b.matmul("final_linear", OpRole::LmHead, t, h, 32));
        b.finish(self.name.clone(), workload, shards)
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
