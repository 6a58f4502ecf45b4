use std::ops::Range;

use serde::{Deserialize, Serialize};

use elk_units::Bytes;

use crate::graph::{GraphBuilder, DTYPE};
use crate::{
    ModelGraph, OpKind, OpRole, OperandSource, Operator, Phase, ReduceKind, UnaryKind, Workload,
};

/// Normalization flavour of a transformer architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NormKind {
    /// RMSNorm (Llama, Gemma).
    Rms,
    /// LayerNorm (OPT, DiT).
    Layer,
}

impl NormKind {
    fn reduce_kind(self) -> ReduceKind {
        match self {
            NormKind::Rms => ReduceKind::RmsNorm,
            NormKind::Layer => ReduceKind::LayerNorm,
        }
    }
}

/// Architecture hyper-parameters of a decoder-only transformer.
///
/// `build` synthesizes the per-chip-shard operator graph the paper's ONNX
/// frontend would extract: heads and FFN columns are split `shards` ways
/// (Megatron-style tensor parallelism), and the row-parallel projections
/// record the all-reduce volume they trigger.
///
/// # Examples
///
/// ```
/// use elk_model::{TransformerConfig, NormKind, Workload};
///
/// let cfg = TransformerConfig {
///     name: "toy".into(),
///     layers: 2,
///     hidden: 256,
///     heads: 8,
///     kv_heads: 8,
///     head_dim: 32,
///     intermediate: 1024,
///     vocab: 1000,
///     glu: true,
///     norm: NormKind::Rms,
///     rope: true,
///     post_norms: false,
/// };
/// let g = cfg.build(Workload::decode(4, 128), 1);
/// assert_eq!(g.layer_spans().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct TransformerConfig {
    /// Model name.
    pub name: String,
    /// Number of transformer layers.
    pub layers: u32,
    /// Model (embedding) dimension.
    pub hidden: u64,
    /// Query heads.
    pub heads: u64,
    /// Key/value heads (`< heads` for grouped-query attention).
    pub kv_heads: u64,
    /// Per-head dimension.
    pub head_dim: u64,
    /// FFN intermediate dimension.
    pub intermediate: u64,
    /// Vocabulary size.
    pub vocab: u64,
    /// Gated FFN (SwiGLU) vs plain two-matrix FFN.
    pub glu: bool,
    /// Normalization flavour.
    pub norm: NormKind,
    /// Rotary positional embeddings.
    pub rope: bool,
    /// Post-attention / post-FFN norms (Gemma-2).
    pub post_norms: bool,
}

impl TransformerConfig {
    /// Approximate parameter count of the full (un-sharded) model.
    #[must_use]
    pub fn param_count(&self) -> u64 {
        let h = self.hidden;
        let qkv = h * (self.heads + 2 * self.kv_heads) * self.head_dim;
        let out = self.heads * self.head_dim * h;
        let ffn = if self.glu {
            3 * h * self.intermediate
        } else {
            2 * h * self.intermediate
        };
        let per_layer = qkv + out + ffn;
        self.layers as u64 * per_layer + 2 * self.vocab * h
    }

    /// Checks that `shards`-way tensor parallelism splits this model
    /// evenly: the shard count must divide `heads` and `intermediate`
    /// (KV heads need not divide; fewer than `shards` are replicated).
    ///
    /// # Errors
    ///
    /// Returns a message naming the shard count and the dimension it
    /// does not divide.
    pub fn check_shards(&self, shards: u64) -> Result<(), String> {
        crate::check_split(
            shards,
            &[("heads", self.heads), ("intermediate", self.intermediate)],
        )
    }

    /// Builds the per-shard operator graph for `workload` running
    /// tensor-parallel over `shards` chips.
    ///
    /// # Panics
    ///
    /// Panics where [`check_shards`](Self::check_shards) fails.
    #[must_use]
    pub fn build(&self, workload: Workload, shards: u64) -> ModelGraph {
        self.check_shards(shards).unwrap_or_else(|e| panic!("{e}"));
        let t = workload.tokens_in_flight();
        self.emit(workload, shards, 0..self.layers, true, true, |b| {
            self.ffn(b, t, shards, "mlp_");
        })
        .finish(self.name.clone(), workload, shards)
    }

    /// Builds the operator graph of **one pipeline stage**: the layers in
    /// `layers` (absolute indices), tensor-parallel over `shards` chips,
    /// with the embedding prologue when `embed` is set and the final
    /// norm + LM head when `head` is set. Concatenating every stage of a
    /// partition reproduces [`build`](Self::build) operator for operator
    /// — the invariant the cluster planner's tests pin.
    ///
    /// # Panics
    ///
    /// Panics where [`check_shards`](Self::check_shards) fails, on an
    /// out-of-range layer window, or on an
    /// empty stage (no layers, no embedding, no head).
    #[must_use]
    pub fn build_stage(
        &self,
        workload: Workload,
        shards: u64,
        layers: Range<u32>,
        embed: bool,
        head: bool,
    ) -> ModelGraph {
        self.check_shards(shards).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            layers.end <= self.layers && layers.start <= layers.end,
            "stage layers {layers:?} out of range for a {}-layer model",
            self.layers
        );
        assert!(
            embed || head || !layers.is_empty(),
            "a pipeline stage must contain at least one operator"
        );
        let name = format!(
            "{}[l{}..{}{}{}]",
            self.name,
            layers.start,
            layers.end,
            if embed { "+embed" } else { "" },
            if head { "+head" } else { "" },
        );
        let t = workload.tokens_in_flight();
        self.emit(workload, shards, layers, embed, head, |b| {
            self.ffn(b, t, shards, "mlp_");
        })
        .finish(name, workload, shards)
    }

    /// Emits the layers in `layers`, after the embedding when `embed` is
    /// set and before the final norm + LM head when `head` is set, with
    /// `ffn` emitting each layer's feed-forward block.
    pub(crate) fn emit(
        &self,
        workload: Workload,
        shards: u64,
        layers: Range<u32>,
        embed: bool,
        head: bool,
        ffn: impl Fn(&mut GraphBuilder),
    ) -> GraphBuilder {
        let mut b = GraphBuilder::default();
        let t = workload.tokens_in_flight();
        let (h, vocab_s) = (self.hidden, self.vocab / shards);
        if embed {
            let gather = OpKind::Gather {
                rows: t,
                width: h,
                table_rows: vocab_s,
            };
            let table = DTYPE.bytes_for(vocab_s * h);
            b.push(b.op(
                "embed",
                OpRole::Embed,
                gather,
                OperandSource::HbmWeight,
                table,
            ));
        }
        for layer in layers {
            b.layer(layer, |b| self.layer(b, workload, shards, &ffn));
        }
        if head {
            b.push(self.norm(&b, "final_norm", OpRole::FinalNorm, t));
            b.push(b.matmul("lm_head", OpRole::LmHead, t, h, vocab_s));
        }
        b
    }

    /// One transformer layer: attention, then `ffn` between the FFN norm
    /// and the residual add.
    fn layer(
        &self,
        b: &mut GraphBuilder,
        wl: Workload,
        shards: u64,
        ffn: impl Fn(&mut GraphBuilder),
    ) {
        let t = wl.tokens_in_flight();
        let (h, d, s) = (self.hidden, self.head_dim, wl.seq_len);
        let hs = self.heads / shards;
        // KV heads per shard, replicated when there are fewer KV heads than
        // shards, as real GQA tensor-parallel deployments do.
        let kvs = (self.kv_heads / shards).max(1);
        let residual = OpKind::Elementwise {
            elems: t * h,
            arity: 2,
            kind: UnaryKind::Add,
        };

        b.push(self.norm(b, "attn_norm", OpRole::AttnNorm, t));
        b.push(b.matmul("attn_qkv", OpRole::AttnQkv, t, h, (hs + 2 * kvs) * d));
        if self.rope {
            let rope = OpKind::Elementwise {
                elems: t * (hs + kvs) * d,
                arity: 1,
                kind: UnaryKind::Rope,
            };
            b.push(b.free("rope", OpRole::Rope, rope));
        }
        let kv = DTYPE.bytes_for(wl.batch * kvs * d * s);
        if wl.phase.reads_kv_cache() {
            // Decode: append the new K/V token, then attend over the cached
            // sequence read from HBM.
            let new = wl.batch * 2 * kvs * d;
            let append = OpKind::Elementwise {
                elems: new,
                arity: 1,
                kind: UnaryKind::Copy,
            };
            b.push(
                b.free("kv_append", OpRole::KvAppend, append)
                    .with_hbm_store(DTYPE.bytes_for(new)),
            );
            b.attention(
                [wl.batch * hs, 1, s, d],
                OperandSource::HbmKvCache,
                kv,
                Bytes::ZERO,
            );
        } else {
            // Prefill / training: full self-attention over on-chip K/V;
            // prefill writes the K/V cache back.
            let store = if wl.phase == Phase::Prefill {
                DTYPE.bytes_for(wl.batch * 2 * kvs * d * s)
            } else {
                Bytes::ZERO
            };
            b.attention([wl.batch * hs, s, s, d], OperandSource::OnChip, kv, store);
        }
        // Row-parallel projection: partial sums reduced across chips.
        let allreduce = DTYPE.bytes_for(t * h);
        b.push(
            b.matmul("attn_out", OpRole::AttnOut, t, hs * d, h)
                .with_allreduce(allreduce),
        );
        if self.post_norms {
            b.push(self.norm(b, "post_attn_norm", OpRole::PostNorm, t));
        }
        b.push(b.free("attn_residual", OpRole::Residual, residual));

        b.push(self.norm(b, "mlp_norm", OpRole::MlpNorm, t));
        ffn(b);
        if self.post_norms {
            b.push(self.norm(b, "post_mlp_norm", OpRole::PostNorm, t));
        }
        b.push(b.free("mlp_residual", OpRole::Residual, residual));
    }

    /// The FFN over `t` tokens, its operators named `{prefix}up`,
    /// `{prefix}act` and `{prefix}down`; the row-parallel down projection
    /// carries its all-reduce.
    pub(crate) fn ffn(&self, b: &mut GraphBuilder, t: u64, shards: u64, prefix: &str) {
        let (h, i_s) = (self.hidden, self.intermediate / shards);
        let (up_cols, arity, kind) = if self.glu {
            (2 * i_s, 2, UnaryKind::Silu)
        } else {
            (i_s, 1, UnaryKind::Gelu)
        };
        let act = OpKind::Elementwise {
            elems: t * i_s,
            arity,
            kind,
        };
        let allreduce = DTYPE.bytes_for(t * h);
        b.push(b.matmul(&format!("{prefix}up"), OpRole::MlpUp, t, h, up_cols));
        b.push(b.free(&format!("{prefix}act"), OpRole::MlpAct, act));
        b.push(
            b.matmul(&format!("{prefix}down"), OpRole::MlpDown, t, i_s, h)
                .with_allreduce(allreduce),
        );
    }

    /// A norm over `rows` rows of `hidden`, loading its scale vector.
    fn norm(&self, b: &GraphBuilder, name: &str, role: OpRole, rows: u64) -> Operator {
        let kind = OpKind::RowReduce {
            rows,
            cols: self.hidden,
            kind: self.norm.reduce_kind(),
        };
        let scale = DTYPE.bytes_for(self.hidden);
        b.op(name, role, kind, OperandSource::HbmWeight, scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn llama_layer_structure_repeats() {
        let g = zoo::llama2_13b().build(Workload::decode(8, 512), 4);
        let spans = g.layer_spans();
        assert_eq!(spans.len(), 40);
        let width = spans[0].ops.len();
        for s in spans {
            assert_eq!(s.ops.len(), width, "layer {} differs", s.layer);
        }
        // Identical layers: same kinds and sizes across layers 0 and 1.
        let (a, b) = (&spans[0], &spans[1]);
        for (x, y) in g.ops()[a.ops.clone()].iter().zip(&g.ops()[b.ops.clone()]) {
            assert_eq!(x.kind(), y.kind());
            assert_eq!(x.stationary_bytes(), y.stationary_bytes());
        }
    }

    #[test]
    fn parameter_count_matches_model_scale() {
        // Published sizes are approximate; accept ±15%.
        for (cfg, nominal) in [
            (zoo::llama2_13b(), 13e9),
            (zoo::llama2_70b(), 70e9),
            (zoo::opt_30b(), 30e9),
            (zoo::gemma2_27b(), 27e9),
        ] {
            let p = cfg.param_count() as f64;
            let ratio = p / nominal;
            assert!(
                (0.8..=1.2).contains(&ratio),
                "{}: {p:.3e} vs nominal {nominal:.1e}",
                cfg.name
            );
        }
    }

    #[test]
    fn sharded_weights_sum_to_full_model() {
        let cfg = zoo::llama2_13b();
        let wl = Workload::decode(4, 128);
        let w4 = cfg.build(wl, 4).weight_bytes();
        let w1 = cfg.build(wl, 1).weight_bytes();
        let ratio = w1.as_f64() / w4.as_f64();
        assert!(
            (3.8..=4.2).contains(&ratio),
            "4-way shard should hold ~1/4 of weights (ratio {ratio})"
        );
    }

    #[test]
    fn decode_reads_kv_cache_training_does_not() {
        let cfg = zoo::llama2_13b();
        let dec = cfg.build(Workload::decode(32, 2048), 4);
        let trn = cfg.build(Workload::training_forward(4, 2048), 4);
        let kv_dec: u64 = dec
            .iter()
            .filter(|o| o.stationary() == OperandSource::HbmKvCache)
            .map(|o| o.hbm_load().get())
            .sum();
        let kv_trn: u64 = trn
            .iter()
            .filter(|o| o.stationary() == OperandSource::HbmKvCache)
            .map(|o| o.hbm_load().get())
            .sum();
        assert!(kv_dec > 0);
        assert_eq!(kv_trn, 0);
        // KV cache K+V per shard: batch*seq*kv_heads_s*dim*2*2B per layer.
        let expect = 32 * 2048 * (40 / 4) * 128 * 2 * 2 * 40;
        assert_eq!(kv_dec, expect);
    }

    #[test]
    fn gqa_loads_less_kv_than_mha() {
        let wl = Workload::decode(32, 2048);
        let mha = zoo::llama2_13b().build(wl, 4); // 40 kv heads
        let gqa = zoo::llama2_70b().build(wl, 4); // 8 kv heads
        let kv = |g: &ModelGraph| {
            g.iter()
                .filter(|o| o.stationary() == OperandSource::HbmKvCache)
                .map(|o| o.hbm_load().get())
                .sum::<u64>() as f64
                / g.layer_spans().len() as f64
        };
        assert!(
            kv(&gqa) < kv(&mha) / 2.0,
            "GQA must load much less KV per layer"
        );
    }

    #[test]
    fn training_is_compute_intensive() {
        let cfg = zoo::llama2_13b();
        let dec = cfg.build(Workload::decode(32, 2048), 4);
        let trn = cfg.build(Workload::training_forward(4, 2048), 4);
        let intensity = |g: &ModelGraph| g.total_flops().get() / g.total_hbm_load().as_f64();
        assert!(intensity(&trn) > 20.0 * intensity(&dec));
    }

    #[test]
    fn stage_concatenation_reproduces_the_full_graph() {
        let cfg = {
            let mut c = zoo::llama2_13b();
            c.layers = 5;
            c
        };
        let wl = Workload::decode(8, 512);
        let full = cfg.build(wl, 4);
        // A 2-stage split: layers 0..3 with the embedding, 3..5 with the
        // head.
        let s0 = cfg.build_stage(wl, 4, 0..3, true, false);
        let s1 = cfg.build_stage(wl, 4, 3..5, false, true);
        assert_eq!(s0.len() + s1.len(), full.len());
        let concat: Vec<_> = s0.ops().iter().chain(s1.ops()).collect();
        for (a, b) in concat.iter().zip(full.ops()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.stationary_bytes(), b.stationary_bytes());
            assert_eq!(a.allreduce(), b.allreduce());
        }
        assert_eq!(s0.layer_spans().len(), 3);
        assert_eq!(s1.layer_spans().len(), 2);
        assert_eq!(s1.layer_spans()[0].layer, 3, "absolute layer indices");
        assert!(s0.name().contains("+embed"));
        assert!(s1.name().contains("+head"));
    }

    #[test]
    fn equal_shaped_interior_stages_are_identical_graphs_up_to_names() {
        let cfg = {
            let mut c = zoo::llama2_13b();
            c.layers = 6;
            c
        };
        let wl = Workload::decode(8, 512);
        let a = cfg.build_stage(wl, 4, 2..4, false, false);
        let b = cfg.build_stage(wl, 4, 2..4, false, false);
        assert_eq!(a, b, "stage building is deterministic");
        let c = cfg.build_stage(wl, 4, 4..6, false, false);
        assert_eq!(a.len(), c.len());
        assert_eq!(a.weight_bytes(), c.weight_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one operator")]
    fn empty_stage_rejected() {
        let cfg = zoo::llama2_13b();
        let _ = cfg.build_stage(Workload::decode(1, 16), 4, 2..2, false, false);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_stage_rejected() {
        let mut cfg = zoo::llama2_13b();
        cfg.layers = 2;
        let _ = cfg.build_stage(Workload::decode(1, 16), 4, 1..3, false, false);
    }

    #[test]
    fn allreduce_recorded_on_row_parallel_ops() {
        let g = zoo::llama2_13b().build(Workload::decode(8, 128), 4);
        let n = g.iter().filter(|o| !o.allreduce().is_zero()).count();
        assert_eq!(n, 2 * 40, "attn_out and mlp_down per layer");
    }
}
