use serde::{Deserialize, Serialize};

use elk_units::Bytes;

use crate::{
    DType, LayerSpan, ModelGraph, OpId, OpKind, OpRole, OperandSource, Operator, Phase, ReduceKind,
    UnaryKind, Workload,
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

        let mut b = GraphBuilder::new(self, workload, shards);
        b.embed();
        for layer in 0..self.layers {
            b.layer(layer);
        }
        b.head();
        b.finish(self.name.clone())
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
        layers: std::ops::Range<u32>,
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

        let mut b = GraphBuilder::new(self, workload, shards);
        if embed {
            b.embed();
        }
        for layer in layers.clone() {
            b.layer(layer);
        }
        if head {
            b.head();
        }
        b.finish(format!(
            "{}[l{}..{}{}{}]",
            self.name,
            layers.start,
            layers.end,
            if embed { "+embed" } else { "" },
            if head { "+head" } else { "" },
        ))
    }
}

/// Incremental graph assembly shared by the LLM and DiT builders.
pub(crate) struct GraphBuilder<'a> {
    cfg: &'a TransformerConfig,
    wl: Workload,
    shards: u64,
    dtype: DType,
    ops: Vec<Operator>,
    layers: Vec<LayerSpan>,
}

impl<'a> GraphBuilder<'a> {
    fn new(cfg: &'a TransformerConfig, wl: Workload, shards: u64) -> Self {
        GraphBuilder {
            cfg,
            wl,
            shards,
            dtype: DType::F16,
            ops: Vec::new(),
            layers: Vec::new(),
        }
    }

    /// Tokens flowing through row dimensions this step.
    fn tokens(&self) -> u64 {
        self.wl.tokens_in_flight()
    }

    /// Query heads per shard.
    fn heads_s(&self) -> u64 {
        self.cfg.heads / self.shards
    }

    /// KV heads per shard (replicated when there are fewer KV heads than
    /// shards, as real GQA tensor-parallel deployments do).
    fn kv_heads_s(&self) -> u64 {
        (self.cfg.kv_heads / self.shards).max(1)
    }

    fn push(&mut self, op: Operator) {
        self.ops.push(op);
    }

    fn weight_matmul(
        &mut self,
        name: String,
        role: OpRole,
        layer: Option<u32>,
        m: u64,
        k: u64,
        n: u64,
    ) -> usize {
        let w = self.dtype.bytes_for(k * n);
        self.push(Operator::new(
            OpId(0),
            name,
            role,
            layer,
            OpKind::MatMul { m, k, n },
            self.dtype,
            OperandSource::HbmWeight,
            w,
        ));
        self.ops.len() - 1
    }

    fn norm(&mut self, name: String, role: OpRole, layer: Option<u32>, rows: u64, cols: u64) {
        self.push(Operator::new(
            OpId(0),
            name,
            role,
            layer,
            OpKind::RowReduce {
                rows,
                cols,
                kind: self.cfg.norm.reduce_kind(),
            },
            self.dtype,
            OperandSource::HbmWeight,
            self.dtype.bytes_for(cols), // scale (and shift) vector
        ));
    }

    fn elementwise(
        &mut self,
        name: String,
        role: OpRole,
        layer: Option<u32>,
        elems: u64,
        arity: u64,
        kind: UnaryKind,
    ) {
        self.push(Operator::new(
            OpId(0),
            name,
            role,
            layer,
            OpKind::Elementwise { elems, arity, kind },
            self.dtype,
            OperandSource::None,
            Bytes::ZERO,
        ));
    }

    fn embed(&mut self) {
        let h = self.cfg.hidden;
        self.push(Operator::new(
            OpId(0),
            "embed".to_string(),
            OpRole::Embed,
            None,
            OpKind::Gather {
                rows: self.tokens(),
                width: h,
                table_rows: self.cfg.vocab / self.shards,
            },
            self.dtype,
            OperandSource::HbmWeight,
            self.dtype.bytes_for(self.cfg.vocab / self.shards * h),
        ));
    }

    fn layer(&mut self, layer: u32) {
        let start = self.ops.len();
        let cfg = self.cfg;
        let t = self.tokens();
        let h = cfg.hidden;
        let d = cfg.head_dim;
        let hs = self.heads_s();
        let kvs = self.kv_heads_s();
        let s = self.wl.seq_len;
        let l = layer;
        let pfx = |op: &str| format!("l{l}.{op}");

        // --- attention ---
        self.norm(pfx("attn_norm"), OpRole::AttnNorm, Some(l), t, h);
        self.weight_matmul(
            pfx("attn_qkv"),
            OpRole::AttnQkv,
            Some(l),
            t,
            h,
            (hs + 2 * kvs) * d,
        );
        if cfg.rope {
            self.elementwise(
                pfx("rope"),
                OpRole::Rope,
                Some(l),
                t * (hs + kvs) * d,
                1,
                UnaryKind::Rope,
            );
        }

        if self.wl.phase.reads_kv_cache() {
            // Decode: append the new K/V token, then attend over the cached
            // sequence read from HBM.
            let kv_new = self.dtype.bytes_for(self.wl.batch * 2 * kvs * d);
            let append = Operator::new(
                OpId(0),
                pfx("kv_append"),
                OpRole::KvAppend,
                Some(l),
                OpKind::Elementwise {
                    elems: self.wl.batch * 2 * kvs * d,
                    arity: 1,
                    kind: UnaryKind::Copy,
                },
                self.dtype,
                OperandSource::None,
                Bytes::ZERO,
            )
            .with_hbm_store(kv_new);
            self.push(append);

            let kv_slice = self.dtype.bytes_for(self.wl.batch * kvs * d * s);
            self.push(Operator::new(
                OpId(0),
                pfx("attn_scores"),
                OpRole::AttnScores,
                Some(l),
                OpKind::BatchMatMul {
                    batch: self.wl.batch * hs,
                    m: 1,
                    k: d,
                    n: s,
                },
                self.dtype,
                OperandSource::HbmKvCache,
                kv_slice,
            ));
            self.push(Operator::new(
                OpId(0),
                pfx("attn_softmax"),
                OpRole::AttnSoftmax,
                Some(l),
                OpKind::RowReduce {
                    rows: self.wl.batch * hs,
                    cols: s,
                    kind: ReduceKind::Softmax,
                },
                self.dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));
            self.push(Operator::new(
                OpId(0),
                pfx("attn_context"),
                OpRole::AttnContext,
                Some(l),
                OpKind::BatchMatMul {
                    batch: self.wl.batch * hs,
                    m: 1,
                    k: s,
                    n: d,
                },
                self.dtype,
                OperandSource::HbmKvCache,
                kv_slice,
            ));
        } else {
            // Prefill / training: full self-attention over on-chip K/V.
            let store = if self.wl.phase == Phase::Prefill {
                self.dtype.bytes_for(self.wl.batch * 2 * kvs * d * s)
            } else {
                Bytes::ZERO
            };
            let scores_kv = self.dtype.bytes_for(self.wl.batch * kvs * d * s);
            let scores = Operator::new(
                OpId(0),
                pfx("attn_scores"),
                OpRole::AttnScores,
                Some(l),
                OpKind::BatchMatMul {
                    batch: self.wl.batch * hs,
                    m: s,
                    k: d,
                    n: s,
                },
                self.dtype,
                OperandSource::OnChip,
                scores_kv,
            )
            .with_hbm_store(store);
            self.push(scores);
            self.push(Operator::new(
                OpId(0),
                pfx("attn_softmax"),
                OpRole::AttnSoftmax,
                Some(l),
                OpKind::RowReduce {
                    rows: self.wl.batch * hs * s,
                    cols: s,
                    kind: ReduceKind::Softmax,
                },
                self.dtype,
                OperandSource::None,
                Bytes::ZERO,
            ));
            self.push(Operator::new(
                OpId(0),
                pfx("attn_context"),
                OpRole::AttnContext,
                Some(l),
                OpKind::BatchMatMul {
                    batch: self.wl.batch * hs,
                    m: s,
                    k: s,
                    n: d,
                },
                self.dtype,
                OperandSource::OnChip,
                scores_kv,
            ));
        }

        let i = self.weight_matmul(pfx("attn_out"), OpRole::AttnOut, Some(l), t, hs * d, h);
        // Row-parallel projection: partial sums reduced across chips.
        let allreduce = self.dtype.bytes_for(t * h);
        self.ops[i] = self.ops[i].clone().with_allreduce(allreduce);

        if cfg.post_norms {
            self.norm(pfx("post_attn_norm"), OpRole::PostNorm, Some(l), t, h);
        }
        self.elementwise(
            pfx("attn_residual"),
            OpRole::Residual,
            Some(l),
            t * h,
            2,
            UnaryKind::Add,
        );

        // --- FFN ---
        self.norm(pfx("mlp_norm"), OpRole::MlpNorm, Some(l), t, h);
        let i_s = cfg.intermediate / self.shards;
        let up_cols = if cfg.glu { 2 * i_s } else { i_s };
        self.weight_matmul(pfx("mlp_up"), OpRole::MlpUp, Some(l), t, h, up_cols);
        self.elementwise(
            pfx("mlp_act"),
            OpRole::MlpAct,
            Some(l),
            t * i_s,
            if cfg.glu { 2 } else { 1 },
            if cfg.glu {
                UnaryKind::Silu
            } else {
                UnaryKind::Gelu
            },
        );
        let i = self.weight_matmul(pfx("mlp_down"), OpRole::MlpDown, Some(l), t, i_s, h);
        self.ops[i] = self.ops[i].clone().with_allreduce(allreduce);

        if cfg.post_norms {
            self.norm(pfx("post_mlp_norm"), OpRole::PostNorm, Some(l), t, h);
        }
        self.elementwise(
            pfx("mlp_residual"),
            OpRole::Residual,
            Some(l),
            t * h,
            2,
            UnaryKind::Add,
        );

        self.layers.push(LayerSpan {
            layer,
            ops: start..self.ops.len(),
        });
    }

    fn head(&mut self) {
        let t = self.tokens();
        let h = self.cfg.hidden;
        self.norm("final_norm".to_string(), OpRole::FinalNorm, None, t, h);
        self.weight_matmul(
            "lm_head".to_string(),
            OpRole::LmHead,
            None,
            t,
            h,
            self.cfg.vocab / self.shards,
        );
    }

    fn finish(self, name: String) -> ModelGraph {
        ModelGraph::new(name, self.wl, self.shards, self.ops, self.layers)
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
