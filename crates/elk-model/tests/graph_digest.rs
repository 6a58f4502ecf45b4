//! Whole-graph pins for the model builders.
//!
//! Every operator the compiler schedules comes from the dense, MoE and
//! DiT builders. This suite pins what they emit as one FNV-1a digest per
//! model over the JSON form of each `ModelGraph`: the four dense zoo
//! LLMs in decode, prefill and training, at every shard count in
//! {1, 2, 4, 8, 16} the model splits evenly, as a full build plus three
//! pipeline-stage windows, and Mixtral and DiT-XL over the same phases
//! and shard counts. A refactor of the builders must leave every row
//! unchanged; a deliberate change to a graph re-pins its model's row.

use elk_model::{zoo, ModelGraph, Workload};
use serde::Serialize;

/// 64-bit FNV-1a, chained from `seed`.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    bytes.iter().fold(seed, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds the JSON form of `value` into `digest`.
fn fold<T: Serialize>(digest: u64, value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value).expect("serializes").as_bytes(),
        digest,
    )
}

const PHASES: [fn() -> Workload; 3] = [
    || Workload::decode(16, 2048),
    || Workload::prefill(4, 1024),
    || Workload::training_forward(2, 512),
];

const SHARDS: [u64; 5] = [1, 2, 4, 8, 16];

/// Folds `build(workload, shards)` over every phase and every shard
/// count `check` accepts.
fn digest_over(
    check: impl Fn(u64) -> Result<(), String>,
    build: impl Fn(Workload, u64) -> Vec<ModelGraph>,
) -> u64 {
    let mut d = FNV_OFFSET;
    for phase in PHASES {
        for shards in SHARDS.into_iter().filter(|&s| check(s).is_ok()) {
            for g in build(phase(), shards) {
                d = fold(d, &g);
            }
        }
    }
    d
}

#[test]
fn built_graphs_are_pinned() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for cfg in [
        zoo::llama2_13b(),
        zoo::llama2_70b(),
        zoo::gemma2_27b(),
        zoo::opt_30b(),
    ] {
        let n = cfg.layers;
        let mid = n / 2;
        let d = digest_over(
            |s| cfg.check_shards(s),
            |wl, s| {
                vec![
                    cfg.build(wl, s),
                    cfg.build_stage(wl, s, 0..2, true, false),
                    cfg.build_stage(wl, s, mid - 1..mid + 2, false, false),
                    cfg.build_stage(wl, s, n - 2..n, false, true),
                ]
            },
        );
        got.push((cfg.name, d));
    }
    let moe = zoo::mixtral_8x7b();
    let d = digest_over(|s| moe.check_shards(s), |wl, s| vec![moe.build(wl, s)]);
    got.push((moe.name, d));
    let dit = zoo::dit_xl();
    let d = digest_over(|s| dit.check_shards(s), |wl, s| vec![dit.build(wl, s)]);
    got.push((dit.name, d));

    let want: &[(&str, u64)] = &[
        ("Llama-2-13B", 0x225c6efee42fab5f),
        ("Llama-2-70B", 0xbd3a4a7f55caeb78),
        ("Gemma-2-27B", 0x4dde83bc098fcea8),
        ("OPT-30B", 0x9da5674686b407c6),
        ("Mixtral-8x7B", 0xbfac87fcb6ef66ff),
        ("DiT-XL", 0x5347cef599e6ae2a),
    ];
    let mismatches: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((gn, g), (wn, w))| gn != wn || g != w)
        .map(|((name, g), (_, w))| format!("{name}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert_eq!(got.len(), want.len(), "model list changed");
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
