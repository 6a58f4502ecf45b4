//! Whole-graph pins for the model builders.
//!
//! Every operator the compiler schedules comes from the dense, MoE and
//! DiT builders. This suite pins what they emit as one FNV-1a digest per
//! model over the JSON form of each `ModelGraph`: the four dense zoo
//! LLMs in decode, prefill and training, at every shard count in
//! {1, 2, 4, 8, 16} the model splits evenly, as a full build plus three
//! pipeline-stage windows, and Mixtral and DiT-XL over the same phases
//! and shard counts. A refactor of the builders must leave every row
//! unchanged; a deliberate change to a graph re-pins its model's row in
//! `tests/pins/graph.pins`.

use elk_model::{zoo, ModelGraph, Workload};
use elk_pins::{fold_json, Pins, OFFSET};

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
    let mut d = OFFSET;
    for phase in PHASES {
        for shards in SHARDS.into_iter().filter(|&s| check(s).is_ok()) {
            for g in build(phase(), shards) {
                d = fold_json(d, &g);
            }
        }
    }
    d
}

#[test]
fn built_graphs_are_pinned() {
    let mut pins = Pins::new("graph", "graphs");
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
        pins.add(cfg.name, d);
    }
    let moe = zoo::mixtral_8x7b();
    let d = digest_over(|s| moe.check_shards(s), |wl, s| vec![moe.build(wl, s)]);
    pins.add(moe.name, d);
    let dit = zoo::dit_xl();
    let d = digest_over(|s| dit.check_shards(s), |wl, s| vec![dit.build(wl, s)]);
    pins.add(dit.name, d);
    pins.check();
}
