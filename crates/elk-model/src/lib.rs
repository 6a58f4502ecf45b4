//! Deep-learning model graphs for the Elk compiler framework.
//!
//! The paper's Elk frontend ingests PyTorch models through ONNX (§5). This
//! workspace has no ONNX ecosystem, so the crate *synthesizes* operator
//! graphs directly from published architecture hyper-parameters — which is
//! exactly the information Elk extracts from an ONNX graph: operator types,
//! tensor shapes, HBM-resident operand sizes, and the sequential execution
//! order.
//!
//! Graphs are built **per chip shard**: a multi-chip ICCA system runs tensor
//! parallelism (heads and FFN columns split across chips, §5 emulation
//! framework), so the compiler plans one chip's shard and records the
//! all-reduce volume each row-parallel operator requires.
//!
//! ```
//! use elk_model::{zoo, Phase, Workload};
//!
//! let wl = Workload::decode(32, 2048);
//! let graph = zoo::llama2_13b().build(wl, 4); // 4-way tensor parallel
//! assert_eq!(graph.workload().phase, Phase::Decode);
//! assert!(graph.total_hbm_load().get() > 0);
//! ```

#![warn(missing_docs)]

mod bucket;
mod dtype;
mod graph;
mod op;
mod stats;
mod transformer;
mod workload;

pub mod dit;
pub mod moe;
pub mod zoo;

pub use bucket::{pow2_at_least, SeqBuckets};
pub use dtype::DType;
pub use graph::{LayerSpan, ModelGraph};
pub use op::{OpId, OpKind, OpRole, OperandSource, Operator, ReduceKind, UnaryKind};
pub use stats::GraphStats;
pub use transformer::{NormKind, TransformerConfig};
pub use workload::{Phase, Workload};

/// The largest factor a per-shard element count is multiplied by on its
/// way to a byte or FLOP count: 2 bytes per f16 element of an arity-2
/// input, or up to 8 FLOPs per element.
const PER_ELEMENT_MAX: u64 = 8;

/// `check_workload`: each per-shard element count of `name`'s graph for
/// `workload`, given as its factors in `counts`, fits in a `u64` even
/// after [`PER_ELEMENT_MAX`].
fn check_counts(
    name: &str,
    workload: Workload,
    shards: u64,
    counts: &[&[u64]],
) -> Result<(), String> {
    let fits = |factors: &&[u64]| {
        factors
            .iter()
            .try_fold(PER_ELEMENT_MAX, |n, &f| n.checked_mul(f))
            .is_some()
    };
    if counts.iter().all(fits) {
        return Ok(());
    }
    let Workload { batch, seq_len, .. } = workload;
    Err(format!(
        "batch ({batch}) and seq_len ({seq_len}) overflow the 64-bit \
         element and byte counts of {name} at {shards} shard(s)"
    ))
}

/// The tensor-parallel split rule behind each model config's
/// `check_shards`: `shards` is non-zero and divides every named dim.
///
/// # Errors
///
/// Returns a message naming the shard count and a dim it leaves uneven.
pub fn check_split(shards: u64, dims: &[(&str, u64)]) -> Result<(), String> {
    if shards == 0 {
        return Err("shards must be > 0".into());
    }
    match dims.iter().find(|&&(_, d)| !d.is_multiple_of(shards)) {
        Some((name, d)) => Err(format!(
            "shards ({shards}) must divide the model's {name} ({d})"
        )),
        None => Ok(()),
    }
}
