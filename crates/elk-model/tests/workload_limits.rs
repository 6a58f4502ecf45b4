//! `check_workload` against the graphs it vouches for.
//!
//! For each model family and phase, the largest batch or sequence
//! length the check accepts builds a graph whose every per-operator
//! element, byte and FLOP count is computed without overflow (tests run
//! with overflow checks on), and one step past it is rejected.

use elk_model::{zoo, ModelGraph, Workload};

/// The largest `x` in `1..=u64::MAX` with `ok(x)`, for `ok` true at 1
/// and monotone.
fn largest(ok: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (1u64, u64::MAX);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Computes every count the accounting derives from each operator; any
/// overflow panics.
fn touch_counts(graph: &ModelGraph) {
    for op in graph.iter() {
        let kind = op.kind();
        let _ = (
            kind.input_elems(),
            kind.stationary_elems(),
            kind.output_elems(),
        );
        let _ = (op.flops(), op.stationary_bytes(), op.hbm_load());
        let _ = (op.hbm_store(), op.allreduce());
        let _ = (op.input_bytes(), op.output_bytes());
    }
}

#[test]
fn the_largest_accepted_workload_builds_without_overflow() {
    let llama = zoo::llama2_13b();
    let mixtral = zoo::mixtral_8x7b();
    let dit = zoo::dit_xl();
    type Make = fn(u64) -> Workload;
    let shapes: [(&str, Make); 4] = [
        ("prefill seq_len", |s| Workload::prefill(1, s)),
        ("prefill batch", |b| Workload::prefill(b, 4096)),
        ("decode seq_len", |s| Workload::decode(8, s)),
        ("decode batch", |b| Workload::decode(b, 4096)),
    ];
    for shards in [1, 4] {
        for (what, make) in shapes {
            let x = largest(|x| llama.check_workload(make(x), shards).is_ok());
            touch_counts(&llama.build(make(x), shards));
            assert!(x < u64::MAX, "llama {what} never overflows");

            let x = largest(|x| mixtral.check_workload(make(x), shards).is_ok());
            touch_counts(&mixtral.build(make(x), shards));
            assert!(x < u64::MAX, "mixtral {what} never overflows");
        }
        let b = largest(|b| dit.check_workload(Workload::decode(b, 1), shards).is_ok());
        touch_counts(&dit.build(Workload::decode(b, 1), shards));
        assert!(b < u64::MAX);
    }
}

#[test]
fn overflowing_workloads_are_rejected_naming_their_dimensions() {
    let llama = zoo::llama2_13b();
    for wl in [
        Workload::prefill(1 << 32, 1 << 32),
        Workload::prefill(1 << 31, 1 << 31),
        Workload::decode(u64::MAX, 1),
    ] {
        let err = llama.check_workload(wl, 4).expect_err("overflows");
        assert!(
            err.contains(&format!("batch ({})", wl.batch)) && err.contains("seq_len"),
            "{err}"
        );
    }
    assert!(llama.check_workload(Workload::decode(32, 2048), 4).is_ok());
    assert!(llama.check_workload(Workload::decode(32, 2048), 3).is_err());
}
