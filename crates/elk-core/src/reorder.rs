use serde::{Deserialize, Serialize};

use elk_model::{ModelGraph, OpId};
use elk_units::Bytes;

use crate::Catalog;

/// Preload-order search knobs (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReorderOptions {
    /// Enable reordering (disabled = Elk-Dyn).
    pub enable: bool,
    /// Maximum candidate orders to evaluate (identity included).
    pub max_orders: usize,
    /// Cap on the edit distance (Kendall-tau adjacent-swap steps) of the
    /// per-layer heavy-operator permutation; `None` explores all `H!`.
    pub max_edit_distance: Option<usize>,
}

impl Default for ReorderOptions {
    fn default() -> Self {
        ReorderOptions {
            enable: true,
            max_orders: 48,
            max_edit_distance: Some(4),
        }
    }
}

/// A candidate preload order: the full-model π plus bookkeeping about the
/// per-layer permutation it was derived from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateOrder {
    /// Preload issue order over all operators.
    pub order: Vec<OpId>,
    /// Edit distance (inversions) of the per-layer heavy permutation.
    pub edit_distance: usize,
}

/// Generates candidate preload orders using the paper's pruning (§4.4):
///
/// * only HBM-heavy operators are reordered — the rest preload in
///   execution order;
/// * the permutation is chosen within one transformer layer and applied
///   to all identical layers, shrinking the space from `O(K^N)` to
///   `O(C^H)`;
/// * permutations whose worst-case co-resident heavy set cannot fit
///   on-chip are pruned (the suffix-walk feasibility check of Fig. 14);
/// * candidates are explored in increasing edit distance (the paper's
///   chosen orders average 2.9 steps from identity).
///
/// The identity order is always the first candidate.
#[must_use]
pub fn candidate_orders(
    graph: &ModelGraph,
    catalog: &Catalog,
    capacity: Bytes,
    opts: &ReorderOptions,
) -> Vec<CandidateOrder> {
    let n = graph.len();
    let identity = CandidateOrder {
        order: (0..n).map(OpId).collect(),
        edit_distance: 0,
    };
    if !opts.enable || opts.max_orders <= 1 {
        return vec![identity];
    }

    // Heavy slots of every layer, found once: a candidate permutes each
    // layer shaped like the representative (interior, so identical) one
    // and leaves boundary layers of another shape in identity.
    let heavy = graph.hbm_heavy_ops();
    let layer_slots: Vec<Vec<usize>> = graph
        .layer_spans()
        .iter()
        .map(|span| {
            heavy
                .iter()
                .map(|id| id.index())
                .filter(|i| span.ops.contains(i))
                .collect()
        })
        .collect();
    let Some(slots) = layer_slots.get(1).or_else(|| layer_slots.first()) else {
        return vec![identity];
    };
    let h = slots.len();
    if !(2..=8).contains(&h) {
        return vec![identity];
    }

    // Worst-case footprint of each heavy op: its smallest preload space
    // over the execute frontier (the most forgiving choice — pruning must
    // not discard orders Elk could still allocate).
    let min_space: Vec<Bytes> = slots
        .iter()
        .map(|&i| {
            let plans = catalog.op(OpId(i));
            (0..plans.exec_frontier.len())
                .map(|f| plans.min_preload_space(f))
                .min()
                .unwrap_or(Bytes::ZERO)
        })
        .collect();

    let perms = layer_permutations(h, opts.max_edit_distance, opts.max_orders, |p| {
        order_fits(p, &min_space, capacity)
    });
    let permuted: Vec<&[usize]> = layer_slots
        .iter()
        .filter(|slots| slots.len() == h)
        .map(Vec::as_slice)
        .collect();
    let mut out = vec![identity];
    out.extend(perms.into_iter().map(|p| CandidateOrder {
        order: apply_layer_perm(n, &permuted, &p),
        edit_distance: inversions(&p),
    }));
    out
}

/// The non-identity permutations of `0..h` within `max_edit_distance`
/// inversions that `fits` keeps, in `(inversions, lexicographic)` order,
/// at most `max_orders - 1` of them (identity takes the first slot).
///
/// Generated in that order, so the search stops at the cap: a
/// permutation's inversions are the digit sum of its Lehmer code (digit
/// `k` counts the later entries smaller than entry `k`), and Lehmer codes
/// sort like their permutations.
fn layer_permutations(
    h: usize,
    max_edit_distance: Option<usize>,
    max_orders: usize,
    fits: impl Fn(&[usize]) -> bool,
) -> Vec<Vec<usize>> {
    let want = max_orders.saturating_sub(1);
    let most = h * h.saturating_sub(1) / 2;
    let mut out = Vec::new();
    let mut code = vec![0usize; h];
    for d in 1..=max_edit_distance.map_or(most, |cap| cap.min(most)) {
        if out.len() == want {
            break;
        }
        each_code(&mut code, 0, d, &mut |code| {
            let perm = decode(code);
            if fits(&perm) {
                out.push(perm);
            }
            out.len() < want
        });
    }
    out
}

/// Visits, in lexicographic order, every Lehmer code that agrees with
/// `code[..k]` and whose remaining digits sum to `left`, until `visit`
/// returns `false`; returns whether it ran to the end.
fn each_code(
    code: &mut [usize],
    k: usize,
    left: usize,
    visit: &mut impl FnMut(&[usize]) -> bool,
) -> bool {
    let Some(room) = code.len().checked_sub(k + 1) else {
        return visit(code); // every digit placed, and the bounds left 0
    };
    // Digit `k` is at most `room`; the later ones sum to at most
    // `room (room - 1) / 2`.
    let rest = room * room.saturating_sub(1) / 2;
    for digit in left.saturating_sub(rest)..=room.min(left) {
        code[k] = digit;
        if !each_code(code, k + 1, left - digit, visit) {
            return false;
        }
    }
    true
}

/// The permutation whose Lehmer code is `code`: entry `k` is the
/// `code[k]`-th smallest value not yet placed.
fn decode(code: &[usize]) -> Vec<usize> {
    let mut unused: Vec<usize> = (0..code.len()).collect();
    code.iter().map(|&digit| unused.remove(digit)).collect()
}

/// Builds the full-model π over `n` operators by permuting the heavy
/// preload slots of each layer in `layers` with `perm`, leaving every
/// other operator in execution order.
fn apply_layer_perm(n: usize, layers: &[&[usize]], perm: &[usize]) -> Vec<OpId> {
    let mut order: Vec<OpId> = (0..n).map(OpId).collect();
    for slots in layers {
        for (&slot, &src) in slots.iter().zip(perm) {
            order[slot] = OpId(slots[src]);
        }
    }
    order
}

/// Fig. 14-style feasibility: for each heavy op `e_j` (execution order),
/// every heavy op preloaded at or before `e_j`'s preload but executing at
/// or after it is co-resident just before `e_j` executes; the set must
/// fit on-chip even at minimal footprints.
fn order_fits(perm: &[usize], min_space: &[Bytes], capacity: Bytes) -> bool {
    let h = perm.len();
    // pos_in_pi[e] = preload position of exec-index e.
    let mut pos = vec![0usize; h];
    for (k, &e) in perm.iter().enumerate() {
        pos[e] = k;
    }
    for e in 0..h {
        let resident: Bytes = (0..h)
            .filter(|&x| pos[x] <= pos[e] && x >= e)
            .map(|x| min_space[x])
            .sum();
        if resident > capacity {
            return false;
        }
    }
    true
}

/// Kendall-tau distance from identity: the number of inversions.
#[must_use]
pub fn inversions(perm: &[usize]) -> usize {
    let mut d = 0;
    for i in 0..perm.len() {
        for j in i + 1..perm.len() {
            if perm[i] > perm[j] {
                d += 1;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_cost::AnalyticDevice;
    use elk_hw::presets;
    use elk_model::{zoo, Workload};
    use elk_partition::Partitioner;

    /// All permutations of `0..h` (Heap's algorithm).
    fn permutations(h: usize) -> Vec<Vec<usize>> {
        let mut items: Vec<usize> = (0..h).collect();
        let mut out = Vec::new();
        heap_rec(h, &mut items, &mut out);
        out
    }

    fn heap_rec(k: usize, items: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(items.clone());
            return;
        }
        for i in 0..k {
            heap_rec(k - 1, items, out);
            if k.is_multiple_of(2) {
                items.swap(i, k - 1);
            } else {
                items.swap(0, k - 1);
            }
        }
    }

    /// Permutation generation as first written: all `h!` orders by
    /// Heap's algorithm, filtered, sorted by `(inversions, order)`, with
    /// identity dropped. `candidate_orders` then kept the first
    /// `max_orders - 1`.
    fn reference_layer_permutations(
        h: usize,
        max_edit_distance: Option<usize>,
        fits: impl Fn(&[usize]) -> bool,
    ) -> Vec<Vec<usize>> {
        let mut perms = permutations(h);
        perms.retain(|p| {
            let d = inversions(p);
            max_edit_distance.is_none_or(|cap| d <= cap) && fits(p)
        });
        perms.sort_by_key(|p| (inversions(p), p.clone()));
        perms.retain(|p| inversions(p) > 0);
        perms
    }

    #[test]
    fn layer_permutations_match_reference() {
        type Filter<'a> = &'a dyn Fn(&[usize]) -> bool;
        // Unit footprints against a capacity of 2 keep only orders in
        // which no op is preloaded behind two later-executing ones.
        let unit = |p: &[usize]| order_fits(p, &vec![Bytes::new(1); p.len()], Bytes::new(2));
        let filters: [Filter; 3] = [&|_| true, &|p| p[0] != p.len() - 1, &unit];
        for h in 2..=8 {
            for cap in std::iter::once(None).chain((0..=6).map(Some)) {
                for fits in filters {
                    let all = reference_layer_permutations(h, cap, fits);
                    for max_orders in [1, 2, 48, 720] {
                        let want = &all[..all.len().min(max_orders - 1)];
                        assert_eq!(
                            layer_permutations(h, cap, max_orders, fits),
                            want,
                            "h {h}, cap {cap:?}, max_orders {max_orders}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn permutation_count_is_factorial() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(6).len(), 720);
    }

    #[test]
    fn inversions_basics() {
        assert_eq!(inversions(&[0, 1, 2]), 0);
        assert_eq!(inversions(&[1, 0, 2]), 1);
        assert_eq!(inversions(&[2, 1, 0]), 3);
    }

    #[test]
    fn identity_is_first_candidate() {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).unwrap();
        let orders = candidate_orders(
            &graph,
            &catalog,
            system.chip.usable_sram_per_core(),
            &ReorderOptions::default(),
        );
        assert!(orders.len() > 1, "should find reorder candidates");
        assert_eq!(orders[0].edit_distance, 0);
        assert_eq!(
            orders[0].order,
            (0..graph.len()).map(OpId).collect::<Vec<_>>()
        );
        // Sorted by edit distance.
        for w in orders.windows(2) {
            assert!(w[0].edit_distance <= w[1].edit_distance);
        }
    }

    #[test]
    fn candidates_are_valid_permutations() {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).unwrap();
        let orders = candidate_orders(
            &graph,
            &catalog,
            system.chip.usable_sram_per_core(),
            &ReorderOptions::default(),
        );
        for cand in &orders {
            let mut seen = vec![false; graph.len()];
            for id in &cand.order {
                assert!(!seen[id.index()], "duplicate {id}");
                seen[id.index()] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn only_heavy_ops_move() {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).unwrap();
        let orders = candidate_orders(
            &graph,
            &catalog,
            system.chip.usable_sram_per_core(),
            &ReorderOptions::default(),
        );
        let heavy: std::collections::HashSet<usize> =
            graph.hbm_heavy_ops().iter().map(|i| i.index()).collect();
        for cand in orders.iter().skip(1) {
            for (slot, op) in cand.order.iter().enumerate() {
                if op.index() != slot {
                    assert!(heavy.contains(&slot), "light slot {slot} moved");
                    assert!(heavy.contains(&op.index()), "light op {op} moved");
                }
            }
        }
    }

    #[test]
    fn disabled_reorder_returns_identity_only() {
        let system = presets::ipu_pod4();
        let graph = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let dev = AnalyticDevice::of_chip(&system.chip);
        let partitioner = Partitioner::new(&system.chip, &dev);
        let catalog = Catalog::build(&graph, &partitioner).unwrap();
        let opts = ReorderOptions {
            enable: false,
            ..ReorderOptions::default()
        };
        let orders = candidate_orders(&graph, &catalog, system.chip.usable_sram_per_core(), &opts);
        assert_eq!(orders.len(), 1);
    }

    #[test]
    fn order_fits_rejects_oversized_residency() {
        // Three ops of 100 bytes each; capacity 250. Delaying op 0's
        // preload to the end means all three co-reside before op 0 runs.
        let spaces = vec![Bytes::new(100); 3];
        assert!(order_fits(&[0, 1, 2], &spaces, Bytes::new(250)));
        assert!(!order_fits(&[1, 2, 0], &spaces, Bytes::new(250)));
        assert!(order_fits(&[1, 2, 0], &spaces, Bytes::new(300)));
    }
}
