use serde::{Deserialize, Serialize};

use crate::linear::check_columns;
use crate::LinearModel;

/// Hyper-parameters of the linear-tree fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (0 = a single linear leaf).
    pub max_depth: u32,
    /// Minimum samples per leaf.
    pub min_leaf: usize,
    /// Candidate split quantiles per feature.
    pub quantiles: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 5,
            min_leaf: 24,
            quantiles: 8,
        }
    }
}

/// A regression tree with linear-model leaves — the paper's cost-model
/// family ("we fit a linear tree model using the tile shapes as inputs and
/// the profiled execution times as outputs", §4.3).
///
/// Splits are chosen CART-style by variance reduction over candidate
/// feature quantiles; each leaf then fits an ordinary-least-squares
/// [`LinearModel`] on its samples.
///
/// # Examples
///
/// ```
/// use elk_cost::{LinearTreeModel, TreeParams};
///
/// // Piecewise-linear target: slope changes at x = 50. One feature, so
/// // its column is the whole matrix.
/// let x0: Vec<f64> = (0..200).map(|i| i as f64).collect();
/// let ys: Vec<f64> = x0
///     .iter()
///     .map(|&x| if x < 50.0 { x } else { 5.0 * x - 200.0 })
///     .collect();
/// let tree = LinearTreeModel::fit(&x0, &ys, &TreeParams::default());
/// assert!((tree.predict(&[150.0]) - 550.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearTreeModel {
    root: Node,
    leaves: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        model: LinearModel,
        /// Observed target range of the leaf's training samples, widened;
        /// linear leaves clamp to it so extrapolation cannot run away
        /// (or go negative) on out-of-range inputs.
        lo: f64,
        hi: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl LinearTreeModel {
    /// Fits a tree to a feature-major sample: feature `f` of sample `i`
    /// at `cols[f·n + i]`, for `n = ys.len()` samples and `cols.len() / n`
    /// features.
    ///
    /// # Panics
    ///
    /// Panics if `ys` is empty or `cols.len()` is not a multiple of
    /// `ys.len()`.
    #[must_use]
    pub fn fit(cols: &[f64], ys: &[f64], params: &TreeParams) -> Self {
        check_columns(cols, ys);
        let mut fitter = Fitter::new(cols, ys, params);
        let root = fitter.build(0, ys.len(), 0);
        LinearTreeModel {
            root,
            leaves: fitter.leaves,
        }
    }

    /// Predicts the target for a feature vector.
    #[must_use]
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { model, lo, hi } => return model.predict(x).clamp(*lo, *hi),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of leaves in the fitted tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }
}

/// Working state of one fit: the borrowed feature-major samples, and
/// per-node sample orders kept in place so no node sorts or allocates.
///
/// Every node owns the same range `lo..hi` of `idx` and of each feature's
/// slice of `sorted`. `idx[lo..hi]` lists the node's samples in ascending
/// sample order (the order every sum runs in); `sorted[f·n + lo..f·n + hi]`
/// lists them by ascending feature `f`. Splitting a node stably partitions
/// all of these ranges, so both properties hold in its children.
struct Fitter<'a> {
    /// Feature `f` of sample `i` at `cols[f·n + i]`.
    cols: &'a [f64],
    ys: &'a [f64],
    params: &'a TreeParams,
    /// Feature count.
    d: usize,
    /// Sample count.
    n: usize,
    /// No feature value is NaN, so every node's `sorted` order is also
    /// its `<=` order and the split screen can be proven.
    screenable: bool,
    idx: Vec<usize>,
    sorted: Vec<usize>,
    /// Per-sample side of the split being applied.
    goes_left: Vec<bool>,
    /// Right-hand buffer of the stable partition.
    spill: Vec<usize>,
    /// The current node's feature values and targets, in `idx` order.
    node_x: Vec<f64>,
    node_y: Vec<f64>,
    /// The current node's distinct values of one feature, ascending, in
    /// the first entries of an `n`-long buffer.
    vals: Vec<f64>,
    /// `prefix[k]` sums the samples below `vals[k]` (see [`prefix_walk`]);
    /// `n + 1` long.
    prefix: Vec<Prefix>,
    /// The current node's candidate splits, in (feature, threshold) order.
    candidates: Vec<Candidate>,
    leaves: usize,
}

impl<'a> Fitter<'a> {
    fn new(cols: &'a [f64], ys: &'a [f64], params: &'a TreeParams) -> Self {
        let (n, d) = (ys.len(), cols.len() / ys.len());
        let mut spill = vec![0; n];
        let mut sorted = Vec::with_capacity(d * n);
        for col in cols.chunks_exact(n) {
            let start = sorted.len();
            sorted.extend(0..n);
            radix_sort_by_value(&mut sorted[start..], col, &mut spill);
        }
        Fitter {
            ys,
            params,
            d,
            n,
            screenable: !cols.iter().any(|x| x.is_nan()),
            cols,
            idx: (0..n).collect(),
            sorted,
            goes_left: vec![false; n],
            spill,
            node_x: Vec::with_capacity(n),
            node_y: Vec::with_capacity(n),
            vals: vec![0.0; n],
            prefix: vec![Prefix::default(); n + 1],
            candidates: Vec::with_capacity(d * params.quantiles),
            leaves: 0,
        }
    }

    fn build(&mut self, lo: usize, hi: usize, depth: u32) -> Node {
        let min_leaf = self.params.min_leaf;
        if depth >= self.params.max_depth || hi - lo < 2 * min_leaf {
            return self.leaf(lo, hi);
        }
        let Some((feature, threshold)) = self.best_split(lo, hi) else {
            return self.leaf(lo, hi);
        };
        let col = &self.cols[feature * self.n..(feature + 1) * self.n];
        let mut left = 0;
        for &i in &self.idx[lo..hi] {
            let goes_left = col[i] <= threshold;
            self.goes_left[i] = goes_left;
            left += usize::from(goes_left);
        }
        if left < min_leaf || hi - lo - left < min_leaf {
            return self.leaf(lo, hi);
        }
        stable_partition(&mut self.idx[lo..hi], &self.goes_left, &mut self.spill);
        for f in 0..self.d {
            let order = &mut self.sorted[f * self.n + lo..f * self.n + hi];
            stable_partition(order, &self.goes_left, &mut self.spill);
        }
        let mid = lo + left;
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(lo, mid, depth + 1)),
            right: Box::new(self.build(mid, hi, depth + 1)),
        }
    }

    fn leaf(&mut self, lo: usize, hi: usize) -> Node {
        self.leaves += 1;
        let ys = self.ys;
        let idx = &self.idx[lo..hi];
        let y_min = idx.iter().map(|&i| ys[i]).fold(f64::INFINITY, f64::min);
        let y_max = idx.iter().map(|&i| ys[i]).fold(f64::NEG_INFINITY, f64::max);
        Node::Leaf {
            model: LinearModel::fit_samples(self.cols, ys, idx.iter().copied()),
            lo: y_min / 2.0,
            hi: y_max * 2.0,
        }
    }

    /// Variance-reduction split search over per-feature quantile
    /// candidates. The winner is scored with exactly the additions, in
    /// exactly the order, of a plain two-pass SSE over each side, so ties
    /// and near-ties resolve the same way: first feature, then first
    /// candidate, wins.
    ///
    /// A screen first gives every candidate an O(1) prefix-sum score and
    /// drops those that provably cannot win (see [`screen_slack`]); only
    /// the survivors get the exact scores. Where the screen cannot be
    /// proven — a NaN feature value, a Σy² that underflows or comes
    /// within 8× of overflowing, a non-finite prefix score — every
    /// candidate survives and the search is the plain exact one.
    fn best_split(&mut self, lo: usize, hi: usize) -> Option<(usize, f64)> {
        let (ys, m) = (self.ys, hi - lo);
        self.node_y.clear();
        self.node_y.extend(self.idx[lo..hi].iter().map(|&i| ys[i]));
        let total_sse = sse(&self.node_y);
        let quantiles = self.params.quantiles;
        self.candidates.clear();
        let mut provable = self.screenable;

        for f in 0..self.d {
            let col = &self.cols[f * self.n..(f + 1) * self.n];
            let order = &self.sorted[f * self.n + lo..f * self.n + hi];
            // Equal first and last values in `total_cmp` order mean one
            // distinct value (±0 at most): no candidate, nothing to walk.
            if order
                .first()
                .zip(order.last())
                .is_some_and(|(&a, &b)| col[a] == col[b])
            {
                continue;
            }
            let distinct = prefix_walk(col, ys, order, &mut self.vals, &mut self.prefix);
            if distinct < 2 {
                continue;
            }
            let total = self.prefix[distinct];
            provable &= (f64::MIN_POSITIVE..=f64::MAX / 8.0).contains(&total.sum_sq);
            // Quantile positions never decrease with `q`; a repeated one
            // scores the same and cannot win, so it is scored once.
            let mut last = None;
            for q in 1..=quantiles {
                let pos = (q * (distinct - 1) / (quantiles + 1)).min(distinct - 2);
                if last != Some(pos) {
                    let approx = approx_score(self.prefix[pos + 1], total);
                    provable &= approx.is_finite();
                    self.candidates.push(Candidate {
                        feature: f,
                        threshold: self.vals[pos],
                        approx,
                    });
                    last = Some(pos);
                }
            }
        }

        if provable {
            let (abs_sum, abs_max) = self
                .node_y
                .iter()
                .fold((0.0, 0.0), |(s, mx): (f64, f64), &y| {
                    (s + y.abs(), mx.max(y.abs()))
                });
            let slack = screen_slack(m, abs_sum, abs_max);
            let bound = self
                .candidates
                .iter()
                .map(|c| c.approx + slack)
                .fold(f64::INFINITY, f64::min);
            self.candidates.retain(|c| c.approx - slack <= bound);
        }

        let mut best: Option<(usize, f64, f64)> = None;
        for run in self.candidates.chunk_by(|a, b| a.feature == b.feature) {
            let f = run[0].feature;
            let col = &self.cols[f * self.n..(f + 1) * self.n];
            self.node_x.clear();
            self.node_x.extend(self.idx[lo..hi].iter().map(|&i| col[i]));
            for batch in run.chunks(LANES) {
                let scored = score_batch(&self.node_x, &self.node_y, batch);
                for (c, &(left, score)) in batch.iter().zip(&scored) {
                    if left == 0 || left == m {
                        continue;
                    }
                    if best.is_none_or(|(_, _, s)| score < s) {
                        best = Some((f, c.threshold, score));
                    }
                }
            }
        }
        best.filter(|&(_, _, s)| s < total_sse * 0.999)
            .map(|(f, t, _)| (f, t))
    }
}

/// A node's count, Σy and Σy² over a prefix of one feature's sorted order.
#[derive(Clone, Copy, Default)]
struct Prefix {
    count: usize,
    sum: f64,
    sum_sq: f64,
}

/// One candidate split of a node: samples with `x[feature] <= threshold`
/// go left. `approx` is its [`approx_score`].
struct Candidate {
    feature: usize,
    threshold: f64,
    approx: f64,
}

/// Walks a node's samples in one feature's sorted `order`, in one pass,
/// and returns the number `d` of distinct values: `vals[..d]` receives
/// them, ascending, and `prefix[k]` the [`Prefix`] of the samples before
/// the first with value `vals[k]`, so `prefix[k + 1]` covers every sample
/// `<= vals[k]` and `prefix[d]` the whole node. Values dedup by `==`
/// against the previous sample, as `Vec::dedup` does: each run of equal
/// values keeps its first. `vals` and `prefix` must hold at least
/// `order.len()` and `order.len() + 1` entries.
///
/// The walk does not branch on whether a value is new: every sample
/// writes the next free slot, and only a new value advances past it.
///
/// Without NaN values the sorted order is also the `<=` order: a
/// threshold `vals[k]` sends exactly the first `prefix[k + 1].count`
/// samples left. For `k` at most `d − 2`, that leaves neither side
/// empty.
fn prefix_walk(
    col: &[f64],
    ys: &[f64],
    order: &[usize],
    vals: &mut [f64],
    prefix: &mut [Prefix],
) -> usize {
    let (vals, prefix) = (&mut vals[..order.len()], &mut prefix[..=order.len()]);
    let mut run = Prefix::default();
    let mut distinct = 0;
    // NaN differs from everything, so the first sample is always new.
    let mut last = f64::NAN;
    for &i in order {
        let x = col[i];
        vals[distinct] = x;
        prefix[distinct] = run;
        distinct += usize::from(x != last);
        last = x;
        let y = ys[i];
        run.count += 1;
        run.sum += y;
        run.sum_sq += y * y;
    }
    prefix[distinct] = run;
    distinct
}

/// The screen's estimate of a split's score, `(Q_l − S_l²/c) + (Q_r −
/// S_r²/(m − c))`, from the prefix sums of its left side and the node's
/// totals. Cheap, but its rounding differs from the exact score's; see
/// [`screen_slack`] for how far.
fn approx_score(left: Prefix, total: Prefix) -> f64 {
    let (c, m) = (left.count as f64, total.count as f64);
    let right_sum = total.sum - left.sum;
    (left.sum_sq - left.sum * left.sum / c)
        + ((total.sum_sq - left.sum_sq) - right_sum * right_sum / (m - c))
}

/// A bound `δ` on `|approx − exact|` for every candidate of a node of `m`
/// samples with `A = Σ|y|` (`abs_sum`) and `Y = max|y|` (`abs_max`),
/// where `approx` is its [`approx_score`] and `exact` its two-pass score
/// from [`score_lanes`]. It holds when no feature value is NaN (so both
/// see the same two sides) and the node's prefix `Σy² = Q` lies in
/// `[2⁻¹⁰²², f64::MAX/8]`: the conditions [`Fitter::best_split`] screens
/// under.
///
/// Let `u = 2⁻⁵³` and `g = γ(m+3) = (m+3)u / (1 − (m+3)u)`. In exact
/// arithmetic the split's SSE is `T = Σ (Q_s − S_s²/c_s)` over its two
/// sides. The computed scores differ from `T` by at most:
///
/// - *exact* (two-pass): each side's mean is off by at most `g·A/c`, and
///   `Σ(y − mean)² = T_s + c·(mean error)²`, so each side is within
///   `g·T_s + 2g²A²`; the final addition adds `u·Q`. In all, at most
///   `2.4g·Q + 4.2g²A²`.
/// - *approx* (prefix sums): each side's `Σy` is within `3g·A` (the
///   right side is `total − left`, so both prefix errors meet there) and
///   its `Σy²` within `4.5g·Q`, so `S²/c` is within `6.1g·A·Y + 9.1g²A² +
///   1.1g·Q` (as `|S|/c ≤ Y`). With the last subtractions and addition,
///   at most `12.7g·Q + 12.5g·A·Y + 18.3g²A²`.
///
/// Gradual underflow costs a multiply or divide at most `2⁻¹⁰⁷⁵ ≤ u·Q`
/// absolute once `Q ≥ 2⁻¹⁰²²`; the terms above already carry that. The
/// `Q ≤ f64::MAX/8` headroom keeps every exact-pass intermediate (such
/// as `(y − mean)² ≤ 4.05·Y²`) finite, and a finite `approx` met no
/// overflow. As `Q ≤ A·Y`, the sum is below `28g·A·Y + 23g²A²`; `δ`
/// doubles that, which covers the rounding of `δ` itself and of `A`.
///
/// So every `exact` is finite, and a candidate `j` with `approx_j − δ >
/// approx_i + δ` (compared as computed; rounding is monotone, so it holds
/// in the reals too) has `exact_j > exact_i`: it cannot be the first
/// strict minimum, and dropping it changes no split.
fn screen_slack(m: usize, abs_sum: f64, abs_max: f64) -> f64 {
    let k = (m + 3) as f64 * (f64::EPSILON / 2.0);
    let g = k / (1.0 - k);
    64.0 * g * abs_sum * (abs_max + g * abs_sum)
}

/// Candidate thresholds scored per pass: one per quantile of
/// [`crate::ProfileConfig`]'s default 10, few enough for the lanes'
/// accumulators to stay in vector registers.
const LANES: usize = 10;

/// The exact `(left count, score)` of each of up to [`LANES`]
/// candidates, from [`score_lanes`].
fn score_batch(xs: &[f64], ys: &[f64], batch: &[Candidate]) -> [(usize, f64); LANES] {
    fn lanes<const L: usize>(xs: &[f64], ys: &[f64], batch: &[Candidate]) -> [(usize, f64); LANES] {
        let mut thresholds = [f64::NAN; L];
        for (t, c) in thresholds.iter_mut().zip(batch) {
            *t = c.threshold;
        }
        let mut out = [(0, f64::NAN); LANES];
        out[..L].copy_from_slice(&score_lanes(xs, ys, &thresholds));
        out
    }
    // After the screen, most nodes score one candidate.
    match batch.len() {
        1 => lanes::<1>(xs, ys, batch),
        _ => lanes::<LANES>(xs, ys, batch),
    }
}

/// Scores `L` candidate thresholds (padding lanes hold NaN, which sends
/// every sample right) in two branch-free passes over a node's samples
/// (`xs[k]`, `ys[k]` in sample order): first each side's sum and count,
/// then each side's squared deviations from its mean. Returns each
/// lane's left count (`x ≤ threshold`) and `sse_l + sse_r`.
///
/// Each side's sums add the same values in the same order as [`sse`]
/// over that side alone, starting from `-0.0` as `Iterator::sum` does,
/// so every score is bit-identical to the plain two-pass SSE. A one-pass
/// `Σy² − (Σy)²/n` or a prefix-sum variance would change scores in the
/// last bits and flip near-tie splits; [`approx_score`] serves only as a
/// screen. Lanes are independent accumulators, so vectorizing across
/// them reorders nothing, and a score does not depend on `L`.
///
/// A sample reaches each side's sum as `s − v`, where `v` is the
/// negated value bit-masked to `+0.0` on the other side: `s − (+0.0)` is
/// `s` bit for bit (`−0.0` included) and `s − (−y)` is `s + y`. An `if`
/// choosing between `y` and the identity would be compiled back into one
/// unpredictable branch per lane and sample.
fn score_lanes<const L: usize>(xs: &[f64], ys: &[f64], thresholds: &[f64; L]) -> [(usize, f64); L] {
    let mut count_l = [0.0; L];
    let mut sum_l = [-0.0; L];
    let mut sum_r = [-0.0; L];
    for (&x, &y) in xs.iter().zip(ys) {
        let neg_y = (-y).to_bits();
        for k in 0..L {
            let left = u64::from(x <= thresholds[k]).wrapping_neg();
            count_l[k] += f64::from_bits(1.0f64.to_bits() & left);
            sum_l[k] -= f64::from_bits(neg_y & left);
            sum_r[k] -= f64::from_bits(neg_y & !left);
        }
    }
    // An empty side gets a non-finite mean; no sample reads it, and the
    // caller skips the candidate.
    let m = xs.len() as f64;
    let mut mean_l = [0.0; L];
    let mut mean_r = [0.0; L];
    for k in 0..L {
        mean_l[k] = sum_l[k] / count_l[k];
        mean_r[k] = sum_r[k] / (m - count_l[k]);
    }
    let mut sse_l = [-0.0; L];
    let mut sse_r = [-0.0; L];
    for (&x, &y) in xs.iter().zip(ys) {
        for k in 0..L {
            let left = u64::from(x <= thresholds[k]).wrapping_neg();
            let mean = (mean_l[k].to_bits() & left) | (mean_r[k].to_bits() & !left);
            let dev = y - f64::from_bits(mean);
            let neg_sq = (-(dev * dev)).to_bits();
            sse_l[k] -= f64::from_bits(neg_sq & left);
            sse_r[k] -= f64::from_bits(neg_sq & !left);
        }
    }
    std::array::from_fn(|k| (count_l[k] as usize, sse_l[k] + sse_r[k]))
}

/// Moves the samples with `goes_left` to the front of `order`, keeping
/// the relative order on both sides. Writes every sample to both
/// destinations and advances one, so it does not branch on the side.
fn stable_partition(order: &mut [usize], goes_left: &[bool], spill: &mut [usize]) {
    let (mut w, mut s) = (0, 0);
    for r in 0..order.len() {
        let i = order[r];
        let left = goes_left[i];
        order[w] = i;
        spill[s] = i;
        w += usize::from(left);
        s += usize::from(!left);
    }
    order[w..].copy_from_slice(&spill[..s]);
}

/// Sorts the sample indices in `order` stably by ascending `col[i]` under
/// [`f64::total_cmp`], as `order.sort_by(|&a, &b| col[a].total_cmp(&col[b]))`
/// does, without comparisons: a least-significant-digit radix sort, one
/// byte per pass, on each value's order-preserving key. The key is the
/// integer `total_cmp` compares as signed (the bits, with all but the
/// sign flipped for negative values), with its sign bit flipped, so that
/// unsigned order is `total_cmp` order. One sweep counts every byte's
/// histogram; a byte in which all keys agree gets no pass. `spill`, at least as long as `order`, is the
/// other half of the ping-pong, so the sort allocates nothing.
fn radix_sort_by_value(order: &mut [usize], col: &[f64], spill: &mut [usize]) {
    const DIGITS: usize = (u64::BITS / 8) as usize;
    let key = |i: usize| {
        let bits = col[i].to_bits();
        bits ^ (((bits as i64 >> 63) as u64) >> 1) ^ (1 << 63)
    };
    let digit = |k: u64, d: usize| (k >> (8 * d)) as usize & 0xff;
    let Some(&first) = order.first() else {
        return;
    };
    let first = key(first);
    let mut counts = [[0usize; 256]; DIGITS];
    for &i in order.iter() {
        let k = key(i);
        for (d, c) in counts.iter_mut().enumerate() {
            c[digit(k, d)] += 1;
        }
    }
    let n = order.len();
    let mut src = order;
    let mut dst = &mut spill[..n];
    let mut moved = false;
    for (d, starts) in counts.iter_mut().enumerate() {
        if starts[digit(first, d)] == n {
            continue;
        }
        let mut total = 0;
        for s in starts.iter_mut() {
            (*s, total) = (total, total + *s);
        }
        for &i in src.iter() {
            let b = digit(key(i), d);
            dst[starts[b]] = i;
            starts[b] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        moved = !moved;
    }
    if moved {
        // `src` is the spill; `dst` is the caller's slice.
        dst.copy_from_slice(src);
    }
}

/// Sum of squared deviations from the mean, in slice order.
fn sse(ys: &[f64]) -> f64 {
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    ys.iter().map(|&y| (y - mean).powi(2)).sum()
}

/// The direct split search over row-major samples: re-sorts every
/// feature at every node and scores each candidate with two freshly
/// partitioned index `Vec`s. The oracle the presorted search must match
/// bit for bit.
#[cfg(test)]
mod reference {
    use super::{LinearModel, LinearTreeModel, Node, TreeParams};

    pub(super) fn fit(xs: &[Vec<f64>], ys: &[f64], params: &TreeParams) -> LinearTreeModel {
        let idx: Vec<usize> = (0..ys.len()).collect();
        let mut leaves = 0;
        let root = build(xs, ys, &idx, params, 0, &mut leaves);
        LinearTreeModel { root, leaves }
    }

    /// The feature-major form of the rows `xs`, as
    /// [`LinearTreeModel::fit`] takes it.
    pub(super) fn columns(xs: &[Vec<f64>]) -> Vec<f64> {
        let d = xs.first().map_or(0, Vec::len);
        (0..d).flat_map(|f| xs.iter().map(move |x| x[f])).collect()
    }

    fn build(
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: &[usize],
        params: &TreeParams,
        depth: u32,
        leaves: &mut usize,
    ) -> Node {
        if depth >= params.max_depth || idx.len() < 2 * params.min_leaf {
            return leaf(xs, ys, idx, leaves);
        }
        match best_split(xs, ys, idx, params) {
            None => leaf(xs, ys, idx, leaves),
            Some((feature, threshold)) => {
                let (l, r): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| xs[i][feature] <= threshold);
                if l.len() < params.min_leaf || r.len() < params.min_leaf {
                    return leaf(xs, ys, idx, leaves);
                }
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(build(xs, ys, &l, params, depth + 1, leaves)),
                    right: Box::new(build(xs, ys, &r, params, depth + 1, leaves)),
                }
            }
        }
    }

    fn leaf(xs: &[Vec<f64>], ys: &[f64], idx: &[usize], leaves: &mut usize) -> Node {
        *leaves += 1;
        let sub_x: Vec<Vec<f64>> = idx.iter().map(|&i| xs[i].clone()).collect();
        let sub_y: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();
        let lo = sub_y.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = sub_y.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Node::Leaf {
            model: LinearModel::fit(&columns(&sub_x), &sub_y),
            lo: lo / 2.0,
            hi: hi * 2.0,
        }
    }

    /// Variance-reduction split search over per-feature quantile candidates.
    fn best_split(
        xs: &[Vec<f64>],
        ys: &[f64],
        idx: &[usize],
        params: &TreeParams,
    ) -> Option<(usize, f64)> {
        let d = xs[idx[0]].len();
        let total_sse = sse(ys, idx);
        let mut best: Option<(usize, f64, f64)> = None;

        // `f` is a feature index into every sample's row, not a position in
        // one slice — a range loop is the natural shape here.
        #[allow(clippy::needless_range_loop)]
        for f in 0..d {
            let mut vals: Vec<f64> = idx.iter().map(|&i| xs[i][f]).collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            vals.dedup();
            if vals.len() < 2 {
                continue;
            }
            for q in 1..=params.quantiles {
                let pos = q * (vals.len() - 1) / (params.quantiles + 1);
                let thr = vals[pos.min(vals.len() - 2)];
                let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| xs[i][f] <= thr);
                if l.is_empty() || r.is_empty() {
                    continue;
                }
                let score = sse(ys, &l) + sse(ys, &r);
                if best.is_none_or(|(_, _, s)| score < s) {
                    best = Some((f, thr, score));
                }
            }
        }
        best.filter(|&(_, _, s)| s < total_sse * 0.999)
            .map(|(f, t, _)| (f, t))
    }

    fn sse(ys: &[f64], idx: &[usize]) -> f64 {
        let n = idx.len() as f64;
        let mean = idx.iter().map(|&i| ys[i]).sum::<f64>() / n;
        idx.iter().map(|&i| (ys[i] - mean).powi(2)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::columns;
    use super::*;

    #[test]
    fn radix_presort_matches_the_total_cmp_sort() {
        let specials = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_dead_beef_0000), // negative NaN with payload
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0, // subnormal
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            1.0 + f64::EPSILON,
            4096.0,
        ];
        // A fixed LCG, so the columns are the same every run.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        let columns = |n: usize, next: &mut dyn FnMut() -> u64| -> Vec<Vec<f64>> {
            vec![
                (0..n)
                    .map(|_| specials[next() as usize % specials.len()])
                    .collect(),
                // Heavy duplicates: a handful of integer-valued features.
                (0..n).map(|_| (next() % 5) as f64 * 64.0).collect(),
                vec![3.5; n],
                vec![-0.0; n],
                // Arbitrary bit patterns, NaNs of both signs included.
                (0..n)
                    .map(|_| f64::from_bits(next() << 11 | next()))
                    .collect(),
            ]
        };
        for n in [0, 1, 2, 4000] {
            for col in columns(n, &mut next) {
                let mut want: Vec<usize> = (0..n).collect();
                want.sort_by(|&a, &b| col[a].total_cmp(&col[b]));
                let mut got: Vec<usize> = (0..n).collect();
                let mut spill = vec![usize::MAX; n + 3];
                radix_sort_by_value(&mut got, &col, &mut spill);
                assert_eq!(got, want, "n = {n}");
            }
        }
    }

    #[test]
    fn pure_linear_target_needs_one_leaf_quality() {
        let xs: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, (i * i % 17) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + 0.5 * x[1] + 1.0).collect();
        let tree = LinearTreeModel::fit(&columns(&xs), &ys, &TreeParams::default());
        for x in &xs {
            let err = (tree.predict(x) - (3.0 * x[0] + 0.5 * x[1] + 1.0)).abs();
            assert!(err < 1e-3, "err {err}");
        }
    }

    #[test]
    fn depth_zero_is_single_linear_leaf() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let tree = LinearTreeModel::fit(
            &columns(&xs),
            &ys,
            &TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
        );
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn splits_capture_regime_changes() {
        // Two regimes with different slopes AND different feature use.
        let xs: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 100) as f64, (i / 100) as f64])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| {
                if x[1] < 2.0 {
                    10.0 * x[0]
                } else {
                    2.0 * x[0] + 300.0
                }
            })
            .collect();
        let tree = LinearTreeModel::fit(&columns(&xs), &ys, &TreeParams::default());
        assert!(tree.leaf_count() >= 2);
        assert!((tree.predict(&[50.0, 0.0]) - 500.0).abs() < 10.0);
        assert!((tree.predict(&[50.0, 3.0]) - 400.0).abs() < 10.0);
    }

    #[test]
    fn min_leaf_respected() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..40).map(|i| (i * i) as f64).collect();
        let params = TreeParams {
            min_leaf: 30,
            ..TreeParams::default()
        };
        let tree = LinearTreeModel::fit(&columns(&xs), &ys, &params);
        // 40 samples cannot split into two leaves of ≥30.
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    #[should_panic(expected = "5 feature values do not form whole columns of 3 samples")]
    fn partial_column_rejected() {
        let cols = [1.0, 3.0, 5.0, 2.0, 6.0];
        let _ = LinearTreeModel::fit(&cols, &[1.0, 2.0, 3.0], &TreeParams::default());
    }

    #[test]
    #[should_panic(expected = "cannot fit on an empty sample")]
    fn empty_sample_rejected() {
        let _ = LinearTreeModel::fit(&[], &[], &TreeParams::default());
    }

    /// Builds a dataset from raw draws: `base` independent columns with
    /// `levels` distinct values each (few levels = heavy ties), then one
    /// derived column per `extra` kind, then targets of `target` kind.
    fn dataset(
        n: usize,
        base: usize,
        levels: u32,
        cells: &[u32],
        extra: &[usize],
        target: usize,
        noise: &[u32],
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row: Vec<f64> = (0..base)
                    .map(|c| f64::from(cells[i * 4 + c] % levels) * (c + 1) as f64)
                    .collect();
                let x0 = row[0];
                for &kind in extra {
                    row.push(match kind {
                        0 => 7.0,            // constant
                        1 => x0,             // duplicate
                        2 => 3.0 * x0 + 1.0, // increasing affine
                        3 => x0 * x0 * x0,   // increasing nonlinear
                        4 => -x0,            // decreasing
                        _ => match cells[i * 4 + 3] % 3 {
                            0 => -0.0,
                            1 => 0.0,
                            _ => 1.0,
                        }, // signed zeros compare equal
                    });
                }
                row
            })
            .collect();
        let ys = xs
            .iter()
            .zip(noise)
            .map(|(x, &e)| match target {
                // Inexact sums: summation order shows in the last bits.
                0 => f64::from(e) / 7.0 + 0.1 * x[0],
                // Heavy target ties.
                1 => f64::from(e % 3),
                // Two regimes with different slopes.
                _ => {
                    if x[0] > 300.0 {
                        5.0 * x[0] - 1200.0 + f64::from(e) / 1e3
                    } else {
                        x[0] + f64::from(e) / 1e3
                    }
                }
            })
            .collect();
        (xs, ys)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 512,
            ..proptest::test_runner::ProptestConfig::default()
        })]
        #[test]
        fn presorted_split_search_matches_reference(
            shape in (
                1usize..=60,
                1usize..=3,
                proptest::sample::select(vec![1u32, 2, 3, 5, 1000]),
            ),
            cells in proptest::collection::vec(0u32..1000, 240),
            extra in proptest::collection::vec(0usize..6, 0..=3),
            target in 0usize..3,
            noise in proptest::collection::vec(0u32..1000, 60),
            params in (
                0u32..=6,
                proptest::sample::select(vec![0usize, 1, 2, 3, 5, 10, 30, 61]),
                proptest::sample::select(vec![0usize, 1, 2, 3, 8, 10, 64]),
            ),
        ) {
            let (n, base, levels) = shape;
            let (xs, ys) = dataset(n, base, levels, &cells, &extra, target, &noise);
            let params = TreeParams {
                max_depth: params.0,
                min_leaf: params.1,
                quantiles: params.2,
            };
            let fast = LinearTreeModel::fit(&columns(&xs), &ys, &params);
            let oracle = reference::fit(&xs, &ys, &params);
            proptest::prop_assert_eq!(fast, oracle, "params {:?} on {:?} -> {:?}", params, xs, ys);
        }

        #[test]
        fn presorted_split_search_matches_reference_on_adversarial_data(
            n in 1usize..=60,
            cells in proptest::collection::vec(0u32..1000, 240),
            specials in proptest::collection::vec(0usize..16, 60),
            target in 0usize..7,
            noise in proptest::collection::vec(0u32..1000, 60),
            params in (
                0u32..=6,
                proptest::sample::select(vec![0usize, 1, 2, 3, 5, 10]),
                proptest::sample::select(vec![1usize, 2, 3, 8, 10, 64]),
            ),
        ) {
            let (xs, ys) = adversarial(n, &cells, &specials, target, &noise);
            let params = TreeParams {
                max_depth: params.0,
                min_leaf: params.1,
                quantiles: params.2,
            };
            // The derived `PartialEq` is false on NaN leaves; the serialized
            // form is exact for every other value, signed zeros included.
            let fast = serde_json::to_string(&LinearTreeModel::fit(&columns(&xs), &ys, &params));
            let oracle = serde_json::to_string(&reference::fit(&xs, &ys, &params));
            proptest::prop_assert_eq!(
                fast.expect("serializes"),
                oracle.expect("serializes"),
                "params {:?} on {:?} -> {:?}", params, xs, ys
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 1024,
            ..proptest::test_runner::ProptestConfig::default()
        })]
        #[test]
        fn screen_slack_bounds_every_candidate(
            m in 1usize..=80,
            cells in proptest::collection::vec(0u32..1000, 80),
            levels in proptest::sample::select(vec![1u32, 2, 3, 10, 1000]),
            noise in proptest::collection::vec(0u32..1000, 80),
            spread in proptest::sample::select(vec![1e-3, 1.0, 1e3]),
            offset in proptest::sample::select(vec![0.0, -1.0, 1.0, 1e3, 1e9, 1e15]),
            scale in -160i32..=154,
        ) {
            // Samples in sample order; the screen walks them by `x`.
            let xs: Vec<f64> = cells[..m].iter().map(|&c| f64::from(c % levels)).collect();
            let ys: Vec<f64> = noise[..m]
                .iter()
                .map(|&e| (offset + (f64::from(e) - 300.0) * spread) * 10f64.powi(scale))
                .collect();
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
            let mut vals = vec![0.0; m];
            let mut prefix = vec![Prefix::default(); m + 1];
            let distinct = prefix_walk(&xs, &ys, &order, &mut vals, &mut prefix);
            vals.truncate(distinct);
            let total = prefix[distinct];
            // The bound is claimed only where `best_split` screens.
            if (f64::MIN_POSITIVE..=f64::MAX / 8.0).contains(&total.sum_sq) {
                let abs_sum = ys.iter().map(|y| y.abs()).sum::<f64>();
                let abs_max = ys.iter().map(|y| y.abs()).fold(0.0, f64::max);
                let slack = screen_slack(m, abs_sum, abs_max);
                for (k, &threshold) in vals.iter().enumerate().take(vals.len().saturating_sub(1)) {
                    let approx = approx_score(prefix[k + 1], total);
                    let [(left, exact)] = score_lanes(&xs, &ys, &[threshold]);
                    proptest::prop_assert_eq!(left, prefix[k + 1].count);
                    proptest::prop_assert!(
                        (approx - exact).abs() <= slack,
                        "|{approx} - {exact}| > {slack} at {threshold} of {xs:?} -> {ys:?}"
                    );
                }
            }
        }
    }

    /// How many candidates the root split search of `(xs, ys)` scores
    /// exactly.
    fn root_survivors(xs: &[Vec<f64>], ys: &[f64]) -> usize {
        let params = TreeParams::default();
        let cols = columns(xs);
        let mut fitter = Fitter::new(&cols, ys, &params);
        fitter.best_split(0, ys.len());
        fitter.candidates.len()
    }

    #[test]
    fn screen_keeps_only_contenders_and_is_off_with_nan_features() {
        let xs: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![f64::from(i % 100), f64::from(i / 100), f64::from(i % 7)])
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| if x[1] < 2.0 { x[0] } else { 3.0 * x[0] + 500.0 })
            .collect();
        // The three columns have 8, 3 and 6 distinct quantile positions.
        assert_eq!(
            root_survivors(&xs, &ys),
            1,
            "the x1 <= 1 split is far ahead"
        );

        // A NaN in x2 adds one distinct value, and a seventh position.
        let mut with_nan = xs.clone();
        with_nan[17][2] = f64::NAN;
        assert_eq!(root_survivors(&with_nan, &ys), 8 + 3 + 7);

        // Σy² overflows.
        let huge: Vec<f64> = ys.iter().map(|y| y * 1e155).collect();
        assert_eq!(root_survivors(&xs, &huge), 8 + 3 + 6);

        // Σy² underflows: the squares are subnormal.
        let tiny: Vec<f64> = ys.iter().map(|y| y * 1e-160).collect();
        assert_eq!(root_survivors(&xs, &tiny), 8 + 3 + 6);
    }

    /// Data that breaks naive prefix-sum variance: targets whose squares
    /// cancel, overflow or underflow, and a feature column of values
    /// whose `<=` order disagrees with their `total_cmp` sort.
    fn adversarial(
        n: usize,
        cells: &[u32],
        specials: &[usize],
        target: usize,
        noise: &[u32],
    ) -> (Vec<Vec<f64>>, Vec<f64>) {
        const SPECIAL: [f64; 10] = [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            -1e300,
            1.0,
            -1.0,
        ];
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let plain = f64::from(cells[i * 4] % 50);
                let special = SPECIAL.get(specials[i]).copied().unwrap_or(plain);
                vec![plain, special, f64::from(cells[i * 4 + 1] % 7)]
            })
            .collect();
        let ys = noise[..n]
            .iter()
            .map(|&e| {
                let e = f64::from(e);
                match target {
                    // Huge mean, tiny variance: Σy² − (Σy)²/n cancels.
                    0 => 1e9 + e / 1e3,
                    1 => 1e15 + e % 3.0,
                    // Σy² overflows while every y is finite.
                    2 => e * 1e151,
                    // Every y² underflows, to zero or to a subnormal.
                    3 => e * 1e-300,
                    6 => e * 1e-160,
                    // Subnormal targets.
                    4 => e * 1e-321,
                    // Magnitudes 200 orders apart.
                    _ => {
                        if e % 2.0 == 0.0 {
                            e * 1e200
                        } else {
                            e
                        }
                    }
                }
            })
            .collect();
        (xs, ys)
    }
}
