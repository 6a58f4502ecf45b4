use elk_cost::{CostModel, TileShape};
use elk_hw::{ChipConfig, SramContention, Topology};
use elk_model::{OpKind, Operator};
use elk_units::{Bytes, Seconds};

use crate::{ExecutePlan, PlanFactors, PreloadPlan};

/// Enumerates feasible execute-state plans (and their preload-state
/// alternatives) for single operators on a given chip.
///
/// See the crate docs for the model. The enumerator is exhaustive over a
/// geometric grid of split factors (the paper enumerates "all possible
/// partition plans" from compilers like T10 and checks hardware
/// compatibility, §4.3) and over power-of-two replication factors.
#[derive(Debug)]
pub struct Partitioner<'a> {
    chip: &'a ChipConfig,
    cost: &'a dyn CostModel,
}

impl<'a> Partitioner<'a> {
    /// Creates a partitioner for `chip` using `cost` for per-tile and
    /// per-link estimates.
    #[must_use]
    pub fn new(chip: &'a ChipConfig, cost: &'a dyn CostModel) -> Self {
        Partitioner { chip, cost }
    }

    /// The chip plans are enumerated for.
    #[must_use]
    pub fn chip(&self) -> &'a ChipConfig {
        self.chip
    }

    /// All feasible execute-state plans for `op`, unsorted.
    ///
    /// Every returned plan fits the per-core SRAM and the core count; the
    /// list is non-empty for any operator whose minimal footprint fits the
    /// chip at all.
    #[must_use]
    pub fn plans(&self, op: &Operator) -> Vec<ExecutePlan> {
        let combos = self.factor_combos(op);
        if combos.is_empty() {
            return Vec::new();
        }
        let max_par = combos.iter().map(PlanFactors::cores).max().unwrap_or(1);
        // Plans on fewer than a sixteenth of the cores are dropped, unless
        // the operator cannot reach that parallelism at all.
        let floor = (self.chip.cores / 16).max(1).min(max_par);
        let mut out = Vec::new();
        for f in combos {
            if f.cores() < floor {
                continue;
            }
            if let Some(plan) = self.build(op, f) {
                out.push(plan);
            }
        }
        out
    }

    /// Enumerates [`Partitioner::plans`] for a batch of operators,
    /// fanning the per-operator searches across a scoped work pool of
    /// `threads` workers (`0` = all available cores).
    ///
    /// Results come back **in input order** and are byte-identical at
    /// any thread count: each operator's enumeration is independent
    /// (the partitioner and cost model are immutable), and
    /// [`elk_par::par_map`] merges by input index. This is the fan-out
    /// the compiler's catalog construction builds on — callers should
    /// deduplicate operators by signature first so identical
    /// transformer layers are enumerated once.
    ///
    /// ```
    /// use elk_cost::{AnalyticDevice, LearnedCostModel, ProfileConfig};
    /// use elk_hw::presets;
    /// use elk_model::{zoo, Workload};
    /// use elk_partition::Partitioner;
    ///
    /// let sys = presets::ipu_pod4();
    /// let device = AnalyticDevice::of_chip(&sys.chip);
    /// let cost = LearnedCostModel::fit(&device, &ProfileConfig::default());
    /// let mut cfg = zoo::llama2_13b();
    /// cfg.layers = 1; // doctest-sized
    /// let graph = cfg.build(Workload::decode(16, 512), 4);
    /// let partitioner = Partitioner::new(&sys.chip, &cost);
    ///
    /// let ops: Vec<&elk_model::Operator> = graph.iter().collect();
    /// let parallel = partitioner.enumerate_all_par(&ops, 4);
    /// let sequential = partitioner.enumerate_all_par(&ops, 1);
    /// assert_eq!(parallel, sequential); // deterministic merge
    /// assert_eq!(parallel.len(), graph.len());
    /// ```
    #[must_use]
    pub fn enumerate_all_par(&self, ops: &[&Operator], threads: usize) -> Vec<Vec<ExecutePlan>> {
        elk_par::par_map(threads, ops, |_, op| self.plans(op))
    }

    /// Split-factor combinations for the operator class (before SRAM
    /// feasibility).
    fn factor_combos(&self, op: &Operator) -> Vec<PlanFactors> {
        let cores = self.chip.cores;
        let mesh_dims = match self.chip.topology {
            Topology::AllToAll { .. } => u32::MAX,
            Topology::Mesh2d { .. } => 2,
        };
        let mut combos = Vec::new();
        let mut push = |pb: u64, pm: u64, pk: u64, pn: u64, ga: u64, gb: u64| {
            let base = PlanFactors {
                pb,
                pm,
                pk,
                pn,
                ra: 1,
                rb: 1,
            };
            if base.cores() > cores || base.split_dims() > mesh_dims {
                return;
            }
            for ra in rep_candidates(ga) {
                for rb in rep_candidates(gb) {
                    combos.push(PlanFactors { ra, rb, ..base });
                }
            }
        };

        match *op.kind() {
            OpKind::MatMul { m, k, n } => {
                for pm in split_candidates(m, cores) {
                    for pk in [1, 2, 4].into_iter().filter(|&p| p <= k) {
                        for pn in split_candidates(n, cores) {
                            push(1, pm, pk, pn, pn, pm);
                        }
                    }
                }
            }
            OpKind::BatchMatMul { batch, m, k, n } => {
                let _ = k;
                for pb in split_candidates(batch, cores) {
                    for pm in split_candidates(m, 64) {
                        for pn in split_candidates(n, cores) {
                            push(pb, pm, 1, pn, pn, pm);
                        }
                    }
                }
            }
            OpKind::RowReduce { rows, cols, .. } => {
                for pm in split_candidates(rows, cores) {
                    for pk in [1, 2, 4].into_iter().filter(|&p| p <= cols) {
                        // Stationary scale vector is shared by the `pm`
                        // cores covering different rows; inputs are
                        // exclusive (ga = 1).
                        push(1, pm, pk, 1, 1, pm);
                    }
                }
            }
            OpKind::Elementwise { elems, .. } => {
                for pm in split_candidates(elems, cores) {
                    push(1, pm, 1, 1, 1, 1);
                }
            }
            OpKind::Gather {
                rows, table_rows, ..
            } => {
                let _ = rows;
                for pm in split_candidates(table_rows, cores) {
                    push(1, pm, 1, 1, 1, 1);
                }
            }
        }
        combos
    }

    /// Builds and feasibility-checks one plan.
    fn build(&self, op: &Operator, f: PlanFactors) -> Option<ExecutePlan> {
        let cores_used = f.cores();
        let moving = op.input_bytes();
        let stationary = op.stationary_bytes();
        let output = op.output_bytes();
        let (ga, gb) = sharing_groups(op.kind(), &f);
        debug_assert!(f.ra <= ga && f.rb <= gb);

        // Per-core footprints: `r` copies of each group tile spread over
        // the group (see crate docs).
        let mem_a = frac(moving, f.ra, cores_used);
        let mem_b = frac(stationary, f.rb, cores_used);
        let mem_out = frac(output, f.pk, cores_used);
        let exec_space = mem_a + mem_b + mem_out;
        if exec_space > self.chip.usable_sram_per_core() {
            return None;
        }

        // Inbound per-core traffic during execution: rotation of the
        // missing shares plus cross-core reduction of partials.
        let shift_a = frac(moving, ga - f.ra, cores_used);
        let shift_b = frac(stationary, gb - f.rb, cores_used);
        let reduce = if f.pk > 1 {
            frac(output, f.pk - 1, cores_used)
        } else {
            Bytes::ZERO
        };
        let gather_fetch = if matches!(op.kind(), OpKind::Gather { .. }) && cores_used > 1 {
            frac(output, 1, cores_used)
        } else {
            Bytes::ZERO
        };
        let shift_traffic = shift_a + shift_b + reduce + gather_fetch;

        // Rotation micro-steps and the per-chunk compute tile.
        let chunks = (ga / f.ra).max(gb / f.rb).max(f.pk).max(1);
        let tile = chunk_tile(op.kind(), &f, chunks);
        let compute_time = self.cost.tile_time(&tile) * chunks as f64;
        let shift_time = if shift_traffic.is_zero() {
            Seconds::ZERO
        } else {
            self.cost.link_time(shift_traffic / chunks) * chunks as f64
        };
        let exec_time = match self.chip.sram_contention {
            SramContention::Blocking => compute_time + shift_time,
            SramContention::Concurrent => compute_time.max(shift_time),
        };

        let preload_plans = self.preload_plans(op, &f, gb, cores_used);
        if preload_plans
            .last()
            .is_some_and(|p| p.preload_space > self.chip.usable_sram_per_core())
        {
            return None;
        }

        Some(ExecutePlan {
            factors: f,
            cores_used,
            exec_space,
            compute_time,
            shift_traffic,
            chunks,
            tile,
            exec_time,
            preload_plans,
        })
    }

    /// Preload-state alternatives for the stationary operand, sorted by
    /// decreasing footprint (max broadcast first).
    fn preload_plans(
        &self,
        op: &Operator,
        f: &PlanFactors,
        gb: u64,
        cores_used: u64,
    ) -> Vec<PreloadPlan> {
        let stationary = op.stationary_bytes();
        if !op.stationary().is_hbm() || stationary.is_zero() {
            return vec![PreloadPlan::empty()];
        }
        let hop = group_hop_factor(&self.chip.topology, gb);
        let mut plans: Vec<PreloadPlan> = rep_candidates(gb)
            .into_iter()
            .filter(|&rp| rp <= f.rb)
            .map(|rp| {
                let distribute_traffic = frac(stationary, f.rb - rp, cores_used);
                let distribute_time = if distribute_traffic.is_zero() {
                    Seconds::ZERO
                } else {
                    self.cost.link_time(distribute_traffic) * hop
                };
                PreloadPlan {
                    split_copies: rp,
                    preload_space: frac(stationary, rp, cores_used),
                    hbm_bytes: stationary,
                    noc_preload_bytes: stationary * rp,
                    distribute_traffic,
                    distribute_time,
                }
            })
            .collect();
        plans.sort_by_key(|p| std::cmp::Reverse(p.preload_space));
        plans.dedup_by_key(|p| p.preload_space);
        plans
    }
}

/// Sharing-group sizes `(ga, gb)` of the moving and stationary operands.
fn sharing_groups(kind: &OpKind, f: &PlanFactors) -> (u64, u64) {
    match kind {
        OpKind::MatMul { .. } | OpKind::BatchMatMul { .. } => (f.pn, f.pm),
        OpKind::RowReduce { .. } => (1, f.pm),
        OpKind::Elementwise { .. } | OpKind::Gather { .. } => (1, 1),
    }
}

/// The per-core, per-rotation-chunk tile handed to the cost model.
fn chunk_tile(kind: &OpKind, f: &PlanFactors, chunks: u64) -> TileShape {
    match *kind {
        OpKind::MatMul { m, k, n } => TileShape::matmul(
            m.div_ceil(f.pm),
            k.div_ceil(f.pk).div_ceil(chunks).max(1),
            n.div_ceil(f.pn),
        ),
        OpKind::BatchMatMul { batch, m, k, n } => TileShape::batch_matmul(
            batch.div_ceil(f.pb),
            m.div_ceil(f.pm),
            k.div_ceil(chunks).max(1),
            n.div_ceil(f.pn),
        ),
        OpKind::RowReduce { rows, cols, .. } => {
            TileShape::reduce(rows.div_ceil(f.pm), cols.div_ceil(f.pk))
        }
        OpKind::Elementwise { elems, arity, .. } => {
            TileShape::elementwise(elems.div_ceil(f.pm), arity)
        }
        OpKind::Gather { rows, width, .. } => TileShape::gather(rows.div_ceil(f.pm).max(1), width),
    }
}

/// `total · num / den`, rounded up — exact in u128.
fn frac(total: Bytes, num: u64, den: u64) -> Bytes {
    if num == 0 {
        return Bytes::ZERO;
    }
    let v = (total.get() as u128 * num as u128).div_ceil(den as u128);
    Bytes::new(v as u64)
}

/// Geometric candidate split factors for a dimension of size `dim`,
/// bounded by `cap` (usually the core count). Always contains 1 and the
/// maximum feasible split.
///
/// # Examples
///
/// ```
/// use elk_partition::split_candidates;
///
/// let c = split_candidates(3840, 1472);
/// assert_eq!(c[0], 1);
/// assert_eq!(*c.last().unwrap(), 1472);
/// assert!(c.len() < 25);
/// ```
#[must_use]
pub fn split_candidates(dim: u64, cap: u64) -> Vec<u64> {
    let hi = dim.min(cap).max(1);
    let mut v = Vec::new();
    let mut x = 1u64;
    while x < hi {
        v.push(x);
        x = (x * 3 / 2).max(x + 1);
    }
    v.push(hi);
    v
}

/// Replication candidates within a sharing group of `g` cores: powers
/// of four plus full broadcast, `{1, 4, 16, …} ∪ {g}`.
fn rep_candidates(g: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut x = 1u64;
    while x < g {
        v.push(x);
        x *= 4;
    }
    v.push(g);
    v
}

/// Average hop count for intra-group gathers on the topology (1 on
/// all-to-all; ~⅔·√g on a mesh where group members are laid out in a
/// near-square patch).
fn group_hop_factor(topology: &Topology, group: u64) -> f64 {
    match topology {
        Topology::AllToAll { .. } => 1.0,
        Topology::Mesh2d { .. } => (0.66 * (group as f64).sqrt()).max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elk_cost::AnalyticDevice;
    use elk_hw::presets;
    use elk_model::{zoo, Workload};

    fn fixtures() -> (elk_hw::SystemConfig, AnalyticDevice) {
        let sys = presets::ipu_pod4();
        let dev = AnalyticDevice::of_chip(&sys.chip);
        (sys, dev)
    }

    #[test]
    fn every_zoo_operator_has_plans() {
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        for cfg in [zoo::llama2_13b(), zoo::opt_30b()] {
            let g = cfg.build(Workload::decode(32, 2048), 4);
            // Layer 0 + head/embed cover all distinct shapes.
            let span = g.layer_spans()[0].ops.clone();
            for op in &g.ops()[span] {
                let plans = p.plans(op);
                assert!(!plans.is_empty(), "{}: no plans", op.name());
            }
        }
    }

    #[test]
    fn plans_fit_sram_and_cores() {
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        for op in g.ops().iter().take(60) {
            for plan in p.plans(op) {
                assert!(plan.exec_space <= sys.chip.usable_sram_per_core());
                assert!(plan.cores_used <= sys.chip.cores);
                assert!(plan.exec_time > Seconds::ZERO);
            }
        }
    }

    #[test]
    fn memory_time_tradeoff_exists_for_weight_matmuls() {
        // Fig. 5: faster plans need more execution space.
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let qkv = g
            .iter()
            .find(|o| o.name() == "l0.attn_qkv")
            .expect("qkv op");
        let plans = p.plans(qkv);
        let fastest = plans.iter().min_by_key(|p| p.exec_time).expect("non-empty");
        let smallest = plans
            .iter()
            .min_by_key(|p| p.exec_space)
            .expect("non-empty");
        assert!(
            fastest.exec_space > smallest.exec_space,
            "fastest plan ({}) should use more memory than smallest ({})",
            fastest.exec_space,
            smallest.exec_space
        );
        assert!(fastest.exec_time < smallest.exec_time);
    }

    #[test]
    fn replication_trades_shift_traffic_for_space() {
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let qkv = g.iter().find(|o| o.name() == "l0.attn_qkv").unwrap();
        let plans = p.plans(qkv);
        // Fix a split; vary replication.
        let mut by_factors: Vec<&ExecutePlan> = plans
            .iter()
            .filter(|p| p.factors.pm == 4 && p.factors.pk == 1)
            .collect();
        by_factors.sort_by_key(|p| p.exec_space);
        if by_factors.len() >= 2 {
            let small = by_factors.first().unwrap();
            let large = by_factors.last().unwrap();
            assert!(small.shift_traffic >= large.shift_traffic);
        }
    }

    #[test]
    fn preload_plans_ordered_and_consistent() {
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let qkv = g.iter().find(|o| o.name() == "l0.attn_qkv").unwrap();
        for plan in p.plans(qkv) {
            let pl = &plan.preload_plans;
            assert!(!pl.is_empty());
            for w in pl.windows(2) {
                assert!(w[0].preload_space > w[1].preload_space);
                // Less broadcast => more distribution.
                assert!(w[0].distribute_time <= w[1].distribute_time);
            }
            // Max broadcast at execute-state replication: no distribution.
            assert_eq!(plan.max_preload().distribute_traffic, Bytes::ZERO);
            for q in pl {
                assert_eq!(q.hbm_bytes, qkv.stationary_bytes());
            }
        }
    }

    #[test]
    fn kv_cache_ops_have_fixed_preload_footprint() {
        // Decode attention KV slices are exclusive per core (gb = 1): a
        // single preload plan whose space equals the execute-state slice.
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let scores = g.iter().find(|o| o.name() == "l0.attn_scores").unwrap();
        for plan in p.plans(scores) {
            if plan.factors.pm == 1 {
                assert_eq!(plan.preload_plans.len(), 1);
            }
        }
    }

    #[test]
    fn onchip_operators_have_empty_preload() {
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::training_forward(2, 1024), 4);
        let scores = g.iter().find(|o| o.name() == "l0.attn_scores").unwrap();
        let plans = p.plans(scores);
        assert!(!plans.is_empty());
        for plan in plans {
            assert_eq!(plan.preload_plans.len(), 1);
            assert!(plan.max_preload().hbm_bytes.is_zero());
        }
    }

    #[test]
    fn mesh_restricts_split_dimensionality() {
        let mut sys = presets::ipu_pod4_mesh();
        sys.chip.cores = 1472;
        let dev = AnalyticDevice::of_chip(&sys.chip);
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
        let scores = g.iter().find(|o| o.name() == "l0.attn_scores").unwrap();
        for plan in p.plans(scores) {
            assert!(plan.factors.split_dims() <= 2, "{}", plan.factors);
        }
    }

    #[test]
    fn batch_enumeration_is_thread_count_invariant() {
        let (sys, dev) = fixtures();
        let p = Partitioner::new(&sys.chip, &dev);
        let g = zoo::llama2_13b().build(Workload::decode(16, 1024), 4);
        let span = g.layer_spans()[0].ops.clone();
        let ops: Vec<&Operator> = g.ops()[span].iter().collect();
        let seq = p.enumerate_all_par(&ops, 1);
        assert_eq!(seq.len(), ops.len());
        for threads in [2, 8] {
            assert_eq!(p.enumerate_all_par(&ops, threads), seq);
        }
        // The fan-out computes exactly what per-op enumeration does.
        for (op, plans) in ops.iter().zip(&seq) {
            assert_eq!(&p.plans(op), plans);
        }
    }

    #[test]
    fn split_candidates_bounds() {
        assert_eq!(split_candidates(1, 1472), vec![1]);
        let c = split_candidates(32, 1472);
        assert!(c.contains(&1) && c.contains(&32));
        assert!(c.iter().all(|&x| x <= 32));
    }

    #[test]
    fn frac_rounds_up_exactly() {
        assert_eq!(frac(Bytes::new(10), 1, 3), Bytes::new(4));
        assert_eq!(frac(Bytes::new(10), 0, 3), Bytes::ZERO);
        assert_eq!(
            frac(Bytes::new(u64::MAX / 2), 2, 1),
            Bytes::new(u64::MAX - 1)
        );
    }
}
