//! Single-operator partition plans for ICCA chips (§2.2, §4.3, §5).
//!
//! Elk does not invent its own intra-operator execution model: it consumes
//! partition plans produced by compute-shift-style compilers (T10, the
//! paper's reference \[34\]) and
//! trades them off globally. This crate is that plan generator, built from
//! scratch:
//!
//! * An **execute-state plan** ([`ExecutePlan`]) slices an operator's
//!   iteration space over the cores (the paper's "list of integers", e.g.
//!   `<90,9>`), and picks a *replication factor* for every shared operand:
//!   a core may hold its group's full slice (fast, large footprint) or a
//!   `1/g` rotation share (small footprint, `g−1` compute-shift rounds of
//!   inter-core traffic). This produces the memory↔time Pareto behaviour
//!   of Fig. 5.
//! * A **preload-state plan** ([`PreloadPlan`]) chooses how many copies of
//!   the operator's HBM-resident operand the controllers broadcast at
//!   preload time; the *data-distribution phase* at execution start gathers
//!   the remainder from peer cores (Fig. 3(b) vs (c), §4.3 Tradeoffs 2–3).
//!
//! ## The enumeration grid and its invariants
//!
//! [`Partitioner::plans`] costs every point of a finite grid and returns
//! the operator's execute-state Pareto frontier ([`PlanSet`]): the plans
//! [`pareto_frontier`] keeps of the feasible ones, in enumeration order,
//! plus the feasible-plan count (Table 2's `P`). Only frontier plans get
//! preload plans; the scheduler, allocator and baselines never read the
//! dominated ones. These are the invariants downstream layers (frontier
//! ordering, scheduling, allocation) rely on:
//!
//! 1. **Geometric split grid.** Candidate split factors per iteration
//!    dimension come from [`split_candidates`]: a ×1.5 geometric ladder
//!    from `1` up to `min(dim, cores)`, always containing both `1` and
//!    the maximum feasible split. The ladder keeps the grid ≲25 points
//!    per dimension on a 1472-core chip, so the cross-product over
//!    `(pb, pm, pk, pn)` stays enumerable while still reaching every
//!    memory↔time regime of Fig. 5.
//! 2. **Replication ladder.** Within each operand's sharing group of `g`
//!    cores, the replication factor ranges over `{1, 4, 16, …} ∪ {g}`
//!    (powers of four plus full broadcast): `r = g` pins the whole
//!    group slice in every core (no compute-shift traffic), `r = 1` is
//!    the minimal 1/g rotation share, intermediates trade footprint for
//!    shift rounds. Preload-state copies are a subset: `r_preload ≤
//!    r_exec`, sorted by decreasing footprint, deduplicated.
//! 3. **SRAM/core feasibility.** A plan is feasible when `exec_space ≤
//!    usable_sram_per_core()` **and** `cores() ≤ chip.cores` **and**
//!    (on 2-D meshes) it splits at most two dimensions; infeasible grid
//!    points are dropped, never clamped. Its preload plans then fit
//!    too: the smallest, one stationary copy, is at most the stationary
//!    share of `exec_space`. Plans below the chip-relative parallelism
//!    floor are pruned unless the operator is too small to reach it.
//!    The frontier is non-empty for any operator whose minimal
//!    footprint fits the chip at all.
//!
//! Batch enumeration over many operators fans out across a scoped
//! work pool ([`Partitioner::enumerate_all_par`]) with index-ordered,
//! byte-identical merging — see the `elk-par` crate for the
//! determinism contract.
//!
//! ```
//! use elk_cost::{AnalyticDevice, LearnedCostModel, ProfileConfig};
//! use elk_hw::presets;
//! use elk_model::{zoo, Workload};
//! use elk_partition::Partitioner;
//!
//! let sys = presets::ipu_pod4();
//! let device = AnalyticDevice::of_chip(&sys.chip);
//! let cost = LearnedCostModel::fit(&device, &ProfileConfig::default());
//! let graph = zoo::llama2_13b().build(Workload::decode(32, 2048), 4);
//! let partitioner = Partitioner::new(&sys.chip, &cost);
//! let set = partitioner.plans(&graph.ops()[1]); // attn_norm
//! assert!(!set.plans.is_empty());
//! assert!(set.feasible >= set.plans.len());
//! // Invariant 3: everything returned fits the chip.
//! for plan in &set.plans {
//!     assert!(plan.exec_space <= sys.chip.usable_sram_per_core());
//!     assert!(plan.cores_used <= sys.chip.cores);
//! }
//! ```

#![warn(missing_docs)]

mod enumerate;
mod frontier;
mod plan;

pub use enumerate::{split_candidates, Partitioner};
pub use frontier::{pareto_frontier, FrontierPoint};
pub use plan::{ExecutePlan, PlanFactors, PlanSet, PreloadPlan};
