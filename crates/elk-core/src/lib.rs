//! The Elk compiler for inter-core connected AI chips (paper §4).
//!
//! Elk turns the three contended resources of an ICCA chip — per-core
//! execution, inter-core communication, and off-chip HBM I/O — into four
//! compiler decisions, and searches them jointly:
//!
//! | decision | module | paper |
//! |---|---|---|
//! | number of operators preloaded ahead | [`Scheduler`] | §4.2 |
//! | execution-space size per operator | [`allocate`] | §4.3 |
//! | preload-space size per operator | [`allocate`] | §4.3 |
//! | preload order | [`candidate_orders`] | §4.4 |
//!
//! The [`Compiler`] drives the pipeline: fit a cost model, enumerate
//! partition plans ([`Catalog`]), search preload orders with the backward
//! inductive scheduler, arbitrate memory with the greedy cost-aware
//! allocator, pick the best forward-timeline estimate ([`evaluate`]), and
//! lower the winner to the §4.5 abstract device program
//! ([`DeviceProgram`]) that the simulator (or a real backend) consumes.
//!
//! ```
//! use elk_core::Compiler;
//! use elk_hw::presets;
//! use elk_model::{zoo, Workload};
//!
//! # fn main() -> Result<(), elk_core::CompileError> {
//! let mut cfg = zoo::opt_30b();
//! cfg.layers = 2; // doctest-sized
//! let graph = cfg.build(Workload::decode(16, 512), 4);
//! let plan = Compiler::new(presets::ipu_pod4()).compile(&graph)?;
//! assert_eq!(plan.estimate.capacity_violations, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod alloc;
mod compiler;
mod error;
mod frontier;
mod program;
mod reorder;
mod schedule;
mod timeline;

pub use alloc::{allocate, Allocation};
pub use compiler::{compile_with_catalog, CompileStats, CompiledPlan, Compiler, CompilerOptions};
pub use elk_partition::{pareto_frontier, FrontierPoint};
pub use error::CompileError;
pub use frontier::{Catalog, OpPlans, PlanMemo};
pub use program::{DeviceInstr, DeviceProgram, OpSpec};
pub use reorder::{candidate_orders, inversions, CandidateOrder, ReorderOptions};
pub use schedule::{identity_order, OpSchedule, Schedule, Scheduler};
pub use timeline::{evaluate, rank_schedule, PlanEstimate};
