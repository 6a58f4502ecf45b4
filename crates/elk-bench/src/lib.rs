//! Reproduction harness for the paper's evaluation (§6).
//!
//! Every table and figure has a module under [`experiments`] exposing a
//! `run(&mut Ctx)` function, listed once in
//! [`experiments::REGISTRY`]. The one binary, `repro`, runs experiments
//! by id. They print the same rows/series the paper reports and write
//! machine-readable JSON under `results/`; `repro` upserts each
//! experiment's headline metrics into `results/BENCH.json`.
//!
//! Run one experiment, several, or all of them:
//!
//! ```text
//! cargo run --release -p elk-bench --bin repro -- fig17
//! cargo run --release -p elk-bench --bin repro -- fig19 fig21
//! cargo run --release -p elk-bench --bin repro -- all
//! ```
//!
//! Set `ELK_FULL=1` for the complete parameter grids (several times
//! slower); the default "quick" grids cover every series with fewer
//! points.
//!
//! Each experiment that compares designs builds one base
//! [`DesignRunner`](elk_baselines::DesignRunner) and derives every
//! design point from it with `with_system(..).run_designs(..)`, so a
//! point pays only for what it changes: an HBM point reuses the fit and
//! plan sets, a core-count or SRAM-port point reuses the fit, and a NoC
//! or compute point refits.
//!
//! Programmatic use — every experiment is a library function over a
//! [`Ctx`]:
//!
//! ```
//! let mut ctx = elk_bench::Ctx::new("doctest");
//! ctx.table(
//!     &["design", "ms"],
//!     &[vec!["ELK-Full".into(), "4.87".into()]],
//! );
//! ```

#![warn(missing_docs)]

pub mod bench_json;
pub mod ctx;
pub mod experiments;

pub use ctx::{parse_out, Ctx};
