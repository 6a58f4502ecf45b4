//! Reproduction harness for the paper's evaluation (§6).
//!
//! Every table and figure has a module under [`experiments`] exposing a
//! `run(&Ctx)` function, a thin binary wrapper in `src/bin/`, and an entry
//! in the `repro_all` driver. Experiments print the same rows/series the
//! paper reports and write machine-readable JSON under `results/`.
//!
//! Run one experiment:
//!
//! ```text
//! cargo run --release -p elk-bench --bin fig17
//! ```
//!
//! Run everything (writes `results/*.{txt,json}`):
//!
//! ```text
//! cargo run --release -p elk-bench --bin repro_all
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

pub use ctx::{bin_ctx, parse_out, Ctx};
