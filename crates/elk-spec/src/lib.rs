//! # elk-spec — declarative scenario specs for the Elk reproduction
//!
//! Every chip, model, and workload used to be a hardcoded Rust preset;
//! exploring a new ICCA design point — the paper's whole premise —
//! meant recompiling the workspace. This crate makes experiments data:
//! a JSON **scenario** describes the system ([`spec::SystemSpec`]),
//! model ([`spec::ModelSpec`]), workload, compiler options, simulator
//! options, and serving setup, and the runners in [`runner`] drive the
//! exact engine entry points the preset paths use — so a scenario that
//! names a preset is byte-identical to the hardcoded run.
//!
//! ## Pipeline
//!
//! ```text
//! scenarios/*.json --parse--> ScenarioSpec --convert--> SystemConfig /
//!        |                     (strict, defaulted)      ModelGraph /
//!        |                                              ServeConfig ...
//!        v
//! elk CLI: compile | simulate | serve | sweep --> results/<name>.<cmd>.json
//!                                  |
//!                                  `-- sweep: dotted-path overrides over
//!                                      the JSON document, fanned out via
//!                                      elk-par, merged in grid order
//! ```
//!
//! ## Example
//!
//! ```
//! use elk_spec::{runner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::from_json(
//!     r#"{
//!       "name": "doctest",
//!       "model": {"zoo": "llama13", "layers": 2},
//!       "workload": {"batch": 16, "seq_len": 512}
//!     }"#,
//! )?;
//! let report = runner::run_compile(&spec)?;
//! assert_eq!(report.model, "Llama-2-13B");
//! assert_eq!(report.designs[0].report.capacity_violations, 0);
//! # Ok::<(), elk_spec::SpecError>(())
//! ```

#![warn(missing_docs)]

pub mod convert;
pub mod report;
pub mod runner;
pub mod spec;
pub mod sweep;

pub use convert::{ResolvedModel, SYSTEM_PRESETS};
pub use report::{CompileReport, ServeReport, SimulateReport, SweepReport, TraceGenReport};
pub use spec::{design_name, phase_name, ObserveSpec, ScenarioSpec, SweepCommand, TraceSourceSpec};
pub use sweep::run_sweep;

use std::fmt;

/// Why a scenario could not be parsed or run.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The JSON was malformed or did not match the schema.
    Parse(String),
    /// The spec parsed but violates an engine invariant.
    Invalid(String),
    /// The engine could not compile a plan for the scenario.
    Compile(elk_core::CompileError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(msg) => write!(f, "parse error: {msg}"),
            SpecError::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            SpecError::Compile(e) => write!(f, "compile error: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<serde::Error> for SpecError {
    fn from(e: serde::Error) -> Self {
        SpecError::Parse(e.to_string())
    }
}

impl From<elk_core::CompileError> for SpecError {
    fn from(e: elk_core::CompileError) -> Self {
        SpecError::Compile(e)
    }
}
