//! Versioned request-trace files and production-shaped generators.
//!
//! The serving engines (`elk-serve`, `elk-cluster`) consume a
//! [`RequestTrace`](elk_serve::RequestTrace) — a time-sorted list of
//! (arrival, prompt, output) triples. This crate gives that input a
//! durable on-disk form and a family of seeded generators so recorded
//! production traces and synthetic ones flow through one path:
//!
//! * [`TraceFile`] — the JSON-lines format, version-stamped, with a
//!   strict parser whose errors name the offending record index;
//! * [`TraceGenConfig`] — `elk-serve`'s one generator
//!   ([`TraceConfig`](elk_serve::TraceConfig): a [`RateShape`] and two
//!   [`LengthModel`]s) plus a tenant draw per record.
//!
//! # File format (version 1)
//!
//! One JSON object per line. The first line is the header; every
//! following line is a record:
//!
//! ```text
//! {"format":"elk-trace","version":1}
//! {"arrival_s":0.0125,"prompt_len":512,"output_len":8}
//! {"arrival_s":0.0871,"prompt_len":64,"output_len":12,"tenant":"t1"}
//! ```
//!
//! Records must be sorted by `arrival_s`; lengths are integers from 1
//! to [`MAX_TOKENS`](elk_serve::MAX_TOKENS); `tenant` is an optional
//! non-empty string. Unknown or
//! duplicate keys, negative lengths, non-finite times, and
//! out-of-order timestamps are all hard errors.
//!
//! ```
//! use elk_serve::TraceConfig;
//! use elk_trace::{RateShape, TraceGenConfig};
//!
//! let trace = TraceGenConfig {
//!     trace: TraceConfig {
//!         rate: RateShape::BurstTrain {
//!             base_rps: 50.0,
//!             burst_rps: 400.0,
//!             period_s: 1.0,
//!             burst_s: 0.2,
//!         },
//!         ..TraceConfig::default()
//!     },
//!     tenants: 2,
//! }
//! .generate();
//! let text = trace.to_jsonl();
//! let back = elk_trace::TraceFile::parse(&text).unwrap();
//! assert_eq!(back, trace);
//! assert_eq!(back.to_request_trace().len(), trace.len());
//! ```

#![warn(missing_docs)]

mod format;
mod generate;

pub use elk_serve::{LengthModel, RateShape};
pub use format::{TraceError, TraceFile, TraceRecord, FORMAT_NAME, FORMAT_VERSION};
pub use generate::TraceGenConfig;
