//! Typed physical quantities used throughout the Elk workspace.
//!
//! The Elk compiler and simulator juggle three resource dimensions — memory
//! capacity, time, and bandwidth — whose raw representations (`u64`, `f64`)
//! are easy to confuse. This crate wraps them in transparent newtypes with
//! the arithmetic that is physically meaningful and nothing more:
//!
//! ```
//! use elk_units::{Bytes, ByteRate, Seconds};
//!
//! let tensor = Bytes::mib(168);
//! let link = ByteRate::gib_per_sec(5.5);
//! let t: Seconds = tensor / link;
//! assert!(t > Seconds::ZERO);
//! ```
//!
//! These types sit on every hot path of the workspace, and no build of it
//! uses LTO, so each function here is `#[inline]` (the crate warns on a
//! public one that is not) and the panic and formatting paths live in
//! `#[cold]` helpers that stay out of line. [`Seconds`] orders as `f64`
//! does, not by [`f64::total_cmp`]: `-0.0 == 0.0`, ties in
//! [`Seconds::max`]/[`Seconds::min`] keep `self`, and comparing a NaN
//! (which construction forbids) panics.

#![warn(missing_docs)]
#![warn(clippy::missing_inline_in_public_items)]

mod bytes;
mod flops;
mod rate;
mod time;

pub use bytes::Bytes;
pub use flops::{FlopRate, Flops};
pub use rate::ByteRate;
pub use time::Seconds;

/// The panic of a failed checked constructor, out of line so the inlined
/// constructors stay small.
#[cold]
#[inline(never)]
fn fail(message: String) -> ! {
    panic!("{message}")
}
