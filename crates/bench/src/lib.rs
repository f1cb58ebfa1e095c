#![warn(missing_docs)]

//! Benchmark harness regenerating every figure and table of the Ziggy
//! paper (`src/bin/run_all.rs` lists every exhibit).
//!
//! Each experiment is a library function returning a printable report, so
//! the `src/bin/*` wrappers stay thin and integration tests can execute
//! scaled-down variants.

pub mod experiments;
pub mod harness;

pub use harness::{format_duration_us, MarkdownTable};
