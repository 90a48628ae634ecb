//! # ratest-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Sections 7 and 8). The [`workload`] module builds the
//! query workloads (reference + mutated wrong queries), [`experiments`] runs
//! each experiment at a configurable scale and returns structured results,
//! and the `reproduce` binary prints them as text tables.
//!
//! Scales default to laptop-friendly sizes; pass larger sizes to the binary
//! to push towards the paper's 100 k-tuple / scale-1 settings (runtimes grow
//! accordingly). EXPERIMENTS.md records the shapes observed at the default
//! scales against the paper's reported numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod aggregate_golden;
#[cfg(test)]
mod course_golden;
#[cfg(test)]
mod eval_golden;
pub mod experiments;
pub mod render;
pub mod workload;

pub use experiments::*;
pub use workload::{course_workload, CoursePair};
