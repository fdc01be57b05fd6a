//! Experiment harness regenerating every table and figure of the PrORAM
//! paper's evaluation (Section 5).
//!
//! Each experiment module produces the same rows/series the paper plots;
//! the `proram-bench` binary prints them as text tables ([`explain`] is
//! the one-run viewer beside them). Everything reported here is
//! simulated cycles; host time is `perf/`'s job. Absolute numbers
//! differ from the paper (different workload substitution and scale — see
//! EXPERIMENTS.md) but the comparisons the paper draws are reproduced.
//!
//! # Examples
//!
//! ```no_run
//! use proram_bench::exp::{self, RunCtx};
//! use proram_workloads::Scale;
//!
//! let tables = exp::fig6::run_6a(RunCtx::serial(Scale::quick()));
//! println!("{tables}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod exp;
pub mod explain;
