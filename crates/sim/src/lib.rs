//! The trace-driven system simulator.
//!
//! Plays the role of Graphite \[21\] in the paper's methodology: a 1 GHz
//! in-order core (Table 1) executes a memory trace against the two-level
//! cache hierarchy; last-level misses go to a pluggable main memory —
//! DRAM, baseline Path ORAM, or an ORAM with static/dynamic super blocks
//! — optionally through a traditional stream prefetcher and/or the
//! periodic-access timing-channel protection.
//!
//! * [`config`] — system configuration (Table 1 defaults),
//! * [`system`] — the simulated chip at any core count: the one
//!   implementation of the step path, backend construction and per-core
//!   metrics accounting,
//! * [`metrics`] — per-run measurements (with per-core breakdowns) and
//!   the derived quantities the figures plot (speedup, normalized memory
//!   accesses, miss rates),
//! * [`runner`] — one-call experiment execution, including the per-core
//!   address ranges of a multi-core run,
//! * [`ShardedOram`] — address-partitioned controllers, kept only because
//!   the frozen benchmark crate (`perf/`) still calls it; no memory kind
//!   builds it.
//!
//! # Examples
//!
//! ```
//! use proram_sim::{runner, MemoryKind, SystemConfig};
//! use proram_workloads::{suite, Scale, Suite};
//!
//! let spec = suite::specs(Suite::Splash2)[0];
//! let scale = Scale { ops: 2_000, warmup_ops: 0, footprint_scale: 0.03, seed: 1 };
//! let cfg = SystemConfig::quick_test(MemoryKind::Dram);
//! let metrics = runner::run_spec(spec, scale, &cfg);
//! assert!(metrics.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
mod prefetch;
pub mod runner;
mod sharded;
pub mod system;

pub use config::{MemoryKind, SystemConfig};
pub use metrics::{CoreMetrics, RunMetrics};
pub use sharded::ShardedOram;
pub use system::System;
