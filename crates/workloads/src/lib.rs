//! Workload suite for the PrORAM evaluation.
//!
//! The paper evaluates on Splash2 \[37\], SPEC06 \[16\] and a DBMS \[38\]
//! running YCSB \[5\] and TPCC \[33\]. Those binaries (and the Graphite
//! frontend that traced them) are not reproducible here, so this crate
//! provides the substitution described in DESIGN.md: generators that
//! reproduce each benchmark's *memory character* — working-set size,
//! sequential/strided/random/pointer-chasing mix, and compute-per-access
//! ratio — which are precisely the properties the super-block schemes
//! respond to.
//!
//! * [`trace`] — the trace-op model and the [`Workload`] trait,
//! * [`pattern`] — reusable address-pattern components (sequential,
//!   strided, random, pointer-chase, bucket scatter, stencil),
//! * [`synthetic`] — the Section 5.3 microbenchmarks (locality sweep,
//!   phase change),
//! * [`splash2`] — 14 Splash2-like kernels,
//! * [`spec06`] — 10 SPEC06-like profiles,
//! * [`dbms`] — a real miniature storage engine (heap + hash index +
//!   B-tree) traced while running YCSB-like and TPCC-like transaction
//!   mixes,
//! * [`suite`] — the named benchmark registry used by the figures; the
//!   workloads it builds run their generator on a producer thread a
//!   chunk ahead of the simulator.
//!
//! # Examples
//!
//! ```
//! use proram_workloads::{synthetic::LocalityMix, Workload};
//!
//! let mut w = LocalityMix::new(1 << 14, 0.5, 1000, 7);
//! let op = w.next_op().expect("trace has ops");
//! assert!(op.addr < w.footprint_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dbms;
pub mod pattern;
mod pipeline;
pub mod spec06;
pub mod splash2;
pub mod suite;
pub mod synthetic;
pub mod trace;
pub mod tracefile;

pub use suite::{BenchSpec, Scale, Suite};
pub use trace::{TraceOp, Workload};
