//! # PrORAM — Dynamic Prefetcher for Oblivious RAM
//!
//! Umbrella crate for the reproduction of *"PrORAM: Dynamic Prefetcher
//! for Oblivious RAM"* (Yu et al., ISCA 2015). It re-exports every
//! workspace crate under one roof and hosts the runnable examples and the
//! cross-crate integration/security test-suites.
//!
//! | module | crate | what lives there |
//! |---|---|---|
//! | [`core_scheme`] | `proram-core` | the paper's contribution: dynamic/static super blocks |
//! | [`oram`] | `proram-oram` | Path ORAM: tree, stash, recursive position map, crypto |
//! | [`mem`] | `proram-mem` | memory-backend trait, DRAM model, (adaptive) periodic timing protection |
//! | [`cache`] | `proram-cache` | L1 + LLC hierarchy with prefetch/hit bits |
//! | [`workloads`] | `proram-workloads` | synthetic, Splash2-like, SPEC06-like, YCSB/TPCC-like traces |
//! | [`sim`] | `proram-sim` | the trace-driven system simulator |
//! | [`stats`] | `proram-stats` | deterministic RNG and the statistics toolkit |
//!
//! # Examples
//!
//! Run a workload against PrORAM and the baseline and compare:
//!
//! ```
//! use proram::core_scheme::SchemeConfig;
//! use proram::sim::{runner, MemoryKind, SystemConfig};
//! use proram::workloads::synthetic::LocalityMix;
//!
//! let build = || LocalityMix::with_stride(1 << 20, 1.0, 5_000, 7, 128);
//!
//! let mut w = build();
//! let base_cfg = SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::baseline()));
//! let baseline = runner::run_workload(&mut w, &base_cfg);
//!
//! let mut w = build();
//! let dyn_cfg = SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::dynamic(2)));
//! let proram = runner::run_workload(&mut w, &dyn_cfg);
//!
//! // Identical traces, two memory systems, directly comparable metrics.
//! assert_eq!(baseline.trace_ops, proram.trace_ops);
//! ```
//!
//! See `examples/` for complete programs (quickstart, an oblivious
//! key-value store, a locality explorer, the adversary's view) and
//! `proram-bench` for the paper's full evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use proram_cache as cache;
pub use proram_core as core_scheme;
pub use proram_mem as mem;
pub use proram_oram as oram;
pub use proram_sim as sim;
pub use proram_stats as stats;
pub use proram_workloads as workloads;
