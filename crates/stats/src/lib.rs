//! Deterministic random number generation and statistics for the PrORAM
//! simulator.
//!
//! Every stochastic component of the simulator (leaf remapping, workload
//! generators, synthetic traces) draws from the [`Rng64`] trait implemented
//! by [`Xoshiro256`], a seedable, platform-stable generator. Keeping the RNG
//! in-tree guarantees that a given seed reproduces the same experiment on any
//! machine, which the paper's evaluation methodology depends on.
//!
//! The crate also provides the statistical toolkit used by the experiment
//! harness and the security tests:
//!
//! * [`Zipf`] — Zipfian sampler for the YCSB-like workload,
//! * [`Histogram`] — integer histograms (stash occupancy, path usage),
//! * [`summary::geometric_mean`] — the average the speedup tables report,
//! * [`chi2`] — chi-square uniformity tests over observed leaf sequences,
//! * [`table`] — plain-text table rendering for figure/table regeneration.
//!
//! # Examples
//!
//! ```
//! use proram_stats::{Rng64, Xoshiro256};
//!
//! let mut rng = Xoshiro256::seed_from(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//! // Same seed, same stream:
//! let mut rng2 = Xoshiro256::seed_from(42);
//! assert_eq!(rng2.next_u64(), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod chi2;
pub mod fxhash;
pub mod histogram;
pub mod rng;
pub mod summary;
pub mod table;
pub mod zipf;

pub use chart::BarChart;
pub use chi2::{chi2_uniform, serial_correlation};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use histogram::Histogram;
pub use rng::{Rng64, SplitMix64, Xoshiro256};
pub use table::Table;
pub use zipf::Zipf;
