//! PrORAM: the dynamic super block prefetcher for Path ORAM.
//!
//! This crate is the paper's contribution (Sections 3 and 4). It layers
//! *super blocks* — groups of neighboring data blocks forced onto the same
//! ORAM path so one path access prefetches the whole group — on top of the
//! Path ORAM substrate in `proram-oram`:
//!
//! * [`superblock`] — the neighbor/group algebra of Section 3.2 (power-of-
//!   two aligned groups; only neighbors can merge),
//! * [`policy`] — scheme configuration: the `oram` baseline, the *static
//!   super block* scheme of Section 3.3, and the *dynamic super block*
//!   scheme (PrORAM) of Section 4 with all its merge/break variants,
//! * [`threshold`] — static and adaptive thresholding (Section 4.4,
//!   Equation 1) with the merge-threshold hysteresis,
//! * [`window`] — the periodically refreshed eviction/access/prefetch-hit
//!   rates that feed adaptive thresholding,
//! * [`controller`] — [`SuperBlockOram`], the full controller implementing
//!   Algorithms 1 (merge) and 2 (break), usable as a
//!   [`proram_mem::MemoryBackend`].
//!
//! # Examples
//!
//! ```
//! use proram_core::{SchemeConfig, SuperBlockOram};
//! use proram_oram::OramConfig;
//! use proram_mem::{MemRequest, MemoryBackend, NoProbe, BlockAddr};
//!
//! let mut proram = SuperBlockOram::new(
//!     OramConfig::small_for_tests(512),
//!     SchemeConfig::dynamic(2),
//!     1,
//! );
//! let outcome = proram.access(0, MemRequest::read(BlockAddr(3)), &NoProbe);
//! assert!(!outcome.fills.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
mod ledger;
pub mod policy;
pub mod superblock;
pub mod threshold;
pub mod window;

pub use controller::SuperBlockOram;
pub use policy::{BreakPolicy, MergePolicy, SchemeConfig};
pub use superblock::SuperBlock;
pub use threshold::Thresholds;
pub use window::WindowStats;
