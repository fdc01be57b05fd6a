//! Set-associative cache hierarchy for the PrORAM simulator.
//!
//! Models the processor-side cache system from the paper's Table 1: a
//! private L1 (32 KB, 4-way) backed by a shared L2 / last-level cache
//! (512 KB, 8-way) with 128-byte lines, LRU replacement and write-back,
//! write-allocate policy. The L2 is inclusive of the L1 so the ORAM
//! controller's tag probe (`proram_mem::CacheProbe`) only needs to look in
//! one place.
//!
//! Last-level-cache lines carry the two state bits the dynamic super block
//! scheme needs (paper Section 4.3): a *prefetch* bit marking lines that
//! were brought in by a super-block prefetch rather than a demand access,
//! and a *used* bit recording whether such a line was touched after being
//! prefetched.
//!
//! # Examples
//!
//! ```
//! use proram_cache::{Cache, CacheConfig};
//! use proram_mem::BlockAddr;
//!
//! let mut cache = Cache::new(CacheConfig::new(1024, 2, 128, 1));
//! assert!(cache.lookup(BlockAddr(0), false).is_none()); // cold miss
//! cache.insert(BlockAddr(0), false);
//! assert!(cache.lookup(BlockAddr(0), false).is_some()); // hit
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod tiled;

pub use crate::cache::{Cache, CacheStats, Evicted, HitInfo};
pub use config::CacheConfig;
pub use hierarchy::{CacheAccess, HierarchyConfig, HierarchyStats};
pub use tiled::TiledHierarchy;
