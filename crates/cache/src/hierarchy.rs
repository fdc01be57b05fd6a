//! The two-level inclusive cache hierarchy (L1 + shared L2/LLC).

use crate::cache::{Cache, CacheStats, Evicted};
use crate::config::CacheConfig;
use crate::tiled::TiledHierarchy;
use proram_mem::{BlockAddr, CacheProbe};

/// Geometry of the two levels.
///
/// Defaults are the paper's Table 1 (32 KB 4-way L1, 512 KB 8-way L2,
/// 128-byte lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Private first-level cache.
    pub l1: CacheConfig,
    /// Shared second-level (last-level) cache.
    pub l2: CacheConfig,
}

impl HierarchyConfig {
    /// The paper's configuration at a given line size (the Fig 14 sweep
    /// uses 64/128/256 bytes).
    pub fn paper(line_bytes: u32) -> Self {
        HierarchyConfig {
            l1: CacheConfig::paper_l1(line_bytes),
            l2: CacheConfig::paper_l2(line_bytes),
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper(128)
    }
}

/// Outcome of a demand access to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Served by the L1.
    L1Hit {
        /// Cycles to serve the access.
        latency: u64,
    },
    /// Served by the L2; the line was promoted into the L1.
    L2Hit {
        /// Cycles to serve the access (L1 probe + L2 hit).
        latency: u64,
        /// `true` on the first demand touch of a super-block-prefetched
        /// line — the event that must set the ORAM-side hit bit.
        prefetch_first_use: bool,
    },
    /// Missed both levels; main memory must be accessed.
    Miss {
        /// Cycles spent discovering the miss (both lookups).
        latency: u64,
    },
}

impl CacheAccess {
    /// Cycles consumed inside the hierarchy.
    pub fn latency(&self) -> u64 {
        match *self {
            CacheAccess::L1Hit { latency }
            | CacheAccess::L2Hit { latency, .. }
            | CacheAccess::Miss { latency } => latency,
        }
    }

    /// `true` unless main memory is needed.
    pub fn is_hit(&self) -> bool {
        !matches!(self, CacheAccess::Miss { .. })
    }
}

/// Hit/miss counters for both levels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// First-level counters.
    pub l1: CacheStats,
    /// Second-level counters.
    pub l2: CacheStats,
}

impl std::ops::Sub for HierarchyStats {
    type Output = HierarchyStats;

    fn sub(self, rhs: HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1 - rhs.l1,
            l2: self.l2 - rhs.l2,
        }
    }
}

impl std::ops::Add for HierarchyStats {
    type Output = HierarchyStats;

    fn add(self, rhs: HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1 + rhs.l1,
            l2: self.l2 + rhs.l2,
        }
    }
}

/// An inclusive L1 + L2 hierarchy with write-back, write-allocate policy.
///
/// Demand fills land in both levels; prefetch fills (super-block members,
/// stream-prefetcher lines) land in the L2 only, matching the paper: "The
/// block of interest is returned to the processor and the other blocks are
/// prefetched and put into the LLC."
///
/// This is the single-tile view of [`TiledHierarchy`], which owns the one
/// shared implementation of the lookup/fill/evict path.
///
/// # Examples
///
/// ```
/// use proram_cache::{CacheAccess, CacheHierarchy, HierarchyConfig};
/// use proram_mem::BlockAddr;
///
/// let mut h = CacheHierarchy::new(HierarchyConfig::default());
/// assert!(matches!(h.access(BlockAddr(3), false), CacheAccess::Miss { .. }));
/// h.fill(BlockAddr(3), false, false);
/// assert!(matches!(h.access(BlockAddr(3), false), CacheAccess::L1Hit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    tiled: TiledHierarchy,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            tiled: TiledHierarchy::new(config, 1),
        }
    }

    /// The geometry this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        self.tiled.config()
    }

    /// Performs a demand access (load if `write` is false, store
    /// otherwise).
    ///
    /// On an L2 hit the line is promoted to the L1; any dirty L1 victim
    /// folds its dirty bit into the (inclusive) L2 copy.
    pub fn access(&mut self, block: BlockAddr, write: bool) -> CacheAccess {
        self.tiled.access(0, block, write)
    }

    /// Installs a block arriving from memory.
    ///
    /// `prefetched` fills stop at the L2; demand fills are also promoted
    /// into the L1, where `write` marks them dirty. Returns the line that
    /// must leave the hierarchy entirely, if the fill displaced one: a
    /// dirty one needs a memory writeback, a clean one only a
    /// notification.
    pub fn fill(&mut self, block: BlockAddr, prefetched: bool, write: bool) -> Option<Evicted> {
        self.tiled.fill(0, block, prefetched, write)
    }

    /// `true` if the block is resident anywhere in the hierarchy.
    ///
    /// Because the hierarchy is inclusive this is just the LLC tag probe
    /// that the PrORAM merge scheme performs.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.tiled.contains_block(block)
    }

    /// Counters for both levels.
    pub fn stats(&self) -> HierarchyStats {
        self.tiled.stats()
    }

    /// Read-only view of the last-level cache.
    pub fn llc(&self) -> &Cache {
        self.tiled.llc()
    }

    /// Read-only view of the first-level cache.
    pub fn l1(&self) -> &Cache {
        self.tiled.l1(0)
    }
}

impl CacheProbe for CacheHierarchy {
    fn contains(&self, block: BlockAddr) -> bool {
        self.contains_block(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheHierarchy {
        // L1: 1 set x 2 ways; L2: 2 sets x 2 ways.
        CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig::new(256, 2, 128, 1),
            l2: CacheConfig::new(512, 2, 128, 8),
        })
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = small();
        let a = h.access(BlockAddr(0), false);
        assert_eq!(a, CacheAccess::Miss { latency: 9 });
        assert!(h.fill(BlockAddr(0), false, false).is_none());
        let b = h.access(BlockAddr(0), false);
        assert_eq!(b, CacheAccess::L1Hit { latency: 1 });
    }

    #[test]
    fn prefetch_fill_hits_in_l2_not_l1() {
        let mut h = small();
        h.fill(BlockAddr(5), true, false);
        match h.access(BlockAddr(5), false) {
            CacheAccess::L2Hit {
                prefetch_first_use, ..
            } => assert!(prefetch_first_use),
            other => panic!("expected L2 hit, got {other:?}"),
        }
        // Promoted now; second access is an L1 hit.
        assert!(matches!(
            h.access(BlockAddr(5), false),
            CacheAccess::L1Hit { .. }
        ));
    }

    #[test]
    fn first_use_reported_only_once() {
        let mut h = small();
        h.fill(BlockAddr(5), true, false);
        assert!(matches!(
            h.access(BlockAddr(5), false),
            CacheAccess::L2Hit {
                prefetch_first_use: true,
                ..
            }
        ));
        // Push it out of L1 but keep it in L2 (L1 is 1 set x 2 ways).
        h.fill(BlockAddr(1), false, false);
        h.fill(BlockAddr(2), false, false);
        match h.access(BlockAddr(5), false) {
            CacheAccess::L2Hit {
                prefetch_first_use, ..
            } => assert!(!prefetch_first_use),
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn dirty_l2_eviction_reported_for_writeback() {
        let mut h = small();
        h.fill(BlockAddr(0), false, true); // store -> dirty in L1
                                           // Evict 0 from L2 set 0 by filling two more blocks in that set.
        h.fill(BlockAddr(2), false, false);
        let ev = h.fill(BlockAddr(4), false, false).expect("set is full");
        assert_eq!(ev.block, BlockAddr(0));
        assert!(ev.dirty, "dirtiness must fold in from the L1 copy");
        assert!(!h.contains_block(BlockAddr(0)));
    }

    #[test]
    fn clean_eviction_reported_clean() {
        let mut h = small();
        h.fill(BlockAddr(0), false, false);
        h.fill(BlockAddr(2), false, false);
        let ev = h.fill(BlockAddr(4), false, false).expect("set is full");
        assert!(!ev.dirty);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let mut h = small();
        h.fill(BlockAddr(0), false, false);
        h.fill(BlockAddr(2), false, false);
        h.fill(BlockAddr(4), false, false); // evicts 0 from L2 and L1
                                            // A fresh access to 0 must be a full miss.
        assert!(matches!(
            h.access(BlockAddr(0), false),
            CacheAccess::Miss { .. }
        ));
    }

    #[test]
    fn unused_prefetch_eviction_flagged() {
        let mut h = small();
        h.fill(BlockAddr(0), true, false);
        h.fill(BlockAddr(2), false, false);
        let ev = h.fill(BlockAddr(4), false, false).expect("set is full");
        assert!(ev.prefetched_unused);
    }

    #[test]
    fn write_through_hierarchy_marks_l1_dirty() {
        let mut h = small();
        h.fill(BlockAddr(0), false, false);
        assert!(matches!(
            h.access(BlockAddr(0), true),
            CacheAccess::L1Hit { .. }
        ));
        // Force the line out of both levels and check the writeback.
        h.fill(BlockAddr(2), false, false);
        let ev = h.fill(BlockAddr(4), false, false).expect("set is full");
        assert!(ev.dirty);
    }

    #[test]
    fn probe_trait_matches_l2_contents() {
        let mut h = small();
        h.fill(BlockAddr(9), true, false);
        let probe: &dyn CacheProbe = &h;
        assert!(probe.contains(BlockAddr(9)));
        assert!(!probe.contains(BlockAddr(10)));
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut h = small();
        h.access(BlockAddr(0), false); // L1 miss + L2 miss
        h.fill(BlockAddr(0), false, false);
        h.access(BlockAddr(0), false); // L1 hit
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
    }

    #[test]
    fn default_config_is_paper_geometry() {
        let h = CacheHierarchy::new(HierarchyConfig::default());
        assert_eq!(h.config().l1.capacity_bytes, 32 * 1024);
        assert_eq!(h.config().l2.capacity_bytes, 512 * 1024);
        assert_eq!(h.config().l2.line_bytes, 128);
    }

    #[test]
    fn l2_hit_latency_includes_l1_probe() {
        let mut h = small();
        h.fill(BlockAddr(3), true, false);
        assert_eq!(h.access(BlockAddr(3), false).latency(), 9);
    }
}
