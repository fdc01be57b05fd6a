//! Geometry, access outcomes and counters of the two-level inclusive
//! hierarchy (L1 + shared L2/LLC) that [`crate::TiledHierarchy`] implements.

use crate::cache::CacheStats;
use crate::config::CacheConfig;

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
        /// line — the event that must set the block's hit bit in the
        /// super-block scheme's prefetch ledger.
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
}

/// The cache fabric's ledger: each level's own counters, and what left
/// the fabric for memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// First-level counters, summed over tiles.
    pub l1: CacheStats,
    /// Second-level counters.
    pub l2: CacheStats,
    /// Lines that left the fabric dirty, each one memory write-back. A
    /// line dirty only in an L1 counts here but not in
    /// `l2.dirty_evictions`.
    pub writebacks: u64,
    /// Prefetched lines that left the fabric without being used.
    pub unused_prefetch_evictions: u64,
}

impl std::ops::Sub for HierarchyStats {
    type Output = HierarchyStats;

    fn sub(self, rhs: HierarchyStats) -> HierarchyStats {
        HierarchyStats {
            l1: self.l1 - rhs.l1,
            l2: self.l2 - rhs.l2,
            writebacks: self.writebacks - rhs.writebacks,
            unused_prefetch_evictions: self.unused_prefetch_evictions
                - rhs.unused_prefetch_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiled::TiledHierarchy;
    use proram_mem::{BlockAddr, CacheProbe};

    /// One tile: the single-core chip every figure but the scaling
    /// ablations runs on.
    fn small() -> TiledHierarchy {
        // L1: 1 set x 2 ways; L2: 2 sets x 2 ways.
        TiledHierarchy::new(
            HierarchyConfig {
                l1: CacheConfig::new(256, 2, 128, 1),
                l2: CacheConfig::new(512, 2, 128, 8),
            },
            1,
        )
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut h = small();
        let a = h.access(0, BlockAddr(0), false);
        assert_eq!(a, CacheAccess::Miss { latency: 9 });
        assert!(h.fill(0, BlockAddr(0), false, false).is_none());
        let b = h.access(0, BlockAddr(0), false);
        assert_eq!(b, CacheAccess::L1Hit { latency: 1 });
    }

    #[test]
    fn prefetch_fill_hits_in_l2_not_l1() {
        let mut h = small();
        h.fill(0, BlockAddr(5), true, false);
        match h.access(0, BlockAddr(5), false) {
            CacheAccess::L2Hit {
                prefetch_first_use, ..
            } => assert!(prefetch_first_use),
            other => panic!("expected L2 hit, got {other:?}"),
        }
        // Promoted now; second access is an L1 hit.
        assert!(matches!(
            h.access(0, BlockAddr(5), false),
            CacheAccess::L1Hit { .. }
        ));
    }

    #[test]
    fn first_use_reported_only_once() {
        let mut h = small();
        h.fill(0, BlockAddr(5), true, false);
        assert!(matches!(
            h.access(0, BlockAddr(5), false),
            CacheAccess::L2Hit {
                prefetch_first_use: true,
                ..
            }
        ));
        // Push it out of L1 but keep it in L2 (L1 is 1 set x 2 ways).
        h.fill(0, BlockAddr(1), false, false);
        h.fill(0, BlockAddr(2), false, false);
        match h.access(0, BlockAddr(5), false) {
            CacheAccess::L2Hit {
                prefetch_first_use, ..
            } => assert!(!prefetch_first_use),
            other => panic!("expected L2 hit, got {other:?}"),
        }
    }

    #[test]
    fn dirty_l2_eviction_reported_for_writeback() {
        let mut h = small();
        // A store: dirty in the L1.
        h.fill(0, BlockAddr(0), false, true);
        // Evict 0 from L2 set 0 by filling two more blocks in that set.
        h.fill(0, BlockAddr(2), false, false);
        let ev = h.fill(0, BlockAddr(4), false, false).expect("set is full");
        assert_eq!(ev.block, BlockAddr(0));
        assert!(ev.dirty, "dirtiness must fold in from the L1 copy");
        assert!(!h.contains_block(BlockAddr(0)));
    }

    #[test]
    fn clean_eviction_reported_clean() {
        let mut h = small();
        h.fill(0, BlockAddr(0), false, false);
        h.fill(0, BlockAddr(2), false, false);
        let ev = h.fill(0, BlockAddr(4), false, false).expect("set is full");
        assert!(!ev.dirty);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let mut h = small();
        h.fill(0, BlockAddr(0), false, false);
        h.fill(0, BlockAddr(2), false, false);
        // Evicts 0 from L2 and L1: a fresh access to it must be a full miss.
        h.fill(0, BlockAddr(4), false, false);
        assert!(matches!(
            h.access(0, BlockAddr(0), false),
            CacheAccess::Miss { .. }
        ));
    }

    #[test]
    fn unused_prefetch_eviction_flagged() {
        let mut h = small();
        h.fill(0, BlockAddr(0), true, false);
        h.fill(0, BlockAddr(2), false, false);
        let ev = h.fill(0, BlockAddr(4), false, false).expect("set is full");
        assert!(ev.prefetched_unused);
    }

    #[test]
    fn write_through_hierarchy_marks_l1_dirty() {
        let mut h = small();
        h.fill(0, BlockAddr(0), false, false);
        assert!(matches!(
            h.access(0, BlockAddr(0), true),
            CacheAccess::L1Hit { .. }
        ));
        // Force the line out of both levels and check the writeback.
        h.fill(0, BlockAddr(2), false, false);
        let ev = h.fill(0, BlockAddr(4), false, false).expect("set is full");
        assert!(ev.dirty);
    }

    #[test]
    fn probe_trait_matches_l2_contents() {
        let mut h = small();
        h.fill(0, BlockAddr(9), true, false);
        let probe: &dyn CacheProbe = &h;
        assert!(probe.contains(BlockAddr(9)));
        assert!(!probe.contains(BlockAddr(10)));
    }

    #[test]
    fn stats_accumulate_per_level() {
        let mut h = small();
        h.access(0, BlockAddr(0), false); // L1 miss + L2 miss
        h.fill(0, BlockAddr(0), false, false);
        h.access(0, BlockAddr(0), false); // L1 hit
        let s = h.stats();
        assert_eq!(s.l1.hits, 1);
        assert_eq!(s.l1.misses, 1);
        assert_eq!(s.l2.misses, 1);
    }

    #[test]
    fn default_config_is_paper_geometry() {
        let h = TiledHierarchy::new(HierarchyConfig::default(), 1);
        assert_eq!(h.config().l1.capacity_bytes, 32 * 1024);
        assert_eq!(h.config().l2.capacity_bytes, 512 * 1024);
        assert_eq!(h.config().l2.line_bytes, 128);
    }

    #[test]
    fn l2_hit_latency_includes_l1_probe() {
        let mut h = small();
        h.fill(0, BlockAddr(3), true, false);
        assert_eq!(h.access(0, BlockAddr(3), false).latency(), 9);
    }
}
