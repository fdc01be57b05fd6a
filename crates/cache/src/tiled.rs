//! The tiled cache fabric: N private L1s in front of one shared,
//! inclusive LLC.
//!
//! This is the single implementation of the fill/evict/promote path used
//! by every simulated chip shape: `System` in `proram-sim` runs one
//! tile for a single core and several for the multi-core ablations, so
//! the two cannot diverge in cache semantics.
//!
//! Inclusion is maintained globally: every line resident in any tile's L1
//! is also resident in the shared LLC, and an LLC eviction
//! back-invalidates the line from every L1, folding any L1 dirtiness into
//! the departing line.

use crate::cache::{Cache, CacheStats, Evicted};
use crate::hierarchy::{CacheAccess, HierarchyConfig, HierarchyStats};
use proram_mem::{BlockAddr, CacheProbe};

/// `tiles` private L1 caches sharing one inclusive LLC.
///
/// Every operation that involves an L1 takes the tile index it acts on;
/// the LLC is shared state. With `tiles == 1` the behaviour is exactly
/// the classic two-level inclusive hierarchy.
///
/// # Examples
///
/// ```
/// use proram_cache::{CacheAccess, HierarchyConfig, TiledHierarchy};
/// use proram_mem::BlockAddr;
///
/// let mut t = TiledHierarchy::new(HierarchyConfig::default(), 2);
/// assert!(matches!(t.access(0, BlockAddr(3), false), CacheAccess::Miss { .. }));
/// t.fill(0, BlockAddr(3), false, false);
/// // Tile 0 has the line in its L1; tile 1 finds it in the shared LLC.
/// assert!(matches!(t.access(0, BlockAddr(3), false), CacheAccess::L1Hit { .. }));
/// assert!(matches!(t.access(1, BlockAddr(3), false), CacheAccess::L2Hit { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct TiledHierarchy {
    config: HierarchyConfig,
    l1s: Vec<Cache>,
    l2: Cache,
    /// Dirty lines that left the fabric, L1 dirtiness folded in.
    writebacks: u64,
    /// Prefetched lines that left the fabric unused.
    unused_prefetch_evictions: u64,
}

impl TiledHierarchy {
    /// Creates an empty fabric with `tiles` private L1s.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(config: HierarchyConfig, tiles: usize) -> Self {
        assert!(tiles > 0, "need at least one tile");
        TiledHierarchy {
            config,
            l1s: (0..tiles).map(|_| Cache::new(config.l1)).collect(),
            l2: Cache::new(config.l2),
            writebacks: 0,
            unused_prefetch_evictions: 0,
        }
    }

    /// Number of tiles (private L1s).
    pub fn tiles(&self) -> usize {
        self.l1s.len()
    }

    /// The geometry this fabric was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Performs a demand access from `tile` (load if `write` is false,
    /// store otherwise).
    ///
    /// On an LLC hit the line is promoted into the tile's L1; any dirty
    /// L1 victim folds its dirty bit into the (inclusive) LLC copy.
    #[inline]
    pub fn access(&mut self, tile: usize, block: BlockAddr, write: bool) -> CacheAccess {
        let l1_lat = u64::from(self.config.l1.hit_latency);
        if self.l1s[tile].lookup(block, write).is_some() {
            return CacheAccess::L1Hit { latency: l1_lat };
        }
        let l2_lat = l1_lat + u64::from(self.config.l2.hit_latency);
        match self.l2.lookup(block, false) {
            Some(hit) => {
                self.promote_to_l1(tile, block, write);
                CacheAccess::L2Hit {
                    latency: l2_lat,
                    prefetch_first_use: hit.prefetch_first_use,
                }
            }
            None => CacheAccess::Miss { latency: l2_lat },
        }
    }

    /// Installs a block arriving from memory on behalf of `tile`.
    ///
    /// `prefetched` fills stop at the shared LLC; demand fills are also
    /// promoted into the tile's L1, where `write` marks them dirty.
    /// Returns the line that must leave the fabric entirely, if the LLC
    /// insert displaced one (it displaces at most one; an L1 victim stays
    /// in the inclusive LLC): a dirty one needs a memory writeback, a
    /// clean one only a notification. The fabric counts the departure
    /// here, the one place its final dirtiness is known.
    pub fn fill(
        &mut self,
        tile: usize,
        block: BlockAddr,
        prefetched: bool,
        write: bool,
    ) -> Option<Evicted> {
        let mut victim = self.l2.insert(block, prefetched);
        if let Some(victim) = &mut victim {
            // Inclusive fabric: every L1 copy (any tile) must go too, and
            // its dirtiness folds into the departing line.
            for l1 in &mut self.l1s {
                if let Some(l1_victim) = l1.invalidate(victim.block) {
                    victim.dirty |= l1_victim.dirty;
                }
            }
            self.writebacks += u64::from(victim.dirty);
            self.unused_prefetch_evictions += u64::from(victim.prefetched_unused);
        }
        if prefetched {
            debug_assert!(!write, "prefetch fills cannot be stores");
        } else {
            self.promote_to_l1(tile, block, write);
        }
        victim
    }

    fn promote_to_l1(&mut self, tile: usize, block: BlockAddr, write: bool) {
        if let Some(victim) = self.l1s[tile].insert(block, false) {
            if victim.dirty && !self.l2.mark_dirty(victim.block) {
                // Inclusion guarantees the LLC still holds the line; this
                // branch would mean the invariant broke.
                unreachable!(
                    "inclusion violated: L1 victim {} absent from LLC",
                    victim.block
                );
            }
        }
        if write {
            self.l1s[tile].mark_dirty(block);
        }
    }

    /// `true` if the block is resident anywhere in the fabric.
    ///
    /// Because the fabric is inclusive this is just the LLC tag probe
    /// that the PrORAM merge scheme performs.
    pub fn contains_block(&self, block: BlockAddr) -> bool {
        self.l2.peek(block)
    }

    /// Aggregate counters: L1 counters summed over tiles, the shared
    /// LLC's counters, and the fabric's count of the lines that left it.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1: self
                .l1s
                .iter()
                .fold(CacheStats::default(), |acc, c| acc + c.stats()),
            l2: self.l2.stats(),
            writebacks: self.writebacks,
            unused_prefetch_evictions: self.unused_prefetch_evictions,
        }
    }

    /// Read-only view of the shared last-level cache.
    pub fn llc(&self) -> &Cache {
        &self.l2
    }

    /// Read-only view of one tile's first-level cache.
    pub fn l1(&self, tile: usize) -> &Cache {
        &self.l1s[tile]
    }
}

impl CacheProbe for TiledHierarchy {
    fn contains(&self, block: BlockAddr) -> bool {
        self.contains_block(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn small(tiles: usize) -> TiledHierarchy {
        // L1: 1 set x 2 ways; L2: 2 sets x 2 ways.
        TiledHierarchy::new(
            HierarchyConfig {
                l1: CacheConfig::new(256, 2, 128, 1),
                l2: CacheConfig::new(512, 2, 128, 8),
            },
            tiles,
        )
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tiles_rejected() {
        small(0);
    }

    #[test]
    fn l1s_are_private_but_llc_is_shared() {
        let mut t = small(2);
        t.fill(0, BlockAddr(0), false, false);
        // Tile 1's L1 does not have the line, the shared LLC does.
        assert!(matches!(
            t.access(1, BlockAddr(0), false),
            CacheAccess::L2Hit { .. }
        ));
        // Now both L1s hold it.
        assert!(matches!(
            t.access(0, BlockAddr(0), false),
            CacheAccess::L1Hit { .. }
        ));
        assert!(matches!(
            t.access(1, BlockAddr(0), false),
            CacheAccess::L1Hit { .. }
        ));
    }

    #[test]
    fn llc_eviction_back_invalidates_every_tile() {
        let mut t = small(2);
        t.fill(0, BlockAddr(0), false, false);
        t.access(1, BlockAddr(0), false); // promote into tile 1's L1 too
        t.fill(0, BlockAddr(2), false, false);
        let ev = t
            .fill(1, BlockAddr(4), false, false)
            .expect("evicts 0 from LLC");
        assert_eq!(ev.block, BlockAddr(0));
        // A fresh access from either tile must be a full miss.
        assert!(matches!(
            t.access(0, BlockAddr(0), false),
            CacheAccess::Miss { .. }
        ));
        assert!(matches!(
            t.access(1, BlockAddr(0), false),
            CacheAccess::Miss { .. }
        ));
    }

    #[test]
    fn remote_l1_dirtiness_folds_into_llc_eviction() {
        let mut t = small(2);
        t.fill(1, BlockAddr(0), false, true); // dirty in tile 1's L1 only
        t.fill(0, BlockAddr(2), false, false);
        let ev = t.fill(0, BlockAddr(4), false, false).expect("set is full");
        assert_eq!(ev.block, BlockAddr(0));
        assert!(ev.dirty, "tile 1's dirtiness must fold in");
        // The LLC array saw a clean victim; the fabric counts the
        // write-back its departure needs.
        assert_eq!(t.stats().l2.dirty_evictions, 0);
        assert_eq!(t.stats().writebacks, 1);
    }

    #[test]
    fn stats_sum_l1s_across_tiles() {
        let mut t = small(2);
        t.access(0, BlockAddr(0), false); // L1 miss + LLC miss
        t.fill(0, BlockAddr(0), false, false);
        t.access(1, BlockAddr(0), false); // L1 miss + LLC hit
        let s = t.stats();
        assert_eq!(s.l1.misses, 2);
        assert_eq!(s.l2.hits, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(t.l1(0).stats().misses, 1);
        assert_eq!(t.l1(1).stats().misses, 1);
    }

    #[test]
    fn one_tile_matches_classic_hierarchy_semantics() {
        let mut t = small(1);
        assert_eq!(
            t.access(0, BlockAddr(0), false),
            CacheAccess::Miss { latency: 9 }
        );
        assert!(t.fill(0, BlockAddr(0), false, false).is_none());
        assert_eq!(
            t.access(0, BlockAddr(0), false),
            CacheAccess::L1Hit { latency: 1 }
        );
    }

    #[test]
    fn probe_trait_matches_llc_contents() {
        let mut t = small(2);
        t.fill(0, BlockAddr(9), true, false);
        let probe: &dyn CacheProbe = &t;
        assert!(probe.contains(BlockAddr(9)));
        assert!(!probe.contains(BlockAddr(10)));
    }
}
