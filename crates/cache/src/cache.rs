//! A single set-associative, write-back cache with LRU replacement.

use crate::config::CacheConfig;
use proram_mem::{BlockAddr, CacheProbe};

/// Per-line metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    block: BlockAddr,
    dirty: bool,
    /// Set when the line was filled by a prefetch rather than a demand.
    prefetched: bool,
    /// Set on the first demand touch of a prefetched line.
    used: bool,
}

impl Line {
    /// What an unoccupied slot holds; never read (see [`Cache`]).
    const EMPTY: Line = Line {
        block: BlockAddr(0),
        dirty: false,
        prefetched: false,
        used: false,
    };

    /// The record of this line leaving the cache.
    fn evicted(self) -> Evicted {
        Evicted {
            block: self.block,
            dirty: self.dirty,
            prefetched_unused: self.prefetched && !self.used,
        }
    }
}

/// Makes `line` the most recently used of `lines`: the `pos` lines before
/// it move one slot down (over slot `pos`) and it takes slot 0. An MRU
/// hit (`pos == 0`) moves nothing.
///
/// A loop and not `copy_within`: at most `ways - 1` records move, and
/// moving them here costs less than the call to a `memmove` of run-time
/// length (DESIGN.md section 10).
fn place_at_front(lines: &mut [Line], pos: usize, line: Line) {
    for i in (0..pos).rev() {
        lines[i + 1] = lines[i];
    }
    lines[0] = line;
}

/// Information returned on a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// `true` if this was the first demand touch of a prefetched line —
    /// the event that sets the paper's *hit bit* (Algorithm 2).
    pub prefetch_first_use: bool,
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The block that lost its line.
    pub block: BlockAddr,
    /// `true` if the line held modified data and must be written back.
    pub dirty: bool,
    /// `true` if the line was prefetched and never used — a prefetch miss
    /// in the paper's accounting.
    pub prefetched_unused: bool,
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups that hit.
    pub hits: u64,
    /// Demand lookups that missed.
    pub misses: u64,
    /// Lines evicted (any reason).
    pub evictions: u64,
    /// Dirty lines evicted, by this array's own dirty bits. A line dirty
    /// only in an L1 above it is not among them; the fabric's
    /// `HierarchyStats::writebacks` counts it.
    pub dirty_evictions: u64,
}

impl std::ops::Sub for CacheStats {
    type Output = CacheStats;

    /// Field-wise difference; used to exclude warmup from run statistics.
    fn sub(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - rhs.hits,
            misses: self.misses - rhs.misses,
            evictions: self.evictions - rhs.evictions,
            dirty_evictions: self.dirty_evictions - rhs.dirty_evictions,
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    /// Field-wise sum; used to aggregate per-tile counters.
    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
            dirty_evictions: self.dirty_evictions + rhs.dirty_evictions,
        }
    }
}

impl CacheStats {
    /// Miss ratio over demand lookups; `0.0` before any lookup.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache with true-LRU
/// replacement.
///
/// All lines live in one dense, set-major array: set `s` owns slots
/// `s * ways .. (s + 1) * ways`, of which the first `live[s]` are
/// resident, kept in recency order (slot 0 = most recently used, the
/// last live slot = the LRU victim). That makes LRU exact and cheap at
/// simulator-scale associativities, and a hit on the MRU line — most hits
/// of a strided sweep — a flag update with nothing moved.
///
/// # Examples
///
/// ```
/// use proram_cache::{Cache, CacheConfig};
/// use proram_mem::BlockAddr;
///
/// let mut c = Cache::new(CacheConfig::new(256, 2, 128, 1)); // 1 set, 2 ways
/// c.insert(BlockAddr(0), false);
/// c.insert(BlockAddr(1), false);
/// let evicted = c.insert(BlockAddr(2), false).expect("set was full");
/// assert_eq!(evicted.block, BlockAddr(0)); // LRU victim
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    /// Resident lines per set.
    live: Vec<u8>,
    ways: usize,
    /// `num_sets - 1`; the set count is a power of two.
    set_mask: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CacheConfig::check`] — its fields are
    /// public, so it may have been edited since `CacheConfig::new`.
    pub fn new(config: CacheConfig) -> Self {
        config.check();
        let num_sets = config.num_sets();
        let ways = config.ways as usize;
        Cache {
            config,
            lines: vec![Line::EMPTY; num_sets as usize * ways],
            live: vec![0; num_sets as usize],
            ways,
            set_mask: num_sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set `block` maps to.
    fn set_index(&self, block: BlockAddr) -> usize {
        (block.0 & self.set_mask) as usize
    }

    /// The resident lines of `set`, most recently used first.
    fn resident(&self, set: usize) -> &[Line] {
        &self.lines[set * self.ways..][..usize::from(self.live[set])]
    }

    /// Mutable form of [`resident`](Self::resident).
    fn resident_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..][..usize::from(self.live[set])]
    }

    /// Demand lookup. On a hit the line becomes MRU, `write` marks it
    /// dirty, and a prefetched line records its first use. Returns `None`
    /// on a miss.
    ///
    /// Inlined across crates together with [`TiledHierarchy::access`]: an
    /// L1 hit is the whole cost of most trace ops.
    ///
    /// [`TiledHierarchy::access`]: crate::TiledHierarchy::access
    #[inline]
    pub fn lookup(&mut self, block: BlockAddr, write: bool) -> Option<HitInfo> {
        let set = self.set_index(block);
        let lines = self.resident_mut(set);
        match lines.iter().position(|l| l.block == block) {
            Some(pos) => {
                let mut line = lines[pos];
                line.dirty |= write;
                let first_use = line.prefetched && !line.used;
                line.used = true;
                place_at_front(lines, pos, line);
                self.stats.hits += 1;
                Some(HitInfo {
                    prefetch_first_use: first_use,
                })
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Tag-only probe; does not disturb LRU or counters.
    pub fn peek(&self, block: BlockAddr) -> bool {
        let set = self.set_index(block);
        self.resident(set).iter().any(|l| l.block == block)
    }

    /// Inserts `block` as MRU, evicting the LRU line if the set is full.
    ///
    /// `prefetched` marks a super-block / prefetcher fill. If the block is
    /// already resident the existing line is refreshed instead (its dirty
    /// bit is kept; a resident line is never downgraded to prefetched).
    pub fn insert(&mut self, block: BlockAddr, prefetched: bool) -> Option<Evicted> {
        let set = self.set_index(block);
        let last_way = self.ways - 1;
        let lines = self.resident_mut(set);
        if let Some(pos) = lines.iter().position(|l| l.block == block) {
            place_at_front(lines, pos, lines[pos]);
            return None;
        }
        // A full set gives up its last slot, the LRU line.
        let victim = lines.get(last_way).copied();
        match victim {
            Some(v) => {
                self.stats.evictions += 1;
                self.stats.dirty_evictions += u64::from(v.dirty);
            }
            None => self.live[set] += 1,
        }
        // The new line takes slot 0 and everything else moves one slot
        // down: into the slot just made live, or over the victim.
        let lines = self.resident_mut(set);
        place_at_front(
            lines,
            lines.len() - 1,
            Line {
                block,
                dirty: false,
                prefetched,
                used: !prefetched,
            },
        );
        victim.map(Line::evicted)
    }

    /// Marks a resident line dirty; returns `false` if absent.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let set = self.set_index(block);
        if let Some(line) = self.resident_mut(set).iter_mut().find(|l| l.block == block) {
            line.dirty = true;
            true
        } else {
            false
        }
    }

    /// Removes `block`, returning its eviction record if it was resident.
    ///
    /// Used for inclusive-hierarchy back-invalidation.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Evicted> {
        let set = self.set_index(block);
        let lines = self.resident_mut(set);
        let pos = lines.iter().position(|l| l.block == block)?;
        let v = lines[pos];
        lines.copy_within(pos + 1.., pos);
        self.live[set] -= 1;
        Some(v.evicted())
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.live.iter().map(|&n| usize::from(n)).sum()
    }

    /// `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.live.iter().all(|&n| n == 0)
    }

    /// Iterates over resident blocks (unspecified order).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.live.len()).flat_map(|set| self.resident(set).iter().map(|l| l.block))
    }
}

impl CacheProbe for Cache {
    fn contains(&self, block: BlockAddr) -> bool {
        self.peek(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 1 set, 2 ways.
        Cache::new(CacheConfig::new(256, 2, 128, 1))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(c.lookup(BlockAddr(0), false).is_none());
        c.insert(BlockAddr(0), false);
        assert!(c.lookup(BlockAddr(0), false).is_some());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        c.insert(BlockAddr(0), false);
        c.insert(BlockAddr(1), false);
        // Touch 0 so 1 becomes LRU.
        c.lookup(BlockAddr(0), false);
        let e = c.insert(BlockAddr(2), false).expect("eviction");
        assert_eq!(e.block, BlockAddr(1));
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.insert(BlockAddr(0), false);
        c.lookup(BlockAddr(0), true);
        c.insert(BlockAddr(1), false);
        let e = c.insert(BlockAddr(2), false).expect("eviction");
        assert_eq!(e.block, BlockAddr(0));
        assert!(e.dirty);
    }

    #[test]
    fn prefetched_line_first_use_reported_once() {
        let mut c = tiny();
        c.insert(BlockAddr(7), true);
        let h1 = c.lookup(BlockAddr(7), false).unwrap();
        assert!(h1.prefetch_first_use);
        let h2 = c.lookup(BlockAddr(7), false).unwrap();
        assert!(!h2.prefetch_first_use);
    }

    #[test]
    fn demand_fill_never_reports_first_use() {
        let mut c = tiny();
        c.insert(BlockAddr(7), false);
        assert!(!c.lookup(BlockAddr(7), false).unwrap().prefetch_first_use);
    }

    #[test]
    fn unused_prefetch_eviction_flagged() {
        let mut c = tiny();
        c.insert(BlockAddr(0), true);
        c.insert(BlockAddr(1), false);
        c.lookup(BlockAddr(1), false);
        let e = c.insert(BlockAddr(2), false).expect("eviction");
        assert_eq!(e.block, BlockAddr(0));
        assert!(e.prefetched_unused);
    }

    #[test]
    fn used_prefetch_eviction_not_flagged() {
        let mut c = tiny();
        c.insert(BlockAddr(0), true);
        c.lookup(BlockAddr(0), false); // use it
        c.insert(BlockAddr(1), false);
        c.lookup(BlockAddr(1), false);
        let e = c.insert(BlockAddr(2), false).expect("eviction");
        assert_eq!(e.block, BlockAddr(0));
        assert!(!e.prefetched_unused);
    }

    #[test]
    fn reinserting_resident_block_keeps_dirty() {
        let mut c = tiny();
        c.insert(BlockAddr(0), false);
        c.lookup(BlockAddr(0), true);
        assert!(c.insert(BlockAddr(0), false).is_none());
        c.insert(BlockAddr(1), false);
        let e = c.insert(BlockAddr(2), false).expect("eviction");
        // Block 1 is LRU? No: insert(0) made 0 MRU, then 1 MRU. LRU is 0.
        assert_eq!(e.block, BlockAddr(0));
        assert!(e.dirty, "dirty bit survives re-insertion");
    }

    #[test]
    fn peek_does_not_affect_lru_or_stats() {
        let mut c = tiny();
        c.insert(BlockAddr(0), false);
        c.insert(BlockAddr(1), false);
        assert!(c.peek(BlockAddr(0)));
        // 0 is still LRU despite the peek.
        let e = c.insert(BlockAddr(2), false).expect("eviction");
        assert_eq!(e.block, BlockAddr(0));
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(BlockAddr(0), false);
        c.lookup(BlockAddr(0), true);
        let e = c.invalidate(BlockAddr(0)).expect("was resident");
        assert!(e.dirty);
        assert!(!c.peek(BlockAddr(0)));
        assert!(c.invalidate(BlockAddr(0)).is_none());
    }

    #[test]
    fn mark_dirty_on_absent_block() {
        let mut c = tiny();
        assert!(!c.mark_dirty(BlockAddr(3)));
        c.insert(BlockAddr(3), false);
        assert!(c.mark_dirty(BlockAddr(3)));
    }

    #[test]
    fn len_and_resident_blocks() {
        let mut c = Cache::new(CacheConfig::new(1024, 2, 128, 1));
        assert!(c.is_empty());
        c.insert(BlockAddr(0), false);
        c.insert(BlockAddr(4), false);
        assert_eq!(c.len(), 2);
        let mut blocks: Vec<u64> = c.resident_blocks().map(|b| b.0).collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![0, 4]);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = Cache::new(CacheConfig::new(1024, 2, 128, 1)); // 4 sets
                                                                   // Fill set 0 with blocks 0 and 4; block 1 goes to set 1.
        c.insert(BlockAddr(0), false);
        c.insert(BlockAddr(4), false);
        assert!(c.insert(BlockAddr(1), false).is_none());
        // Third block in set 0 evicts.
        assert!(c.insert(BlockAddr(8), false).is_some());
    }

    #[test]
    fn set_index_wraps() {
        let c = Cache::new(CacheConfig::new(1024, 2, 128, 1)); // 4 sets
        assert_eq!(c.set_index(BlockAddr(0)), 0);
        assert_eq!(c.set_index(BlockAddr(5)), 1);
        assert_eq!(c.set_index(BlockAddr(7)), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn hand_edited_geometry_is_checked_again() {
        // Three sets would alias through the mask; `CacheConfig::new` never
        // saw this value.
        let mut config = CacheConfig::new(1024, 2, 128, 1);
        config.capacity_bytes = 3 * 2 * 128;
        Cache::new(config);
    }

    #[test]
    fn probe_trait_is_the_tag_peek() {
        let mut c = tiny();
        c.insert(BlockAddr(3), false);
        let probe: &dyn CacheProbe = &c;
        assert!(probe.contains(BlockAddr(3)));
        assert!(!probe.contains(BlockAddr(4)));
    }

    #[test]
    fn miss_rate_computation() {
        let mut c = tiny();
        c.lookup(BlockAddr(0), false);
        c.insert(BlockAddr(0), false);
        c.lookup(BlockAddr(0), false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
