//! A Shi-et-al.-style binary-tree ORAM \[27\] with background eviction.
//!
//! The scheme the paper cites in Section 6.1 when claiming super blocks
//! generalize: "other ORAM schemes (e.g., \[27\]) have similar binary tree
//! structure to Path ORAM. After adding background eviction, these ORAM
//! schemes can also benefit from using super blocks."
//!
//! Differences from Path ORAM as modeled here:
//!
//! * the position map is flat and on-chip (the original scheme recurses
//!   too, but its signature mechanism is the eviction process, which is
//!   what matters for super-block generality);
//! * each access additionally runs an *incremental eviction step*: at
//!   every non-leaf level, `nu` randomly chosen buckets each push one
//!   block down one level toward its leaf, writing both children so the
//!   direction is hidden (the \[27\] eviction with dummy writes);
//! * the timing model charges the path transfer plus that eviction
//!   traffic, so a `ShiOram` access moves more bytes than a `PathOram`
//!   access of the same height — matching the schemes' relative costs.
//!
//! [`ShiOram`] implements [`crate::OramBackend`], so the super-block
//! controller in `proram-core` runs on it unchanged — reproducing the
//! Section 6.1 claim end to end.

use crate::addr::{AddressSpace, Leaf};
use crate::backend_trait::OramBackend;
use crate::block::Block;
use crate::bucket::Bucket;
use crate::controller::{OramStats, PathKind};
use crate::error::OramError;
use crate::eviction::{read_path, write_path};
use crate::pipeline::AccessReport;
use crate::posmap::PosEntry;
use crate::stash::Stash;
use crate::timing::OramTiming;
use crate::trace::{PhysEvent, TraceRecorder};
use crate::tree::OramTree;
use proram_mem::BlockAddr;
use proram_obs::Obs;
use proram_stats::{Rng64, Xoshiro256};

/// Bound on background evictions per request (see `PathOram`).
const MAX_BACKGROUND_EVICTIONS_PER_ACCESS: u64 = 64;

/// Configuration of the Shi-style tree ORAM.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiOramConfig {
    /// Number of data blocks.
    pub num_data_blocks: u64,
    /// Blocks per bucket, at most [`Bucket::MAX_Z`].
    pub z: usize,
    /// Stash capacity (physical, including one in-flight path).
    pub stash_limit: usize,
    /// Buckets evicted per level per access (the scheme's `nu`; \[27\]
    /// uses 2).
    pub eviction_rate: u32,
    /// Override for tree levels; `None` sizes like Path ORAM.
    pub levels_override: Option<u32>,
    /// Timing parameters.
    pub timing: OramTiming,
    /// Adversary-trace capacity (0 = disabled).
    pub trace_capacity: usize,
    /// Initial contiguous grouping (static super blocks).
    pub init_group_size: u64,
}

impl Default for ShiOramConfig {
    fn default() -> Self {
        ShiOramConfig {
            num_data_blocks: 1 << 14,
            z: 4,
            stash_limit: 100,
            eviction_rate: 2,
            levels_override: None,
            timing: OramTiming::default(),
            trace_capacity: 0,
            init_group_size: 1,
        }
    }
}

impl ShiOramConfig {
    /// Tree levels: override, or the same sizing rule as Path ORAM.
    pub fn tree_levels(&self) -> u32 {
        if let Some(l) = self.levels_override {
            return l;
        }
        let half = (self.num_data_blocks / 2).max(2);
        let leaves = 1u64 << (63 - half.leading_zeros());
        leaves.trailing_zeros() + 1
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot hold the blocks.
    pub fn validate(&self) {
        assert!(self.num_data_blocks > 0, "need data blocks");
        assert!(self.z > 0, "Z must be positive");
        assert!(self.z <= Bucket::MAX_Z, "Z above {}", Bucket::MAX_Z);
        assert!(self.eviction_rate > 0, "eviction rate must be positive");
        assert!(
            self.init_group_size.is_power_of_two(),
            "init group size must be a power of two"
        );
        let levels = self.tree_levels();
        let slots = ((1u64 << levels) - 1) * self.z as u64;
        assert!(self.num_data_blocks <= slots, "tree too small");
    }
}

/// The Shi-style tree ORAM.
///
/// # Examples
///
/// ```
/// use proram_oram::{OramBackend, ShiOram, ShiOramConfig};
/// use proram_mem::{AccessKind, BlockAddr};
///
/// let mut oram = ShiOram::new(ShiOramConfig { num_data_blocks: 256, ..Default::default() }, 7);
/// let report = oram.access_block(BlockAddr(10), AccessKind::Read);
/// assert!(report.tree_accesses >= 1);
/// oram.check_invariants();
/// ```
#[derive(Debug, Clone)]
pub struct ShiOram {
    config: ShiOramConfig,
    space: AddressSpace,
    tree: OramTree,
    stash: Stash,
    /// Flat on-chip position map.
    top: Vec<PosEntry>,
    rng: Xoshiro256,
    trace: TraceRecorder,
    stats: OramStats,
    path_cycles: u64,
    path_bytes: u64,
}

impl ShiOram {
    /// Builds and initializes the ORAM.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(config: ShiOramConfig, seed: u64) -> Self {
        config.validate();
        // Flat posmap: every entry on-chip (`on_tree_hierarchies = 0`).
        let space = AddressSpace::new(config.num_data_blocks, 32, 0);
        let levels = config.tree_levels();
        let mut rng = Xoshiro256::seed_from(seed);
        let mut tree = OramTree::new(levels, config.z);
        let leaves_count = u64::from(tree.num_leaves());
        let group = config.init_group_size;
        let mut top: Vec<PosEntry> = Vec::with_capacity(config.num_data_blocks as usize);
        for addr in 0..config.num_data_blocks {
            let leaf = if group > 1 && addr % group != 0 {
                top[(addr / group * group) as usize].leaf
            } else {
                Leaf(rng.next_below(leaves_count) as u32)
            };
            top.push(PosEntry::new(leaf));
        }
        let path_blocks = levels as usize * config.z;
        let resting = config.stash_limit.saturating_sub(path_blocks).max(8);
        let mut stash = Stash::new(resting);
        for addr in 0..config.num_data_blocks {
            let block = Block::opaque(BlockAddr(addr), top[addr as usize].leaf);
            let path: Vec<usize> = tree.path_indices(block.leaf).collect();
            let mut placed = false;
            for &idx in path.iter().rev() {
                if !tree.bucket(idx).is_full() {
                    tree.bucket_mut(idx).push(block.clone());
                    placed = true;
                    break;
                }
            }
            if !placed {
                stash.insert(block);
            }
        }
        // Per-access bytes: read+write the path, plus the eviction step
        // touching nu buckets per non-leaf level, each read once and both
        // children written (3 bucket transfers).
        let evict_buckets = 3 * config.eviction_rate as u64 * u64::from(levels - 1);
        let block_wire = u64::from(config.timing.block_bytes + config.timing.meta_bytes);
        let path_bytes = config.timing.path_bytes(levels, config.z)
            + evict_buckets * config.z as u64 * block_wire;
        let transfer = (path_bytes as f64 * config.timing.bandwidth_derate
            / f64::from(config.timing.bytes_per_cycle))
        .ceil() as u64;
        let path_cycles = transfer + u64::from(config.timing.fixed_overhead_cycles);
        let trace = if config.trace_capacity > 0 {
            TraceRecorder::enabled(config.trace_capacity)
        } else {
            TraceRecorder::disabled()
        };
        ShiOram {
            config,
            space,
            tree,
            stash,
            top,
            rng,
            trace,
            stats: OramStats::default(),
            path_cycles,
            path_bytes,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ShiOramConfig {
        &self.config
    }

    /// The adversary-trace recorder.
    pub fn trace(&self) -> &TraceRecorder {
        &self.trace
    }

    /// Clears the recorded trace.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// The scheme's incremental eviction: at each non-leaf level, `nu`
    /// random buckets each push one block one level down toward its leaf
    /// (if the child has room). Not adversary-distinguishable from any
    /// other access component — bucket choices are public randomness.
    fn eviction_step(&mut self) {
        let levels = self.tree.levels();
        for level in 0..levels - 1 {
            for _ in 0..self.config.eviction_rate {
                let width = 1u64 << level;
                let bucket_idx = (width - 1 + self.rng.next_below(width)) as usize;
                // Take the first block whose child bucket has room.
                let candidate = self
                    .tree
                    .bucket(bucket_idx)
                    .iter()
                    .map(|b| (b.addr, b.leaf))
                    .next();
                let Some((addr, leaf)) = candidate else {
                    continue;
                };
                // Child on the block's path at `level + 1`.
                let child_idx = self.tree.bucket_index(leaf, level + 1);
                // Only children of this bucket are reachable; the leaf's
                // level-(l+1) ancestor is a child of its level-l ancestor
                // exactly when the level-l ancestor is this bucket.
                if self.tree.bucket_index(leaf, level) != bucket_idx {
                    continue;
                }
                if !self.tree.bucket(child_idx).is_full() {
                    let block = self
                        .tree
                        .bucket_mut(bucket_idx)
                        .take(addr)
                        .expect("candidate present");
                    self.tree.bucket_mut(child_idx).push(block);
                }
            }
        }
    }

    /// Performs one plain (no super blocks) logical access.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn access_block(&mut self, addr: BlockAddr, kind: proram_mem::AccessKind) -> AccessReport {
        self.stats.logical_accesses += 1;
        let old_leaf = self.entry(addr).leaf;
        let new_leaf = self.random_leaf();
        self.entry_mut(addr).leaf = new_leaf;
        self.read_path_into_stash(old_leaf, PathKind::Data)
            .expect("shi backend has no encrypted image to fault");
        let block = self
            .stash
            .get_mut(addr)
            .unwrap_or_else(|| panic!("invariant broken: {addr} missing from {old_leaf}"));
        block.leaf = new_leaf;
        self.write_path_from_stash(old_leaf)
            .expect("shi backend write-back is infallible");
        let background_evictions = self
            .drain_background()
            .expect("shi backend has no encrypted image to fault");
        AccessReport::retire(
            &Obs::disabled(),
            addr,
            kind,
            0,
            background_evictions,
            self.path_cycles,
            0,
        )
    }

    /// Verifies that every block sits on its mapped path or in the stash.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn check_invariants(&self) {
        for addr in 0..self.config.num_data_blocks {
            let leaf = self.top[addr as usize].leaf;
            let addr = BlockAddr(addr);
            let found = self.stash.contains(addr)
                || self
                    .tree
                    .path_indices(leaf)
                    .any(|idx| self.tree.bucket(idx).iter().any(|b| b.addr == addr));
            assert!(found, "block {addr} mapped to {leaf} is unreachable");
        }
    }
}

impl OramBackend for ShiOram {
    fn space(&self) -> &AddressSpace {
        &self.space
    }

    fn resolve_posmap(&mut self, _child: BlockAddr) -> Result<u64, OramError> {
        Ok(0) // the entire position map is on-chip
    }

    fn entry(&self, child: BlockAddr) -> &PosEntry {
        &self.top[child.0 as usize]
    }

    fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry {
        &mut self.top[child.0 as usize]
    }

    fn read_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) -> Result<(), OramError> {
        read_path(&mut self.tree, &mut self.stash, leaf);
        match kind {
            PathKind::Data => {
                self.stats.data_path_accesses += 1;
                self.trace.record(PhysEvent::PathAccess(leaf));
            }
            PathKind::PosMap => {
                self.stats.posmap_path_accesses += 1;
                self.trace.record(PhysEvent::PathAccess(leaf));
            }
            PathKind::Dummy => {
                self.stats.background_evictions += 1;
                self.trace.record(PhysEvent::DummyAccess(leaf));
            }
        }
        self.stats.bytes_moved += self.path_bytes;
        self.stash.sample_occupancy();
        Ok(())
    }

    fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        write_path(&mut self.tree, &mut self.stash, leaf);
        self.eviction_step();
        Ok(())
    }

    fn stash_contains(&self, addr: BlockAddr) -> bool {
        self.stash.contains(addr)
    }

    fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.stash.get_mut(addr)
    }

    fn random_leaf(&mut self) -> Leaf {
        Leaf(self.rng.next_below(u64::from(self.tree.num_leaves())) as u32)
    }

    fn background_evict(&mut self) -> Result<(), OramError> {
        let leaf = self.random_leaf();
        self.read_path_into_stash(leaf, PathKind::Dummy)?;
        self.write_path_from_stash(leaf)
    }

    fn drain_background(&mut self) -> Result<u64, OramError> {
        let mut n = 0;
        while self.stash.over_limit() && n < MAX_BACKGROUND_EVICTIONS_PER_ACCESS {
            self.background_evict()?;
            n += 1;
        }
        Ok(n)
    }

    fn path_cycles(&self) -> u64 {
        self.path_cycles
    }

    fn oram_stats(&self) -> OramStats {
        self.stats
    }

    fn backend_name(&self) -> &'static str {
        "shi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_mem::AccessKind;

    fn small() -> ShiOram {
        ShiOram::new(
            ShiOramConfig {
                num_data_blocks: 256,
                trace_capacity: 1 << 14,
                ..Default::default()
            },
            11,
        )
    }

    #[test]
    fn construction_satisfies_invariants() {
        small().check_invariants();
    }

    #[test]
    fn every_block_accessible_repeatedly() {
        let mut oram = small();
        for a in 0..256u64 {
            oram.access_block(BlockAddr(a), AccessKind::Read);
        }
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..300 {
            oram.access_block(BlockAddr(rng.next_below(256)), AccessKind::Read);
        }
        oram.check_invariants();
        assert_eq!(oram.oram_stats().logical_accesses, 556);
    }

    #[test]
    fn eviction_step_moves_blocks_downward() {
        let mut oram = small();
        // Occupancy of the upper levels should not grow monotonically:
        // the eviction step keeps pushing content toward the leaves.
        let top_levels_occupancy =
            |o: &ShiOram| -> usize { (0..7usize).map(|idx| o.tree.bucket(idx).len()).sum() };
        let before = top_levels_occupancy(&oram);
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..400 {
            oram.access_block(BlockAddr(rng.next_below(256)), AccessKind::Read);
        }
        let after = top_levels_occupancy(&oram);
        // Accessed blocks keep landing high (remap) but eviction drains
        // them; the top of the tree must not be saturated.
        let capacity = 7 * oram.config.z;
        assert!(
            after < capacity,
            "top levels saturated: {before} -> {after}"
        );
        oram.check_invariants();
    }

    #[test]
    fn shi_access_costs_more_than_a_bare_path() {
        let oram = small();
        let bare = oram
            .config
            .timing
            .path_cycles(oram.config.tree_levels(), oram.config.z);
        assert!(
            oram.path_cycles() > bare,
            "eviction traffic must be charged: {} vs {}",
            oram.path_cycles(),
            bare
        );
    }

    #[test]
    fn observed_leaves_uniform_under_repeated_access() {
        let mut oram = small();
        oram.clear_trace();
        for _ in 0..4000 {
            oram.access_block(BlockAddr(7), AccessKind::Read);
        }
        let leaves = u64::from(oram.tree.num_leaves());
        let r = proram_stats::chi2_uniform(&oram.trace().observed_leaves(), leaves);
        assert!(
            r.is_plausibly_uniform(6.0),
            "chi2={} dof={}",
            r.statistic,
            r.dof
        );
    }

    #[test]
    fn static_init_grouping_colocates() {
        let cfg = ShiOramConfig {
            num_data_blocks: 64,
            init_group_size: 4,
            ..Default::default()
        };
        let oram = ShiOram::new(cfg, 9);
        for base in (0..64u64).step_by(4) {
            let leaf = oram.entry(BlockAddr(base)).leaf;
            for off in 1..4 {
                assert_eq!(oram.entry(BlockAddr(base + off)).leaf, leaf);
            }
        }
        oram.check_invariants();
    }

    #[test]
    #[should_panic(expected = "tree too small")]
    fn undersized_tree_rejected() {
        ShiOramConfig {
            num_data_blocks: 1 << 14,
            levels_override: Some(4),
            ..Default::default()
        }
        .validate();
    }
}
