//! A Shi-et-al.-style binary-tree ORAM \[27\] with background eviction.
//!
//! The scheme the paper cites in Section 6.1 when claiming super blocks
//! generalize: "other ORAM schemes (e.g., \[27\]) have similar binary tree
//! structure to Path ORAM. After adding background eviction, these ORAM
//! schemes can also benefit from using super blocks."
//!
//! It is the same tree, stash and position map as Path ORAM, so
//! [`ShiOram`] is one [`PathOram`] plus what \[27\] adds:
//!
//! * after every path write-back, an *incremental eviction step*: at
//!   every non-leaf level, ν = 2 randomly chosen buckets each push one
//!   block down one level toward its leaf, writing both children so the
//!   direction is hidden (the \[27\] eviction with dummy writes);
//! * that step's traffic in the path price, so a `ShiOram` access moves
//!   more bytes than a `PathOram` access of the same height — matching
//!   the schemes' relative costs.
//!
//! The position map is whatever the [`OramConfig`] says; the Section 6.1
//! ablation keeps it flat and on-chip (`on_tree_hierarchies: 0`), since
//! the scheme's signature mechanism is its eviction. [`ShiOram`]
//! implements [`crate::OramBackend`], so the super-block controller in
//! `proram-core` runs on it unchanged — reproducing the Section 6.1
//! claim end to end.

use crate::addr::{AddressSpace, Leaf};
use crate::backend_trait::OramBackend;
use crate::block::Block;
use crate::config::OramConfig;
use crate::controller::{OramStats, PathKind, PathOram, MAX_BACKGROUND_EVICTIONS_PER_ACCESS};
use crate::crash::RecoveryReport;
use crate::error::OramError;
use crate::posmap::PosEntry;
use proram_mem::{BlockAddr, FaultStats};
use proram_obs::Obs;
use proram_stats::Rng64;

/// Buckets the eviction step draws per non-leaf level (the scheme's ν;
/// \[27\] uses 2).
const EVICTION_RATE: u64 = 2;

/// The Shi-style tree ORAM: a [`PathOram`] whose every write-back is
/// followed by the \[27\] eviction step.
///
/// # Examples
///
/// ```
/// use proram_oram::{OramBackend, OramConfig, ShiOram};
///
/// let cfg = OramConfig {
///     num_data_blocks: 256,
///     on_tree_hierarchies: 0,
///     ..OramConfig::default()
/// };
/// let oram = ShiOram::new(cfg, 7);
/// assert_eq!(oram.backend_name(), "shi");
/// // The eviction step's traffic is part of every path's price.
/// assert!(oram.path_cycles() > oram.inner().config().path_cycles());
/// oram.inner().audit_full();
/// ```
#[derive(Debug, Clone)]
pub struct ShiOram(PathOram);

impl ShiOram {
    /// Builds and initializes the ORAM exactly as [`PathOram::new`] does,
    /// then prices each path with the eviction step's traffic.
    ///
    /// # Panics
    ///
    /// Panics if `config.store_payloads` is set — the eviction step moves
    /// blocks between resident buckets, and with a store the buckets
    /// below the treetop live only in the encrypted image — or if the
    /// configuration fails [`OramConfig::validate`].
    pub fn new(config: OramConfig, seed: u64) -> Self {
        assert!(
            !config.store_payloads,
            "the Shi eviction step needs a resident tree: store_payloads must be off"
        );
        let mut oram = PathOram::new(config, seed);
        // The eviction step touches ν buckets per non-leaf level, each
        // read once and both of its children written: 3 bucket transfers.
        let timing = oram.config.timing;
        let bucket_bytes = oram.config.z as u64 * u64::from(timing.block_bytes + timing.meta_bytes);
        let step_buckets = 3 * EVICTION_RATE * u64::from(oram.tree.levels() - 1);
        oram.path_bytes += step_buckets * bucket_bytes;
        oram.path_cycles = timing.cycles_for_bytes(oram.path_bytes);
        ShiOram(oram)
    }

    /// The Path ORAM underneath, for reading its state: the trace, the
    /// stash, the configuration and the auditors.
    pub fn inner(&self) -> &PathOram {
        &self.0
    }

    /// The scheme's incremental eviction: at each non-leaf level, ν
    /// random buckets each offer their first block one level down toward
    /// its leaf; the move is skipped when that block's child bucket is
    /// full. Not adversary-distinguishable from any other access
    /// component — bucket choices are public randomness.
    fn eviction_step(&mut self) {
        let PathOram { tree, rng, .. } = &mut self.0;
        for level in 0..tree.levels() - 1 {
            let width = 1u64 << level;
            for _ in 0..EVICTION_RATE {
                let bucket_idx = (width - 1 + rng.next_below(width)) as usize;
                let Some(first) = tree.bucket(bucket_idx).iter().next() else {
                    continue;
                };
                let (addr, leaf) = (first.addr, first.leaf);
                // A tree block sits on its own path, so its child on that
                // path is a child of this bucket.
                debug_assert_eq!(tree.bucket_index(leaf, level), bucket_idx);
                let child_idx = tree.bucket_index(leaf, level + 1);
                if !tree.bucket(child_idx).is_full() {
                    let block = tree
                        .bucket_mut(bucket_idx)
                        .take(addr)
                        .expect("candidate present");
                    tree.bucket_mut(child_idx).push(block);
                }
            }
        }
    }
}

impl OramBackend for ShiOram {
    fn space(&self) -> &AddressSpace {
        self.0.space()
    }

    fn resolve_posmap(&mut self, child: BlockAddr) -> Result<u64, OramError> {
        self.0.try_resolve_posmap(child)
    }

    fn entry(&self, child: BlockAddr) -> &PosEntry {
        self.0.entry(child)
    }

    fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry {
        self.0.entry_mut(child)
    }

    fn data_leaves(&self) -> Option<Vec<Leaf>> {
        self.0.data_leaves()
    }

    fn read_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) -> Result<(), OramError> {
        self.0.try_read_path_into_stash(leaf, kind)
    }

    /// Path ORAM's greedy write-back, then the eviction step.
    fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        self.0.write_path_from_stash(leaf)?;
        self.eviction_step();
        Ok(())
    }

    fn txn_begin(&mut self) {
        self.0.txn_begin();
    }

    fn txn_armed(&self) -> bool {
        self.0.txn_armed()
    }

    fn txn_commit(&mut self) -> Result<(), OramError> {
        self.0.txn_commit()
    }

    fn recover_crash(&mut self) -> Option<RecoveryReport> {
        self.0.recover_crash()
    }

    fn stash_contains(&self, addr: BlockAddr) -> bool {
        self.0.stash_contains(addr)
    }

    fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.0.stash_block_mut(addr)
    }

    fn random_leaf(&mut self) -> Leaf {
        self.0.random_leaf()
    }

    /// A dummy path read, written back through this backend's own
    /// write-back, so the eviction step follows it too.
    fn background_evict(&mut self) -> Result<(), OramError> {
        let leaf = self.0.random_leaf();
        self.0.try_read_path_into_stash(leaf, PathKind::Dummy)?;
        self.write_path_from_stash(leaf)
    }

    /// Background-evicts until the stash is under its limit, under the
    /// controller's one per-access bound.
    fn drain_background(&mut self) -> Result<u64, OramError> {
        let mut n = 0;
        while self.0.stash().over_limit() && n < MAX_BACKGROUND_EVICTIONS_PER_ACCESS {
            self.background_evict()?;
            n += 1;
        }
        Ok(n)
    }

    fn path_cycles(&self) -> u64 {
        self.0.path_cycles()
    }

    fn oram_stats(&self) -> OramStats {
        self.0.oram_stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.0.fault_stats()
    }

    fn backend_name(&self) -> &'static str {
        "shi"
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.0.attach_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::OramTiming;
    use proram_stats::Xoshiro256;

    fn config(num_data_blocks: u64) -> OramConfig {
        OramConfig {
            num_data_blocks,
            z: 4,
            on_tree_hierarchies: 0,
            timing: OramTiming::default(),
            ..OramConfig::default()
        }
    }

    fn small() -> ShiOram {
        ShiOram::new(config(256), 11)
    }

    /// One plain access through the backend primitives: remap, fetch,
    /// claim, write back, drain.
    fn access(oram: &mut ShiOram, addr: BlockAddr) {
        oram.resolve_posmap(addr).unwrap();
        let old_leaf = oram.entry(addr).leaf;
        let new_leaf = oram.random_leaf();
        oram.entry_mut(addr).leaf = new_leaf;
        oram.read_path_into_stash(old_leaf, PathKind::Data).unwrap();
        oram.stash_block_mut(addr).expect("fetched").leaf = new_leaf;
        oram.write_path_from_stash(old_leaf).unwrap();
        oram.drain_background().unwrap();
    }

    #[test]
    fn construction_satisfies_invariants() {
        small().inner().audit_full();
    }

    #[test]
    fn every_block_accessible_repeatedly() {
        let mut oram = small();
        for a in 0..256u64 {
            access(&mut oram, BlockAddr(a));
        }
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..300 {
            access(&mut oram, BlockAddr(rng.next_below(256)));
        }
        oram.inner().audit_full();
        assert_eq!(oram.oram_stats().data_path_accesses, 556);
    }

    #[test]
    fn eviction_step_moves_blocks_downward() {
        let mut oram = small();
        // Occupancy of the upper levels should not grow monotonically:
        // the eviction step keeps pushing content toward the leaves.
        let top_levels_occupancy =
            |o: &ShiOram| -> usize { (0..7usize).map(|idx| o.0.tree.bucket(idx).len()).sum() };
        let before = top_levels_occupancy(&oram);
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..400 {
            access(&mut oram, BlockAddr(rng.next_below(256)));
        }
        let after = top_levels_occupancy(&oram);
        // Accessed blocks keep landing high (remap) but eviction drains
        // them; the top of the tree must not be saturated.
        let capacity = 7 * oram.inner().config().z;
        assert!(
            after < capacity,
            "top levels saturated: {before} -> {after}"
        );
        oram.inner().audit_full();
    }

    #[test]
    fn shi_access_costs_more_than_a_bare_path() {
        let oram = small();
        let bare = oram.inner().config().path_cycles();
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
        let obs = Obs::ring(1 << 14);
        oram.attach_obs(obs.clone());
        for _ in 0..4000 {
            access(&mut oram, BlockAddr(7));
        }
        assert_eq!(obs.dropped(), 0);
        let observed: Vec<u64> = obs
            .events()
            .iter()
            .filter_map(proram_obs::ObsEvent::path_leaf)
            .collect();
        let leaves = u64::from(oram.0.tree.num_leaves());
        let r = proram_stats::chi2_uniform(&observed, leaves);
        assert!(
            r.is_plausibly_uniform(6.0),
            "chi2={} dof={}",
            r.statistic,
            r.dof
        );
        oram.inner().audit_full();
    }

    #[test]
    fn static_init_grouping_colocates() {
        let oram = ShiOram::new(
            OramConfig {
                init_group_size: 4,
                ..config(64)
            },
            9,
        );
        for base in (0..64u64).step_by(4) {
            let leaf = oram.entry(BlockAddr(base)).leaf;
            for off in 1..4 {
                assert_eq!(oram.entry(BlockAddr(base + off)).leaf, leaf);
            }
        }
        oram.inner().audit_full();
    }

    #[test]
    #[should_panic(expected = "store_payloads must be off")]
    fn a_stored_image_is_rejected() {
        ShiOram::new(
            OramConfig {
                store_payloads: true,
                ..config(256)
            },
            1,
        );
    }
}
