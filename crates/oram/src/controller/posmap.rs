//! Stage 1: position-map resolve and remap.
//!
//! Walks the unified recursive position map (paper Section 2.3) through
//! the PLB and the on-chip top table, fetching missing posmap blocks with
//! real path accesses, and remaps blocks to fresh random leaves. These
//! are the primitives behind step 1 of [`PathOram::try_access_block`]
//! and of the grouped accesses in `proram-core`.

use super::{PathKind, PathOram};
use crate::addr::Leaf;
use crate::crash::KillPoint;
use crate::error::OramError;
use crate::posmap::PosEntry;
use proram_mem::BlockAddr;

impl PathOram {
    /// Ensures the position-map block holding `child`'s entry is on-chip
    /// (PLB or the top table), fetching ancestors as needed. Returns the
    /// number of tree accesses performed.
    ///
    /// After this call [`PathOram::entry`] / [`PathOram::entry_mut`] for
    /// `child` (and for every sibling covered by the same posmap block)
    /// are guaranteed to succeed without further accesses.
    ///
    /// # Errors
    ///
    /// Propagates unrecovered faults from the path reads (see
    /// [`PathOram::try_read_path_into_stash`]),
    /// [`OramError::BlockMissing`] if a fetched posmap block is on neither
    /// its mapped path nor in the stash, or [`OramError::Crashed`] when
    /// the armed `ResolvePosmap` crossing is reached (one crossing per
    /// level of the walk).
    pub fn try_resolve_posmap(&mut self, child: BlockAddr) -> Result<u64, OramError> {
        self.crash_gate(KillPoint::ResolvePosmap)?;
        let parent = self.space.parent_of(child);
        if parent.hierarchy == self.space.top_hierarchy() {
            return Ok(0); // entry lives in the on-chip table
        }
        let pm_addr = parent.block;
        // From here on the PLB's recency order moves.
        self.tracking();
        if self.plb.get_mut(pm_addr).is_some() {
            return Ok(0);
        }
        // Miss: resolve the posmap block's own mapping one level up, then
        // fetch it with a real path access.
        let mut accesses = self.try_resolve_posmap(pm_addr)?;
        let (old_leaf, new_leaf) = self.remap_block(pm_addr);

        self.try_read_path_into_stash(old_leaf, PathKind::PosMap)?;
        accesses += 1;
        let mut block = self.stash.take(pm_addr).ok_or(OramError::BlockMissing {
            addr: pm_addr.0,
            leaf: old_leaf.0,
        })?;
        block.leaf = new_leaf;
        if let Some(victim) = self.plb.insert(block) {
            self.stash.insert(victim);
        }
        self.write_path_from_stash(old_leaf)?;
        Ok(accesses)
    }

    /// Remaps `addr` to a fresh uniform leaf, returning `(old, new)` —
    /// steps 1 & 4 of the access. Requires the covering posmap entry to
    /// be on-chip (a prior resolve).
    pub(crate) fn remap_block(&mut self, addr: BlockAddr) -> (Leaf, Leaf) {
        let old_leaf = self.entry(addr).leaf;
        let new_leaf = self.random_leaf();
        self.entry_mut(addr).leaf = new_leaf;
        (old_leaf, new_leaf)
    }

    /// Borrows `child`'s position-map entry.
    ///
    /// # Panics
    ///
    /// Panics if the covering posmap block is not on-chip — call
    /// [`PathOram::try_resolve_posmap`] first.
    pub fn entry(&self, child: BlockAddr) -> &PosEntry {
        let parent = self.space.parent_of(child);
        if parent.hierarchy == self.space.top_hierarchy() {
            return &self.top[parent.offset as usize];
        }
        let block = self
            .plb
            .peek(parent.block)
            .unwrap_or_else(|| panic!("posmap block {} not resolved", parent.block));
        &block.entries()[parent.index]
    }

    /// Mutably borrows `child`'s position-map entry: the one place the
    /// top table and PLB-resident entries are written, so also where an
    /// open transaction logs them for its checkpoint delta (the PLB logs
    /// its own blocks in [`crate::Plb::peek_mut`]).
    ///
    /// # Panics
    ///
    /// Panics if the covering posmap block is not on-chip.
    pub fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry {
        let parent = self.space.parent_of(child);
        if parent.hierarchy == self.space.top_hierarchy() {
            let off = parent.offset as usize;
            self.log_top_write(off);
            return &mut self.top[off];
        }
        // Outside a transaction a PLB write still leaves its mark.
        self.tracking();
        let block = self
            .plb
            .peek_mut(parent.block)
            .unwrap_or_else(|| panic!("posmap block {} not resolved", parent.block));
        &mut block.entries_mut()[parent.index]
    }
}
