//! The position-map lookaside buffer (PLB).
//!
//! The unified baseline "caches position map ORAM blocks to exploit
//! locality (similar to the TLB exploiting locality in page tables)"
//! (paper Section 2.3). PLB-resident posmap blocks are on-chip: reading or
//! updating their entries costs no tree access. On a miss the controller
//! fetches the block with a real ORAM access and inserts it here; the LRU
//! victim returns to the stash.

use crate::block::Block;
use crate::journal::{PLB_OP_INSERT, PLB_OP_INSERT_EVICT};
use proram_mem::BlockAddr;
use std::collections::VecDeque;

/// A small fully-associative LRU cache of position-map blocks.
///
/// # Examples
///
/// ```
/// use proram_oram::{Block, Leaf, Plb, PosEntry};
/// use proram_mem::BlockAddr;
///
/// let mut plb = Plb::new(2);
/// let pm = Block::posmap(BlockAddr(100), Leaf(0), vec![PosEntry::new(Leaf(5))].into());
/// assert!(plb.insert(pm).is_none());
/// assert!(plb.get_mut(BlockAddr(100)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Plb {
    /// Most recently used first. A deque so the MRU insert and LRU
    /// eviction on every PLB miss are O(1) instead of shifting the whole
    /// buffer; the LRU order (and thus every eviction decision) is
    /// unchanged.
    blocks: VecDeque<Block>,
    capacity: usize,
    hits: u64,
    misses: u64,
    /// Set between [`Plb::start_log`] and [`Plb::stop_log`] (an open
    /// commit transaction): the recency order is state, so every change
    /// to it is logged for the checkpoint delta.
    logging: bool,
    /// While logging: the position each hit moved to the front from, and
    /// `PLB_OP_INSERT` / `PLB_OP_INSERT_EVICT` per insert, in order.
    ops: Vec<u32>,
    /// While logging: addresses of blocks inserted or borrowed mutably.
    dirty: Vec<u64>,
}

impl Plb {
    /// Creates an empty PLB holding up to `capacity` posmap blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "PLB capacity must be positive");
        Plb {
            blocks: VecDeque::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
            logging: false,
            ops: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Starts an empty log of recency changes and rewritten blocks.
    pub(crate) fn start_log(&mut self) {
        self.logging = true;
        self.ops.clear();
        self.dirty.clear();
    }

    /// Stops logging; the log stays readable until the next start.
    pub(crate) fn stop_log(&mut self) {
        self.logging = false;
    }

    /// Logs `addr` as inserted or mutably borrowed, if a log is running.
    fn log_dirty(&mut self, addr: BlockAddr) {
        if self.logging && !self.dirty.contains(&addr.0) {
            self.dirty.push(addr.0);
        }
    }

    /// The logged recency changes, oldest first.
    pub(crate) fn logged_ops(&self) -> &[u32] {
        &self.ops
    }

    /// `(position, block)` of every resident block the log marks as
    /// inserted or mutably borrowed.
    pub(crate) fn logged_dirty(&self) -> impl Iterator<Item = (usize, &Block)> {
        let dirty = |(_, b): &(usize, &Block)| self.dirty.contains(&b.addr.0);
        self.blocks.iter().enumerate().filter(dirty)
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Looks up a resident posmap block, refreshing LRU and counting
    /// hit/miss statistics.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        match self.blocks.iter().position(|b| b.addr == addr) {
            Some(pos) => {
                self.hits += 1;
                if pos != 0 {
                    let b = self.blocks.remove(pos).expect("position just found");
                    self.blocks.push_front(b);
                }
                if self.logging && pos != 0 {
                    self.ops.push(pos as u32);
                }
                self.log_dirty(addr);
                Some(&mut self.blocks[0])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Tag probe without LRU or counter effects.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.blocks.iter().any(|b| b.addr == addr)
    }

    /// Borrows a resident block without touching LRU order or the hit/miss
    /// counters. Used for entry reads that follow an already-counted
    /// lookup.
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.log_dirty(addr);
        self.blocks.iter_mut().find(|b| b.addr == addr)
    }

    /// Borrows a resident block immutably without statistics effects.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Block> {
        self.blocks.iter().find(|b| b.addr == addr)
    }

    /// Inserts a posmap block as MRU; returns the LRU victim if full.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a posmap block or is already resident.
    pub fn insert(&mut self, block: Block) -> Option<Block> {
        assert!(block.payload.is_posmap(), "PLB holds only posmap blocks");
        assert!(!self.contains(block.addr), "posmap block already in PLB");
        let victim = if self.blocks.len() == self.capacity {
            self.blocks.pop_back()
        } else {
            None
        };
        if self.logging {
            self.ops.push(match victim {
                Some(_) => PLB_OP_INSERT_EVICT,
                None => PLB_OP_INSERT,
            });
        }
        self.log_dirty(block.addr);
        self.blocks.push_front(block);
        victim
    }

    /// Removes every resident block (used when flushing state for tests).
    pub fn drain(&mut self) -> Vec<Block> {
        std::mem::take(&mut self.blocks).into_iter().collect()
    }

    /// Iterates resident blocks in recency order, MRU first (used to
    /// serialize the PLB into a crash-consistency checkpoint).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Leaf;
    use crate::posmap::PosEntry;

    fn pm(addr: u64) -> Block {
        Block::posmap(
            BlockAddr(addr),
            Leaf(0),
            vec![PosEntry::new(Leaf(1))].into(),
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut p = Plb::new(4);
        p.insert(pm(1));
        assert!(p.get_mut(BlockAddr(1)).is_some());
        assert!(p.get_mut(BlockAddr(2)).is_none());
        assert_eq!(p.stats(), (1, 1));
    }

    #[test]
    fn lru_eviction() {
        let mut p = Plb::new(2);
        p.insert(pm(1));
        p.insert(pm(2));
        p.get_mut(BlockAddr(1)); // 2 becomes LRU
        let victim = p.insert(pm(3)).expect("victim");
        assert_eq!(victim.addr, BlockAddr(2));
    }

    #[test]
    fn entries_survive_and_mutate() {
        let mut p = Plb::new(2);
        p.insert(pm(1));
        p.get_mut(BlockAddr(1)).unwrap().entries_mut()[0].leaf = Leaf(42);
        assert_eq!(p.get_mut(BlockAddr(1)).unwrap().entries()[0].leaf, Leaf(42));
    }

    #[test]
    #[should_panic(expected = "only posmap blocks")]
    fn data_block_rejected() {
        Plb::new(2).insert(Block::opaque(BlockAddr(0), Leaf(0)));
    }

    #[test]
    #[should_panic(expected = "already in PLB")]
    fn duplicate_rejected() {
        let mut p = Plb::new(2);
        p.insert(pm(1));
        p.insert(pm(1));
    }

    #[test]
    fn drain_empties() {
        let mut p = Plb::new(3);
        p.insert(pm(1));
        p.insert(pm(2));
        let all = p.drain();
        assert_eq!(all.len(), 2);
        assert!(p.is_empty());
    }

    #[test]
    fn log_records_recency_changes_and_rewritten_blocks() {
        let mut p = Plb::new(3);
        p.insert(pm(1));
        p.insert(pm(2));
        p.insert(pm(3)); // MRU first: 3 2 1
        p.get_mut(BlockAddr(1)); // unlogged
        p.start_log();
        p.get_mut(BlockAddr(1)); // already MRU: no move, still borrowed
        p.get_mut(BlockAddr(2)); // position 2 -> front: 2 1 3
        p.insert(pm(4)); // 4 2 1, 3 leaves
        p.peek_mut(BlockAddr(2));
        p.get_mut(BlockAddr(9)); // miss
        assert_eq!(p.logged_ops(), [2, PLB_OP_INSERT_EVICT]);
        let dirty: Vec<(usize, u64)> = p.logged_dirty().map(|(i, b)| (i, b.addr.0)).collect();
        assert_eq!(dirty, [(0, 4), (1, 2), (2, 1)]);
        p.stop_log();
        p.get_mut(BlockAddr(1));
        assert_eq!(p.logged_ops().len(), 2, "nothing is logged once stopped");
    }

    #[test]
    fn contains_does_not_touch_stats() {
        let mut p = Plb::new(2);
        p.insert(pm(1));
        assert!(p.contains(BlockAddr(1)));
        assert_eq!(p.stats(), (0, 0));
    }
}
