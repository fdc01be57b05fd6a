//! The position-map lookaside buffer (PLB).
//!
//! The unified baseline "caches position map ORAM blocks to exploit
//! locality (similar to the TLB exploiting locality in page tables)"
//! (paper Section 2.3). PLB-resident posmap blocks are on-chip: reading or
//! updating their entries costs no tree access. On a miss the controller
//! fetches the block with a real ORAM access and inserts it here; the LRU
//! victim returns to the stash.
//!
//! A block stays in the slot it was inserted into until it leaves; an
//! address index finds the slot, and the recency order is a list of slot
//! numbers. So a lookup hashes once and a hit moves a few slot numbers,
//! never a block.

use crate::block::Block;
use crate::journal::{PLB_OP_INSERT, PLB_OP_INSERT_EVICT};
use proram_mem::BlockAddr;
use proram_stats::FxHashMap;

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
    /// The resident blocks, by slot.
    blocks: Vec<Block>,
    /// Slots in recency order, most recently used first.
    order: Vec<u32>,
    /// The slot of each resident address. Sized for twice the capacity,
    /// so that the table's occasional clean-up of removed entries happens
    /// in place and it never allocates after construction.
    index: FxHashMap<u64, u32>,
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
        let mut index = FxHashMap::default();
        index.reserve(2 * capacity);
        Plb {
            blocks: Vec::with_capacity(capacity),
            order: Vec::with_capacity(capacity),
            index,
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
        self.iter().enumerate().filter(dirty)
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
        let Some(slot) = self.slot_of(addr) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        if self.order[0] != slot {
            let pos = self.order.iter().position(|&s| s == slot);
            let pos = pos.expect("an indexed slot is in the recency order");
            self.move_to_front(pos);
            if self.logging {
                self.ops.push(pos as u32);
            }
        }
        self.log_dirty(addr);
        Some(&mut self.blocks[slot as usize])
    }

    /// The slot holding `addr`. The MRU block is checked first: an
    /// access reads the entries of the block its lookup just moved to
    /// the front.
    fn slot_of(&self, addr: BlockAddr) -> Option<u32> {
        let &mru = self.order.first()?;
        if self.blocks[mru as usize].addr == addr {
            return Some(mru);
        }
        self.index.get(&addr.0).copied()
    }

    /// Moves the slot at `pos` of the recency order to the front.
    fn move_to_front(&mut self, pos: usize) {
        let slot = self.order[pos];
        self.order.copy_within(..pos, 1);
        self.order[0] = slot;
    }

    /// Tag probe without LRU or counter effects.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.slot_of(addr).is_some()
    }

    /// Borrows a resident block without touching LRU order or the hit/miss
    /// counters. Used for entry reads that follow an already-counted
    /// lookup.
    pub fn peek_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.log_dirty(addr);
        let slot = self.slot_of(addr)?;
        Some(&mut self.blocks[slot as usize])
    }

    /// Borrows a resident block immutably without statistics effects.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Block> {
        let slot = self.slot_of(addr)?;
        Some(&self.blocks[slot as usize])
    }

    /// Inserts a posmap block as MRU; returns the LRU victim if full.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a posmap block or is already resident.
    pub fn insert(&mut self, block: Block) -> Option<Block> {
        assert!(block.payload.is_posmap(), "PLB holds only posmap blocks");
        assert!(!self.contains(block.addr), "posmap block already in PLB");
        let addr = block.addr;
        let victim = if self.blocks.len() == self.capacity {
            // The LRU slot takes the block and moves to the front.
            self.move_to_front(self.capacity - 1);
            let slot = self.order[0];
            let victim = std::mem::replace(&mut self.blocks[slot as usize], block);
            self.index.remove(&victim.addr.0);
            self.index.insert(addr.0, slot);
            Some(victim)
        } else {
            let slot = self.blocks.len() as u32;
            self.blocks.push(block);
            self.order.insert(0, slot);
            self.index.insert(addr.0, slot);
            None
        };
        if self.logging {
            self.ops.push(match victim {
                Some(_) => PLB_OP_INSERT_EVICT,
                None => PLB_OP_INSERT,
            });
        }
        self.log_dirty(addr);
        victim
    }

    /// Removes every resident block, MRU first (used when flushing state
    /// for tests).
    pub fn drain(&mut self) -> Vec<Block> {
        let mut blocks: Vec<Option<Block>> = self.blocks.drain(..).map(Some).collect();
        self.index.clear();
        let order = self.order.drain(..);
        order
            .map(|slot| blocks[slot as usize].take().expect("each slot once"))
            .collect()
    }

    /// Iterates resident blocks in recency order, MRU first (used to
    /// serialize the PLB into a crash-consistency checkpoint).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.order.iter().map(|&slot| &self.blocks[slot as usize])
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
        let all: Vec<u64> = p.drain().iter().map(|b| b.addr.0).collect();
        assert_eq!(all, [2, 1], "MRU first");
        assert!(p.is_empty());
        assert!(!p.contains(BlockAddr(1)));
        p.insert(pm(1));
        assert_eq!(p.peek(BlockAddr(1)), Some(&pm(1)));
    }

    /// The PLB against a list kept in recency order, as the PLB itself
    /// was once kept: every hit, miss, eviction and the order agree.
    #[test]
    fn recency_matches_a_plain_lru_list() {
        use proram_stats::{Rng64, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(0x91B);
        for capacity in [1, 2, 5, 16] {
            let mut p = Plb::new(capacity);
            let mut model: Vec<u64> = Vec::new();
            for _ in 0..2000 {
                let addr = rng.next_below(3 * capacity as u64);
                let hit = p.get_mut(BlockAddr(addr)).is_some();
                match model.iter().position(|&a| a == addr) {
                    Some(pos) => {
                        assert!(hit);
                        let a = model.remove(pos);
                        model.insert(0, a);
                    }
                    None => {
                        assert!(!hit);
                        let victim = p.insert(pm(addr)).map(|b| b.addr.0);
                        let expected = (model.len() == capacity).then(|| model.pop());
                        assert_eq!(victim, expected.flatten());
                        model.insert(0, addr);
                    }
                }
                let order: Vec<u64> = p.iter().map(|b| b.addr.0).collect();
                assert_eq!(order, model);
            }
        }
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
