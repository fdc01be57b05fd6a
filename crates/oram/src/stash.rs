//! The on-chip stash.
//!
//! "The stash is a piece of memory that stores up to a small number of
//! data blocks at a time" (paper Section 2.2). Blocks overflow into the
//! stash when path write-back cannot place them; when occupancy crosses
//! the configured limit the controller issues background evictions
//! (Section 2.4) until it drains.
//!
//! The stash is one vector of blocks, in the order they arrived.
//! [`crate::eviction::read_path`] appends a path's blocks to it where
//! they will lie, and [`crate::eviction::write_path_with`] moves the ones
//! it places out of it and closes the gaps. Between the two, and after,
//! a block read off a path is stashed like any other: one set for every
//! reader — length, peak, occupancy, the commit log, lookups and
//! iteration.
//!
//! A [`Block`] is 24 bytes with a one-word payload, so a path read fills
//! the stash, and a write-back places from it, by moving three words a
//! block, whatever the block carries. The stash holds tens of blocks, so
//! a lookup is a scan.

use crate::block::Block;
use proram_mem::BlockAddr;
use proram_stats::Histogram;

/// The stash: a set of blocks, addressable by block address, with
/// occupancy tracking.
///
/// # Examples
///
/// ```
/// use proram_oram::{Block, Leaf, Stash};
/// use proram_mem::BlockAddr;
///
/// let mut stash = Stash::new(100);
/// stash.insert(Block::opaque(BlockAddr(1), Leaf(3)));
/// assert!(stash.contains(BlockAddr(1)));
/// assert_eq!(stash.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Stash {
    /// The stashed blocks in `blocks[..len]`, in the order they arrived
    /// (a block taken out swaps the last one into its place). Past `len`
    /// lie spare entries with opaque payloads, which a path read
    /// overwrites a bucket's worth at a time. A spare's address is
    /// [`SPARE`], except where a path read's dead bucket slots left a
    /// stale one; nothing reads an address past `len`.
    blocks: Vec<Block>,
    len: usize,
    limit: usize,
    occupancy_hist: Histogram,
    peak: usize,
    /// Set between [`Stash::start_log`] and [`Stash::stop_log`] (an open
    /// commit transaction).
    logging: bool,
    /// Addresses resident when the log last stopped (the last sealed
    /// state). One of these gone at the next seal is a removal; a resident
    /// block that is not one of these is an arrival.
    sealed: Vec<u64>,
    /// While logging: the addresses of `sealed` inserted, read back off a
    /// path or borrowed mutably since — the blocks that may have been
    /// rewritten in place. Bounded by `sealed`, so the log of a long
    /// access is no longer than that of a short one.
    dirty: Vec<u64>,
}

/// The address of a spare entry, which no block has.
const SPARE: BlockAddr = BlockAddr(u64::MAX);

impl Stash {
    /// Creates an empty stash with a background-eviction threshold of
    /// `limit` blocks (the paper's "Stash Size", default 100).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "stash limit must be positive");
        Stash {
            blocks: Vec::new(),
            len: 0,
            limit,
            occupancy_hist: Histogram::new(),
            peak: 0,
            logging: false,
            sealed: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// Starts an empty log of changes to the sealed state.
    pub(crate) fn start_log(&mut self) {
        self.logging = true;
        self.dirty.clear();
    }

    /// Stops logging and takes the current contents as the sealed state
    /// the next log is relative to.
    pub(crate) fn stop_log(&mut self) {
        self.logging = false;
        self.sealed.clear();
        self.sealed
            .extend(self.blocks[..self.len].iter().map(|b| b.addr.0));
    }

    /// Addresses of the sealed state that are no longer resident.
    pub(crate) fn logged_removed(&self) -> impl Iterator<Item = u64> + '_ {
        let gone = |&addr: &u64| !self.contains(BlockAddr(addr));
        self.sealed.iter().copied().filter(gone)
    }

    /// Resident blocks that arrived since the sealed state or that the
    /// log marks as possibly rewritten.
    pub(crate) fn logged_dirty(&self) -> impl Iterator<Item = &Block> {
        let changed = |a: &u64| !self.sealed.contains(a) || self.dirty.contains(a);
        self.iter().filter(move |b| changed(&b.addr.0))
    }

    /// Logs `addr` as possibly rewritten, if it is part of the sealed
    /// state and a log is running.
    fn log(&mut self, addr: u64) {
        if self.logging && self.sealed.contains(&addr) && !self.dirty.contains(&addr) {
            self.dirty.push(addr);
        }
    }

    /// The background-eviction threshold.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Number of blocks currently stashed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the stash holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once occupancy is at or above the limit — the condition that
    /// triggers background eviction.
    pub fn over_limit(&self) -> bool {
        self.len() >= self.limit
    }

    /// Appends blocks where they will lie: `fill` gets the stashed blocks
    /// and at least `room` spare entries past them, writes the new blocks
    /// into the spare entries' head — each spare's opaque payload trading
    /// places with a block's — and returns how many it wrote.
    pub(crate) fn append_with(
        &mut self,
        room: usize,
        fill: impl FnOnce(&[Block], &mut [Block]) -> usize,
    ) {
        let need = self.len + room;
        if self.blocks.len() < need {
            self.blocks.resize(need, spare());
        }
        let (held, spares) = self.blocks.split_at_mut(self.len);
        let added = fill(held, spares);
        assert!(added <= room, "appended past the room asked for");
        let start = self.len;
        self.len += added;
        if self.logging {
            for slot in start..self.len {
                self.log(self.blocks[slot].addr.0);
            }
        }
        self.peak = self.peak.max(self.len);
    }

    /// Moves the stashed block at `slot` out through `put`, which must
    /// leave an opaque payload behind, and leaves the entry spare: the
    /// write-back's way to place a block without copying it twice. The
    /// stash's length stays until [`Stash::close_gaps`].
    pub(crate) fn move_out(&mut self, slot: usize, put: impl FnOnce(&mut Block)) {
        let block = &mut self.blocks[..self.len][slot];
        put(block);
        debug_assert!(
            block.payload.is_opaque(),
            "a moved-out block kept its payload"
        );
        block.addr = SPARE;
    }

    /// Closes the gaps [`Stash::move_out`] left: the blocks still stashed
    /// move to the front in the order they were in, the spare entries
    /// behind them. The blocks before the first gap stay where they are;
    /// from there on, one swap a block and no branch on which it is.
    pub(crate) fn close_gaps(&mut self) {
        let held = &mut self.blocks[..self.len];
        let Some(mut kept) = held.iter().position(|b| b.addr == SPARE) else {
            return;
        };
        for slot in kept + 1..held.len() {
            held.swap(kept, slot);
            kept += usize::from(held[kept].addr != SPARE);
        }
        self.len = kept;
    }

    /// Inserts a block.
    ///
    /// # Panics
    ///
    /// Panics if a block with the same address is already stashed (the
    /// controller must never duplicate blocks).
    pub fn insert(&mut self, block: Block) {
        assert!(!self.contains(block.addr), "duplicate block in stash");
        self.log(block.addr.0);
        if self.len == self.blocks.len() {
            self.blocks.push(block);
        } else {
            self.blocks[self.len] = block;
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// Where the stash holds this address. The scan starts from the
    /// newest block: a lookup most often wants one the last path read
    /// brought in.
    fn slot(&self, addr: BlockAddr) -> Option<usize> {
        self.blocks[..self.len].iter().rposition(|b| b.addr == addr)
    }

    /// `true` if a block with this address is stashed.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.slot(addr).is_some()
    }

    /// Borrows the stashed block with this address.
    pub fn get(&self, addr: BlockAddr) -> Option<&Block> {
        self.slot(addr).map(|slot| &self.blocks[slot])
    }

    /// Mutably borrows the stashed block with this address.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.log(addr.0);
        self.slot(addr).map(|slot| &mut self.blocks[slot])
    }

    /// Removes and returns the block with this address.
    pub fn take(&mut self, addr: BlockAddr) -> Option<Block> {
        let slot = self.slot(addr)?;
        self.len -= 1;
        self.blocks.swap(slot, self.len);
        Some(std::mem::replace(&mut self.blocks[self.len], spare()))
    }

    /// Iterates over stashed blocks, in the order they arrived.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks[..self.len].iter()
    }

    /// Records the current occupancy into the histogram; the controller
    /// calls this once per ORAM access.
    pub fn sample_occupancy(&mut self) {
        self.occupancy_hist.record(self.len() as u64);
    }

    /// Occupancy histogram accumulated via [`Stash::sample_occupancy`].
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy_hist
    }

    /// Highest occupancy ever reached.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

/// What an entry past the stash's end holds: an opaque block that stands
/// for none.
fn spare() -> Block {
    Block::opaque(SPARE, crate::addr::Leaf(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Leaf;

    fn blk(a: u64) -> Block {
        Block::opaque(BlockAddr(a), Leaf(0))
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut s = Stash::new(10);
        s.insert(blk(5));
        assert!(s.contains(BlockAddr(5)));
        let b = s.take(BlockAddr(5)).unwrap();
        assert_eq!(b.addr, BlockAddr(5));
        assert!(!s.contains(BlockAddr(5)));
        assert!(s.take(BlockAddr(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn duplicate_insert_panics() {
        let mut s = Stash::new(10);
        s.insert(blk(1));
        s.insert(blk(1));
    }

    #[test]
    fn over_limit_threshold() {
        let mut s = Stash::new(2);
        assert!(!s.over_limit());
        s.insert(blk(1));
        assert!(!s.over_limit());
        s.insert(blk(2));
        assert!(s.over_limit());
    }

    #[test]
    fn get_mut_mutates() {
        let mut s = Stash::new(4);
        s.insert(blk(1));
        s.get_mut(BlockAddr(1)).unwrap().leaf = Leaf(9);
        assert_eq!(s.get(BlockAddr(1)).unwrap().leaf, Leaf(9));
    }

    #[test]
    fn log_is_relative_to_the_last_sealed_state() {
        let mut s = Stash::new(10);
        s.insert(blk(1));
        s.insert(blk(2));
        s.insert(blk(3));
        s.stop_log(); // sealed: 1 2 3
        s.start_log();
        s.take(BlockAddr(1)); // removed
        s.get_mut(BlockAddr(2)); // rewritten
        s.insert(blk(4)); // arrives and stays
        s.insert(blk(5)); // passes through
        s.take(BlockAddr(5));
        let mut dirty: Vec<u64> = s.logged_dirty().map(|b| b.addr.0).collect();
        dirty.sort_unstable();
        assert_eq!(dirty, [2, 4], "3 was never touched, 5 is gone");
        assert_eq!(s.logged_removed().collect::<Vec<_>>(), [1]);
        s.stop_log();
        s.start_log();
        assert_eq!(s.logged_dirty().count() + s.logged_removed().count(), 0);
    }

    #[test]
    fn occupancy_tracking() {
        let mut s = Stash::new(10);
        s.sample_occupancy();
        s.insert(blk(1));
        s.insert(blk(2));
        s.sample_occupancy();
        s.take(BlockAddr(1));
        s.sample_occupancy();
        let h = s.occupancy_histogram();
        assert_eq!(h.count(0), 1);
        assert_eq!(h.count(2), 1);
        assert_eq!(h.count(1), 1);
        assert_eq!(s.peak(), 2);
    }

    #[test]
    #[should_panic(expected = "limit must be positive")]
    fn zero_limit_panics() {
        Stash::new(0);
    }

    /// A 3-level tree with blocks 1 and 2 in the leaf bucket of leaf 0
    /// and block 3, mapped to leaf 3, in the root.
    fn tree_with_a_path() -> crate::tree::OramTree {
        let mut tree = crate::tree::OramTree::new(3, 2);
        let leaf_bucket = tree.bucket_index(Leaf(0), 2);
        tree.bucket_mut(leaf_bucket).push(blk(1));
        tree.bucket_mut(leaf_bucket).push(blk(2));
        tree.bucket_mut(0)
            .push(Block::opaque(BlockAddr(3), Leaf(3)));
        tree
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn a_duplicate_of_a_block_read_off_a_path_panics() {
        let mut tree = tree_with_a_path();
        let mut s = Stash::new(10);
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        s.insert(blk(2));
    }

    #[test]
    fn len_and_peak_count_a_path_read_in_arrival_order() {
        let mut tree = tree_with_a_path();
        let mut s = Stash::new(10);
        s.insert(blk(9));
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        assert_eq!(s.len(), 4);
        assert_eq!(s.peak(), 4);
        assert!(s.contains(BlockAddr(1)) && s.contains(BlockAddr(9)));
        let all: Vec<u64> = s.iter().map(|b| b.addr.0).collect();
        assert_eq!(all, [9, 3, 1, 2], "the stash, then the path root first");
        crate::eviction::write_path(&mut tree, &mut s, Leaf(0));
        assert_eq!(s.len(), 0, "all four fit on the path");
        assert_eq!(s.peak(), 4);
    }

    #[test]
    fn a_block_read_and_placed_again_within_one_log_is_neither_dirty_nor_removed() {
        let mut tree = tree_with_a_path();
        let mut s = Stash::new(10);
        s.stop_log();
        s.start_log();
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        crate::eviction::write_path(&mut tree, &mut s, Leaf(0));
        assert_eq!(s.logged_dirty().count(), 0);
        assert_eq!(s.logged_removed().count(), 0);
    }

    #[test]
    fn a_block_read_and_left_over_is_an_arrival() {
        let mut tree = tree_with_a_path();
        let mut s = Stash::new(10);
        s.stop_log();
        s.start_log();
        // Remapped to leaf 3, blocks 1 and 2 share only the root with leaf
        // 0's path, as block 3 does: of the three, the root takes the two
        // higher addresses, and block 1 finds no slot.
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        s.get_mut(BlockAddr(1)).unwrap().leaf = Leaf(3);
        s.get_mut(BlockAddr(2)).unwrap().leaf = Leaf(3);
        crate::eviction::write_path(&mut tree, &mut s, Leaf(0));
        assert_eq!(s.len(), 1);
        let dirty: Vec<u64> = s.logged_dirty().map(|b| b.addr.0).collect();
        assert_eq!(dirty, [1]);
        assert_eq!(s.logged_removed().count(), 0);
    }

    #[test]
    fn a_block_of_the_sealed_state_read_back_off_a_path_is_dirty() {
        let mut tree = crate::tree::OramTree::new(3, 2);
        let mut s = Stash::new(10);
        s.insert(blk(1));
        s.insert(blk(2));
        s.stop_log(); // sealed: 1 2
        s.start_log();
        crate::eviction::write_path(&mut tree, &mut s, Leaf(0));
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        let dirty: Vec<u64> = s.logged_dirty().map(|b| b.addr.0).collect();
        assert_eq!(dirty, [2, 1], "read back in the bucket's slot order");
        assert_eq!(s.logged_removed().count(), 0);
    }

    #[test]
    fn a_write_back_keeps_the_survivors_in_arrival_order_and_leaves_spares() {
        // Z = 1 and three levels: the path takes the three highest
        // addresses.
        let mut tree = crate::tree::OramTree::new(3, 1);
        let mut s = Stash::new(10);
        for a in [14, 10, 13, 11, 12] {
            s.insert(Block::with_data(
                BlockAddr(a),
                Leaf(3),
                vec![a as u8].into(),
            ));
        }
        assert_eq!(crate::eviction::write_path(&mut tree, &mut s, Leaf(3)), 3);
        let left: Vec<u64> = s.iter().map(|b| b.addr.0).collect();
        assert_eq!(left, [10, 11]);
        let spares = &s.blocks[s.len..];
        assert_eq!(spares.len(), 3);
        assert!(spares
            .iter()
            .all(|b| b.addr == SPARE && b.payload.is_opaque()));
    }
}
