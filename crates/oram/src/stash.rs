//! The on-chip stash.
//!
//! "The stash is a piece of memory that stores up to a small number of
//! data blocks at a time" (paper Section 2.2). Blocks overflow into the
//! stash when path write-back cannot place them; when occupancy crosses
//! the configured limit the controller issues background evictions
//! (Section 2.4) until it drains.
//!
//! The stash holds its blocks in two places. The *lane* is the path in
//! flight: [`crate::eviction::read_path`] appends a path's blocks to it
//! and [`crate::eviction::write_path_with`] empties it, so between
//! accesses it is empty. The *map* holds every other block: the ones a
//! write-back could not place and the ones inserted directly (a PLB
//! victim, what did not fit the tree at construction). Every reader —
//! length, peak, occupancy, the commit log, lookups and iteration — sees
//! the two as one set.
//!
//! A [`Block`] is 24 bytes with a one-word payload, so a path read fills
//! the lane, and a write-back places and spills from it, by moving three
//! words a block, whatever the block carries.

use crate::block::Block;
use proram_mem::BlockAddr;
use proram_stats::{FxHashMap, Histogram};

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
    /// The blocks of the paths read since the last write-back, in
    /// `lane[..lane_len]`, in the order they were read (a block taken out
    /// early swaps the last one into its place). A path's blocks pass
    /// through here instead of being hashed into `blocks` and out again.
    /// Past `lane_len` lie spare entries with opaque payloads, which a
    /// path read overwrites a bucket's worth at a time.
    lane: Vec<Block>,
    lane_len: usize,
    /// The blocks a write-back left over, address-indexed. Keyed with the
    /// deterministic [`FxHashMap`]; no consumer depends on iteration
    /// order (every order-sensitive caller imposes a total order itself).
    blocks: FxHashMap<u64, Block>,
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
    /// While logging: the addresses of `sealed` inserted or borrowed
    /// mutably since — the blocks that may have been rewritten in place.
    /// Bounded by `sealed`, so the log of a long access is no longer than
    /// that of a short one.
    dirty: Vec<u64>,
}

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
            lane: Vec::new(),
            lane_len: 0,
            blocks: FxHashMap::default(),
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
        let lane = self.lane[..self.lane_len].iter().map(|b| b.addr.0);
        self.sealed.extend(lane.chain(self.blocks.keys().copied()));
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
        self.lane_len + self.blocks.len()
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

    /// `true` while the lane holds a path's blocks: from a path read to
    /// its write-back.
    pub(crate) fn lane_in_use(&self) -> bool {
        self.lane_len > 0
    }

    /// The blocks in the lane, in the order they were read.
    pub(crate) fn lane(&self) -> &[Block] {
        &self.lane[..self.lane_len]
    }

    /// The whole lane buffer, with at least `room` spare entries past the
    /// lane's end, and the lane's length: a path read writes blocks past
    /// the end and advances the length over them.
    pub(crate) fn lane_buffer(&mut self, room: usize) -> (&mut [Block], &mut usize) {
        let need = self.lane_len + room;
        if self.lane.len() < need {
            self.lane.resize(need, spare());
        }
        (&mut self.lane, &mut self.lane_len)
    }

    /// Counts the lane's latest blocks toward the peak, once a path read
    /// is complete.
    pub(crate) fn lane_filled(&mut self) {
        debug_assert!(
            self.lane()
                .iter()
                .all(|b| !self.blocks.contains_key(&b.addr.0)),
            "duplicate block in stash"
        );
        self.peak = self.peak.max(self.len());
    }

    /// The block at `slot` of the lane, for the write-back to move out of;
    /// it must leave an opaque payload behind.
    pub(crate) fn lane_block_mut(&mut self, slot: usize) -> &mut Block {
        &mut self.lane[..self.lane_len][slot]
    }

    /// Moves the block at `slot` of the lane into the map: a write-back
    /// found it no slot. The stash's size does not change, so neither
    /// does its peak.
    pub(crate) fn spill_lane(&mut self, slot: usize) {
        let block = std::mem::replace(self.lane_block_mut(slot), spare());
        self.log(block.addr.0);
        let prev = self.blocks.insert(block.addr.0, block);
        assert!(prev.is_none(), "duplicate block in stash");
    }

    /// Ends a write-back: every block of the lane has been moved out.
    pub(crate) fn clear_lane(&mut self) {
        debug_assert!(self.lane().iter().all(|b| b.payload.is_opaque()));
        self.lane_len = 0;
    }

    /// Inserts a block.
    ///
    /// # Panics
    ///
    /// Panics if a block with the same address is already stashed (the
    /// controller must never duplicate blocks).
    pub fn insert(&mut self, block: Block) {
        assert!(
            !self.lane().iter().any(|b| b.addr == block.addr),
            "duplicate block in stash"
        );
        self.log(block.addr.0);
        let prev = self.blocks.insert(block.addr.0, block);
        assert!(prev.is_none(), "duplicate block in stash");
        self.peak = self.peak.max(self.len());
    }

    /// Where the lane holds this address.
    fn lane_slot(&self, addr: BlockAddr) -> Option<usize> {
        self.lane().iter().position(|b| b.addr == addr)
    }

    /// `true` if a block with this address is stashed.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.lane_slot(addr).is_some() || self.blocks.contains_key(&addr.0)
    }

    /// Borrows the stashed block with this address.
    pub fn get(&self, addr: BlockAddr) -> Option<&Block> {
        match self.lane_slot(addr) {
            Some(slot) => Some(&self.lane[slot]),
            None => self.blocks.get(&addr.0),
        }
    }

    /// Mutably borrows the stashed block with this address.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.log(addr.0);
        match self.lane_slot(addr) {
            Some(slot) => Some(&mut self.lane[slot]),
            None => self.blocks.get_mut(&addr.0),
        }
    }

    /// Removes and returns the block with this address.
    pub fn take(&mut self, addr: BlockAddr) -> Option<Block> {
        match self.lane_slot(addr) {
            Some(slot) => {
                self.lane_len -= 1;
                self.lane.swap(slot, self.lane_len);
                Some(std::mem::replace(&mut self.lane[self.lane_len], spare()))
            }
            None => self.blocks.remove(&addr.0),
        }
    }

    /// Removes and returns the block with this address from the map; the
    /// write-back's path to the blocks it already knows are there.
    pub(crate) fn take_from_map(&mut self, addr: u64) -> Option<Block> {
        self.blocks.remove(&addr)
    }

    /// Iterates over the blocks of the map alone (unspecified order).
    pub(crate) fn map_blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
    }

    /// Iterates over stashed blocks (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.lane().iter().chain(self.blocks.values())
    }

    /// Addresses of all stashed blocks (unspecified order), borrowed —
    /// callers that need them sorted collect explicitly.
    pub fn addrs(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.iter().map(|b| b.addr)
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

/// What a lane entry past the lane's end holds: an opaque block that
/// stands for none.
fn spare() -> Block {
    Block::opaque(BlockAddr(u64::MAX), crate::addr::Leaf(0))
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
    fn a_duplicate_of_a_lane_address_panics() {
        let mut tree = tree_with_a_path();
        let mut s = Stash::new(10);
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        s.insert(blk(2));
    }

    #[test]
    fn len_and_peak_count_the_lane() {
        let mut tree = tree_with_a_path();
        let mut s = Stash::new(10);
        s.insert(blk(9));
        crate::eviction::read_path(&mut tree, &mut s, Leaf(0));
        assert!(s.lane_in_use());
        assert_eq!(s.len(), 4);
        assert_eq!(s.peak(), 4);
        assert!(s.contains(BlockAddr(1)) && s.contains(BlockAddr(9)));
        let mut all: Vec<u64> = s.addrs().map(|a| a.0).collect();
        all.sort_unstable();
        assert_eq!(all, [1, 2, 3, 9]);
        crate::eviction::write_path(&mut tree, &mut s, Leaf(0));
        assert!(!s.lane_in_use());
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
    fn a_block_that_spills_to_the_map_is_dirty() {
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
    fn addrs_lists_blocks() {
        let mut s = Stash::new(10);
        s.insert(blk(3));
        s.insert(blk(7));
        let mut a: Vec<u64> = s.addrs().map(|b| b.0).collect();
        a.sort_unstable();
        assert_eq!(a, vec![3, 7]);
    }
}
