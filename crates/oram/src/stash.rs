//! The on-chip stash.
//!
//! "The stash is a piece of memory that stores up to a small number of
//! data blocks at a time" (paper Section 2.2). Blocks overflow into the
//! stash when path write-back cannot place them; when occupancy crosses
//! the configured limit the controller issues background evictions
//! (Section 2.4) until it drains.

use crate::block::Block;
use proram_mem::BlockAddr;
use proram_stats::{FxHashMap, Histogram};

/// The stash: an address-indexed set of blocks with occupancy tracking.
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
    /// Address-indexed block set. Keyed with the deterministic
    /// [`FxHashMap`] — stash lookups sit on the per-access hot path, and
    /// no consumer depends on iteration order (every order-sensitive
    /// caller imposes a total order itself).
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
        self.sealed.extend(self.blocks.keys());
    }

    /// Addresses of the sealed state that are no longer resident.
    pub(crate) fn logged_removed(&self) -> impl Iterator<Item = u64> + '_ {
        let gone = |addr: &u64| !self.blocks.contains_key(addr);
        self.sealed.iter().copied().filter(gone)
    }

    /// Resident blocks that arrived since the sealed state or that the
    /// log marks as possibly rewritten.
    pub(crate) fn logged_dirty(&self) -> impl Iterator<Item = &Block> {
        let changed = |a: &u64| !self.sealed.contains(a) || self.dirty.contains(a);
        self.blocks.values().filter(move |b| changed(&b.addr.0))
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
        self.blocks.len()
    }

    /// `true` if the stash holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// `true` once occupancy is at or above the limit — the condition that
    /// triggers background eviction.
    pub fn over_limit(&self) -> bool {
        self.blocks.len() >= self.limit
    }

    /// Inserts a block.
    ///
    /// # Panics
    ///
    /// Panics if a block with the same address is already stashed (the
    /// controller must never duplicate blocks).
    pub fn insert(&mut self, block: Block) {
        self.log(block.addr.0);
        let prev = self.blocks.insert(block.addr.0, block);
        assert!(prev.is_none(), "duplicate block in stash");
        self.peak = self.peak.max(self.blocks.len());
    }

    /// `true` if a block with this address is stashed.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.blocks.contains_key(&addr.0)
    }

    /// Borrows the stashed block with this address.
    pub fn get(&self, addr: BlockAddr) -> Option<&Block> {
        self.blocks.get(&addr.0)
    }

    /// Mutably borrows the stashed block with this address.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.log(addr.0);
        self.blocks.get_mut(&addr.0)
    }

    /// Removes and returns the block with this address.
    pub fn take(&mut self, addr: BlockAddr) -> Option<Block> {
        self.blocks.remove(&addr.0)
    }

    /// Iterates over stashed blocks (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
    }

    /// Addresses of all stashed blocks (unspecified order), borrowed —
    /// callers that need them sorted collect explicitly.
    pub fn addrs(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.blocks.keys().map(|&a| BlockAddr(a))
    }

    /// Records the current occupancy into the histogram; the controller
    /// calls this once per ORAM access.
    pub fn sample_occupancy(&mut self) {
        self.occupancy_hist.record(self.blocks.len() as u64);
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
