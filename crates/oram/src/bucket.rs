//! Tree buckets.

use crate::addr::Leaf;
use crate::block::{Block, Payload};
use proram_mem::BlockAddr;
use std::fmt;

/// One node of the ORAM tree: up to `Z` real blocks, `Z` at most
/// [`Bucket::MAX_Z`].
///
/// A bucket is one 64-byte record holding every slot inline: a 32-bit
/// address, a leaf and a one-word [`Payload`] per slot. The top bits of
/// the first two address words hold the bucket's length and capacity, so
/// a block address must lie below [`Bucket::ADDR_LIMIT`]
/// ([`crate::OramConfig::check`] rejects a geometry whose addresses do
/// not). A tree is therefore one dense allocation, and moving a block in
/// or out of it copies three words and allocates nothing, whatever it
/// carries. Only position-map blocks and stored data point anywhere.
///
/// Slots not holding a real block are *dummy blocks* on the wire; the
/// functional model simply leaves them empty (the encryption layer in
/// [`crate::storage`] serializes dummies explicitly so ciphertext sizes
/// are position-independent). A dead slot's header is whatever was there
/// last; its payload is opaque.
#[derive(Clone)]
pub struct Bucket {
    /// Slot addresses in the low [`ADDR_BITS`]; above them, `addr[LEN]`
    /// holds the length and `addr[CAPACITY]` the capacity.
    addr: [u32; Bucket::MAX_Z],
    leaf: [u32; Bucket::MAX_Z],
    /// A dead slot's payload is opaque.
    payloads: [Payload; Bucket::MAX_Z],
}

/// Address bits of a slot's address word.
const ADDR_BITS: u32 = 29;
/// The address bits of an address word.
const ADDR_MASK: u32 = (1 << ADDR_BITS) - 1;
/// The address word whose top bits hold the length.
const LEN: usize = 0;
/// The address word whose top bits hold the capacity.
const CAPACITY: usize = 1;
// The bits above an address hold every length and capacity up to `MAX_Z`.
const _: () = assert!(Bucket::MAX_Z < 1 << (32 - ADDR_BITS) && CAPACITY < Bucket::MAX_Z);

/// A resident block as [`Bucket::iter`] yields it: the header by value,
/// the payload borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef<'a> {
    /// Program (block) address.
    pub addr: BlockAddr,
    /// Path the block is mapped to.
    pub leaf: Leaf,
    /// Contents.
    pub payload: &'a Payload,
}

impl BlockRef<'_> {
    /// An owned copy of the block.
    pub fn to_block(&self) -> Block {
        Block {
            addr: self.addr,
            leaf: self.leaf,
            payload: self.payload.clone(),
        }
    }
}

impl<'a> From<&'a Block> for BlockRef<'a> {
    fn from(block: &'a Block) -> Self {
        BlockRef {
            addr: block.addr,
            leaf: block.leaf,
            payload: &block.payload,
        }
    }
}

impl Bucket {
    /// The largest `Z` a bucket is laid out for. The paper uses 3
    /// (Table 1) and 4 (Figures 6-7).
    pub const MAX_Z: usize = 4;

    /// Block addresses a bucket can hold: `0..ADDR_LIMIT`.
    pub const ADDR_LIMIT: u64 = 1 << ADDR_BITS;

    /// Creates an empty bucket with `z` slots.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero or above [`Bucket::MAX_Z`].
    pub fn new(z: usize) -> Self {
        assert!(z > 0, "bucket capacity must be positive");
        assert!(z <= Self::MAX_Z, "bucket capacity above {}", Self::MAX_Z);
        let mut addr = [0; Self::MAX_Z];
        addr[CAPACITY] = (z as u32) << ADDR_BITS;
        Bucket {
            addr,
            leaf: [0; Self::MAX_Z],
            payloads: [Payload::OPAQUE; Self::MAX_Z],
        }
    }

    /// Slot capacity `Z`.
    pub fn capacity(&self) -> usize {
        (self.addr[CAPACITY] >> ADDR_BITS) as usize
    }

    /// Number of real blocks held.
    pub fn len(&self) -> usize {
        (self.addr[LEN] >> ADDR_BITS) as usize
    }

    fn set_len(&mut self, len: usize) {
        self.addr[LEN] = self.addr[LEN] & ADDR_MASK | (len as u32) << ADDR_BITS;
    }

    /// The address in `slot`.
    fn addr_at(&self, slot: usize) -> BlockAddr {
        BlockAddr(u64::from(self.addr[slot] & ADDR_MASK))
    }

    /// Writes `addr` into `slot`'s address bits.
    fn set_addr(&mut self, slot: usize, addr: BlockAddr) {
        assert!(
            addr.0 < Self::ADDR_LIMIT,
            "block {addr} beyond the bucket's address field"
        );
        self.addr[slot] = self.addr[slot] & !ADDR_MASK | addr.0 as u32;
    }

    /// `true` if the bucket holds no real blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if no slot is free.
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity()
    }

    /// Inserts a block into the next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is full or the block's address is not below
    /// [`Bucket::ADDR_LIMIT`].
    pub fn push(&mut self, mut block: Block) {
        self.push_from(&mut block);
    }

    /// [`Bucket::push`] of a block left where it is, its payload moved
    /// out (what stays behind reads as opaque): the write-back's way to
    /// place a block of the stash's lane without copying it twice.
    ///
    /// # Panics
    ///
    /// As [`Bucket::push`].
    pub(crate) fn push_from(&mut self, block: &mut Block) {
        let slot = self.len();
        assert!(
            slot < self.capacity(),
            "bucket overflow (Z={})",
            self.capacity()
        );
        self.set_addr(slot, block.addr);
        self.leaf[slot] = block.leaf.0;
        // The slot is dead, so its payload is opaque: the block gets that.
        std::mem::swap(&mut self.payloads[slot], &mut block.payload);
        self.set_len(slot + 1);
    }

    /// Reads a word from each end of the record, so that a caller about
    /// to drain a whole path can start all of its memory loads at once
    /// (the record may straddle two cache lines).
    pub(crate) fn touch(&self) -> u64 {
        let last = Self::MAX_Z - 1;
        u64::from(self.addr[LEN]) ^ u64::from(self.payloads[last].is_opaque())
    }

    /// Empties the bucket into the first [`Bucket::MAX_Z`] entries of
    /// `out`, slot for slot, and returns how many slots held a block.
    /// Every slot is copied, live or dead, so that no branch depends on
    /// the bucket's length; a dead slot leaves a stale header and an
    /// opaque payload. `out`'s entries must hold opaque payloads: they
    /// trade places with the bucket's.
    pub(crate) fn drain_into(&mut self, out: &mut [Block]) -> usize {
        let len = self.len();
        let out = &mut out[..Self::MAX_Z];
        for (slot, block) in out.iter_mut().enumerate() {
            block.addr = self.addr_at(slot);
            block.leaf = Leaf(self.leaf[slot]);
            std::mem::swap(&mut block.payload, &mut self.payloads[slot]);
        }
        self.set_len(0);
        len
    }

    /// The block in `slot`, its payload moved out.
    fn take_slot(&mut self, slot: usize) -> Block {
        Block {
            addr: self.addr_at(slot),
            leaf: Leaf(self.leaf[slot]),
            payload: std::mem::take(&mut self.payloads[slot]),
        }
    }

    /// Removes and yields all blocks, in slot order (the path-read
    /// operation). The bucket is empty from this call on, whether or not
    /// the iterator is run to its end.
    pub fn drain(&mut self) -> Drain<'_> {
        let end = self.len();
        self.set_len(0);
        Drain {
            bucket: self,
            next: 0,
            end,
        }
    }

    /// Removes the block with the given address, if present; the last
    /// block takes its slot.
    pub fn take(&mut self, addr: BlockAddr) -> Option<Block> {
        let slot = (0..self.len()).find(|&slot| self.addr_at(slot) == addr)?;
        let block = self.take_slot(slot);
        let last = self.len() - 1;
        let moved = self.addr_at(last);
        self.set_addr(slot, moved);
        self.leaf[slot] = self.leaf[last];
        self.payloads.swap(slot, last);
        self.set_len(last);
        Some(block)
    }

    /// Iterates over resident blocks, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = BlockRef<'_>> {
        (0..self.len()).map(move |slot| BlockRef {
            addr: self.addr_at(slot),
            leaf: Leaf(self.leaf[slot]),
            payload: &self.payloads[slot],
        })
    }
}

/// Two buckets are equal when they have the same capacity and hold equal
/// blocks in the same slots; what dead slots last held does not count.
impl PartialEq for Bucket {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity() && self.iter().eq(other.iter())
    }
}

impl Eq for Bucket {}

impl fmt::Debug for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bucket")
            .field("capacity", &self.capacity())
            .field("blocks", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The draining iterator [`Bucket::drain`] returns.
#[derive(Debug)]
pub struct Drain<'a> {
    bucket: &'a mut Bucket,
    next: usize,
    end: usize,
}

impl Iterator for Drain<'_> {
    type Item = Block;

    #[inline]
    fn next(&mut self) -> Option<Block> {
        if self.next == self.end {
            return None;
        }
        let slot = self.next;
        self.next += 1;
        Some(self.bucket.take_slot(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Drain<'_> {}

impl Drop for Drain<'_> {
    /// Drops the payloads of the blocks not taken, so that a dead slot's
    /// payload is opaque.
    fn drop(&mut self) {
        self.bucket.payloads[self.next..self.end].fill(Payload::OPAQUE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posmap::PosEntry;

    fn blk(a: u64) -> Block {
        Block::opaque(BlockAddr(a), Leaf(0))
    }

    fn pm_blk(a: u64) -> Block {
        let entries = vec![PosEntry::new(Leaf(7)), PosEntry::new(Leaf(8))];
        Block::posmap(BlockAddr(a), Leaf(3), entries.into())
    }

    #[test]
    fn a_bucket_is_one_cache_line_of_thin_blocks() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::size_of::<Payload>(), 8);
        assert_eq!(std::mem::size_of::<Block>(), 24);
    }

    #[test]
    fn addresses_up_to_the_limit_round_trip_beside_length_and_capacity() {
        let top = Bucket::ADDR_LIMIT - 1;
        let mut b = Bucket::new(4);
        b.push(blk(top));
        b.push(pm_blk(top - 1));
        b.push(blk(0));
        assert_eq!((b.len(), b.capacity()), (3, 4));
        assert_eq!(b.take(BlockAddr(top)), Some(blk(top)));
        let left: Vec<Block> = b.iter().map(|b| b.to_block()).collect();
        assert_eq!(left, [blk(0), pm_blk(top - 1)]);
        assert_eq!((b.len(), b.capacity()), (2, 4));
    }

    #[test]
    #[should_panic(expected = "beyond the bucket's address field")]
    fn an_address_past_the_limit_panics() {
        Bucket::new(2).push(blk(Bucket::ADDR_LIMIT));
    }

    #[test]
    fn push_and_drain() {
        let mut b = Bucket::new(3);
        b.push(blk(1));
        b.push(blk(2));
        assert_eq!(b.len(), 2);
        assert!(!b.is_full());
        let blocks: Vec<Block> = b.drain().collect();
        assert_eq!(blocks, [blk(1), blk(2)]);
        assert!(b.is_empty());
        assert!(b.payloads.iter().all(Payload::is_opaque));
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn overflow_panics() {
        let mut b = Bucket::new(1);
        b.push(blk(1));
        b.push(blk(2));
    }

    #[test]
    fn take_by_address() {
        let mut b = Bucket::new(4);
        b.push(pm_blk(1));
        b.push(blk(2));
        b.push(blk(3));
        assert_eq!(b.take(BlockAddr(1)), Some(pm_blk(1)));
        assert!(b.take(BlockAddr(1)).is_none());
        // The last block moved into the freed slot, header and payload.
        let left: Vec<Block> = b.iter().map(|b| b.to_block()).collect();
        assert_eq!(left, [blk(3), blk(2)]);
        assert_eq!(b.take(BlockAddr(2)), Some(blk(2)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn drained_payloads_come_back_intact_and_do_not_resurface() {
        let mut b = Bucket::new(3);
        b.push(blk(1));
        b.push(pm_blk(2));
        let drained: Vec<Block> = b.drain().collect();
        assert_eq!(drained, [blk(1), pm_blk(2)]);
        // Opaque blocks into the slots the posmap block and its
        // neighbour used: every reader sees an opaque payload.
        b.push(blk(10));
        b.push(blk(11));
        assert!(b.iter().all(|b| b.payload.is_opaque()));
        let mut fresh = Bucket::new(3);
        fresh.push(blk(10));
        fresh.push(blk(11));
        assert_eq!(b, fresh);
        assert_eq!(b.drain().collect::<Vec<_>>(), [blk(10), blk(11)]);
    }

    #[test]
    fn a_drain_dropped_early_empties_the_bucket() {
        let mut b = Bucket::new(3);
        b.push(pm_blk(1));
        b.push(pm_blk(2));
        b.drain();
        assert!(b.is_empty());
        assert!(b.payloads.iter().all(Payload::is_opaque));
        b.push(blk(3));
        b.push(blk(4));
        assert_eq!(b.drain().collect::<Vec<_>>(), [blk(3), blk(4)]);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a = Bucket::new(3);
        a.push(blk(9));
        a.push(pm_blk(8));
        a.drain();
        assert_eq!(a, Bucket::new(3), "stale headers");
        a.push(blk(1));
        let mut b = Bucket::new(3);
        b.push(blk(1));
        assert_eq!(a, b);
        b.push(blk(2));
        assert_ne!(a, b);
        assert_ne!(Bucket::new(3), Bucket::new(4));
    }

    #[test]
    fn capacity_reported() {
        let b = Bucket::new(4);
        assert_eq!(b.capacity(), 4);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Bucket::new(0);
    }

    #[test]
    #[should_panic(expected = "capacity above 4")]
    fn oversized_capacity_panics() {
        Bucket::new(5);
    }
}
