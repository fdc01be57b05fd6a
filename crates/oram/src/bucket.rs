//! Tree buckets.

use crate::addr::Leaf;
use crate::block::{Block, Payload};
use proram_mem::BlockAddr;
use std::fmt;

/// What a slot without a payload of its own reads as.
static OPAQUE: Payload = Payload::Opaque;

/// One node of the ORAM tree: up to `Z` real blocks, `Z` at most
/// [`Bucket::MAX_Z`].
///
/// A bucket is one 64-byte record: the block headers — address and
/// leaf — lie inline, slot by slot, and payloads lie in a side array
/// that is allocated on the first non-opaque push and kept from then on.
/// A tree of opaque blocks (every timing experiment) is therefore one
/// dense allocation, and moving a block in or out of it allocates
/// nothing. Only position-map blocks and stored data carry a payload.
///
/// Slots not holding a real block are *dummy blocks* on the wire; the
/// functional model simply leaves them empty (the encryption layer in
/// [`crate::storage`] serializes dummies explicitly so ciphertext sizes
/// are position-independent). A dead slot's header is whatever was there
/// last; it owns no payload.
#[derive(Clone)]
pub struct Bucket {
    addr: [u64; Bucket::MAX_Z],
    leaf: [u32; Bucket::MAX_Z],
    /// `None` until a block with a payload is pushed.
    payloads: Option<Box<[Payload; Bucket::MAX_Z]>>,
    len: u8,
    capacity: u8,
}

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

    /// Creates an empty bucket with `z` slots.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero or above [`Bucket::MAX_Z`].
    pub fn new(z: usize) -> Self {
        assert!(z > 0, "bucket capacity must be positive");
        assert!(z <= Self::MAX_Z, "bucket capacity above {}", Self::MAX_Z);
        Bucket {
            addr: [0; Self::MAX_Z],
            leaf: [0; Self::MAX_Z],
            payloads: None,
            len: 0,
            capacity: z as u8,
        }
    }

    /// Slot capacity `Z`.
    pub fn capacity(&self) -> usize {
        usize::from(self.capacity)
    }

    /// Number of real blocks held.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// `true` if the bucket holds no real blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if no slot is free.
    pub fn is_full(&self) -> bool {
        self.len == self.capacity
    }

    /// Inserts a block into the next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is full.
    pub fn push(&mut self, mut block: Block) {
        self.push_from(&mut block);
    }

    /// [`Bucket::push`] of a block left where it is, its payload moved
    /// out (what stays behind reads as opaque): the write-back's way to
    /// place a block of the stash's lane without copying it twice.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is full.
    pub(crate) fn push_from(&mut self, block: &mut Block) {
        assert!(!self.is_full(), "bucket overflow (Z={})", self.capacity);
        let slot = self.len();
        self.addr[slot] = block.addr.0;
        self.leaf[slot] = block.leaf.0;
        // Once the side array exists every payload moves into it, opaque
        // or not: the slot is dead, so it holds an opaque one already.
        match &mut self.payloads {
            Some(payloads) => std::mem::swap(&mut payloads[slot], &mut block.payload),
            None if !block.payload.is_opaque() => {
                let mut payloads = Box::new([const { Payload::Opaque }; Self::MAX_Z]);
                std::mem::swap(&mut payloads[slot], &mut block.payload);
                self.payloads = Some(payloads);
            }
            None => {}
        }
        self.len += 1;
    }

    /// Reads a word from every cache line the bucket and its payload side
    /// array occupy, so that a caller about to drain a whole path can
    /// start all of its memory loads at once.
    pub(crate) fn touch(&self) -> u64 {
        let last = Self::MAX_Z - 1;
        let header = self.addr[0] ^ self.addr[last] ^ u64::from(self.leaf[0] ^ self.leaf[last]);
        let payloads = self.payloads.as_ref().map_or(0, |p| {
            u64::from(p[0].is_posmap()) + u64::from(p[last].is_posmap())
        });
        header ^ u64::from(self.len) ^ payloads
    }

    /// Empties the bucket into the first [`Bucket::MAX_Z`] entries of
    /// `out`, slot for slot, and returns how many slots held a block.
    /// Every slot is copied, live or dead, so that no branch depends on
    /// the bucket's length; a dead slot leaves a stale header and an
    /// opaque payload. `out`'s entries must hold opaque payloads: a bucket
    /// without a side array leaves them as they are.
    pub(crate) fn drain_into(&mut self, out: &mut [Block]) -> usize {
        let out = &mut out[..Self::MAX_Z];
        for (slot, block) in out.iter_mut().enumerate() {
            block.addr = BlockAddr(self.addr[slot]);
            block.leaf = Leaf(self.leaf[slot]);
        }
        if let Some(payloads) = &mut self.payloads {
            for (payload, block) in payloads.iter_mut().zip(out) {
                block.payload = std::mem::replace(payload, Payload::Opaque);
            }
        }
        std::mem::replace(&mut self.len, 0).into()
    }

    /// The block in `slot`, its payload moved out.
    fn take_slot(&mut self, slot: usize) -> Block {
        Block {
            addr: BlockAddr(self.addr[slot]),
            leaf: Leaf(self.leaf[slot]),
            payload: match &mut self.payloads {
                Some(payloads) => std::mem::replace(&mut payloads[slot], Payload::Opaque),
                None => Payload::Opaque,
            },
        }
    }

    /// Removes and yields all blocks, in slot order (the path-read
    /// operation). The bucket is empty from this call on, whether or not
    /// the iterator is run to its end; the payload side array, if there
    /// is one, stays allocated for the refill.
    pub fn drain(&mut self) -> Drain<'_> {
        let end = self.len();
        self.len = 0;
        Drain {
            bucket: self,
            next: 0,
            end,
        }
    }

    /// Removes the block with the given address, if present; the last
    /// block takes its slot.
    pub fn take(&mut self, addr: BlockAddr) -> Option<Block> {
        let slot = self.addr[..self.len()].iter().position(|&a| a == addr.0)?;
        let block = self.take_slot(slot);
        let last = self.len() - 1;
        self.addr[slot] = self.addr[last];
        self.leaf[slot] = self.leaf[last];
        if let Some(payloads) = &mut self.payloads {
            payloads.swap(slot, last);
        }
        self.len -= 1;
        Some(block)
    }

    /// Iterates over resident blocks, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = BlockRef<'_>> {
        (0..self.len()).map(move |slot| BlockRef {
            addr: BlockAddr(self.addr[slot]),
            leaf: Leaf(self.leaf[slot]),
            payload: self.payloads.as_ref().map_or(&OPAQUE, |p| &p[slot]),
        })
    }
}

/// Two buckets are equal when they have the same capacity and hold equal
/// blocks in the same slots; what dead slots last held does not count.
impl PartialEq for Bucket {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.iter().eq(other.iter())
    }
}

impl Eq for Bucket {}

impl fmt::Debug for Bucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bucket")
            .field("capacity", &self.capacity)
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
    /// Drops the payloads of the blocks not taken, so that a dead slot
    /// owns none.
    fn drop(&mut self) {
        if let Some(payloads) = &mut self.bucket.payloads {
            payloads[self.next..self.end].fill(Payload::Opaque);
        }
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
    fn a_bucket_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
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
        // Opaque blocks never allocate the side array.
        assert!(b.payloads.is_none());
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
        // neighbour used: every reader sees `Payload::Opaque`.
        b.push(blk(10));
        b.push(blk(11));
        assert!(b.iter().all(|b| *b.payload == Payload::Opaque));
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
        assert_eq!(a, Bucket::new(3), "stale headers, live side array");
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
