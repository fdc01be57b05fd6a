//! ORAM blocks and their payloads.
//!
//! A [`Block`] is 24 bytes: address, leaf and a one-word [`Payload`]. An
//! opaque payload is a null pointer; data bytes and position-map entries
//! sit behind one pointer and are read through the borrowed
//! [`PayloadRef`] view. So a bucket holds its slots' payloads inline, and
//! a path read, a write-back or a PLB insert moves one word per block and
//! never follows the pointer.

use crate::addr::Leaf;
use crate::posmap::PosEntry;
use proram_mem::BlockAddr;
use std::fmt;

/// What a block carries: one word, null for an opaque block.
///
/// The timing experiments run with opaque payloads (no data bytes are
/// simulated — only metadata moves); the functional/crypto tests and the
/// key-value-store example use data payloads; position-map blocks carry
/// their entry table. Read it through [`Payload::view`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Payload(Option<Box<Content>>);

/// The owned contents of a non-opaque payload.
#[derive(Clone, PartialEq, Eq)]
enum Content {
    Data(Box<[u8]>),
    PosMap(Box<[PosEntry]>),
}

/// A borrowed view of a [`Payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadRef<'a> {
    /// A data block whose contents are not simulated.
    Opaque,
    /// A data block carrying real bytes.
    Data(&'a [u8]),
    /// A position-map block: leaf labels plus the per-entry bits used by
    /// the super-block schemes.
    PosMap(&'a [PosEntry]),
}

impl Payload {
    /// The opaque payload: no contents, no allocation.
    pub(crate) const OPAQUE: Payload = Payload(None);

    /// A data payload carrying `bytes`.
    pub(crate) fn data(bytes: Box<[u8]>) -> Self {
        Payload(Some(Box::new(Content::Data(bytes))))
    }

    /// A position-map payload carrying `entries`.
    pub(crate) fn posmap(entries: Box<[PosEntry]>) -> Self {
        Payload(Some(Box::new(Content::PosMap(entries))))
    }

    /// The contents, borrowed.
    pub fn view(&self) -> PayloadRef<'_> {
        match self.0.as_deref() {
            None => PayloadRef::Opaque,
            Some(Content::Data(bytes)) => PayloadRef::Data(bytes),
            Some(Content::PosMap(entries)) => PayloadRef::PosMap(entries),
        }
    }

    /// The bytes of a data payload, mutably; `None` for any other kind.
    pub(crate) fn data_mut(&mut self) -> Option<&mut [u8]> {
        match self.0.as_deref_mut() {
            Some(Content::Data(bytes)) => Some(bytes),
            _ => None,
        }
    }

    /// The entries of a position-map payload, mutably; `None` for any
    /// other kind.
    fn entries_mut(&mut self) -> Option<&mut [PosEntry]> {
        match self.0.as_deref_mut() {
            Some(Content::PosMap(entries)) => Some(entries),
            _ => None,
        }
    }

    /// A data payload holding `bytes`, built in this one's memory: in
    /// place when this is data of the same length, else in its box when
    /// it has one. The decoder's way to rebuild a block without the two
    /// allocations of [`Payload::data`].
    pub(crate) fn refill_data(mut self, bytes: &[u8]) -> Payload {
        match self.0.as_deref_mut() {
            Some(Content::Data(old)) if old.len() == bytes.len() => old.copy_from_slice(bytes),
            Some(content) => *content = Content::Data(bytes.into()),
            None => return Payload::data(bytes.into()),
        }
        self
    }

    /// [`Payload::refill_data`] for position-map entries.
    pub(crate) fn refill_posmap(
        mut self,
        entries: impl ExactSizeIterator<Item = PosEntry>,
    ) -> Payload {
        match self.0.as_deref_mut() {
            Some(Content::PosMap(old)) if old.len() == entries.len() => {
                for (old, new) in old.iter_mut().zip(entries) {
                    *old = new;
                }
            }
            Some(content) => *content = Content::PosMap(entries.collect()),
            None => return Payload::posmap(entries.collect()),
        }
        self
    }

    /// `true` for position-map payloads.
    pub fn is_posmap(&self) -> bool {
        matches!(self.view(), PayloadRef::PosMap(_))
    }

    /// `true` for the opaque payload; reads the word, not what it points
    /// to.
    pub(crate) fn is_opaque(&self) -> bool {
        self.0.is_none()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// One ORAM block as tracked by the controller.
///
/// Every block is mapped to a [`Leaf`]; the Path ORAM invariant is that the
/// block resides on the path to that leaf, in the stash, or on-chip (PLB).
/// Address and leaf are all the metadata a Path ORAM block carries; the
/// paper's per-block hit bit (Section 4.5.1) lives in the super-block
/// scheme's prefetch ledger, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Program (block) address.
    pub addr: BlockAddr,
    /// Path the block is currently mapped to.
    pub leaf: Leaf,
    /// Contents.
    pub payload: Payload,
}

impl Block {
    /// Creates an opaque block mapped to `leaf`.
    pub fn opaque(addr: BlockAddr, leaf: Leaf) -> Self {
        Block {
            addr,
            leaf,
            payload: Payload::OPAQUE,
        }
    }

    /// Creates a data block carrying `bytes`.
    pub fn with_data(addr: BlockAddr, leaf: Leaf, bytes: Box<[u8]>) -> Self {
        Block {
            addr,
            leaf,
            payload: Payload::data(bytes),
        }
    }

    /// Creates a position-map block with the given entries.
    pub fn posmap(addr: BlockAddr, leaf: Leaf, entries: Box<[PosEntry]>) -> Self {
        Block {
            addr,
            leaf,
            payload: Payload::posmap(entries),
        }
    }

    /// Entry table of a posmap block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a posmap block.
    pub fn entries(&self) -> &[PosEntry] {
        match self.payload.view() {
            PayloadRef::PosMap(entries) => entries,
            other => panic!("block {} is not a posmap block: {other:?}", self.addr),
        }
    }

    /// Mutable entry table of a posmap block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a posmap block.
    pub fn entries_mut(&mut self) -> &mut [PosEntry] {
        let addr = self.addr;
        self.payload
            .entries_mut()
            .unwrap_or_else(|| panic!("block {addr} is not a posmap block"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let b = Block::opaque(BlockAddr(1), Leaf(2));
        assert_eq!(b.addr, BlockAddr(1));
        assert_eq!(b.leaf, Leaf(2));
        assert_eq!(b.payload, Payload::OPAQUE);
        assert!(b.payload.is_opaque());

        let mut d = Block::with_data(BlockAddr(3), Leaf(0), vec![1, 2, 3].into());
        assert_eq!(d.payload.view(), PayloadRef::Data(&[1, 2, 3]));
        d.payload.data_mut().expect("data")[0] = 9;
        assert_eq!(d.payload.view(), PayloadRef::Data(&[9, 2, 3]));

        let p = Block::posmap(BlockAddr(4), Leaf(0), vec![PosEntry::new(Leaf(9))].into());
        assert!(p.payload.is_posmap() && !p.payload.is_opaque());
        assert_eq!(p.entries()[0].leaf, Leaf(9));
        assert!(Payload::OPAQUE.clone().data_mut().is_none());
    }

    #[test]
    fn a_refill_reuses_what_fits_and_replaces_what_does_not() {
        fn entries(leaves: &[u32]) -> impl ExactSizeIterator<Item = PosEntry> + '_ {
            leaves.iter().map(|&l| PosEntry::new(Leaf(l)))
        }
        let data = Payload::data(vec![1, 2].into());
        assert_eq!(
            data.clone().refill_data(&[3, 4]).view(),
            PayloadRef::Data(&[3, 4])
        );
        assert_eq!(
            data.clone().refill_data(&[5]).view(),
            PayloadRef::Data(&[5])
        );
        assert_eq!(
            Payload::OPAQUE.refill_data(&[6]).view(),
            PayloadRef::Data(&[6])
        );
        let posmap = data.refill_posmap(entries(&[7, 8]));
        let expected: Vec<PosEntry> = entries(&[7, 8]).collect();
        assert_eq!(posmap.view(), PayloadRef::PosMap(&expected));
        let expected: Vec<PosEntry> = entries(&[9, 10]).collect();
        assert_eq!(
            posmap.refill_posmap(entries(&[9, 10])).view(),
            PayloadRef::PosMap(&expected)
        );
        let fresh = Payload::OPAQUE.refill_posmap(entries(&[11]));
        assert_eq!(fresh, Payload::posmap(entries(&[11]).collect()));
    }

    #[test]
    fn entries_mut_updates() {
        let mut p = Block::posmap(BlockAddr(4), Leaf(0), vec![PosEntry::new(Leaf(1))].into());
        p.entries_mut()[0].leaf = Leaf(7);
        assert_eq!(p.entries()[0].leaf, Leaf(7));
    }

    #[test]
    #[should_panic(expected = "not a posmap block")]
    fn entries_on_data_block_panics() {
        Block::opaque(BlockAddr(0), Leaf(0)).entries();
    }

    #[test]
    #[should_panic(expected = "not a posmap block")]
    fn entries_mut_on_data_block_panics() {
        Block::with_data(BlockAddr(0), Leaf(0), vec![1].into()).entries_mut();
    }
}
