//! ORAM blocks and their payloads.

use crate::addr::Leaf;
use crate::posmap::PosEntry;
use proram_mem::BlockAddr;

/// What a block carries.
///
/// The timing experiments run with [`Payload::Opaque`] (no data bytes are
/// simulated — only metadata moves); the functional/crypto tests and the
/// key-value-store example use [`Payload::Data`]; position-map blocks carry
/// their entry table in [`Payload::PosMap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A data block whose contents are not simulated.
    Opaque,
    /// A data block carrying real bytes.
    Data(Box<[u8]>),
    /// A position-map block: leaf labels plus the per-entry bits used by
    /// the super-block schemes.
    PosMap(Box<[PosEntry]>),
}

impl Payload {
    /// `true` for position-map payloads.
    pub fn is_posmap(&self) -> bool {
        matches!(self, Payload::PosMap(_))
    }

    /// `true` for [`Payload::Opaque`].
    pub(crate) fn is_opaque(&self) -> bool {
        matches!(self, Payload::Opaque)
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
            payload: Payload::Opaque,
        }
    }

    /// Creates a data block carrying `bytes`.
    pub fn with_data(addr: BlockAddr, leaf: Leaf, bytes: Box<[u8]>) -> Self {
        Block {
            addr,
            leaf,
            payload: Payload::Data(bytes),
        }
    }

    /// Creates a position-map block with the given entries.
    pub fn posmap(addr: BlockAddr, leaf: Leaf, entries: Box<[PosEntry]>) -> Self {
        Block {
            addr,
            leaf,
            payload: Payload::PosMap(entries),
        }
    }

    /// Entry table of a posmap block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a posmap block.
    pub fn entries(&self) -> &[PosEntry] {
        match &self.payload {
            Payload::PosMap(e) => e,
            other => panic!("block {} is not a posmap block: {other:?}", self.addr),
        }
    }

    /// Mutable entry table of a posmap block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not a posmap block.
    pub fn entries_mut(&mut self) -> &mut [PosEntry] {
        match &mut self.payload {
            Payload::PosMap(e) => e,
            other => panic!("not a posmap block: {other:?}"),
        }
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
        assert_eq!(b.payload, Payload::Opaque);

        let d = Block::with_data(BlockAddr(3), Leaf(0), vec![1, 2, 3].into());
        assert!(matches!(d.payload, Payload::Data(_)));

        let p = Block::posmap(BlockAddr(4), Leaf(0), vec![PosEntry::new(Leaf(9))].into());
        assert!(p.payload.is_posmap());
        assert_eq!(p.entries()[0].leaf, Leaf(9));
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
}
