//! Request and address types shared by every memory backend.

use std::fmt;

/// Simulator time, in core clock cycles (1 GHz in the paper's Table 1).
pub type Cycle = u64;

/// Address of one memory block.
///
/// The memory system operates at the granularity of one cache line, which
/// is also the ORAM *basic block* (128 bytes in the paper's default
/// configuration). A `BlockAddr` is the program byte address divided by the
/// line size; neighbor arithmetic for super blocks (Section 3.2) happens
/// directly on these values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockAddr(pub u64);

impl BlockAddr {
    /// The block at `self + offset` in the block address space.
    pub fn offset(self, offset: u64) -> Self {
        BlockAddr(self.0 + offset)
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{:#x}", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(v: u64) -> Self {
        BlockAddr(v)
    }
}

/// Whether an access reads or writes the block.
///
/// Path ORAM treats both identically on the wire (that indistinguishability
/// is part of its security definition), but the cache hierarchy needs the
/// distinction for dirty tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load / fill request.
    Read,
    /// A store / writeback request.
    Write,
}

/// One request presented to a [`crate::MemoryBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// The block being accessed.
    pub block: BlockAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// `true` if this request was issued by a prefetcher rather than the
    /// core. Prefetch requests contend for the same memory resources —
    /// which is exactly the effect Section 3.1 of the paper studies.
    pub prefetch: bool,
}

impl MemRequest {
    /// A demand read of `block`.
    pub fn read(block: BlockAddr) -> Self {
        MemRequest {
            block,
            kind: AccessKind::Read,
            prefetch: false,
        }
    }

    /// A demand write of `block`.
    pub fn write(block: BlockAddr) -> Self {
        MemRequest {
            block,
            kind: AccessKind::Write,
            prefetch: false,
        }
    }

    /// A prefetcher-issued read of `block`.
    pub fn prefetch(block: BlockAddr) -> Self {
        MemRequest {
            block,
            kind: AccessKind::Read,
            prefetch: true,
        }
    }
}

impl fmt::Display for MemRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            AccessKind::Read => "R",
            AccessKind::Write => "W",
        };
        let pf = if self.prefetch { "+pf" } else { "" };
        write!(f, "{kind}{pf} {}", self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_moves_block() {
        assert_eq!(BlockAddr(10).offset(3), BlockAddr(13));
    }

    #[test]
    fn constructors_set_fields() {
        let r = MemRequest::read(BlockAddr(1));
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.prefetch);
        let w = MemRequest::write(BlockAddr(2));
        assert_eq!(w.kind, AccessKind::Write);
        let p = MemRequest::prefetch(BlockAddr(3));
        assert!(p.prefetch);
        assert_eq!(p.kind, AccessKind::Read);
    }

    #[test]
    fn display_formats() {
        assert_eq!(BlockAddr(255).to_string(), "b0xff");
        assert_eq!(MemRequest::read(BlockAddr(1)).to_string(), "R b0x1");
        assert_eq!(MemRequest::prefetch(BlockAddr(1)).to_string(), "R+pf b0x1");
        assert_eq!(MemRequest::write(BlockAddr(1)).to_string(), "W b0x1");
    }

    #[test]
    fn from_u64() {
        let b: BlockAddr = 9u64.into();
        assert_eq!(b, BlockAddr(9));
    }
}
