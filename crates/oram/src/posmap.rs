//! Position-map entries.
//!
//! Each position-map block stores the leaf labels of
//! `entries_per_block` consecutive child blocks, "along with their merge
//! and break bits" (paper Section 4.1, Figure 4). The paper keeps the
//! prefetch bit here too (Section 4.5.1); this reproduction keeps it, with
//! the hit bit, in the super-block scheme's prefetch ledger alone, and the
//! timing model prices both bits ([`crate::OramTiming::meta_bytes`])
//! whatever an entry carries.
//!
//! The bits are opaque to this crate; the super-block schemes in
//! `proram-core` reconstruct merge/break counters from them. Because the
//! paper leaves exact counter widths underspecified (a size-2 super
//! block's break counter must hold the initial value 4 in 2 physical
//! bits), we store a small signed counter field per entry and let the
//! scheme clamp it to a configurable width — see DESIGN.md, "Design
//! liberties".

use crate::addr::Leaf;

/// One position-map entry: the leaf label of a child block plus the
/// per-block bits used by the dynamic super-block scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PosEntry {
    /// Leaf the child block is mapped to.
    pub leaf: Leaf,
    /// Merge-counter contribution of this block (paper's merge bits).
    pub merge: i16,
    /// Break-counter contribution of this block (paper's break bits).
    pub brk: i16,
}

impl PosEntry {
    /// Creates an entry mapping the child to `leaf`, all bits clear.
    pub fn new(leaf: Leaf) -> Self {
        PosEntry {
            leaf,
            merge: 0,
            brk: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_clears_bits() {
        let e = PosEntry::new(Leaf(12));
        assert_eq!(e.leaf, Leaf(12));
        assert_eq!(e.merge, 0);
        assert_eq!(e.brk, 0);
    }

    #[test]
    fn default_is_leaf_zero() {
        let e = PosEntry::default();
        assert_eq!(e.leaf, Leaf(0));
    }
}
