//! Leaf labels and the unified ORAM address space.
//!
//! The unified baseline (paper Section 2.3) stores data blocks *and*
//! position-map blocks in one binary tree. [`AddressSpace`] lays out that
//! combined block-address space: data blocks first, then one region per
//! position-map hierarchy, each region 1/`entries_per_block` the size of
//! the one below it. The top hierarchy's leaf labels are small enough to
//! live on-chip.

use proram_mem::BlockAddr;
use std::fmt;

/// A leaf label: which root-to-leaf path a block is mapped to.
///
/// Leaves are numbered `0..num_leaves` left to right, as in the paper's
/// Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Leaf(pub u32);

impl fmt::Display for Leaf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leaf{}", self.0)
    }
}

/// Which hierarchy a block belongs to: 0 = data, `1..` = position map.
pub type Hierarchy = u8;

/// Layout of the unified block address space.
///
/// # Examples
///
/// ```
/// use proram_oram::AddressSpace;
/// use proram_mem::BlockAddr;
///
/// // 1024 data blocks, 32 posmap entries per block, 2 on-tree posmap
/// // hierarchies (the third level, with exactly one block, is on-chip).
/// let space = AddressSpace::new(1024, 32, 2);
/// assert_eq!(space.region_len(0), 1024);
/// assert_eq!(space.region_len(1), 32);
/// assert_eq!(space.region_len(2), 1);
/// // The posmap block holding data block 40's entry:
/// let pm = space.posmap_block_for(BlockAddr(40), 1);
/// assert_eq!(space.hierarchy_of(pm), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    num_data_blocks: u64,
    /// Position-map entries per posmap block.
    fanout: Divisor,
    /// Number of posmap hierarchies whose blocks are stored in the tree.
    /// Hierarchy `on_tree_hierarchies + 1`'s labels live on-chip.
    on_tree_hierarchies: u8,
    /// `region_base[h]` = first block address of hierarchy `h`'s region.
    region_base: Vec<u64>,
    /// `region_len[h]` = number of blocks in hierarchy `h`.
    region_len: Vec<u64>,
}

impl AddressSpace {
    /// Lays out an address space.
    ///
    /// `on_tree_hierarchies` is the number of position-map levels stored in
    /// the tree (the paper's "number of ORAM hierarchies" minus one: with 4
    /// hierarchies, data + 3 posmap levels exist and the top level is the
    /// on-chip final position map).
    ///
    /// # Panics
    ///
    /// Panics if `num_data_blocks` is zero or above `u32::MAX`, or
    /// `entries_per_block` is not in `2..=u32::MAX`.
    pub fn new(num_data_blocks: u64, entries_per_block: u64, on_tree_hierarchies: u8) -> Self {
        assert!(num_data_blocks > 0, "address space needs data blocks");
        assert!(
            num_data_blocks <= u64::from(u32::MAX),
            "address space above 2^32 data blocks"
        );
        let levels = usize::from(on_tree_hierarchies) + 2;
        let mut region_base = Vec::with_capacity(levels);
        let mut region_len = Vec::with_capacity(levels);
        let mut base = 0u64;
        let mut len = num_data_blocks;
        for _ in 0..levels {
            region_base.push(base);
            region_len.push(len);
            base += len;
            len = len.div_ceil(entries_per_block);
        }
        AddressSpace {
            num_data_blocks,
            fanout: Divisor::new(entries_per_block),
            on_tree_hierarchies,
            region_base,
            region_len,
        }
    }

    /// Number of data blocks (hierarchy 0 region size).
    pub fn num_data_blocks(&self) -> u64 {
        self.num_data_blocks
    }

    /// Position-map entries per posmap block.
    pub fn entries_per_block(&self) -> u64 {
        self.fanout.d
    }

    /// Number of posmap hierarchies stored in the tree.
    pub fn on_tree_hierarchies(&self) -> u8 {
        self.on_tree_hierarchies
    }

    /// Hierarchy whose leaf labels are kept on-chip.
    pub fn top_hierarchy(&self) -> Hierarchy {
        self.on_tree_hierarchies + 1
    }

    /// Total number of blocks stored in the tree (data + on-tree posmap).
    pub fn total_tree_blocks(&self) -> u64 {
        (0..=self.on_tree_hierarchies)
            .map(|h| self.region_len[h as usize])
            .sum()
    }

    /// Number of blocks in hierarchy `h`'s region.
    ///
    /// # Panics
    ///
    /// Panics if `h` exceeds the top hierarchy.
    pub fn region_len(&self, h: Hierarchy) -> u64 {
        self.region_len[usize::from(h)]
    }

    /// First block address of hierarchy `h`'s region.
    pub fn region_base(&self, h: Hierarchy) -> u64 {
        self.region_base[usize::from(h)]
    }

    /// The hierarchy a block address belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside every region.
    pub fn hierarchy_of(&self, block: BlockAddr) -> Hierarchy {
        for h in 0..self.region_base.len() {
            if block.0 < self.region_base[h] + self.region_len[h] {
                return h as Hierarchy;
            }
        }
        panic!("block {block} outside the unified address space");
    }

    /// Where `block`'s position-map entry lives: see [`Parent`].
    ///
    /// # Panics
    ///
    /// Panics if `block` is outside the regions below the top hierarchy.
    pub(crate) fn parent_of(&self, block: BlockAddr) -> Parent {
        let child = self.hierarchy_of(block);
        let h = child + 1;
        assert!(h <= self.top_hierarchy(), "block {block} has no parent");
        let offset = block.0 - self.region_base[usize::from(child)];
        Parent {
            hierarchy: h,
            offset,
            block: BlockAddr(self.region_base[usize::from(h)] + self.fanout.div(offset)),
            index: self.fanout.rem(offset) as usize,
        }
    }

    /// The hierarchy-`h` posmap block whose entries cover `block` (a block
    /// of hierarchy `h - 1`).
    ///
    /// # Panics
    ///
    /// Panics if `h` is zero, above the top hierarchy, or `block` is not in
    /// hierarchy `h - 1`.
    pub fn posmap_block_for(&self, block: BlockAddr, h: Hierarchy) -> BlockAddr {
        assert!(h >= 1 && h <= self.top_hierarchy(), "invalid hierarchy {h}");
        let child = usize::from(h) - 1;
        let off = block
            .0
            .checked_sub(self.region_base[child])
            .expect("block below its region base");
        assert!(
            off < self.region_len[child],
            "block {block} not in hierarchy {child}"
        );
        BlockAddr(self.region_base[usize::from(h)] + self.fanout.div(off))
    }

    /// Index of `block`'s entry within its covering posmap block.
    pub fn entry_index(&self, block: BlockAddr) -> usize {
        let h = self.hierarchy_of(block);
        let off = block.0 - self.region_base[usize::from(h)];
        self.fanout.rem(off) as usize
    }

    /// The first child block address covered by posmap block `pm`.
    ///
    /// # Panics
    ///
    /// Panics if `pm` is a data block (hierarchy 0).
    pub fn first_child(&self, pm: BlockAddr) -> BlockAddr {
        let h = self.hierarchy_of(pm);
        assert!(h >= 1, "data blocks have no children");
        let off = pm.0 - self.region_base[usize::from(h)];
        BlockAddr(self.region_base[usize::from(h) - 1] + off * self.fanout.d)
    }

    /// Number of valid entries in posmap block `pm` (the last block of a
    /// region can be partially used).
    pub fn child_count(&self, pm: BlockAddr) -> usize {
        let h = self.hierarchy_of(pm);
        assert!(h >= 1, "data blocks have no children");
        let child_len = self.region_len[usize::from(h) - 1];
        let first = self.first_child(pm).0 - self.region_base[usize::from(h) - 1];
        (child_len - first).min(self.fanout.d) as usize
    }
}

/// Where a block's position-map entry lives ([`AddressSpace::parent_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Parent {
    /// Hierarchy of the covering posmap block; the top hierarchy's
    /// entries live in the on-chip table.
    pub hierarchy: Hierarchy,
    /// The block's offset in its own region: its entry's index in the
    /// on-chip table when `hierarchy` is the top one.
    pub offset: u64,
    /// The covering posmap block.
    pub block: BlockAddr,
    /// The entry's index within `block`.
    pub index: usize,
}

/// Division by a fixed divisor in `2..=u32::MAX`, as a multiply by its
/// 64-bit reciprocal and no `div` (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019): exact for every numerator
/// below 2^32, which every offset in an [`AddressSpace`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Divisor {
    d: u64,
    /// `ceil(2^64 / d)`.
    m: u64,
}

impl Divisor {
    fn new(d: u64) -> Self {
        assert!(
            (2..=u64::from(u32::MAX)).contains(&d),
            "posmap blocks must hold 2..=2^32-1 entries"
        );
        Divisor {
            d,
            m: u64::MAX / d + 1,
        }
    }

    fn div(self, n: u64) -> u64 {
        debug_assert!(n <= u64::from(u32::MAX));
        ((u128::from(self.m) * u128::from(n)) >> 64) as u64
    }

    fn rem(self, n: u64) -> u64 {
        debug_assert!(n <= u64::from(u32::MAX));
        ((u128::from(self.m.wrapping_mul(n)) * u128::from(self.d)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(1000, 32, 2)
    }

    #[test]
    fn region_sizes_shrink_by_fanout() {
        let s = space();
        assert_eq!(s.region_len(0), 1000);
        assert_eq!(s.region_len(1), 32); // ceil(1000/32)
        assert_eq!(s.region_len(2), 1);
        assert_eq!(s.region_len(3), 1); // on-chip top
        assert_eq!(s.total_tree_blocks(), 1033);
    }

    #[test]
    fn region_bases_are_contiguous() {
        let s = space();
        assert_eq!(s.region_base(0), 0);
        assert_eq!(s.region_base(1), 1000);
        assert_eq!(s.region_base(2), 1032);
    }

    #[test]
    fn hierarchy_of_classifies() {
        let s = space();
        assert_eq!(s.hierarchy_of(BlockAddr(0)), 0);
        assert_eq!(s.hierarchy_of(BlockAddr(999)), 0);
        assert_eq!(s.hierarchy_of(BlockAddr(1000)), 1);
        assert_eq!(s.hierarchy_of(BlockAddr(1032)), 2);
    }

    #[test]
    #[should_panic(expected = "outside the unified address space")]
    fn hierarchy_of_out_of_range_panics() {
        space().hierarchy_of(BlockAddr(10_000));
    }

    #[test]
    fn posmap_chain_for_data_block() {
        let s = space();
        let b = BlockAddr(40);
        let pm1 = s.posmap_block_for(b, 1);
        assert_eq!(pm1, BlockAddr(1000 + 1)); // 40/32 = group 1
        let pm2 = s.posmap_block_for(pm1, 2);
        assert_eq!(pm2, BlockAddr(1032));
        assert_eq!(s.entry_index(b), 8); // 40 % 32
        assert_eq!(s.entry_index(pm1), 1);
    }

    #[test]
    fn children_round_trip() {
        let s = space();
        let pm = BlockAddr(1003); // h1 group 3 => children 96..128
        assert_eq!(s.first_child(pm), BlockAddr(96));
        assert_eq!(s.child_count(pm), 32);
        for c in 96..128u64 {
            assert_eq!(s.posmap_block_for(BlockAddr(c), 1), pm);
        }
    }

    #[test]
    fn last_posmap_block_partially_used() {
        let s = space();
        // h1 region: 32 blocks covering 1000 children; last group holds
        // 1000 - 31*32 = 8 entries.
        let last = BlockAddr(1000 + 31);
        assert_eq!(s.child_count(last), 8);
    }

    #[test]
    fn zero_on_tree_hierarchies_means_flat_onchip_map() {
        let s = AddressSpace::new(64, 32, 0);
        assert_eq!(s.top_hierarchy(), 1);
        assert_eq!(s.total_tree_blocks(), 64);
        // Every data block's posmap entry is in the on-chip hierarchy.
        assert_eq!(s.hierarchy_of(BlockAddr(63)), 0);
        assert_eq!(s.posmap_block_for(BlockAddr(63), 1), BlockAddr(64 + 1));
    }

    #[test]
    #[should_panic(expected = "invalid hierarchy")]
    fn posmap_block_for_hierarchy_zero_panics() {
        space().posmap_block_for(BlockAddr(0), 0);
    }

    #[test]
    fn parent_of_agrees_with_the_separate_lookups() {
        let s = space();
        for addr in 0..1032 {
            let b = BlockAddr(addr);
            let p = s.parent_of(b);
            let h = s.hierarchy_of(b) + 1;
            assert_eq!(p.hierarchy, h);
            assert_eq!(p.offset, addr - s.region_base(h - 1));
            assert_eq!(p.block, s.posmap_block_for(b, h));
            assert_eq!(p.index, s.entry_index(b));
        }
    }

    #[test]
    fn the_reciprocal_divides_exactly_below_2_to_the_32() {
        let divisors = [
            2,
            3,
            7,
            8,
            31,
            32,
            33,
            1000,
            65_537,
            (1 << 31) + 1,
            u32::MAX,
        ];
        let mut n = 0x9E37_79B9u64;
        for d in divisors.map(u64::from) {
            let div = Divisor::new(d);
            let max = u64::from(u32::MAX);
            let edges = [0, 1, d - 1, d, (d + 1).min(max), max - 1, max];
            for i in 0..2000 {
                n = n
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407)
                    >> 32;
                let x = edges.get(i).copied().unwrap_or(n);
                assert_eq!((div.div(x), div.rem(x)), (x / d, x % d), "{x} / {d}");
            }
        }
    }

    #[test]
    fn leaf_display() {
        assert_eq!(Leaf(5).to_string(), "leaf5");
    }
}
