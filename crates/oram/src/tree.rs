//! The ORAM binary tree.
//!
//! A complete binary tree of [`Bucket`]s in heap layout: level 0 is the
//! root, level `L` the leaves (paper Figure 1). The path to leaf `s` is the
//! set of buckets whose level-`l` ancestor index matches `s`'s. The
//! buckets are fixed 64-byte records in one dense vector: a tree of
//! opaque blocks owns no other memory.
//!
//! An [`OramTree`] holds the buckets *resident* in plaintext: every
//! level, or only the top ones when the rest lives in the encrypted
//! image. The rest of a path then passes through a *staging row* — one
//! bucket per non-resident level — which the controller fills from the
//! image before [`crate::eviction::read_path`] and seals back after
//! [`crate::eviction::write_path_with`].

use crate::addr::Leaf;
use crate::bucket::Bucket;

/// The binary-tree bucket store.
///
/// # Examples
///
/// ```
/// use proram_oram::{OramTree, Leaf};
///
/// let tree = OramTree::new(4, 3); // 4 levels => 8 leaves, Z = 3
/// assert_eq!(tree.num_leaves(), 8);
/// assert_eq!(tree.path_indices(Leaf(5)).count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct OramTree {
    levels: u32,
    z: usize,
    /// Levels (from the root) whose buckets are held here.
    resident_levels: u32,
    /// The resident buckets in heap order, then the staging row: one
    /// bucket per non-resident level, root side first.
    buckets: Vec<Bucket>,
}

impl OramTree {
    /// Creates an empty tree with `levels` levels (root through leaves)
    /// and `z` slots per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is zero or large enough to overflow leaf labels
    /// (more than 31), or `z` is zero or above [`Bucket::MAX_Z`].
    pub fn new(levels: u32, z: usize) -> Self {
        Self::with_resident_levels(levels, z, levels)
    }

    /// A tree that holds only its top `resident_levels` levels. A heap
    /// index below them resolves to its level's bucket of the staging
    /// row, which stands for whichever path is staged in it.
    pub(crate) fn with_resident_levels(levels: u32, z: usize, resident_levels: u32) -> Self {
        assert!((1..=31).contains(&levels), "levels must be in 1..=31");
        assert!(z > 0, "Z must be positive");
        assert!(resident_levels <= levels, "resident levels out of range");
        let held = (1usize << resident_levels) - 1 + (levels - resident_levels) as usize;
        OramTree {
            levels,
            z,
            resident_levels,
            buckets: vec![Bucket::new(z); held],
        }
    }

    /// Number of levels (root through leaves). The paper's `L` is
    /// `levels - 1`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Bucket slot count `Z`.
    pub fn z(&self) -> usize {
        self.z
    }

    /// Number of leaves, `2^(levels-1)`.
    pub fn num_leaves(&self) -> u32 {
        1 << (self.levels - 1)
    }

    /// Number of buckets, `2^levels - 1`.
    pub fn num_buckets(&self) -> usize {
        (1usize << self.levels) - 1
    }

    /// Number of resident buckets: heap indices `0..resident_buckets()`.
    pub(crate) fn resident_buckets(&self) -> usize {
        (1usize << self.resident_levels) - 1
    }

    /// The staging row (empty when every level is resident).
    pub(crate) fn staging(&self) -> &[Bucket] {
        &self.buckets[self.resident_buckets()..]
    }

    /// Mutable staging row.
    pub(crate) fn staging_mut(&mut self) -> &mut [Bucket] {
        let resident = self.resident_buckets();
        &mut self.buckets[resident..]
    }

    /// Drops whatever plaintext the staging row holds.
    pub(crate) fn clear_staging(&mut self) {
        for bucket in self.staging_mut() {
            bucket.drain();
        }
    }

    /// Where heap index `index` is held: itself when resident, else its
    /// level's place in the staging row.
    #[inline]
    fn held_at(&self, index: usize) -> usize {
        let resident = self.resident_buckets();
        if index < resident {
            index
        } else {
            resident + ((index + 1).ilog2() - self.resident_levels) as usize
        }
    }

    /// Total real-block capacity, `Z * num_buckets`.
    pub fn capacity(&self) -> usize {
        self.z * self.num_buckets()
    }

    /// Heap index of the bucket at `level` on the path to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels` or `leaf` is out of range.
    pub fn bucket_index(&self, leaf: Leaf, level: u32) -> usize {
        assert!(level < self.levels, "level {level} out of range");
        assert!(leaf.0 < self.num_leaves(), "{leaf} out of range");
        let prefix = leaf.0 >> (self.levels - 1 - level);
        ((1u32 << level) - 1 + prefix) as usize
    }

    /// Heap indices of the buckets on the path to `leaf`, root first.
    ///
    /// The iterator owns the tree geometry rather than borrowing the tree,
    /// so callers may mutate buckets while walking the path — the hot path
    /// in [`crate::eviction`] consumes it directly instead of collecting
    /// indices into a temporary `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn path_indices(&self, leaf: Leaf) -> PathIndices {
        assert!(leaf.0 < self.num_leaves(), "{leaf} out of range");
        PathIndices {
            leaf: leaf.0,
            leaf_level: self.levels - 1,
            front: 0,
            back: self.levels,
        }
    }

    /// Borrows the bucket at a heap index.
    pub fn bucket(&self, index: usize) -> &Bucket {
        &self.buckets[self.held_at(index)]
    }

    /// Mutably borrows the bucket at a heap index.
    pub fn bucket_mut(&mut self, index: usize) -> &mut Bucket {
        let at = self.held_at(index);
        &mut self.buckets[at]
    }

    /// Deepest level (0-based) shared by the paths to `a` and `b`.
    ///
    /// A block mapped to leaf `a` may be stored in any bucket on the path
    /// to `b` at levels `0..=common_level(a, b)` — the quantity the greedy
    /// write-back in [`crate::eviction`] maximizes.
    pub fn common_level(&self, a: Leaf, b: Leaf) -> u32 {
        let diff = a.0 ^ b.0;
        let leaf_bits = self.levels - 1;
        if diff == 0 {
            leaf_bits
        } else {
            leaf_bits - (32 - diff.leading_zeros())
        }
    }

    /// Number of real blocks currently held (staging row included).
    pub fn occupancy(&self) -> usize {
        self.buckets.iter().map(Bucket::len).sum()
    }
}

/// Owned iterator over the bucket heap indices of one path, root first.
///
/// Returned by [`OramTree::path_indices`]; holds no borrow of the tree.
#[derive(Debug, Clone)]
pub struct PathIndices {
    leaf: u32,
    /// Level of the leaf bucket (`levels - 1`).
    leaf_level: u32,
    /// Next level to yield from the front.
    front: u32,
    /// One past the last level to yield from the back.
    back: u32,
}

impl PathIndices {
    #[inline]
    fn index_at(&self, level: u32) -> usize {
        let prefix = self.leaf >> (self.leaf_level - level);
        ((1u32 << level) - 1 + prefix) as usize
    }
}

impl Iterator for PathIndices {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.front >= self.back {
            return None;
        }
        let idx = self.index_at(self.front);
        self.front += 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.back - self.front) as usize;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for PathIndices {
    #[inline]
    fn next_back(&mut self) -> Option<usize> {
        if self.front >= self.back {
            return None;
        }
        self.back -= 1;
        Some(self.index_at(self.back))
    }
}

impl ExactSizeIterator for PathIndices {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use proram_mem::BlockAddr;

    #[test]
    fn geometry() {
        let t = OramTree::new(4, 3);
        assert_eq!(t.num_leaves(), 8);
        assert_eq!(t.num_buckets(), 15);
        assert_eq!(t.capacity(), 45);
        assert_eq!(t.levels(), 4);
        assert_eq!(t.z(), 3);
    }

    #[test]
    fn path_indices_match_figure_1() {
        // 4-level tree, path to leaf 5: root(0), then right(2), then
        // left-of-right(5), then leaf index 5 => heap 7 + 5 = 12.
        let t = OramTree::new(4, 3);
        let path: Vec<usize> = t.path_indices(Leaf(5)).collect();
        assert_eq!(path, vec![0, 2, 5, 12]);
    }

    #[test]
    fn path_indices_iterate_both_ways() {
        let t = OramTree::new(4, 3);
        let fwd: Vec<usize> = t.path_indices(Leaf(5)).collect();
        let mut rev: Vec<usize> = t.path_indices(Leaf(5)).rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
        assert_eq!(t.path_indices(Leaf(5)).len(), 4);
    }

    #[test]
    fn path_indices_do_not_borrow_the_tree() {
        // The owned iterator permits bucket mutation mid-walk — the shape
        // the eviction hot path relies on.
        let mut t = OramTree::new(4, 2);
        for idx in t.path_indices(Leaf(3)) {
            t.bucket_mut(idx)
                .push(Block::opaque(BlockAddr(idx as u64), Leaf(3)));
        }
        assert_eq!(t.occupancy(), 4);
    }

    #[test]
    fn paths_share_the_root() {
        let t = OramTree::new(5, 3);
        for leaf in 0..t.num_leaves() {
            assert_eq!(t.path_indices(Leaf(leaf)).next(), Some(0));
        }
    }

    #[test]
    fn sibling_leaves_share_all_but_last() {
        let t = OramTree::new(4, 3);
        let a: Vec<usize> = t.path_indices(Leaf(6)).collect();
        let b: Vec<usize> = t.path_indices(Leaf(7)).collect();
        assert_eq!(a[..3], b[..3]);
        assert_ne!(a[3], b[3]);
    }

    #[test]
    fn common_level_examples() {
        let t = OramTree::new(4, 3); // leaf bits = 3
        assert_eq!(t.common_level(Leaf(5), Leaf(5)), 3);
        assert_eq!(t.common_level(Leaf(6), Leaf(7)), 2);
        assert_eq!(t.common_level(Leaf(0), Leaf(7)), 0);
        assert_eq!(t.common_level(Leaf(4), Leaf(6)), 1);
    }

    #[test]
    fn common_level_is_symmetric() {
        let t = OramTree::new(6, 3);
        for a in 0..t.num_leaves() {
            for b in 0..t.num_leaves() {
                assert_eq!(
                    t.common_level(Leaf(a), Leaf(b)),
                    t.common_level(Leaf(b), Leaf(a))
                );
            }
        }
    }

    #[test]
    fn buckets_store_blocks() {
        let mut t = OramTree::new(3, 2);
        let idx = t.bucket_index(Leaf(2), 2);
        t.bucket_mut(idx).push(Block::opaque(BlockAddr(1), Leaf(2)));
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.bucket(idx).len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_level_panics() {
        OramTree::new(3, 2).bucket_index(Leaf(0), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_leaf_panics() {
        OramTree::new(3, 2).bucket_index(Leaf(4), 0);
    }

    #[test]
    fn non_resident_levels_pass_through_the_staging_row() {
        let mut t = OramTree::with_resident_levels(4, 2, 1);
        assert_eq!(t.num_buckets(), 15);
        assert_eq!(t.resident_buckets(), 1);
        assert_eq!(t.staging().len(), 3);
        // The path to leaf 5 is heap 0, 2, 5, 12: the root is resident,
        // the rest lands in the row, root side first.
        for idx in t.path_indices(Leaf(5)) {
            t.bucket_mut(idx)
                .push(Block::opaque(BlockAddr(idx as u64), Leaf(5)));
        }
        assert_eq!(t.bucket(0).len(), 1);
        let staged: Vec<u64> = t
            .staging()
            .iter()
            .flat_map(|b| b.iter().map(|b| b.addr.0))
            .collect();
        assert_eq!(staged, [2, 5, 12]);
        assert_eq!(t.occupancy(), 4);
        assert!(OramTree::new(4, 2).staging().is_empty());
    }

    #[test]
    fn single_level_tree() {
        let t = OramTree::new(1, 2);
        assert_eq!(t.num_leaves(), 1);
        assert_eq!(t.num_buckets(), 1);
        assert_eq!(t.common_level(Leaf(0), Leaf(0)), 0);
    }
}
