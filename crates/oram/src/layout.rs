//! Physical address layout of the off-chip bucket store.
//!
//! With a functional treetop cache the top `treetop_levels` tree levels
//! live in trusted on-chip memory and never round-trip through the
//! encrypted store, so the store only holds the `2^levels - 2^t`
//! off-chip buckets. [`StoreLayout`] is the bijection between the
//! tree's heap indices (root = 0, breadth-first) and the store's
//! physical bucket indices: heap order, shifted down past the treetop.
//! With `treetop_levels = 0` this is the identity map, which is what
//! keeps the image byte-identical to the pre-treetop goldens.

use crate::addr::Leaf;

/// The heap-index ↔ physical-index bijection for one tree geometry.
///
/// Heap indices `0..treetop_buckets()` are on-chip and have no physical
/// image; every other heap index maps to exactly one physical index in
/// `0..num_off_chip()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreLayout {
    levels: u32,
    treetop_levels: u32,
}

impl StoreLayout {
    /// Builds the layout for a `levels`-deep tree with the top
    /// `treetop_levels` levels held on chip.
    ///
    /// # Panics
    ///
    /// Panics if `treetop_levels >= levels`. [`OramConfig::check`]
    /// rejects that geometry first with a proper error.
    ///
    /// [`OramConfig::check`]: crate::OramConfig::check
    pub fn new(levels: u32, treetop_levels: u32) -> StoreLayout {
        assert!(
            treetop_levels < levels,
            "treetop ({treetop_levels}) must leave at least one off-chip level of {levels}"
        );
        StoreLayout {
            levels,
            treetop_levels,
        }
    }

    /// On-chip (treetop) levels.
    pub fn treetop_levels(&self) -> u32 {
        self.treetop_levels
    }

    /// Buckets held on chip: `2^treetop_levels - 1`.
    pub fn treetop_buckets(&self) -> usize {
        (1usize << self.treetop_levels) - 1
    }

    /// Buckets the off-chip store holds: `2^levels - 2^treetop_levels`.
    pub fn num_off_chip(&self) -> usize {
        ((1usize << self.levels) - 1) - self.treetop_buckets()
    }

    /// Leaves of the tree: `2^(levels - 1)`.
    pub fn num_leaves(&self) -> u32 {
        1 << (self.levels - 1)
    }

    /// Physical store index of off-chip heap index `heap`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `heap` is an on-chip (treetop) bucket — those
    /// have no physical image.
    pub fn phys_of(&self, heap: usize) -> usize {
        debug_assert!(
            heap >= self.treetop_buckets(),
            "heap index {heap} is on chip (treetop holds {})",
            self.treetop_buckets()
        );
        heap - self.treetop_buckets()
    }

    /// Heap index of physical store index `phys` (inverse of
    /// [`StoreLayout::phys_of`]).
    pub fn heap_of(&self, phys: usize) -> usize {
        debug_assert!(phys < self.num_off_chip(), "physical index out of range");
        phys + self.treetop_buckets()
    }

    /// The off-chip buckets on the path to `leaf`, root side first, as
    /// `(heap index, physical index)` pairs: the path minus its treetop
    /// prefix. This is the one enumeration of "what a path access moves
    /// through the store".
    pub fn off_chip_path(&self, leaf: Leaf) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        debug_assert!(leaf.0 < self.num_leaves(), "{leaf} out of range");
        (self.treetop_levels..self.levels).map(move |level| {
            let heap = (1usize << level) - 1 + (leaf.0 >> (self.levels - 1 - level)) as usize;
            (heap, self.phys_of(heap))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_treetop_is_the_identity() {
        let l = StoreLayout::new(8, 0);
        assert_eq!(l.treetop_buckets(), 0);
        assert_eq!(l.num_off_chip(), 255);
        for heap in 0..255 {
            assert_eq!(l.phys_of(heap), heap);
            assert_eq!(l.heap_of(heap), heap);
        }
    }

    #[test]
    fn every_geometry_is_a_bijection() {
        for (levels, treetop) in [(8, 0), (8, 2), (8, 7), (12, 4), (5, 1)] {
            let l = StoreLayout::new(levels, treetop);
            let num_buckets = (1usize << levels) - 1;
            assert_eq!(l.num_off_chip() + l.treetop_buckets(), num_buckets);
            for heap in l.treetop_buckets()..num_buckets {
                let phys = l.phys_of(heap);
                assert!(phys < l.num_off_chip(), "t={treetop}: phys {phys}");
                assert_eq!(l.heap_of(phys), heap, "t={treetop}: heap {heap}");
            }
        }
    }

    #[test]
    fn treetop_shifts_the_map() {
        let l = StoreLayout::new(4, 2);
        assert_eq!(l.treetop_buckets(), 3);
        assert_eq!(l.num_off_chip(), 12);
        assert_eq!(l.phys_of(3), 0);
        assert_eq!(l.heap_of(0), 3);
        assert_eq!(l.phys_of(14), 11);
    }

    #[test]
    fn off_chip_path_is_the_tree_path_minus_the_treetop() {
        for (levels, treetop) in [(8, 0), (8, 2), (8, 7), (5, 1)] {
            let l = StoreLayout::new(levels, treetop);
            let tree = crate::tree::OramTree::new(levels, 1);
            assert_eq!(l.num_leaves(), tree.num_leaves());
            for leaf in (0..tree.num_leaves()).map(Leaf) {
                let expected: Vec<(usize, usize)> = tree
                    .path_indices(leaf)
                    .skip(treetop as usize)
                    .map(|heap| (heap, l.phys_of(heap)))
                    .collect();
                assert_eq!(l.off_chip_path(leaf).collect::<Vec<_>>(), expected);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one off-chip level")]
    fn treetop_covering_the_tree_panics() {
        StoreLayout::new(4, 4);
    }
}
