//! Path read and greedy write-back.
//!
//! Steps 2 and 5 of the Path ORAM access (paper Section 2.2): reading a
//! path moves every real block on it into the stash; writing the path back
//! greedily evicts as many stash blocks as possible, placing each block as
//! deep as its leaf mapping allows. Background eviction (Section 2.4)
//! reuses the same two operations on a random path without remapping
//! anything.
//!
//! Both operations are allocation-free on the hot path: the path-index
//! iterator owns its geometry (no collected `Vec`), a bucket is a fixed
//! inline record that blocks move in and out of by value, and write-back
//! bins candidates into a reusable [`PathScratch`] instead of sorting a
//! freshly allocated candidate list.

use crate::addr::Leaf;
use crate::stash::Stash;
use crate::tree::OramTree;

/// Reusable write-back scratch: one bin of candidate addresses per tree
/// level, keyed by the deepest level the candidate may occupy.
///
/// Owned by the controller (one per ORAM) so the per-level bins are
/// allocated once and reused for every path access. The counting-bin pass
/// replaces the seed implementation's per-write-back
/// `sort_unstable` over all `(common_level, addr)` pairs: binning is O(n),
/// and only each (typically tiny) bin is sorted to preserve the exact
/// deepest-first, address-descending placement order of the original.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    /// `bins[level]` holds addresses of stash blocks whose deepest
    /// eligible level is `level`.
    bins: Vec<Vec<u64>>,
    /// Allocations avoided by reusing this scratch (one per write-back
    /// that would have built a fresh candidate `Vec`).
    reuses: u64,
}

impl PathScratch {
    /// Creates an empty scratch; bins grow on first use.
    pub fn new() -> Self {
        PathScratch::default()
    }

    /// Number of heap allocations avoided by buffer reuse so far.
    pub fn allocs_avoided(&self) -> u64 {
        self.reuses
    }
}

/// Moves every real block on the path to `leaf` into the stash.
pub fn read_path(tree: &mut OramTree, stash: &mut Stash, leaf: Leaf) {
    // The owned index iterator lets us mutate buckets mid-walk: no
    // temporary `Vec<usize>` of path indices.
    for idx in tree.path_indices(leaf) {
        for block in tree.bucket_mut(idx).drain() {
            stash.insert(block);
        }
    }
}

/// Greedily writes stash blocks back onto the path to `leaf`.
///
/// Each stash block may be placed in any bucket on the path no deeper than
/// the deepest level its own leaf shares with `leaf`; the greedy pass
/// fills from the leaf level upward, deepest-eligible blocks first —
/// the standard Path ORAM eviction. Returns the number of blocks placed.
///
/// Behavior (which blocks land in which buckets, and in what slot order)
/// is identical to sorting all candidates by `(common_level, addr)`
/// descending; see [`PathScratch`].
pub fn write_path_with(
    tree: &mut OramTree,
    stash: &mut Stash,
    leaf: Leaf,
    scratch: &mut PathScratch,
) -> usize {
    let levels = tree.levels() as usize;
    if scratch.bins.len() < levels {
        scratch.bins.resize_with(levels, Vec::new);
    }
    scratch.reuses += 1;
    for bin in &mut scratch.bins {
        bin.clear();
    }
    // Counting-bin pass: group candidates by the deepest level they can
    // occupy on this path.
    for b in stash.iter() {
        scratch.bins[tree.common_level(b.leaf, leaf) as usize].push(b.addr.0);
    }
    // Within a bin, match the seed implementation's address-descending
    // tiebreak so placement is bit-identical.
    for bin in &mut scratch.bins[..levels] {
        bin.sort_unstable_by(|a, b| b.cmp(a));
    }

    let mut placed = 0;
    // Cursor over the bins from deepest to shallowest: the concatenation
    // (bins[levels-1], ..., bins[0]) is exactly the old sorted candidate
    // order.
    let mut bin = levels; // bins[bin - 1] is the current bin
    let mut off = 0;
    for level in (0..levels).rev() {
        let idx = tree.bucket_index(leaf, level as u32);
        while !tree.bucket(idx).is_full() {
            // Advance to the next non-exhausted bin.
            while bin > 0 && off >= scratch.bins[bin - 1].len() {
                bin -= 1;
                off = 0;
            }
            if bin == 0 {
                return placed; // all candidates consumed
            }
            let common = bin - 1;
            if common < level {
                break; // everything left is shallower-only
            }
            let addr = scratch.bins[common][off];
            off += 1;
            let block = stash
                .take(proram_mem::BlockAddr(addr))
                .expect("candidate vanished from stash");
            debug_assert!(tree.common_level(block.leaf, leaf) as usize >= level);
            tree.bucket_mut(idx).push(block);
            placed += 1;
        }
    }
    placed
}

/// [`write_path_with`] with a throwaway scratch, for tests and callers
/// outside the hot path.
pub fn write_path(tree: &mut OramTree, stash: &mut Stash, leaf: Leaf) -> usize {
    write_path_with(tree, stash, leaf, &mut PathScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use proram_mem::BlockAddr;

    fn setup(levels: u32, z: usize) -> (OramTree, Stash) {
        (OramTree::new(levels, z), Stash::new(1000))
    }

    #[test]
    fn read_path_empties_buckets() {
        let (mut tree, mut stash) = setup(4, 2);
        let idx = tree.bucket_index(Leaf(3), 3);
        tree.bucket_mut(idx)
            .push(Block::opaque(BlockAddr(1), Leaf(3)));
        let root = tree.bucket_index(Leaf(3), 0);
        tree.bucket_mut(root)
            .push(Block::opaque(BlockAddr(2), Leaf(0)));
        read_path(&mut tree, &mut stash, Leaf(3));
        assert_eq!(stash.len(), 2);
        assert_eq!(tree.occupancy(), 0);
    }

    #[test]
    fn read_path_leaves_other_paths_alone() {
        let (mut tree, mut stash) = setup(4, 2);
        let idx = tree.bucket_index(Leaf(0), 3); // leaf bucket of path 0
        tree.bucket_mut(idx)
            .push(Block::opaque(BlockAddr(1), Leaf(0)));
        read_path(&mut tree, &mut stash, Leaf(7));
        assert_eq!(stash.len(), 0);
        assert_eq!(tree.occupancy(), 1);
    }

    #[test]
    fn write_path_places_block_at_its_leaf() {
        let (mut tree, mut stash) = setup(4, 2);
        stash.insert(Block::opaque(BlockAddr(1), Leaf(5)));
        let placed = write_path(&mut tree, &mut stash, Leaf(5));
        assert_eq!(placed, 1);
        assert!(stash.is_empty());
        // Greedy puts it in the deepest bucket: the leaf bucket.
        let leaf_idx = tree.bucket_index(Leaf(5), 3);
        assert_eq!(tree.bucket(leaf_idx).len(), 1);
    }

    #[test]
    fn mismatched_block_goes_to_common_ancestor() {
        let (mut tree, mut stash) = setup(4, 2);
        // Leaf 6 vs path 7: common level 2.
        stash.insert(Block::opaque(BlockAddr(1), Leaf(6)));
        write_path(&mut tree, &mut stash, Leaf(7));
        let idx = tree.bucket_index(Leaf(7), 2);
        assert_eq!(tree.bucket(idx).len(), 1);
        let leaf_idx = tree.bucket_index(Leaf(7), 3);
        assert!(tree.bucket(leaf_idx).is_empty());
    }

    #[test]
    fn totally_disjoint_block_goes_to_root_only() {
        let (mut tree, mut stash) = setup(4, 2);
        stash.insert(Block::opaque(BlockAddr(1), Leaf(0)));
        write_path(&mut tree, &mut stash, Leaf(7));
        assert_eq!(tree.bucket(0).len(), 1);
    }

    #[test]
    fn overflow_stays_in_stash() {
        let (mut tree, mut stash) = setup(3, 1); // Z = 1, 3 buckets per path
        for i in 0..5 {
            stash.insert(Block::opaque(BlockAddr(i), Leaf(3)));
        }
        let placed = write_path(&mut tree, &mut stash, Leaf(3));
        assert_eq!(placed, 3, "one block per bucket on the path");
        assert_eq!(stash.len(), 2);
    }

    #[test]
    fn deepest_eligible_blocks_win_slots() {
        let (mut tree, mut stash) = setup(4, 1);
        // Block A can go to the leaf bucket (same leaf); block B only to
        // the root (disjoint). Both must be placed.
        stash.insert(Block::opaque(BlockAddr(1), Leaf(7)));
        stash.insert(Block::opaque(BlockAddr(2), Leaf(0)));
        let placed = write_path(&mut tree, &mut stash, Leaf(7));
        assert_eq!(placed, 2);
        assert_eq!(tree.bucket(tree.bucket_index(Leaf(7), 3)).len(), 1);
        assert_eq!(tree.bucket(0).len(), 1);
    }

    #[test]
    fn read_then_write_is_stable() {
        // A full read/write cycle never loses blocks and never grows the
        // stash (everything read in can at least go back where it was).
        let (mut tree, mut stash) = setup(5, 2);
        let path = Leaf(9);
        let l4 = tree.bucket_index(path, 4);
        let l2 = tree.bucket_index(path, 2);
        tree.bucket_mut(l4)
            .push(Block::opaque(BlockAddr(1), Leaf(9)));
        tree.bucket_mut(l2)
            .push(Block::opaque(BlockAddr(2), Leaf(11)));
        read_path(&mut tree, &mut stash, path);
        assert_eq!(stash.len(), 2);
        write_path(&mut tree, &mut stash, path);
        assert_eq!(stash.len(), 0, "background-eviction guarantee");
        assert_eq!(tree.occupancy(), 2);
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        // A long random read/write sequence through one shared scratch
        // must produce the same tree state as per-call scratches.
        use proram_stats::{Rng64, Xoshiro256};
        let run = |shared: bool| {
            let (mut tree, mut stash) = setup(6, 2);
            let mut rng = Xoshiro256::seed_from(77);
            for a in 0..40u64 {
                stash.insert(Block::opaque(BlockAddr(a), Leaf(rng.next_below(32) as u32)));
            }
            let mut scratch = PathScratch::new();
            for _ in 0..100 {
                let leaf = Leaf(rng.next_below(32) as u32);
                read_path(&mut tree, &mut stash, leaf);
                if shared {
                    write_path_with(&mut tree, &mut stash, leaf, &mut scratch);
                } else {
                    write_path(&mut tree, &mut stash, leaf);
                }
            }
            let contents: Vec<Vec<u64>> = (0..tree.num_buckets())
                .map(|i| tree.bucket(i).iter().map(|b| b.addr.0).collect())
                .collect();
            contents
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn scratch_counts_reuses() {
        let (mut tree, mut stash) = setup(4, 2);
        let mut scratch = PathScratch::new();
        stash.insert(Block::opaque(BlockAddr(1), Leaf(5)));
        write_path_with(&mut tree, &mut stash, Leaf(5), &mut scratch);
        read_path(&mut tree, &mut stash, Leaf(5));
        write_path_with(&mut tree, &mut stash, Leaf(5), &mut scratch);
        assert_eq!(scratch.allocs_avoided(), 2);
    }
}
