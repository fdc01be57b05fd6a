//! Path read and greedy write-back.
//!
//! Steps 2 and 5 of the Path ORAM access (paper Section 2.2): reading a
//! path moves every real block on it into the stash's lane; writing the
//! path back greedily evicts as many stash blocks as possible, the lane's
//! and the map's alike, placing each block as deep as its leaf mapping
//! allows, and moves the lane's blocks that find no slot into the map.
//! Background eviction (Section 2.4) reuses the same two operations on a
//! random path without remapping anything.
//!
//! Both operations are allocation-free on the hot path: the path-index
//! iterator owns its geometry (no collected `Vec`), a bucket is a fixed
//! inline record that blocks move in and out of by value, the lane is a
//! vector the stash reuses, and write-back orders its candidates in a
//! reusable [`PathScratch`].

use crate::addr::Leaf;
use crate::block::Block;
use crate::bucket::Bucket;
use crate::stash::Stash;
use crate::tree::OramTree;

/// A write-back candidate is one `u64` key: from the top, the deepest
/// level it may occupy (5 bits: a tree has at most 31 levels), its
/// address ([`ADDR_BITS`]) and where it is held ([`SLOT_BITS`]). Keys
/// compare as their `(level, address)` pairs, since addresses are
/// unique.
const SLOT_BITS: u32 = 16;
/// Address bits of a key: room for 2^43 blocks, far beyond the 2^33 a
/// 31-level tree of [`crate::Bucket::MAX_Z`] slots holds.
const ADDR_BITS: u32 = 43;
/// Where a key's level starts.
const LEVEL_SHIFT: u32 = SLOT_BITS + ADDR_BITS;
/// The slot of a candidate held in the stash's map; a lane candidate's
/// slot is its index in the lane, always below.
const IN_MAP: u64 = (1 << SLOT_BITS) - 1;

/// Reusable write-back scratch: the candidates' keys before and after
/// they are put in placement order.
///
/// Owned by the controller (one per ORAM) so the vectors are allocated
/// once and reused for every path access.
#[derive(Debug, Clone, Default)]
pub struct PathScratch {
    /// One key per candidate, in the order they were found.
    keys: Vec<u64>,
    /// The same keys in placement order: descending.
    order: Vec<u64>,
}

impl PathScratch {
    /// Creates an empty scratch; its vectors grow on first use.
    pub fn new() -> Self {
        PathScratch::default()
    }
}

/// Moves every real block on the path to `leaf` into the stash's lane.
pub fn read_path(tree: &mut OramTree, stash: &mut Stash, leaf: Leaf) {
    // Load every bucket of the path before draining any: the loads are
    // independent, so their cache misses overlap instead of queueing
    // behind each bucket's drain.
    let touched = tree
        .path_indices(leaf)
        .fold(0, |acc, idx| acc ^ tree.bucket(idx).touch());
    std::hint::black_box(touched);
    // Each bucket empties into the lane's spare entries, and the lane
    // then grows over the ones that hold blocks. The owned index iterator
    // lets us mutate buckets mid-walk.
    let room = tree.levels() as usize * Bucket::MAX_Z;
    let (lane, len) = stash.lane_buffer(room);
    for idx in tree.path_indices(leaf) {
        *len += tree.bucket_mut(idx).drain_into(&mut lane[*len..]);
    }
    stash.lane_filled();
}

/// Greedily writes stash blocks back onto the path to `leaf`.
///
/// Each stash block may be placed in any bucket on the path no deeper than
/// the deepest level its own leaf shares with `leaf`; the greedy pass
/// fills from the leaf level upward, deepest-eligible blocks first and,
/// among those, higher addresses first — the standard Path ORAM
/// eviction. Returns the number of blocks placed.
///
/// The candidates are the lane and the map together, keyed in one pass
/// and binned by level with a counting sort; only a bin holding two keys
/// or more is ordered, and only as far as it can be placed. Each level's
/// share of the ordered keys is then a count, and no branch depends on
/// a bucket's fill. A lane block is placed from where it lies, and the
/// lane's blocks that find no slot move to the map.
pub fn write_path_with(
    tree: &mut OramTree,
    stash: &mut Stash,
    leaf: Leaf,
    scratch: &mut PathScratch,
) -> usize {
    let PathScratch { keys, order } = scratch;
    keys.clear();
    let mut bin_len = [0usize; 32];
    // Bit `level` is set once that level's bin holds two keys.
    let mut crowded = 0u32;
    let mut key = |block: &Block, slot: u64| {
        assert!(
            block.addr.0 < 1 << ADDR_BITS,
            "block {} out of key range",
            block.addr
        );
        let level = tree.common_level(block.leaf, leaf);
        bin_len[level as usize] += 1;
        crowded |= u32::from(bin_len[level as usize] > 1) << level;
        keys.push(u64::from(level) << LEVEL_SHIFT | block.addr.0 << SLOT_BITS | slot);
    };
    let lane = stash.lane();
    assert!(
        (lane.len() as u64) < IN_MAP,
        "lane longer than a key's slot"
    );
    for (slot, block) in lane.iter().enumerate() {
        key(block, slot as u64);
    }
    for block in stash.map_blocks() {
        key(block, IN_MAP);
    }

    // Counting sort by level, deepest bin first, then each crowded bin on
    // its own: most bins hold one key or none.
    let levels = tree.levels() as usize;
    let mut bin_start = [0usize; 32];
    let mut start = 0;
    for level in (0..levels).rev() {
        bin_start[level] = start;
        start += bin_len[level];
    }
    let mut bin_end = bin_start;
    order.clear();
    order.resize(keys.len(), 0);
    for &key in keys.iter() {
        let level = (key >> LEVEL_SHIFT) as usize;
        order[bin_end[level]] = key;
        bin_end[level] += 1;
    }
    let z = tree.z();
    while crowded != 0 {
        let level = crowded.trailing_zeros() as usize;
        crowded &= crowded - 1;
        sort_head(
            &mut order[bin_start[level]..bin_end[level]],
            z * (level + 1),
        );
    }

    // Walking up from the leaf, a bucket takes the next candidates in
    // `order` while it has room and they may go this deep: the keys of
    // this level and the deeper ones not yet placed. So the placed blocks
    // are a prefix of `order`, and each level's share is a count.
    let mut placed = 0;
    let mut eligible = 0;
    let path = tree.path_indices(leaf).rev();
    for (level, idx) in (0..levels).rev().zip(path) {
        eligible += bin_len[level];
        let bucket = tree.bucket_mut(idx);
        let take = (bucket.capacity() - bucket.len()).min(eligible - placed);
        for &key in &order[placed..placed + take] {
            match key & IN_MAP {
                IN_MAP => bucket.push(
                    stash
                        .take_from_map(key >> SLOT_BITS & ((1 << ADDR_BITS) - 1))
                        .expect("candidate vanished from stash"),
                ),
                slot => bucket.push_from(stash.lane_block_mut(slot as usize)),
            }
        }
        placed += take;
    }
    // The lane's candidates that found no slot join the map.
    for &key in &order[placed..] {
        let slot = key & IN_MAP;
        if slot != IN_MAP {
            stash.spill_lane(slot as usize);
        }
    }
    stash.clear_lane();
    placed
}

/// Puts the `head` largest keys of `bin` first, in descending order,
/// and the rest after them in no particular order. Only a bin's head can
/// be placed: its keys fit no deeper than their level, and the buckets
/// at that level and above hold `head` blocks at most.
///
/// Each key sinks through the sorted head so far, one max / min per
/// step and no branch on the keys, and the smallest of the two stays
/// where the key was: the insertion sort of the head, with what it
/// pushes out of the head left behind.
fn sort_head(bin: &mut [u64], head: usize) {
    for i in 1..bin.len() {
        let mut key = bin[i];
        for kept in &mut bin[..i.min(head)] {
            (*kept, key) = ((*kept).max(key), (*kept).min(key));
        }
        bin[i] = key;
    }
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
    use crate::bucket::Bucket;
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

    /// `sort_head` against the capped insertion it replaced, which moved
    /// a key into the head only when it beat the head's last key: both
    /// leave every bin in the same order, tail included, so the lane's
    /// unplaced blocks reach the map in the same order too.
    #[test]
    fn sort_head_leaves_what_the_capped_insertion_leaves() {
        fn capped_insertion(bin: &mut [u64], head: usize) {
            for i in 1..bin.len() {
                let key = bin[i];
                let mut at = i;
                if at >= head {
                    if key < bin[head - 1] {
                        continue;
                    }
                    bin[i] = bin[head - 1];
                    at = head - 1;
                }
                while at > 0 && bin[at - 1] < key {
                    bin[at] = bin[at - 1];
                    at -= 1;
                }
                bin[at] = key;
            }
        }
        use proram_stats::{Rng64, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(0x50A7);
        for _ in 0..2000 {
            let len = rng.next_below(40) as usize;
            let head = 1 + rng.next_below(12) as usize;
            let mut keys: Vec<u64> = (0..len as u64).map(|i| i * 7 + rng.next_below(7)).collect();
            for i in (1..len).rev() {
                keys.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut expected = keys.clone();
            capped_insertion(&mut expected, head);
            sort_head(&mut keys, head);
            assert_eq!(keys, expected, "head {head}");
        }
    }

    /// The placement rule written out plainly: every candidate sorted by
    /// `(common_level, addr)` descending, then placed greedily from the
    /// leaf up. Returns the candidates left over, in that order.
    fn reference_write_back(tree: &mut OramTree, mut blocks: Vec<Block>, leaf: Leaf) -> Vec<Block> {
        let key = |b: &Block| (tree.common_level(b.leaf, leaf), b.addr.0);
        blocks.sort_by_key(|b| std::cmp::Reverse(key(b)));
        let mut candidates = blocks.into_iter().peekable();
        for level in (0..tree.levels()).rev() {
            let idx = tree.bucket_index(leaf, level);
            while !tree.bucket(idx).is_full() {
                match candidates.peek() {
                    Some(b) if tree.common_level(b.leaf, leaf) >= level => {
                        let block = candidates.next().expect("peeked");
                        tree.bucket_mut(idx).push(block);
                    }
                    _ => break,
                }
            }
        }
        candidates.collect()
    }

    #[test]
    fn write_back_matches_the_reference_placement() {
        use proram_stats::{Rng64, Xoshiro256};
        let mut rng = Xoshiro256::seed_from(2024);
        for case in 0..400 {
            let levels = 1 + rng.next_below(7) as u32;
            let z = 1 + rng.next_below(Bucket::MAX_Z as u64) as usize;
            let mut tree = OramTree::new(levels, z);
            let leaves = u64::from(tree.num_leaves());
            let mut next_addr = 0u64;
            let mut block = |rng: &mut Xoshiro256| {
                // Sparse addresses, so ties and orders of magnitude both
                // occur; every fourth block carries a payload.
                next_addr += 1 + rng.next_below(1000);
                let leaf = Leaf(rng.next_below(leaves) as u32);
                if rng.next_below(4) == 0 {
                    Block::with_data(BlockAddr(next_addr), leaf, vec![next_addr as u8; 3].into())
                } else {
                    Block::opaque(BlockAddr(next_addr), leaf)
                }
            };
            // A random tree: each bucket partly filled.
            for idx in 0..tree.num_buckets() {
                for _ in 0..rng.next_below(z as u64 + 1) {
                    let b = block(&mut rng);
                    tree.bucket_mut(idx).push(b);
                }
            }
            let mut stash = Stash::new(1000);
            for _ in 0..rng.next_below(3 * z as u64 * u64::from(levels)) {
                stash.insert(block(&mut rng));
            }
            let leaf = Leaf(rng.next_below(leaves) as u32);
            // Most cases read the path first (the buckets start empty);
            // some write back onto a path that still holds blocks.
            if rng.next_below(4) != 0 {
                read_path(&mut tree, &mut stash, leaf);
            }
            // The lane may also hold blocks that came off other paths.
            for _ in 0..rng.next_below(2 * z as u64) {
                let b = block(&mut rng);
                let (lane, len) = stash.lane_buffer(1);
                lane[*len] = b;
                *len += 1;
            }

            let mut expected_tree = tree.clone();
            let all: Vec<Block> = stash.iter().cloned().collect();
            let mut expected_left = reference_write_back(&mut expected_tree, all, leaf);
            let before = stash.len();
            let placed = write_path_with(&mut tree, &mut stash, leaf, &mut PathScratch::new());

            for idx in 0..tree.num_buckets() {
                assert_eq!(
                    tree.bucket(idx),
                    expected_tree.bucket(idx),
                    "case {case}: bucket {idx} (contents or slot order)"
                );
            }
            let mut left: Vec<Block> = stash.iter().cloned().collect();
            left.sort_by_key(|b| b.addr);
            expected_left.sort_by_key(|b| b.addr);
            assert_eq!(left, expected_left, "case {case}: leftover stash");
            assert_eq!(placed, before - left.len(), "case {case}: placed count");
            assert!(
                !stash.lane_in_use(),
                "case {case}: the lane outlived the write-back"
            );
        }
    }
}
