//! Randomized test of the tiled fabric's two global promises: inclusion
//! (a line in any tile's L1 is in the shared LLC) and that dirtiness is
//! never lost on the way out (the one line a fill displaces is dirty
//! exactly when a store touched the block while it was resident, in
//! whichever tile's L1 or in the LLC the dirty bit ended up).

use proram_cache::{CacheAccess, CacheConfig, HierarchyConfig, TiledHierarchy};
use proram_mem::BlockAddr;
use proram_stats::{Rng64, Xoshiro256};
use std::collections::HashSet;

const BLOCKS: u64 = 48;

fn assert_inclusive(t: &TiledHierarchy, context: &str) {
    for tile in 0..t.tiles() {
        for block in t.l1(tile).resident_blocks() {
            assert!(
                t.llc().peek(block),
                "{block} in tile {tile}'s L1 but not in the LLC ({context})"
            );
        }
    }
}

#[test]
fn fabric_stays_inclusive_and_victims_carry_every_copys_dirtiness() {
    for case in 0..48u64 {
        let mut rng = Xoshiro256::seed_from(0x71ED + case);
        let tiles = 1 + (case % 3) as usize;
        // L1: 2 sets x 2 ways per tile; LLC: 4 sets x 4 ways.
        let mut t = TiledHierarchy::new(
            HierarchyConfig {
                l1: CacheConfig::new(512, 2, 128, 1),
                l2: CacheConfig::new(2048, 4, 128, 8),
            },
            tiles,
        );
        // Blocks stored to since they last entered the fabric.
        let mut stored: HashSet<BlockAddr> = HashSet::new();
        for step in 0..600 {
            let tile = rng.next_below(tiles as u64) as usize;
            let block = BlockAddr(rng.next_below(BLOCKS));
            let write = rng.next_bool(0.3);
            // A demand access, filled on a miss as the engine does; or a
            // prefetch fill that stops at the LLC.
            let (departed, wrote) = if rng.next_bool(0.8) {
                match t.access(tile, block, write) {
                    CacheAccess::Miss { .. } => (t.fill(tile, block, false, write), write),
                    _ => (None, write),
                }
            } else {
                (t.fill(tile, block, true, false), false)
            };
            let context = format!("case {case}, step {step}");
            if wrote {
                stored.insert(block);
            }
            if let Some(victim) = departed {
                assert_ne!(victim.block, block, "a fill displaced itself ({context})");
                assert_eq!(
                    victim.dirty,
                    stored.remove(&victim.block),
                    "{} left with the wrong dirty bit ({context})",
                    victim.block
                );
                assert!(!t.contains_block(victim.block), "{context}");
                for tile in 0..tiles {
                    assert!(!t.l1(tile).peek(victim.block), "{context}");
                }
            }
            assert_inclusive(&t, &context);
        }
    }
}
