//! Randomized tests over the core data structures and invariants,
//! spanning crates.
//!
//! Cases are generated with the workspace's deterministic RNG
//! ([`Xoshiro256`]) so every failure reproduces from the printed case
//! number.

use proram::core_scheme::{SchemeConfig, SuperBlock, SuperBlockOram};
use proram::oram::{
    eviction, Block, CrashConfig, KillPoint, Leaf, OramConfig, OramTree, PathOram, Stash,
    StreamCipher,
};
use proram_mem::{AccessKind, BlockAddr, MemRequest, MemoryBackend, NoProbe};
use proram_stats::{Rng64, Xoshiro256};
use std::collections::HashSet;

// ----------------------------------------------------------------------
// Super-block algebra
// ----------------------------------------------------------------------

#[test]
fn superblock_members_partition_the_space() {
    let mut rng = Xoshiro256::seed_from(0x5B01);
    for case in 0..64 {
        let addr = rng.next_below(1_000_000);
        let size = 1u64 << rng.next_below(5);
        let sb = SuperBlock::containing(BlockAddr(addr), size);
        assert!(sb.contains(BlockAddr(addr)), "case {case}");
        assert_eq!(sb.members().count() as u64, size, "case {case}");
        assert_eq!(sb.base().0 % size, 0, "case {case}");
        // Every member maps back to the same group.
        for m in sb.members() {
            assert_eq!(SuperBlock::containing(m, size), sb, "case {case}");
        }
    }
}

#[test]
fn neighbor_relation_is_symmetric_and_disjoint() {
    let mut rng = Xoshiro256::seed_from(0x5B02);
    for case in 0..64 {
        let addr = rng.next_below(1_000_000);
        let sb = SuperBlock::containing(BlockAddr(addr), 1 << rng.next_below(5));
        let nb = sb.neighbor();
        assert_eq!(nb.neighbor(), sb, "case {case}");
        assert_eq!(sb.parent(), nb.parent(), "case {case}");
        let a: HashSet<u64> = sb.members().map(|b| b.0).collect();
        let b: HashSet<u64> = nb.members().map(|b| b.0).collect();
        assert!(a.is_disjoint(&b), "case {case}");
        let p: HashSet<u64> = sb.parent().members().map(|b| b.0).collect();
        assert_eq!(a.union(&b).count(), p.len(), "case {case}");
    }
}

#[test]
fn halves_reassemble() {
    let mut rng = Xoshiro256::seed_from(0x5B03);
    for case in 0..64 {
        let addr = rng.next_below(1_000_000);
        let sb = SuperBlock::containing(BlockAddr(addr), 1 << rng.next_range(1, 5));
        let (lo, hi) = sb.halves();
        let all: Vec<BlockAddr> = lo.members().chain(hi.members()).collect();
        let direct: Vec<BlockAddr> = sb.members().collect();
        assert_eq!(all, direct, "case {case}");
        assert!(
            sb.half_containing(BlockAddr(addr))
                .contains(BlockAddr(addr)),
            "case {case}"
        );
    }
}

// ----------------------------------------------------------------------
// Tree / eviction
// ----------------------------------------------------------------------

#[test]
fn path_read_write_conserves_blocks() {
    let mut case_rng = Xoshiro256::seed_from(0x7EE1);
    for case in 0..64 {
        let seed = case_rng.next_below(5000);
        let levels = case_rng.next_range(3, 8) as u32;
        let z = case_rng.next_range(1, 4) as usize;
        let mut tree = OramTree::new(levels, z);
        let mut stash = Stash::new(10_000);
        let mut rng = Xoshiro256::seed_from(seed);
        let leaves = u64::from(tree.num_leaves());
        // Scatter some blocks.
        let n = 20u64.min(tree.capacity() as u64 / 2);
        for i in 0..n {
            stash.insert(Block::opaque(
                BlockAddr(i),
                Leaf(rng.next_below(leaves) as u32),
            ));
        }
        for _ in 0..8 {
            let leaf = Leaf(rng.next_below(leaves) as u32);
            eviction::write_path(&mut tree, &mut stash, leaf);
        }
        for _ in 0..8 {
            let leaf = Leaf(rng.next_below(leaves) as u32);
            eviction::read_path(&mut tree, &mut stash, leaf);
            eviction::write_path(&mut tree, &mut stash, leaf);
        }
        assert_eq!(
            tree.occupancy() + stash.len(),
            n as usize,
            "blocks lost or duplicated (case {case})"
        );
    }
}

#[test]
fn eviction_never_misplaces_blocks() {
    for seed in 0..64u64 {
        let mut tree = OramTree::new(6, 2);
        let mut stash = Stash::new(10_000);
        let mut rng = Xoshiro256::seed_from(seed);
        for i in 0..30u64 {
            stash.insert(Block::opaque(BlockAddr(i), Leaf(rng.next_below(32) as u32)));
        }
        let target = Leaf(rng.next_below(32) as u32);
        eviction::write_path(&mut tree, &mut stash, target);
        // Every placed block must sit on the intersection of its own path
        // and the written path.
        for level in 0..tree.levels() {
            let idx = tree.bucket_index(target, level);
            for b in tree.bucket(idx).iter() {
                assert!(
                    tree.common_level(b.leaf, target) >= level,
                    "block mapped to {:?} stored too deep on path {:?} (seed {seed})",
                    b.leaf,
                    target
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Crypto
// ----------------------------------------------------------------------

#[test]
fn stream_cipher_round_trips() {
    let mut rng = Xoshiro256::seed_from(0xC1F);
    for case in 0..64 {
        let key = rng.next_u64();
        let nonce = rng.next_u64();
        let len = rng.next_below(256) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let cipher = StreamCipher::new(key);
        let mut buf = data.clone();
        cipher.encrypt(nonce, &mut buf);
        if data.len() >= 16 {
            assert_ne!(&buf, &data, "ciphertext equals plaintext (case {case})");
        }
        cipher.decrypt(nonce, &mut buf);
        assert_eq!(buf, data, "case {case}");
    }
}

// ----------------------------------------------------------------------
// Whole-ORAM invariants under random operation sequences
// ----------------------------------------------------------------------

#[test]
fn path_oram_invariants_hold_under_random_accesses() {
    for seed in 0..64u64 {
        let mut oram = PathOram::new(OramConfig::small_for_tests(128), seed);
        let mut rng = Xoshiro256::seed_from(seed ^ 0xABCD);
        for _ in 0..60 {
            let addr = BlockAddr(rng.next_below(128));
            let kind = if rng.next_bool(0.3) {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            oram.try_access_block(addr, kind).unwrap();
        }
        oram.check_invariants();
    }
}

#[test]
fn super_block_oram_invariants_hold_under_mixed_traffic() {
    for seed in 0..48u64 {
        let cfg = OramConfig::small_for_tests(256)
            .to_builder()
            .store_payloads(false)
            .build()
            .expect("valid property-test configuration");
        let mut oram = SuperBlockOram::new(cfg, SchemeConfig::dynamic(4), seed);
        let mut rng = Xoshiro256::seed_from(seed.wrapping_mul(31));
        let mut llc_model: HashSet<u64> = HashSet::new();
        for i in 0..80u64 {
            let addr = if rng.next_bool(0.5) {
                BlockAddr(i % 64) // sequential region: drives merging
            } else {
                BlockAddr(rng.next_below(256))
            };
            let req = if rng.next_bool(0.25) {
                MemRequest::write(addr)
            } else {
                MemRequest::read(addr)
            };
            let out = oram.access(i, req, &NoProbe);
            for f in out.fills {
                llc_model.insert(f.block.0);
            }
            if llc_model.len() > 40 {
                let v = *llc_model.iter().next().unwrap();
                llc_model.remove(&v);
                oram.note_llc_eviction(BlockAddr(v));
            }
        }
        oram.oram().check_invariants();
    }
}

#[test]
fn payloads_survive_arbitrary_interleavings() {
    // The commit protocol armed on a crossing it never reaches must be
    // invisible to the payload model: same reads, same final state.
    let never_fired = CrashConfig::at(KillPoint::MidFlip, u64::MAX);
    for seed in 0..48u64 {
        let run = |crash: Option<CrashConfig>| {
            let cfg = OramConfig {
                crash,
                ..OramConfig::small_for_tests(64)
            };
            let mut oram = PathOram::new(cfg, seed);
            let mut rng = Xoshiro256::seed_from(seed ^ 0x5151);
            let mut shadow: Vec<Option<u8>> = vec![None; 64];
            for _ in 0..40 {
                let addr = rng.next_below(64);
                if rng.next_bool(0.5) {
                    let fill = rng.next_below(256) as u8;
                    oram.try_write_block(BlockAddr(addr), &[fill; 128]).unwrap();
                    shadow[addr as usize] = Some(fill);
                } else if let Some(expected) = shadow[addr as usize] {
                    let got = oram
                        .try_read_block(BlockAddr(addr))
                        .unwrap()
                        .expect("payloads on");
                    assert!(
                        got.iter().all(|&b| b == expected),
                        "payload corrupted (seed {seed})"
                    );
                }
            }
            oram.audit_full();
            oram.state_digest()
        };
        assert_eq!(run(Some(never_fired)), run(None), "seed {seed}");
    }
}
