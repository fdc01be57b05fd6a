//! Randomized tests over the unified address space and the encrypted
//! store, generated with the workspace's deterministic RNG so every case
//! reproduces from its seed.

use proram_mem::BlockAddr;
use proram_oram::{AddressSpace, Block, Bucket, EncryptedStore, Leaf, PayloadRef, PosEntry};
use proram_stats::{Rng64, Xoshiro256};

#[test]
fn posmap_chain_is_consistent() {
    let mut rng = Xoshiro256::seed_from(0xA0);
    for case in 0..128 {
        let num_blocks = rng.next_range(1, 5000);
        let fanout = rng.next_range(2, 64);
        let hierarchies = rng.next_below(4) as u8;
        let probe = rng.next_below(5000);
        let space = AddressSpace::new(num_blocks, fanout, hierarchies);
        let addr = BlockAddr(probe % num_blocks);
        // Walking up the hierarchy always terminates at the top, and every
        // parent covers its child.
        let mut current = addr;
        for h in 1..=space.top_hierarchy() {
            let pm = space.posmap_block_for(current, h);
            assert_eq!(space.hierarchy_of(current) + 1, h, "case {case}");
            let first = space.first_child(pm);
            let count = space.child_count(pm) as u64;
            assert!(
                current.0 >= first.0 && current.0 < first.0 + count,
                "{current:?} not covered by its posmap block {pm:?} (case {case})"
            );
            let idx = space.entry_index(current) as u64;
            assert_eq!(
                first.0 + idx,
                current.0,
                "entry index round trip (case {case})"
            );
            current = pm;
        }
    }
}

#[test]
fn regions_partition_the_space() {
    let mut rng = Xoshiro256::seed_from(0x9A97);
    for case in 0..128 {
        let num_blocks = rng.next_range(1, 5000);
        let fanout = rng.next_range(2, 64);
        let hierarchies = rng.next_below(4) as u8;
        let space = AddressSpace::new(num_blocks, fanout, hierarchies);
        let mut expected_base = 0;
        for h in 0..=space.top_hierarchy() {
            assert_eq!(space.region_base(h), expected_base, "case {case}");
            expected_base += space.region_len(h);
        }
        // Every tree block classifies into exactly the region it sits in.
        for probe in [0, num_blocks / 2, num_blocks - 1] {
            assert_eq!(space.hierarchy_of(BlockAddr(probe)), 0, "case {case}");
        }
    }
}

#[test]
fn encrypted_store_round_trips_arbitrary_buckets() {
    let mut rng = Xoshiro256::seed_from(0xE5C);
    for case in 0..128 {
        let seed = rng.next_u64();
        let num_blocks = rng.next_below(3) as usize;
        let fill = rng.next_below(256) as u8;
        let mut store = EncryptedStore::new(4, 3, 128, seed);
        let mut bucket = Bucket::new(3);
        let mut used = std::collections::HashSet::new();
        for _ in 0..num_blocks {
            let addr = rng.next_below(1000);
            let leaf = rng.next_below(64) as u32;
            if !used.insert(addr) {
                continue; // bucket addresses must be unique
            }
            bucket.push(Block::with_data(
                BlockAddr(addr),
                Leaf(leaf),
                vec![fill; 128].into(),
            ));
        }
        store.write_bucket(2, &bucket);
        let got = store.try_read_bucket(2).expect("authentic");
        assert_eq!(got.len(), bucket.len(), "case {case}");
        for b in &got {
            assert!(
                bucket.iter().any(|o| o.addr == b.addr && o.leaf == b.leaf),
                "block metadata mismatch (case {case})"
            );
            match b.payload.view() {
                PayloadRef::Data(bytes) => {
                    assert!(bytes.iter().all(|&x| x == fill), "case {case}")
                }
                other => panic!("wrong payload {other:?} (case {case})"),
            }
        }
    }
}

#[test]
fn any_single_byte_corruption_of_a_written_bucket_is_detected() {
    let mut rng = Xoshiro256::seed_from(0xC0);
    for case in 0..128 {
        let offset = rng.next_range(8, 100) as usize; // past the plaintext nonce
        let mask = rng.next_range(1, 256) as u8;
        let mut store = EncryptedStore::new(2, 2, 64, 77);
        let mut bucket = Bucket::new(2);
        bucket.push(Block::with_data(
            BlockAddr(5),
            Leaf(1),
            vec![0xAA; 64].into(),
        ));
        bucket.push(Block::posmap(
            BlockAddr(9),
            Leaf(2),
            vec![PosEntry::new(Leaf(3)); 4].into(),
        ));
        store.write_bucket(1, &bucket);
        let bb = store.bucket_bytes();
        store.corrupt_byte(1, offset % bb, mask);
        assert!(
            store.try_read_bucket(1).is_err(),
            "corruption escaped detection (case {case})"
        );
    }
}
