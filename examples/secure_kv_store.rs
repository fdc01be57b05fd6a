//! A tiny key-value store whose backing storage is a real Path ORAM with
//! payload bytes and an encrypted DRAM image — the "secure processor"
//! use-case from the paper's introduction, end to end.
//!
//! Values are stored in ORAM blocks; every get/put is an oblivious path
//! access, and the example prints what an adversary on the memory bus
//! actually observes: a sequence of uniformly random paths and fresh
//! ciphertexts, regardless of which keys are accessed.
//!
//! ```text
//! cargo run --release --example secure_kv_store
//! ```

use proram::oram::prelude::*;
use proram::stats::chi2_uniform;
use proram_mem::BlockAddr;
use std::collections::HashMap;

/// A key-value store with at most `capacity` fixed-size values, stored
/// obliviously.
struct SecureKvStore {
    oram: PathOram,
    directory: HashMap<String, u64>, // key -> block slot (kept client-side)
    next_slot: u64,
    capacity: u64,
    value_bytes: usize,
}

impl SecureKvStore {
    fn new(capacity: u64) -> Self {
        let config = OramConfig::small_for_tests(capacity)
            .to_builder()
            .store_payloads(true)
            .build()
            .expect("valid ORAM configuration");
        let value_bytes = config.timing.block_bytes as usize;
        SecureKvStore {
            oram: PathOram::new(config, 0xC0FFEE),
            directory: HashMap::new(),
            next_slot: 0,
            capacity,
            value_bytes,
        }
    }

    fn put(&mut self, key: &str, value: &[u8]) {
        assert!(
            value.len() <= self.value_bytes,
            "value too large for one block"
        );
        let slot = *self.directory.entry(key.to_owned()).or_insert_with(|| {
            assert!(self.next_slot < self.capacity, "store full");
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        let mut block = vec![0u8; self.value_bytes];
        block[0] = value.len() as u8;
        block[1..1 + value.len()].copy_from_slice(value);
        self.oram
            .try_write_block(BlockAddr(slot), &block)
            .expect("no faults injected");
    }

    fn get(&mut self, key: &str) -> Option<Vec<u8>> {
        let slot = *self.directory.get(key)?;
        let block = self
            .oram
            .try_read_block(BlockAddr(slot))
            .expect("no faults injected")?;
        let len = block[0] as usize;
        Some(block[1..1 + len].to_vec())
    }
}

fn main() {
    let mut store = SecureKvStore::new(256);

    println!("storing secrets obliviously...");
    store.put("alice", b"alice's diary entry");
    store.put("bob", b"bob's password: hunter2");
    store.put("carol", b"carol's location history");

    // Reads come back intact despite every access reshuffling the tree.
    for key in ["alice", "bob", "carol", "alice"] {
        let value = store.get(key).expect("stored");
        println!("  get({key}) = {:?}", String::from_utf8_lossy(&value));
    }
    assert!(store.get("mallory").is_none());

    // Hammer one key: an adversary must not be able to tell. What the bus
    // shows is the leaf of every `path_access` event.
    let obs = Obs::ring(1 << 12);
    store.oram.attach_obs(obs.clone());
    for _ in 0..300 {
        store.get("alice");
    }
    assert_eq!(obs.dropped(), 0, "the ring holds the whole trace");
    let leaves: Vec<u64> = obs
        .events()
        .iter()
        .filter_map(ObsEvent::path_leaf)
        .collect();
    let num_leaves = 1u64 << (store.oram.config().tree_levels() - 1);
    let result = chi2_uniform(&leaves, num_leaves);
    println!("\nadversary's view after 300 accesses to the SAME key:");
    println!("  {} path accesses observed", leaves.len());
    println!(
        "  chi-square vs uniform over {num_leaves} leaves: {:.1} (dof {})",
        result.statistic, result.dof
    );
    println!(
        "  plausibly uniform (6 sigma): {}",
        result.is_plausibly_uniform(6.0)
    );
    assert!(result.is_plausibly_uniform(6.0), "access pattern leaked!");
    println!("\nthe bus shows fresh random paths every time — the key stays secret.");
}
