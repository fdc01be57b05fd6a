//! The encrypted image is the only copy of a bucket below the treetop.
//!
//! Two properties of a controller that holds no plaintext shadow of its
//! tree. A payload it returns is the payload last written — checked
//! against a model kept *here*, since the controller has none to consult.
//! And every such payload came through the authenticated open of the
//! fetched path: tamper with any one bucket on the paths of the next
//! access and that access returns the typed error naming the bucket, no
//! payload, and a controller that has stopped; tamper with a bucket off
//! those paths and the access is served (the scrub still finds it).

use proram_mem::BlockAddr;
use proram_obs::{Obs, ObsEvent};
use proram_oram::{CrashConfig, KillPoint, Leaf, OramBackend, OramConfig, OramError, PathOram};
use proram_stats::{Rng64, Xoshiro256};
use std::collections::{BTreeSet, HashMap};

const BLOCKS: u64 = 256;

/// The four shapes both tests run on: treetop 0 / 2, commit protocol
/// disarmed / armed (and never fired).
fn shapes() -> impl Iterator<Item = OramConfig> {
    [0, 2].into_iter().flat_map(|treetop| {
        [false, true].into_iter().map(move |durable| {
            let mut b = OramConfig::small_for_tests(BLOCKS)
                .to_builder()
                .treetop_levels(treetop);
            if durable {
                b = b.crash(CrashConfig::at(KillPoint::MidFlip, u64::MAX));
            }
            b.build().expect("valid configuration")
        })
    })
}

fn random_payload(rng: &mut Xoshiro256, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn payloads_come_from_the_image_alone() {
    for cfg in shapes() {
        let shape = format!("treetop {} crash {:?}", cfg.treetop_levels, cfg.crash);
        let len = cfg.timing.block_bytes as usize;
        let mut oram = PathOram::new(cfg, 42);
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut rng = Xoshiro256::seed_from(7);
        for i in 0..6_000 {
            let addr = rng.next_below(BLOCKS);
            if rng.next_below(3) == 0 {
                let payload = random_payload(&mut rng, len);
                oram.try_write_block(BlockAddr(addr), &payload)
                    .expect("no faults injected");
                model.insert(addr, payload);
            } else {
                let read = oram
                    .try_read_block(BlockAddr(addr))
                    .expect("no faults injected")
                    .expect("payloads on");
                // A block never written reads back as zeros.
                let want = model.get(&addr).cloned().unwrap_or_else(|| vec![0; len]);
                assert_eq!(read, want, "{shape}: access {i}, block {addr}");
            }
        }
        oram.audit_full();
        oram.audit_checkpoints();
    }
}

#[test]
fn a_tampered_bucket_on_the_fetched_paths_stops_the_access_and_one_off_them_does_not() {
    for cfg in shapes() {
        let shape = format!("treetop {} crash {:?}", cfg.treetop_levels, cfg.crash);
        let len = cfg.timing.block_bytes as usize;
        let mut warm = PathOram::new(cfg, 42);
        let mut rng = Xoshiro256::seed_from(11);
        for _ in 0..300 {
            let payload = random_payload(&mut rng, len);
            warm.try_write_block(BlockAddr(rng.next_below(BLOCKS)), &payload)
                .expect("no faults injected");
        }
        let target = BlockAddr(rng.next_below(BLOCKS));

        // What the next access fetches, from a clone that runs it.
        let mut probe = warm.clone();
        let obs = Obs::ring(1 << 10);
        probe.attach_obs(obs.clone());
        let served = probe.try_read_block(target).expect("no faults injected");
        assert_eq!(obs.dropped(), 0);
        let layout = warm.store_layout().clone();
        let on_paths: BTreeSet<usize> = obs
            .events()
            .iter()
            .filter_map(ObsEvent::path_leaf)
            .flat_map(|leaf| {
                layout
                    .off_chip_path(Leaf(leaf as u32))
                    .map(|(_, phys)| phys)
            })
            .collect();
        assert!(on_paths.len() >= layout.off_chip_path(Leaf(0)).count());

        for &phys in &on_paths {
            let mut oram = warm.clone();
            let store = oram.storage_mut().expect("payloads on");
            store.corrupt_byte(phys, 40, 0x04);
            let stopped = oram
                .try_read_block(target)
                .expect_err("a payload came past a bucket that does not authenticate");
            assert!(
                matches!(stopped, OramError::Integrity { bucket, .. } if bucket == phys),
                "{shape}: bucket {phys} tampered, got {stopped}"
            );
            // Fail-stop: whatever comes next gets the same answer.
            let other = BlockAddr((target.0 + 1) % BLOCKS);
            assert_eq!(oram.try_read_block(other), Err(stopped), "{shape}");
            assert_eq!(
                oram.try_write_block(target, &vec![1; len]),
                Err(stopped),
                "{shape}"
            );
        }

        let buckets = layout.num_off_chip();
        let off_paths = (0..buckets)
            .rev()
            .find(|phys| !on_paths.contains(phys))
            .expect("one access does not fetch the whole tree");
        let mut oram = warm.clone();
        let store = oram.storage_mut().expect("payloads on");
        store.corrupt_byte(off_paths, 40, 0x04);
        assert_eq!(oram.try_read_block(target), Ok(served), "{shape}");
        let found = oram.scrub().expect_err("the scrub walks every bucket");
        assert!(
            matches!(found, OramError::Integrity { bucket, .. } if bucket == off_paths),
            "{shape}: bucket {off_paths} tampered, scrub found {found}"
        );
    }
}
