//! Behavior-identity goldens for the functional treetop cache.
//!
//! Treetop caching keeps the top `treetop_levels` buckets in trusted
//! on-chip memory, so a path access only serializes/encrypts/verifies
//! the off-chip suffix. That is a *physical* optimization: path
//! selection, eviction order, stash behavior and the adversary-visible
//! leaf trace must stay byte-identical to the uncached run — only the
//! DRAM byte accounting shrinks, by exactly the cached levels' share.

mod common;

use common::{
    assert_golden, golden_config, replay_cfg, RunDigest, ACCESSES, GOLDEN_PAYLOADS, ORAM_SEED,
    TREE_BLOCKS,
};
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{FaultClass, FaultConfig, OramConfig, OramError, PathOram};
use proram_stats::{Rng64, Xoshiro256};

/// Tree levels of the golden 256-block configuration.
const GOLDEN_LEVELS: u64 = 8;

fn treetop_config(treetop_levels: u32) -> OramConfig {
    golden_config(true)
        .to_builder()
        .treetop_levels(treetop_levels)
        .build()
        .expect("valid treetop configuration")
}

/// `treetop_levels = 0` is the pre-treetop code path: it must still
/// reproduce the seed goldens bit for bit.
#[test]
fn treetop_zero_flat_matches_the_goldens() {
    assert_golden(&replay_cfg(treetop_config(0)), &GOLDEN_PAYLOADS);
}

/// Treetop caching changes only the DRAM byte accounting: every logical
/// observable of the golden run — trace hash included — matches the
/// uncached digest, and `bytes_moved` shrinks by exactly the cached
/// levels' share of each path.
#[test]
fn treetop_levels_change_only_the_byte_accounting() {
    let base = replay_cfg(treetop_config(0));
    for treetop in [1u32, 2] {
        let d = replay_cfg(treetop_config(treetop));
        // bytes_moved is linear in the off-chip level count.
        assert_eq!(
            d.bytes_moved * GOLDEN_LEVELS,
            base.bytes_moved * (GOLDEN_LEVELS - u64::from(treetop)),
            "treetop {treetop} must save exactly its levels' bytes"
        );
        let normalized = RunDigest {
            bytes_moved: base.bytes_moved,
            ..d
        };
        assert_eq!(
            normalized, base,
            "treetop {treetop} changed a logical observable"
        );
    }
}

/// The encrypted store holds exactly the off-chip buckets — the treetop
/// has no ciphertext image, so neither the fault injector nor any other
/// store-level adversary can reach it.
#[test]
fn store_holds_only_off_chip_buckets() {
    for treetop in [0u32, 1, 2, 4] {
        let oram = PathOram::new(treetop_config(treetop), ORAM_SEED);
        let layout = oram.store_layout();
        assert_eq!(layout.treetop_levels(), treetop);
        assert_eq!(
            oram.storage().expect("payloads on").num_buckets(),
            layout.num_off_chip(),
            "store must be sized to the off-chip suffix"
        );
        // Treetop hit accounting: cached levels are charged per access.
        let mut oram = oram;
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..50 {
            oram.try_access_block(BlockAddr(rng.next_below(TREE_BLOCKS)), AccessKind::Read)
                .unwrap();
        }
        let s = oram.oram_stats();
        if treetop == 0 {
            assert_eq!(s.treetop_hits, 0);
            assert_eq!(s.treetop_bytes_saved, 0);
        } else {
            assert_eq!(s.treetop_hits, s.total_path_accesses() * u64::from(treetop));
            assert!(s.treetop_bytes_saved > 0);
        }
    }
}

/// Fault sweep with a nonzero treetop: injected store corruption lands
/// only on off-chip buckets, the first read that meets it detects it and
/// fail-stops the controller with the typed error, and no false
/// negatives appear.
#[test]
fn fault_sweep_fail_stops_typed_with_nonzero_treetop() {
    for class in [
        FaultClass::BitFlip,
        FaultClass::TornWrite,
        FaultClass::Rollback,
    ] {
        let cfg = treetop_config(2)
            .to_builder()
            .fault(FaultConfig::single(class, 0.05, 0xF00D))
            .build()
            .expect("valid faulty treetop configuration");
        let mut oram = PathOram::new(cfg, ORAM_SEED);
        let off_chip = oram.store_layout().num_off_chip();
        let mut rng = Xoshiro256::seed_from(9);
        let mut next = || BlockAddr(rng.next_below(TREE_BLOCKS));
        let stopped = (0..ACCESSES / 4)
            .find_map(|_| oram.try_access_block(next(), AccessKind::Read).err())
            .unwrap_or_else(|| panic!("{}: no corruption was met", class.name()));
        assert!(
            matches!(
                stopped,
                OramError::Integrity { .. } | OramError::Rollback { .. }
            ),
            "{}: {stopped}",
            class.name()
        );
        assert!(stopped.bucket().is_some_and(|phys| phys < off_chip));
        assert_eq!(
            oram.try_access_block(next(), AccessKind::Read),
            Err(stopped)
        );
        let f = oram.fault_stats();
        assert!(f.total_injected() > 0, "{}: nothing injected", class.name());
        assert_eq!(f.undetected, 0, "{}: false negatives", class.name());
    }
}
