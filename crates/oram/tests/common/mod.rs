//! Shared golden-workload fixture for the behavior-identity tests.
//!
//! The golden workload is: a 256-block tree, ORAM seed 42, 2000 uniform
//! reads drawn from a Xoshiro stream seeded with 7. Every observable of
//! that run — stats counters, stash-occupancy histogram, physical access
//! trace, stash peak — was captured on the seed implementation and is
//! pinned here as constants. `hotpath_equivalence.rs` asserts the
//! allocation-free hot path reproduces them; `image_goldens.rs` pins the
//! bytes of the encrypted image the same run leaves behind.

// Each integration-test binary compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use proram_mem::{AccessKind, BlockAddr};
use proram_obs::Obs;
use proram_oram::{CrashConfig, KillPoint, OramBackend, OramConfig, PathOram};
use proram_stats::{Rng64, Xoshiro256};

/// Data blocks in the golden tree.
pub const TREE_BLOCKS: u64 = 256;
/// Seed the golden `PathOram` is constructed with.
pub const ORAM_SEED: u64 = 42;
/// Seed of the Xoshiro stream driving the golden accesses.
pub const WORKLOAD_SEED: u64 = 7;
/// Uniform reads the golden workload performs.
pub const ACCESSES: u64 = 2000;

/// FNV-1a-style fold used when the goldens were captured.
pub const FNV_INIT: u64 = 0xcbf29ce484222325;

/// One FNV-1a-style folding step.
pub fn fnv(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Every observable of one golden replay. Two replays that agree on all
/// fields produced byte-identical adversary-visible behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    /// Logical accesses the controller served.
    pub logical: u64,
    /// Data-tree path accesses.
    pub data_paths: u64,
    /// Position-map path accesses.
    pub posmap_paths: u64,
    /// Background evictions.
    pub background: u64,
    /// Path bytes moved.
    pub bytes_moved: u64,
    /// FNV fold of the stash-occupancy histogram.
    pub hist_hash: u64,
    /// Total samples in the histogram.
    pub hist_total: u64,
    /// FNV fold of the observed leaf trace.
    pub trace_hash: u64,
    /// Events the trace retained.
    pub trace_events: usize,
    /// Events the trace dropped.
    pub trace_dropped: u64,
    /// All-time stash peak.
    pub stash_peak: usize,
    /// Path-scratch reuses (allocation-free round trips).
    pub allocs_avoided: u64,
}

/// The goldens that differ between the payloads-on and payloads-off
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Goldens {
    /// Expected [`RunDigest::hist_hash`].
    pub hist_hash: u64,
    /// Expected [`RunDigest::trace_hash`].
    pub trace_hash: u64,
    /// Expected [`RunDigest::stash_peak`].
    pub stash_peak: usize,
}

/// Goldens of the golden run with `store_payloads(true)`.
pub const GOLDEN_PAYLOADS: Goldens = Goldens {
    hist_hash: 0x7e34_7ba1_61c4_bef3,
    trace_hash: 0xb5a0_c950_fe1e_8801,
    stash_peak: 19,
};

/// Goldens of the golden run with `store_payloads(false)`.
pub const GOLDEN_OPAQUE: Goldens = Goldens {
    hist_hash: 0x06db_69e5_5d8e_25fe,
    trace_hash: 0xd4fb_1582_f412_add7,
    stash_peak: 21,
};

/// [`image_hash`] after the golden run with `store_payloads(true)`, in
/// the 152-byte slot format (see `image_goldens.rs` for its history).
pub const GOLDEN_IMAGE: u64 = 0xefdc_aa7e_64e8_a3e8;

/// The golden configuration with payloads on or off.
pub fn golden_config(store_payloads: bool) -> OramConfig {
    OramConfig::small_for_tests(TREE_BLOCKS)
        .to_builder()
        .store_payloads(store_payloads)
        .build()
        .expect("valid golden configuration")
}

/// Replays the golden workload under the default configuration.
pub fn replay(store_payloads: bool) -> RunDigest {
    replay_cfg(golden_config(store_payloads))
}

/// Replays the golden workload under `cfg` with observability detached.
pub fn replay_cfg(cfg: OramConfig) -> RunDigest {
    replay_observed(cfg, Obs::disabled())
}

/// Replays the golden workload under `cfg` with `obs` attached and
/// digests every observable.
pub fn replay_observed(cfg: OramConfig, obs: Obs) -> RunDigest {
    digest_state(&run_golden(cfg, obs))
}

/// Runs the golden workload under `cfg` with `obs` attached and returns
/// the controller it leaves behind.
pub fn run_golden(cfg: OramConfig, obs: Obs) -> PathOram {
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    oram.attach_obs(obs);
    let mut rng = Xoshiro256::seed_from(WORKLOAD_SEED);
    for _ in 0..ACCESSES {
        oram.try_access_block(BlockAddr(rng.next_below(TREE_BLOCKS)), AccessKind::Read)
            .unwrap();
    }
    oram
}

/// Digests every observable of a finished replay (for tests that drive
/// the workload themselves, e.g. with mid-run injection).
pub fn digest_state(oram: &PathOram) -> RunDigest {
    let s = oram.oram_stats();
    let h = oram.stash().occupancy_histogram();
    let mut hist_hash = FNV_INIT;
    for (v, c) in h.iter() {
        hist_hash = fnv(fnv(hist_hash, v), c);
    }
    let leaves = oram.trace().observed_leaves();
    let mut trace_hash = FNV_INIT;
    for l in &leaves {
        trace_hash = fnv(trace_hash, *l);
    }
    RunDigest {
        logical: s.logical_accesses,
        data_paths: s.data_path_accesses,
        posmap_paths: s.posmap_path_accesses,
        background: s.background_evictions,
        bytes_moved: s.bytes_moved,
        hist_hash,
        hist_total: h.total(),
        trace_hash,
        trace_events: leaves.len(),
        trace_dropped: oram.trace().dropped(),
        stash_peak: oram.stash().peak(),
        allocs_avoided: oram.allocs_avoided(),
    }
}

/// FNV fold of every byte of the encrypted image, in store order.
pub fn image_hash(oram: &PathOram) -> u64 {
    let store = oram.storage().expect("payloads on");
    (0..store.num_buckets())
        .flat_map(|index| store.ciphertext(index))
        .fold(FNV_INIT, |acc, &byte| fnv(acc, u64::from(byte)))
}

/// Asserts the goldens shared by every configuration of the golden run.
pub fn assert_common(d: &RunDigest) {
    assert_eq!(d.logical, 2000);
    assert_eq!(d.data_paths, 2000);
    assert_eq!(d.posmap_paths, 2210);
    assert_eq!(d.background, 0);
    assert_eq!(d.bytes_moved, 38_799_360);
    assert_eq!(d.hist_total, 4210);
    assert_eq!(d.trace_events, 4210);
    assert_eq!(d.trace_dropped, 0);
    // Every one of the 4210 path accesses reuses the scratch buffers
    // (initialization warms them before the first access).
    assert_eq!(d.allocs_avoided, 4210);
}

/// Asserts [`assert_common`] plus the configuration-specific goldens.
pub fn assert_golden(d: &RunDigest, g: &Goldens) {
    assert_common(d);
    assert_eq!(d.hist_hash, g.hist_hash);
    assert_eq!(d.trace_hash, g.trace_hash);
    assert_eq!(d.stash_peak, g.stash_peak);
}

/// The `ctrl_durable` shape of `perf/`: 2^16 blocks, posmap fanout 8, an
/// encrypted image, the commit protocol armed and never fired.
pub fn durable_shape() -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(1 << 16)
        .entries_per_posmap_block(8)
        .store_payloads(true)
        .trace_capacity(0)
        .crash(CrashConfig::at(KillPoint::MidFlip, u64::MAX))
        .build()
        .expect("valid durable configuration")
}

/// Alternating write / read at the addresses `next` yields, as
/// `ctrl_durable` issues them; `after` runs after every commit.
pub fn drive_durable(
    oram: &mut PathOram,
    accesses: usize,
    mut next: impl FnMut() -> u64,
    mut after: impl FnMut(&PathOram),
) {
    let payload = vec![0x5A; oram.config().timing.block_bytes as usize];
    for i in 0..accesses {
        let addr = BlockAddr(next());
        if i % 2 == 0 {
            oram.try_write_block(addr, &payload).unwrap();
        } else {
            oram.try_read_block(addr).unwrap();
        }
        after(oram);
    }
}
