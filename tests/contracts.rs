//! Tier-1 contract suite: one cell of each byte-identity and robustness
//! sweep that lives in `crates/oram/tests`, so plain `cargo test` guards
//! them too. The fixture and its goldens are the ORAM crate's own.

#[path = "../crates/oram/tests/common/mod.rs"]
mod common;
#[path = "../crates/core/tests/common/mod.rs"]
mod scheme_cell;

use common::{
    assert_golden, digest_state, golden_config, golden_ring, image_hash, replay_cfg, run_golden,
    RunDigest, GOLDEN_IMAGE, GOLDEN_PAYLOADS,
};
use proram::core_scheme::{SchemeConfig, SuperBlockOram};
use proram::oram::{
    Block, Bucket, CrashConfig, FaultClass, FaultConfig, KillPoint, OramConfig, OramError,
    PathOram, Payload, RecoveryMode,
};
use proram::sim::{runner, MemoryKind, SystemConfig};
use proram::workloads::{suite, Scale};
use proram_mem::{AccessKind, BlockAddr, MemRequest, MemoryBackend, NoProbe};
use proram_stats::{Rng64, Xoshiro256};

/// The golden read stream, for the cells that drive a prefix of it.
fn golden_addresses() -> Vec<BlockAddr> {
    let mut rng = Xoshiro256::seed_from(common::WORKLOAD_SEED);
    (0..common::ACCESSES)
        .map(|_| BlockAddr(rng.next_below(common::TREE_BLOCKS)))
        .collect()
}

#[test]
fn encrypted_golden_run_and_image_are_byte_identical() {
    let oram = run_golden(golden_config(true), golden_ring());
    assert_golden(&digest_state(&oram), &GOLDEN_PAYLOADS);
    assert_eq!(image_hash(&oram), GOLDEN_IMAGE);
}

#[test]
fn mid_journal_kill_recovers_auditor_clean_to_the_crash_free_state() {
    let run = |crash: Option<CrashConfig>| {
        let cfg = OramConfig {
            crash,
            ..golden_config(true)
        };
        let mut oram = PathOram::new(cfg, common::ORAM_SEED);
        for addr in golden_addresses().into_iter().take(40) {
            match oram.try_access_block(addr, AccessKind::Read) {
                Ok(_) => {}
                Err(OramError::Crashed { point }) => {
                    assert_eq!(point, KillPoint::MidJournal);
                    assert_eq!(oram.recover().mode, RecoveryMode::RolledBack);
                    oram.audit_full();
                    oram.try_access_block(addr, AccessKind::Read)
                        .expect("retry after rollback");
                }
                Err(err) => panic!("unexpected {err}"),
            }
        }
        oram.audit_full();
        (oram.state_digest(), image_hash(&oram), oram.crash_stats())
    };
    let (digest, image, _) = run(None);
    let (recovered, _, stats) = run(Some(CrashConfig::at(KillPoint::MidJournal, 2)));
    assert_eq!(stats.crashes_injected, 1);
    assert_eq!(stats.rollbacks, 1);
    assert_eq!(recovered, digest);
    // Armed but never fired: not a byte of the image moves.
    let never = run(Some(CrashConfig::at(KillPoint::MidJournal, u64::MAX)));
    assert_eq!((never.0, never.1), (digest, image));
}

/// The write cell of `payload_writes_survive_every_kill_point`: a write
/// killed after the epoch flip recovers as "durable, do not retry", so
/// the payload must be in the image recovery replays.
#[test]
fn mid_flip_kill_replays_the_payload_it_reported_durable() {
    let cfg = OramConfig {
        crash: Some(CrashConfig::first(KillPoint::MidFlip)),
        ..golden_config(true)
    };
    let payload = vec![0xA5; cfg.timing.block_bytes as usize];
    let mut oram = PathOram::new(cfg, common::ORAM_SEED);
    let addr = golden_addresses()[0];
    assert_eq!(
        oram.try_write_block(addr, &payload),
        Err(OramError::Crashed {
            point: KillPoint::MidFlip
        }),
        "the first flip is killed"
    );
    assert_eq!(oram.recover().mode, RecoveryMode::Replayed);
    oram.audit_full();
    assert_eq!(oram.try_read_block(addr).unwrap(), Some(payload));
}

/// The pinned cell of `crates/core/tests/crash_matrix.rs`: the 200th
/// write-back is killed under a load that consumed a prefetch bit, the
/// backend rolls back and the request is retried — and the scheme layer's
/// six counters, its merged-block gauge and its prefetch ledger (the
/// prefetch / hit bits), one ledger that rolls back with the backend's
/// transaction, end where the crash-free run's do.
#[test]
fn a_rolled_back_access_leaves_no_trace_in_the_scheme_layer() {
    let run = |crash| scheme_cell::run_cell(SchemeConfig::static_scheme(2), crash);
    let free = run(CrashConfig::at(KillPoint::MidFlip, u64::MAX));
    let got = run(CrashConfig::at(KillPoint::WriteBack, 200));
    assert_eq!(free.crash.crashes_injected, 0);
    assert_eq!(got.crash.crashes_injected, 1);
    assert_eq!(got.crash.rollbacks, 1);
    assert_eq!(got.unrecovered, 0);
    assert_eq!(got.scheme.demand_accesses, got.reads + got.writes);
    assert_eq!(got.scheme, free.scheme);
    assert_eq!(got.merged_blocks, free.merged_blocks);
    assert_eq!(got.ledger, free.ledger);
    assert_eq!(got.ledger_trace, free.ledger_trace);
    assert_eq!(got.state_digest, free.state_digest);
}

/// The host-independent guard of the O(delta) commit: on the shape of
/// `perf/`'s `ctrl_durable` workload (2^16 blocks, posmap fanout 8, write
/// / read alternating at uniform addresses) a steady-state commit seals
/// under 3 KiB — one fixed-size delta, plus its 64th of the periodic
/// `Full` — where sealing the whole volatile state at begin and at commit
/// took 30 080 bytes.
#[test]
fn durable_commits_seal_a_delta_not_the_volatile_state() {
    let mut oram = PathOram::new(common::durable_shape(), common::ORAM_SEED);
    let mut rng = Xoshiro256::seed_from(common::WORKLOAD_SEED);
    let mut drive = |oram: &mut PathOram, n: u64| {
        common::drive_durable(oram, n as usize, || rng.next_below(1 << 16), |_| {});
    };
    drive(&mut oram, 256);
    let warm = oram.crash_stats();
    let commits = 2_048;
    drive(&mut oram, commits);
    let stats = oram.crash_stats();
    assert_eq!(stats.full_seals - warm.full_seals, commits / 64);
    assert_eq!(stats.early_full_seals, 0);
    let per_commit = (stats.checkpoint_bytes - warm.checkpoint_bytes) / commits;
    assert!(
        per_commit <= 3 * 1024,
        "{per_commit} checkpoint bytes per commit"
    );
    oram.audit_checkpoints();
}

/// Every injected bit flip a read meets is detected; with no second copy
/// to repair the bucket from, the first one ends the run typed, and the
/// controller keeps returning that error.
#[test]
fn injected_bit_flips_are_all_detected_and_fail_stop() {
    let cfg = golden_config(true)
        .to_builder()
        .fault(FaultConfig::single(FaultClass::BitFlip, 0.05, 0xF00D))
        .build()
        .expect("valid faulty configuration");
    let mut oram = PathOram::new(cfg, common::ORAM_SEED);
    let mut stream = golden_addresses().into_iter().take(500);
    let stopped = stream
        .by_ref()
        .find_map(|addr| oram.try_access_block(addr, AccessKind::Read).err())
        .expect("a flipped bucket is met within 500 accesses");
    assert!(matches!(stopped, OramError::Integrity { .. }), "{stopped}");
    let next = stream.next().expect("the flip is met early");
    assert_eq!(oram.try_read_block(next), Err(stopped));
    let faults = oram.fault_stats();
    assert!(faults.injected_bit_flips > 0);
    assert_eq!(faults.detected_integrity, 1);
    assert_eq!(faults.undetected, 0);
    assert_eq!(faults.recovered, 0);
}

#[test]
fn treetop_two_changes_only_the_byte_accounting() {
    let base = replay_cfg(golden_config(true));
    let cfg = golden_config(true)
        .to_builder()
        .treetop_levels(2)
        .build()
        .expect("valid treetop configuration");
    let treetop = replay_cfg(cfg);
    // Two of the eight levels stay on chip.
    assert_eq!(treetop.bytes_moved * 8, base.bytes_moved * 6);
    let bytes_moved = base.bytes_moved;
    assert_eq!(
        RunDigest {
            bytes_moved,
            ..treetop
        },
        base
    );
}

/// The two callers of the stage primitives are the same access: the
/// golden stream, every third access a write, through
/// `PathOram::try_access_block` and through the baseline `SuperBlockOram`
/// (the simulator's `oram` backend) leaves the same controller state,
/// the same path counts and the same total latency.
#[test]
fn both_drivers_of_the_stage_primitives_are_one_access() {
    let mut direct = PathOram::new(golden_config(true), common::ORAM_SEED);
    let mut scheme = SuperBlockOram::new(
        golden_config(true),
        SchemeConfig::baseline(),
        common::ORAM_SEED,
    );
    let (mut latency, mut now) = (0, 0);
    for (i, addr) in golden_addresses().into_iter().take(500).enumerate() {
        let (kind, req) = if i % 3 == 0 {
            (AccessKind::Write, MemRequest::write(addr))
        } else {
            (AccessKind::Read, MemRequest::read(addr))
        };
        latency += direct.try_access_block(addr, kind).unwrap().latency;
        now = scheme.access(now, req, &NoProbe).complete_at;
    }
    assert_eq!(scheme.oram().state_digest(), direct.state_digest());
    let (a, b) = (direct.oram_stats(), scheme.oram().oram_stats());
    assert_eq!(
        (
            a.data_path_accesses,
            a.posmap_path_accesses,
            a.background_evictions,
            a.bytes_moved
        ),
        (
            b.data_path_accesses,
            b.posmap_path_accesses,
            b.background_evictions,
            b.bytes_moved
        )
    );
    assert_eq!(now, latency);
}

/// The resident tree costs one cache line per bucket: every slot's
/// address, leaf and one-word payload inline, data and position-map
/// entries behind that word. A field added to `Bucket`, `Block` or
/// `Payload` must not silently grow every tree, path and stash.
#[test]
fn a_tree_bucket_is_64_bytes() {
    assert_eq!(std::mem::size_of::<Bucket>(), 64);
    assert_eq!(std::mem::size_of::<Payload>(), 8);
    assert_eq!(std::mem::size_of::<Block>(), 24);
}

/// The cache model's observable behaviour, pinned where `cargo test -q`
/// sees it: one LLC-resident trace, one that evicts from the LLC, and one
/// (TPCC) on which a line dirty only in the L1 leaves the fabric, so the
/// fabric's write-backs exceed the LLC array's dirty evictions by one; all
/// under `dynamic(2)`. Every number is decided by `proram-cache` (which
/// line hits, which line is the victim, which victim is dirty or an
/// unused prefetch), so a change of its set layout that is not
/// behaviour-neutral moves at least one of them. The first two rows were
/// captured at the last commit with one heap `Vec` per set.
#[test]
fn cache_model_counters_are_pinned() {
    let run = |name: &str, scale: Scale| {
        let spec = suite::spec(name).expect("registered benchmark");
        let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        cfg.oram.num_data_blocks = 1 << 13;
        let m = runner::run_spec(spec, scale, &cfg);
        let (l1, l2) = (m.caches.l1, m.caches.l2);
        [
            m.cycles,
            l1.hits,
            l1.misses,
            l2.hits,
            l2.misses,
            l2.evictions,
            l2.dirty_evictions,
            m.caches.writebacks,
            m.demand_fetches,
            m.caches.unused_prefetch_evictions,
        ]
    };
    let resident = Scale {
        ops: 6_000,
        warmup_ops: 2_000,
        footprint_scale: 0.0625,
        seed: 42,
    };
    assert_eq!(
        run("water_ns", resident),
        [523_134, 4_994, 1_006, 880, 126, 0, 0, 0, 126, 0]
    );
    assert_eq!(
        run("ocean_nc", Scale::quick()),
        [9_926_666, 12_675, 7_325, 2_999, 4_326, 3_803, 2_732, 2_732, 4_326, 91]
    );
    assert_eq!(
        run("TPCC", Scale::quick()),
        [31_818_821, 13_385, 6_615, 411, 6_204, 4_938, 3_327, 3_328, 6_204, 0]
    );
}
