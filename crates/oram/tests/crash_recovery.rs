//! Crash-consistency acceptance suite (DESIGN.md section 15).
//!
//! Exhaustively sweeps every [`KillPoint`] over several crossing indices
//! (a stage point's crossing may land in a position-map or eviction path
//! as well as the data path — the path primitives cross them, not the
//! driver), and after every injected crash requires:
//!
//! * **auditor-clean recovery** — block conservation (every logical block
//!   exactly once across stash ∪ PLB ∪ tree) and posmap↔tree agreement
//!   ([`PathOram::audit_full`]);
//! * **determinism** — the post-recovery state digest equals the
//!   crash-free run's digest (rollbacks retry with the checkpointed RNG,
//!   replays keep the committed state);
//! * **observational silence when disarmed** — an armed-but-never-fired
//!   injector and no injector at all produce byte-identical images;
//! * **no lost write** — a payload whose write returned `Ok` or recovered
//!   as `Replayed` is what the next read returns, at every kill point;
//! * **sealed = live** — after every commit, the checkpoint records
//!   decoded from their sealed bytes describe exactly the live volatile
//!   state ([`PathOram::audit_checkpoints`]), and their lengths do not
//!   depend on the addresses accessed.

mod common;

use common::{drive_durable, durable_shape};
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{
    CrashConfig, CrashStats, KillPoint, OramBackend, OramConfig, OramError, PathOram, RecoveryMode,
};
use proram_stats::{Rng64, Xoshiro256};

const BLOCKS: u64 = 128;
const ACCESSES: usize = 40;
const ORAM_SEED: u64 = 7;
const WORKLOAD_SEED: u64 = 3;

fn base_config() -> OramConfig {
    OramConfig::small_for_tests(BLOCKS)
}

/// The fixed workload: `ACCESSES` reads at externally-drawn addresses (so
/// the address sequence is independent of the controller's RNG).
fn addresses() -> Vec<BlockAddr> {
    addresses_n(ACCESSES)
}

/// The first `n` addresses of the fixed workload's stream.
fn addresses_n(n: usize) -> Vec<BlockAddr> {
    let mut rng = Xoshiro256::seed_from(WORKLOAD_SEED);
    (0..n).map(|_| BlockAddr(rng.next_below(BLOCKS))).collect()
}

/// Runs the workload crash-free under `cfg` and returns the final state
/// digest.
fn crash_free_digest_cfg(cfg: OramConfig) -> u64 {
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    for &addr in &addresses() {
        oram.try_access_block(addr, AccessKind::Read).unwrap();
    }
    oram.audit_full();
    oram.state_digest()
}

/// Runs the workload crash-free and returns the final state digest.
fn crash_free_digest() -> u64 {
    crash_free_digest_cfg(base_config())
}

/// Runs the workload with `crash` armed, recovering (and, after a
/// rollback, retrying) every injected kill. Returns the final digest and
/// the crash counters.
fn run_with_recovery(crash: CrashConfig) -> (u64, CrashStats) {
    run_with_recovery_cfg(crash, base_config())
}

/// [`run_with_recovery`] under an arbitrary base configuration.
fn run_with_recovery_cfg(crash: CrashConfig, base: OramConfig) -> (u64, CrashStats) {
    let cfg = OramConfig {
        crash: Some(crash),
        ..base
    };
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    for &addr in &addresses() {
        match oram.try_access_block(addr, AccessKind::Read) {
            Ok(_) => {}
            Err(OramError::Crashed { point }) => {
                let rec = oram.recover();
                oram.audit_full();
                if rec.mode != RecoveryMode::Replayed {
                    oram.try_access_block(addr, AccessKind::Read)
                        .unwrap_or_else(|e| panic!("retry after {point} rollback failed: {e}"));
                }
            }
            Err(e) => panic!("unexpected error under {}: {e}", crash.point),
        }
    }
    oram.audit_full();
    (oram.state_digest(), oram.crash_stats())
}

#[test]
fn exhaustive_kill_point_sweep_recovers_to_crash_free_state() {
    let crash_free = crash_free_digest();
    for point in KillPoint::ALL {
        for crossing in 1..=3u64 {
            let crash = CrashConfig::at(point, crossing);
            let (digest, stats) = run_with_recovery(crash);
            assert_eq!(
                stats.crashes_injected, 1,
                "{point} crossing {crossing}: kill never fired"
            );
            assert_eq!(
                stats.rollbacks + stats.replays + stats.clean_recoveries,
                1,
                "{point} crossing {crossing}: recovery miscounted"
            );
            assert_eq!(
                digest, crash_free,
                "{point} crossing {crossing}: post-recovery state diverged"
            );
        }
    }
}

/// With a nonzero treetop, checkpoint records carry the on-chip buckets:
/// a pre-flip kill rolls the treetop back to its pre-access contents (the
/// committed records), a post-flip kill replays the committed ones (with
/// the pending checkpoint B on top), and either way the recovered state
/// matches the crash-free run under the same treetop exactly.
#[test]
fn treetop_rollback_and_replay_recover_to_crash_free_state() {
    for treetop in [1u32, 2] {
        let base = base_config()
            .to_builder()
            .treetop_levels(treetop)
            .build()
            .expect("valid treetop configuration");
        let clean = crash_free_digest_cfg(base.clone());
        for (point, rolls_back) in [(KillPoint::WriteBack, true), (KillPoint::MidFlip, false)] {
            let (digest, stats) = run_with_recovery_cfg(CrashConfig::at(point, 2), base.clone());
            assert_eq!(
                stats.crashes_injected, 1,
                "treetop {treetop}, {point}: kill never fired"
            );
            if rolls_back {
                assert_eq!(
                    stats.rollbacks, 1,
                    "treetop {treetop}: {point} must roll back"
                );
            } else {
                assert_eq!(stats.replays, 1, "treetop {treetop}: {point} must replay");
            }
            assert_eq!(
                digest, clean,
                "treetop {treetop}, {point}: post-recovery state diverged"
            );
        }
    }
}

#[test]
fn recovery_is_deterministic_across_runs() {
    for point in [
        KillPoint::WriteBack,
        KillPoint::MidJournal,
        KillPoint::MidFlip,
    ] {
        let a = run_with_recovery(CrashConfig::at(point, 2));
        let b = run_with_recovery(CrashConfig::at(point, 2));
        assert_eq!(a, b, "{point}: same seed, different recovery outcome");
    }
}

#[test]
fn pre_flip_crashes_roll_back_and_post_flip_crashes_replay() {
    let (_, writeback) = run_with_recovery(CrashConfig::first(KillPoint::WriteBack));
    assert_eq!(writeback.rollbacks, 1, "pre-flip kill must roll back");
    assert_eq!(writeback.replays, 0);

    let (_, mid_flip) = run_with_recovery(CrashConfig::first(KillPoint::MidFlip));
    assert_eq!(mid_flip.replays, 1, "post-flip kill must replay");
    assert_eq!(mid_flip.rollbacks, 0);

    // A kill at the very first stage entry strikes before any journaled
    // write: recovery finds nothing pending.
    let (_, resolve) = run_with_recovery(CrashConfig::first(KillPoint::ResolvePosmap));
    assert_eq!(resolve.clean_recoveries + resolve.rollbacks, 1);
}

#[test]
fn armed_but_unfired_injector_is_observationally_silent() {
    let run = |crash: Option<CrashConfig>| {
        let cfg = OramConfig {
            crash,
            ..base_config()
        };
        let mut oram = PathOram::new(cfg, ORAM_SEED);
        for &addr in &addresses() {
            oram.try_access_block(addr, AccessKind::Read).unwrap();
        }
        let image: Vec<Vec<u8>> = (0..oram.storage().unwrap().num_buckets())
            .map(|i| oram.storage().unwrap().ciphertext(i).to_vec())
            .collect();
        (oram.state_digest(), image)
    };
    // A crossing far past anything the workload reaches never fires; the
    // run must match the no-injector run byte for byte.
    let (armed_digest, armed_image) = run(Some(CrashConfig::at(KillPoint::MidFlip, 1_000_000)));
    let (clean_digest, clean_image) = run(None);
    assert_eq!(armed_digest, clean_digest);
    assert_eq!(
        armed_image, clean_image,
        "commit protocol changed the image"
    );
}

#[test]
fn recover_without_a_crash_is_a_clean_no_op() {
    let mut oram = PathOram::new(base_config(), ORAM_SEED);
    oram.try_access_block(BlockAddr(5), AccessKind::Read)
        .unwrap();
    let before = oram.state_digest();
    let rec = oram.recover();
    assert_eq!(rec.mode, RecoveryMode::Clean);
    assert_eq!(rec.journal_entries, 0);
    assert_eq!(rec.cycles, 0);
    assert_eq!(oram.state_digest(), before);
    assert_eq!(oram.crash_stats().clean_recoveries, 1);
}

#[test]
fn recovery_reports_work_and_charges_latency() {
    let cfg = OramConfig {
        crash: Some(CrashConfig::at(KillPoint::MidJournal, 3)),
        ..base_config()
    };
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    let mut report = None;
    for &addr in &addresses() {
        match oram.try_access_block(addr, AccessKind::Read) {
            Ok(_) => {}
            Err(OramError::Crashed { .. }) => {
                report = Some(oram.recover());
                break;
            }
            Err(e) => panic!("unexpected: {e}"),
        }
    }
    let report = report.expect("mid-journal kill fired");
    assert_eq!(report.mode, RecoveryMode::RolledBack);
    assert!(report.journal_entries > 0, "journal held no entries");
    assert_eq!(report.buckets_restored, report.journal_entries);
    assert!(report.buckets_reverified >= report.buckets_restored);
    assert!(report.cycles > 0, "recovery must cost cycles");
}

#[test]
fn crash_events_reach_an_attached_sink() {
    use proram_obs::{Obs, ObsEvent};

    let cfg = OramConfig {
        crash: Some(CrashConfig::first(KillPoint::WriteBack)),
        ..base_config()
    };
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    oram.attach_obs(Obs::ring(4096));
    let addr = addresses()[0];
    let err = oram
        .try_access_block(addr, AccessKind::Read)
        .expect_err("first write-back entry must crash");
    assert!(matches!(
        err,
        OramError::Crashed {
            point: KillPoint::WriteBack
        }
    ));
    // A stage-point kill is a process death like any other: the store
    // drops writes until recovery.
    let fired = |oram: &PathOram| oram.storage().expect("payloads on").crash_fired();
    assert_eq!(fired(&oram), Some(KillPoint::WriteBack));
    oram.recover();
    assert_eq!(fired(&oram), None);
    oram.try_access_block(addr, AccessKind::Read).unwrap();
    assert_eq!(oram.crash_stats().crashes_injected, 1);
    let events = oram.obs().events();
    let injected = events
        .iter()
        .filter(|e| matches!(e, ObsEvent::CrashInject { crossing: 1, .. }));
    assert_eq!(injected.count(), 1, "one crash_inject per kill");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ObsEvent::RecoverReplay { replay: false, .. })),
        "recover_replay missing"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ObsEvent::JournalCommit { .. })),
        "journal_commit missing (retry must commit)"
    );
}

/// A write is durable exactly when it returned `Ok` or recovered as
/// `Replayed`: over an alternating write/read stream with versioned
/// payloads, killed once at every point × crossing, every read returns
/// the last durable version of its block.
#[test]
fn payload_writes_survive_every_kill_point() {
    let block_bytes = base_config().timing.block_bytes as usize;
    // Runs one operation to completion — recover after a kill, retry unless
    // the killed attempt turned out durable — and returns the version read.
    let settle = |oram: &mut PathOram, addr: BlockAddr, write: Option<u8>| loop {
        let attempt = match write {
            Some(version) => oram
                .try_write_block(addr, &vec![version; block_bytes])
                .map(|()| None),
            None => oram.try_read_block(addr),
        };
        match attempt {
            Ok(None) => break None,
            Ok(Some(bytes)) => {
                assert_eq!(bytes.len(), block_bytes);
                assert!(bytes.iter().all(|&b| b == bytes[0]), "torn payload");
                break Some(bytes[0]);
            }
            Err(OramError::Crashed { .. }) => {
                let mode = oram.recover().mode;
                oram.audit_full();
                // A replayed write is durable; a replayed read lost only
                // its answer, so it is asked again.
                if mode == RecoveryMode::Replayed && write.is_some() {
                    break None;
                }
            }
            Err(e) => panic!("unexpected {e}"),
        }
    };
    for point in KillPoint::ALL {
        for crossing in 1..=3u64 {
            let cfg = OramConfig {
                crash: Some(CrashConfig::at(point, crossing)),
                ..base_config()
            };
            let mut oram = PathOram::new(cfg, ORAM_SEED);
            let mut durable = vec![0u8; BLOCKS as usize];
            for (i, &addr) in addresses().iter().enumerate() {
                let slot = addr.0 as usize;
                // Alternating, after three leading writes: `MidFlip` is
                // crossed once per access, so each swept crossing of it
                // lands in a write.
                if i < 3 || i % 2 == 0 {
                    durable[slot] = i as u8 + 1;
                    settle(&mut oram, addr, Some(durable[slot]));
                } else {
                    assert_eq!(
                        settle(&mut oram, addr, None),
                        Some(durable[slot]),
                        "{point} crossing {crossing}: access {i} read a stale {addr}"
                    );
                }
            }
            assert_eq!(
                oram.crash_stats().crashes_injected,
                1,
                "{point} crossing {crossing}: kill never fired"
            );
            oram.audit_full();
            for slot in 0..BLOCKS {
                assert_eq!(
                    settle(&mut oram, BlockAddr(slot), None),
                    Some(durable[slot as usize]),
                    "{point} crossing {crossing}: block {slot} lost its last durable write"
                );
            }
        }
    }
}

/// Enough accesses to cross the first periodic `Full` seal: the chain
/// starts with the construction `Full`, commits 1..=63 append deltas, and
/// commit 64 seals a `Full` in their place.
const LONG_ACCESSES: usize = 70;

/// Runs the long read workload with `crash` armed, recovering and (after
/// a rollback) retrying the killed access; the checkpoint auditor runs
/// after every commit and every recovery. Returns the final digest, the
/// counters, and the 1-based number of the access the kill fired in.
fn run_long(crash: Option<CrashConfig>) -> (u64, CrashStats, Option<usize>) {
    let cfg = OramConfig {
        crash,
        ..base_config()
    };
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    let mut fired_in = None;
    for (i, &addr) in addresses_n(LONG_ACCESSES).iter().enumerate() {
        match oram.try_access_block(addr, AccessKind::Read) {
            Ok(_) => {}
            Err(OramError::Crashed { point }) => {
                fired_in = Some(i + 1);
                let rec = oram.recover();
                oram.audit_full();
                oram.audit_checkpoints();
                if rec.mode != RecoveryMode::Replayed {
                    oram.try_access_block(addr, AccessKind::Read)
                        .unwrap_or_else(|e| panic!("retry after {point} rollback failed: {e}"));
                }
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
        oram.audit_checkpoints();
    }
    oram.audit_full();
    (oram.state_digest(), oram.crash_stats(), fired_in)
}

/// The first crossing of `point` that lands in access number `access`
/// (1-based) of the long workload. Every access crosses every point at
/// least once — and no more often than it journals buckets, three paths
/// of eight — and later crossings land in later accesses, so bisection
/// finds it.
fn crossing_landing_in(point: KillPoint, access: usize) -> u64 {
    let lands_in = |crossing: u64| {
        let cfg = OramConfig {
            crash: Some(CrashConfig::at(point, crossing)),
            ..base_config()
        };
        let mut oram = PathOram::new(cfg, ORAM_SEED);
        let killed = |&addr: &BlockAddr| oram.try_access_block(addr, AccessKind::Read).is_err();
        addresses_n(LONG_ACCESSES).iter().position(killed)
    };
    let (mut lo, mut hi) = (access as u64, access as u64 * 24);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if lands_in(mid).is_some_and(|i| i + 1 < access) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The kill-point sweep across a compaction boundary: every point killed
/// in commit 63 (the last delta of a chain), 64 (the periodic `Full`
/// itself) and 65 (the first delta on top of it). Rollback must fold the
/// old chain, replay must adopt the pending record — the `Full` included,
/// which replaces the chain — and every cell ends auditor-clean in the
/// crash-free state.
#[test]
fn kill_points_across_a_full_seal_recover_to_the_crash_free_state() {
    let (crash_free, quiet, _) = run_long(None);
    assert_eq!(quiet, CrashStats::default(), "disarmed: nothing is sealed");
    let (armed, sealed, _) = run_long(Some(CrashConfig::at(KillPoint::MidFlip, u64::MAX)));
    assert_eq!(armed, crash_free);
    assert_eq!(
        (
            sealed.full_seals,
            sealed.delta_seals,
            sealed.early_full_seals
        ),
        (2, LONG_ACCESSES as u64 - 1, 0),
        "construction Full, then commit 64 seals the periodic one"
    );
    for point in KillPoint::ALL {
        for access in [63, 64, 65] {
            let crossing = crossing_landing_in(point, access);
            let (digest, stats, fired_in) = run_long(Some(CrashConfig::at(point, crossing)));
            let cell = format!("{point} crossing {crossing} (commit {access})");
            assert_eq!(fired_in, Some(access), "{cell}: landed elsewhere");
            assert_eq!(stats.crashes_injected, 1, "{cell}");
            assert_eq!(
                stats.rollbacks + stats.replays + stats.clean_recoveries,
                1,
                "{cell}: recovery miscounted"
            );
            assert_eq!(stats.replays == 1, point == KillPoint::MidFlip, "{cell}");
            assert_eq!(digest, crash_free, "{cell}: post-recovery state diverged");
        }
    }
}

/// The test a missed dirty site fails: after every one of 5 000 commits
/// the sealed records — one `Full` plus up to 63 deltas — decode to the
/// live state, PLB recency order and treetop buckets included. The
/// second shape keeps two levels on chip; the third is a crowded Z = 2
/// tree of 64 blocks, where accesses keep finding their block already in
/// the stash and PLB hits are the rule.
#[test]
fn sealed_checkpoints_equal_the_live_state_after_every_commit() {
    let never = Some(CrashConfig::at(KillPoint::MidFlip, u64::MAX));
    let treetop = OramConfig {
        treetop_levels: 2,
        crash: never,
        ..OramConfig::small_for_tests(1 << 10)
    };
    let crowded = OramConfig {
        z: 2,
        crash: never,
        ..OramConfig::small_for_tests(64)
    };
    for cfg in [durable_shape(), treetop, crowded] {
        let blocks = cfg.num_data_blocks;
        let mut oram = PathOram::new(cfg, ORAM_SEED);
        oram.audit_checkpoints();
        let mut rng = Xoshiro256::seed_from(WORKLOAD_SEED);
        drive_durable(
            &mut oram,
            5_000,
            || rng.next_below(blocks),
            PathOram::audit_checkpoints,
        );
        let stats = oram.crash_stats();
        assert_eq!(stats.full_seals + stats.delta_seals, 5_001);
        assert!(stats.delta_seals > 4_500, "{blocks} blocks: {stats:?}");
        oram.audit_full();
    }
}

/// Record lengths are public, so they must not depend on what was
/// accessed: a uniform stream (PLB misses, stash churn) and a stream
/// confined to sixteen blocks (PLB hits, hardly any) seal the identical
/// sequence of (kind, length) — a `Full` every 64th commit, fixed-size
/// deltas between — and no delta overflows into an early `Full`.
#[test]
fn checkpoint_record_lengths_do_not_depend_on_the_addresses() {
    let lengths = |mut next: Box<dyn FnMut() -> u64>| {
        let mut oram = PathOram::new(durable_shape(), ORAM_SEED);
        let mut fulls = oram.crash_stats().full_seals;
        let mut seen = Vec::new();
        drive_durable(&mut oram, 3_000, &mut next, |oram| {
            let records = oram.storage().expect("payloads on").checkpoint_records();
            let newest = records.last().expect("a committed record").len();
            let full = oram.crash_stats().full_seals > fulls;
            fulls = oram.crash_stats().full_seals;
            seen.push((full, newest));
        });
        assert_eq!(oram.crash_stats().early_full_seals, 0);
        seen
    };
    let mut uniform = Xoshiro256::seed_from(WORKLOAD_SEED);
    let mut hot = Xoshiro256::seed_from(WORKLOAD_SEED + 1);
    let a = lengths(Box::new(move || uniform.next_below(1 << 16)));
    let b = lengths(Box::new(move || 4_096 + hot.next_below(16)));
    assert_eq!(a, b);
    let fulls: Vec<usize> = (0..a.len()).filter(|&i| a[i].0).collect();
    assert_eq!(fulls, (63..a.len()).step_by(64).collect::<Vec<_>>());
    let mut sizes: Vec<usize> = a.iter().map(|r| r.1).collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert_eq!(
        sizes.len(),
        2,
        "one Delta size and one Full size: {sizes:?}"
    );
}

/// What reaches the journal area is ciphertext: on a crowded tree whose
/// stash holds written blocks at most commits, no sealed record ever
/// shows a run of the payload byte.
#[test]
fn sealed_records_never_show_a_stashed_payload() {
    let cfg = OramConfig {
        z: 2,
        crash: Some(CrashConfig::at(KillPoint::MidFlip, u64::MAX)),
        ..OramConfig::small_for_tests(64)
    };
    let payload = vec![0xAB; cfg.timing.block_bytes as usize];
    let mut oram = PathOram::new(cfg, ORAM_SEED);
    let mut rng = Xoshiro256::seed_from(WORKLOAD_SEED);
    let mut stashed_payloads = 0;
    for _ in 0..500 {
        oram.try_write_block(BlockAddr(rng.next_below(64)), &payload)
            .unwrap();
        stashed_payloads += oram.stash().len();
        for record in oram.storage().expect("payloads on").checkpoint_records() {
            assert!(
                !record.windows(16).any(|w| w == &payload[..16]),
                "a payload is readable in the journal area"
            );
        }
    }
    assert!(
        stashed_payloads > 50,
        "the stash was mostly empty: {stashed_payloads}"
    );
}
