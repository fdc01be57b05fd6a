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
//!   as `Replayed` is what the next read returns, at every kill point.

use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{
    CrashConfig, CrashStats, KillPoint, OramConfig, OramError, PathOram, RecoveryMode,
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
    let mut rng = Xoshiro256::seed_from(WORKLOAD_SEED);
    (0..ACCESSES)
        .map(|_| BlockAddr(rng.next_below(BLOCKS)))
        .collect()
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

/// With a nonzero treetop, checkpoints carry the on-chip buckets: a
/// pre-flip kill rolls the treetop back to its pre-access contents
/// (checkpoint A), a post-flip kill replays the committed ones
/// (checkpoint B), and either way the recovered state matches the
/// crash-free run under the same treetop exactly.
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
    oram.attach_obs_handle(Obs::ring(4096));
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
