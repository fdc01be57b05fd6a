//! The crash × scheme matrix: a crash that rolls the backend back must
//! be invisible to the scheme layer too. Its counters, its merged-block
//! gauge, its prefetch / hit bits and its merge / break events are one
//! ledger that commits or rolls back with the access, so in every cell —
//! rolled back or replayed — the trace's merge and break events equal the
//! ledger's counts.

mod common;

use common::{run_cell, CellOutcome};
use proram_core::SchemeConfig;
use proram_oram::{CrashConfig, KillPoint};

const CROSSINGS: [u64; 3] = [5, 50, 200];

fn schemes() -> [SchemeConfig; 3] {
    [
        SchemeConfig::baseline(),
        SchemeConfig::static_scheme(2),
        SchemeConfig::dynamic(2),
    ]
}

/// Armed, never fired: what every recovered run must end equal to.
fn crash_free(scheme: &SchemeConfig) -> CellOutcome {
    let free = run_cell(
        scheme.clone(),
        CrashConfig::at(KillPoint::MidFlip, u64::MAX),
    );
    assert_eq!(free.crash.crashes_injected, 0);
    assert_eq!(free.scheme.demand_accesses, free.reads + free.writes);
    assert_trace_is_the_ledger(&free, "crash-free");
    free
}

/// One `super_block_merge` event per counted merge and one
/// `super_block_break` per counted break: a killed attempt's decisions
/// left neither.
fn assert_trace_is_the_ledger(got: &CellOutcome, cell: &str) {
    assert_eq!(got.merge_events, got.scheme.merges, "{cell}: merge events");
    assert_eq!(got.break_events, got.scheme.breaks, "{cell}: break events");
}

#[test]
fn a_rolled_back_access_leaves_no_trace_in_the_scheme_layer() {
    for scheme in schemes() {
        let free = crash_free(&scheme);
        if scheme.max_sbsize > 1 {
            let s = free.scheme;
            assert!(
                s.prefetch_hits > 0 && s.prefetch_misses > 0,
                "the stream must exercise both bits: {s:?}"
            );
            assert!(!free.ledger.is_empty(), "the ledger ends empty");
        }
        for point in [
            KillPoint::WriteBack,
            KillPoint::Evict,
            KillPoint::MidJournal,
        ] {
            for crossing in CROSSINGS {
                let cell = format!("{} x {point} x {crossing}", scheme.label());
                let got = run_cell(scheme.clone(), CrashConfig::at(point, crossing));
                assert_eq!(got.crash.crashes_injected, 1, "{cell}: never fired");
                assert_eq!(got.crash.rollbacks, 1, "{cell}");
                assert_eq!(got.unrecovered, 0, "{cell}");
                assert_trace_is_the_ledger(&got, &cell);
                assert_eq!(got.scheme, free.scheme, "{cell}");
                assert_eq!(got.merged_blocks, free.merged_blocks, "{cell}");
                assert_eq!(got.ledger, free.ledger, "{cell}");
                assert_eq!(got.ledger_trace, free.ledger_trace, "{cell}");
                assert_eq!(got.state_digest, free.state_digest, "{cell}");
                assert_eq!((got.reads, got.writes), (free.reads, free.writes), "{cell}");
            }
        }
    }
}

/// The first write-back kill under `dyn` that lands on an access which
/// had merged (its retry merges again): the gauge that merge moved is
/// rolled back with the counters and the event, so the run ends on the
/// crash-free partition with one merge event per merge.
#[test]
fn a_rolled_back_merge_leaves_the_partition_gauge_as_it_was() {
    let scheme = SchemeConfig::dynamic(2);
    let free = crash_free(&scheme);
    assert!(free.scheme.merges > 0, "the stream must merge");
    let got = (1..=400)
        .map(|crossing| {
            run_cell(
                scheme.clone(),
                CrashConfig::at(KillPoint::WriteBack, crossing),
            )
        })
        .find(|cell| cell.retry_merged)
        .expect("some write-back kill lands on a merging access");
    assert_eq!(got.crash.rollbacks, 1);
    assert_trace_is_the_ledger(&got, "the merging kill");
    assert_eq!(got.scheme, free.scheme);
    assert_eq!(got.merged_blocks, free.merged_blocks);
    assert_eq!(got.state_digest, free.state_digest);
}

/// A write-back kill under `dyn` on an access which broke a super block
/// (its retry breaks it again), found among the crossings the crash-free
/// run's breaks name: the break counter,
/// the gauge the break moved and the remap of the broken halves are
/// rolled back with the event, so the run ends on the crash-free state
/// with one break event per break.
#[test]
fn a_rolled_back_break_leaves_the_partition_gauge_as_it_was() {
    let scheme = SchemeConfig::dynamic(2);
    let free = crash_free(&scheme);
    assert!(free.scheme.breaks > 0, "the stream must break");
    let got = (free.break_paths.iter())
        .map(|&crossing| {
            run_cell(
                scheme.clone(),
                CrashConfig::at(KillPoint::WriteBack, crossing),
            )
        })
        .find(|cell| cell.retry_broke)
        .expect("some write-back kill lands on a breaking access");
    assert_eq!(got.crash.rollbacks, 1);
    assert_trace_is_the_ledger(&got, "the breaking kill");
    assert_eq!(got.scheme, free.scheme);
    assert_eq!(got.scheme.breaks, free.scheme.breaks);
    assert_eq!(got.merged_blocks, free.merged_blocks);
    assert_eq!(got.state_digest, free.state_digest, "the remap");
    assert_eq!(got.ledger, free.ledger);
}

/// A kill after the epoch flip is replayed, not retried: the access
/// committed, keeps its scheme-layer edits and events and delivers only
/// the demand fill, so the run is not the crash-free one — but it is
/// consistent, every request is still counted once, and the trace holds
/// each merge and break once.
#[test]
fn a_replayed_access_is_counted_once() {
    for scheme in schemes() {
        for crossing in CROSSINGS {
            let cell = format!("{} x mid_flip x {crossing}", scheme.label());
            let got = run_cell(
                scheme.clone(),
                CrashConfig::at(KillPoint::MidFlip, crossing),
            );
            assert_eq!(got.crash.crashes_injected, 1, "{cell}: never fired");
            assert_eq!(got.crash.replays, 1, "{cell}");
            assert_eq!(got.unrecovered, 0, "{cell}");
            assert_trace_is_the_ledger(&got, &cell);
            assert_eq!(got.scheme.demand_accesses, got.reads + got.writes, "{cell}");
        }
    }
}
