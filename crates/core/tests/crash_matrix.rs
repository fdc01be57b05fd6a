//! The crash × scheme matrix: a crash that rolls the backend back must
//! be invisible to the scheme layer too — its counters, its merged-block
//! gauge and its prefetch / hit bits sit outside the backend's
//! transaction.

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
    free
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
/// had merged (its retry merges again, so the trace holds one merge event
/// more than the ledger): the gauge that merge moved is rolled back with
/// the counters, so the run ends on the crash-free partition.
#[test]
fn a_rolled_back_merge_leaves_the_partition_gauge_as_it_was() {
    let scheme = SchemeConfig::dynamic(2);
    let free = crash_free(&scheme);
    assert_eq!(free.merge_events, free.scheme.merges);
    let got = (1..=400)
        .map(|crossing| {
            run_cell(
                scheme.clone(),
                CrashConfig::at(KillPoint::WriteBack, crossing),
            )
        })
        .find(|cell| cell.merge_events > cell.scheme.merges)
        .expect("some write-back kill lands on a merging access");
    assert_eq!(got.crash.rollbacks, 1);
    assert_eq!(got.scheme, free.scheme);
    assert_eq!(got.merged_blocks, free.merged_blocks);
    assert_eq!(got.state_digest, free.state_digest);
}

/// A kill after the epoch flip is replayed, not retried: the access
/// committed, keeps its scheme-layer edits and delivers only the demand
/// fill, so the run is not the crash-free one — but it is consistent and
/// every request is still counted once.
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
            assert_eq!(got.scheme.demand_accesses, got.reads + got.writes, "{cell}");
        }
    }
}
