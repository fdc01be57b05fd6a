//! Behavior-identity goldens for the allocation-free hot path.
//!
//! The hot-path optimizations (reusable path scratch, counting-bucket
//! write-back, wide stream-cipher XOR) must
//! not change *what* the ORAM does — only how fast. These tests replay
//! the fixed-seed workload from the shared `common` fixture and compare
//! every observable of the run against goldens captured on the seed
//! implementation: the stats counters, the stash-occupancy histogram,
//! the physical access trace, and the stash peak. Any change to path
//! selection, eviction order, or byte accounting shows up as a hash
//! mismatch here.

mod common;

use common::{
    assert_golden, golden_config, replay, replay_cfg, replay_observed, RunDigest, GOLDEN_OPAQUE,
    GOLDEN_PAYLOADS,
};
use proram_obs::Obs;
use proram_oram::FaultConfig;

#[test]
fn golden_run_with_payloads() {
    assert_golden(&replay(true), &GOLDEN_PAYLOADS);
}

#[test]
fn golden_run_without_payloads() {
    assert_golden(&replay(false), &GOLDEN_OPAQUE);
}

/// A structurally present but zero-rate fault injector must leave every
/// golden observable untouched: the injector draws from its own RNG, so
/// installing it cannot perturb path selection, eviction, byte
/// accounting, or the adversary-visible trace.
#[test]
fn golden_run_with_silent_fault_injector() {
    let cfg = golden_config(true)
        .to_builder()
        .fault(FaultConfig::silent(0xDEAD))
        .build()
        .expect("valid golden configuration");
    assert_golden(&replay_cfg(cfg), &GOLDEN_PAYLOADS);
}

/// Attaching a ring changes nothing the run does: detached, or with a
/// zero-capacity ring that builds and drops every event, the golden run
/// digests like the retaining ring's run in everything but the trace,
/// which only a retaining ring holds.
#[test]
fn a_ring_changes_nothing_but_what_it_retains() {
    let golden = replay(true);
    for obs in [Obs::disabled(), Obs::ring(0)] {
        let d = replay_observed(golden_config(true), obs);
        assert_eq!(d.trace_events, 0);
        assert_eq!(
            RunDigest {
                trace_hash: golden.trace_hash,
                trace_events: golden.trace_events,
                trace_dropped: golden.trace_dropped,
                ..d
            },
            golden
        );
    }
}
