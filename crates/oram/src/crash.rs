//! Deterministic crash-point injection.
//!
//! The fault layer ([`crate::fault`]) models an adversarial or unreliable
//! *medium*: bytes flip, writes tear, stale images replay. This module
//! models a dying *controller process*: the access is killed at an exact,
//! enumerable point and everything volatile is presumed lost. Each
//! [`KillPoint`] (defined in `proram-obs`, whose `CrashInject` event
//! carries it) names one such point; arming a [`CrashConfig`] makes the
//! Nth crossing of that point unwind the access as
//! [`crate::OramError::Crashed`], after which the harness runs
//! [`crate::PathOram::recover`] to roll back or replay the store's undo
//! journal and restore the sealed checkpoint.
//!
//! Injection is countdown-based, not rate-based, so a sweep over
//! `KillPoint::ALL` × crossing indices enumerates every distinct crash
//! schedule deterministically — the property the crash-recovery test
//! suite relies on.

pub use proram_obs::KillPoint;
use std::fmt;

/// Arms deterministic crash injection on a controller
/// ([`crate::config::OramConfig::crash`]).
///
/// The injector fires exactly once, on the `crossing`-th crossing
/// (1-based) of `point`, then disarms — so the post-recovery retry of
/// the killed access runs to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashConfig {
    /// The kill point to arm.
    pub point: KillPoint,
    /// Which crossing of the point fires (1-based).
    pub crossing: u64,
}

impl CrashConfig {
    /// Arms the first crossing of `point`.
    pub fn first(point: KillPoint) -> CrashConfig {
        CrashConfig { point, crossing: 1 }
    }

    /// Arms the `crossing`-th crossing (1-based) of `point`.
    pub fn at(point: KillPoint, crossing: u64) -> CrashConfig {
        CrashConfig { point, crossing }
    }

    /// Validates the configuration (crossing indices are 1-based).
    pub fn validate(&self) -> Result<(), String> {
        if self.crossing == 0 {
            return Err("crash crossing is 1-based and must be positive".into());
        }
        Ok(())
    }
}

/// The live countdown for an armed [`CrashConfig`]. The store holds it
/// and drops it when it fires, so it fires at most once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CrashArm {
    point: KillPoint,
    /// Crossings left before the kill fires.
    remaining: u64,
}

impl CrashArm {
    pub(crate) fn new(cfg: CrashConfig) -> CrashArm {
        CrashArm {
            point: cfg.point,
            remaining: cfg.crossing,
        }
    }

    /// Records one crossing of `point`; returns `true` if the kill
    /// fires now.
    pub(crate) fn cross(&mut self, point: KillPoint) -> bool {
        if point != self.point {
            return false;
        }
        self.remaining -= 1;
        self.remaining == 0
    }
}

/// How [`crate::PathOram::recover`] resolved the interrupted access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RecoveryMode {
    /// No journal was pending; the store was already consistent.
    #[default]
    Clean,
    /// The crash struck before the epoch flip: every journaled bucket
    /// was restored to its pre-transaction image and the pre-access
    /// checkpoint was adopted.
    RolledBack,
    /// The crash struck after the epoch flip: the committed image was
    /// kept and the post-access checkpoint was adopted.
    Replayed,
}

impl RecoveryMode {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::Clean => "clean",
            RecoveryMode::RolledBack => "rolled_back",
            RecoveryMode::Replayed => "replayed",
        }
    }
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one [`crate::PathOram::recover`] call did; the default is a
/// [`RecoveryMode::Clean`] recovery that did nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Rollback, replay, or nothing to do.
    pub mode: RecoveryMode,
    /// Undo entries the journal held.
    pub journal_entries: usize,
    /// Store buckets restored from undo entries (rollback only).
    pub buckets_restored: usize,
    /// Tree buckets re-read and re-authenticated from the store image.
    pub buckets_reverified: usize,
    /// Modeled recovery latency in cycles (journal restore plus the
    /// re-verification reads, charged at the path-fetch byte rate).
    pub cycles: u64,
}

/// Cumulative crash/recovery counters for a controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Injected kills that fired.
    pub crashes_injected: u64,
    /// Recoveries that rolled the journal back.
    pub rollbacks: u64,
    /// Recoveries that replayed (kept) the committed image.
    pub replays: u64,
    /// Recoveries that found a consistent store (nothing pending).
    pub clean_recoveries: u64,
    /// `Full` checkpoint records sealed: one at construction, one in
    /// place of the delta every 64th commit, one whenever volatile state
    /// moved outside a transaction, plus the early ones below.
    pub full_seals: u64,
    /// `Delta` checkpoint records sealed (one per ordinary commit).
    pub delta_seals: u64,
    /// Commits whose delta did not fit the fixed record size and sealed a
    /// `Full` instead (counted in `full_seals` too) — the one way a
    /// record's length depends on what an access did.
    pub early_full_seals: u64,
    /// Total sealed checkpoint bytes written to the journal area.
    pub checkpoint_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_crossing_rejected() {
        assert!(CrashConfig::at(KillPoint::MidFlip, 0).validate().is_err());
        assert!(CrashConfig::first(KillPoint::MidFlip).validate().is_ok());
    }
}
