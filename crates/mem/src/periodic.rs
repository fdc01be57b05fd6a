//! Timing-channel protection via periodic memory accesses.
//!
//! Section 2.5 of the paper: "periodic ORAM accesses are needed to protect
//! the timing channel. ... we use `O_int` as the public time interval
//! between two consecutive ORAM accesses. ... If there is no pending memory
//! request when an ORAM access needs to happen due to periodicity, a dummy
//! access will be issued." Section 5.6 evaluates the schemes under this
//! discipline with `O_int = 100` cycles.
//!
//! [`Periodic`] wraps any [`MemoryBackend`]: real requests start only on
//! multiples of `O_int`, and every periodic slot that passes without a
//! pending request triggers one dummy access on the inner backend (which,
//! for ORAM, is a background eviction that keeps mutating the stash —
//! important for super-block behaviour).
//!
//! `O_int` is picked from a public ladder. One rung is the paper's fixed
//! interval. Several rungs are the epoch scheme of Fletcher et al. \[9\],
//! which the paper names as the alternative "if one is willing to leak a
//! few bits": every `EPOCH_REQUESTS` demand requests the wrapper publicly
//! moves at most one rung, down when the epoch's slots were busy and up
//! when they idled. Each epoch boundary is one adversary-visible choice,
//! counted in [`BackendStats::interval_epochs`]; [`leaked_bits`] turns that
//! count into the leakage bound. With one rung a boundary cannot move the
//! interval and leaks nothing.

use crate::backend::{AccessOutcome, BackendStats, CacheProbe, MemoryBackend};
use crate::request::{Cycle, MemRequest};

/// Demand requests per epoch: the ladder's decision granularity.
const EPOCH_REQUESTS: u64 = 256;

/// Fraction of an epoch's slots that should carry a real request. Above
/// it the interval moves down a rung (more bandwidth); below half of it
/// the interval moves up a rung (fewer dummies).
const TARGET_UTILIZATION: f64 = 0.5;

/// The five-rung `O_int` ladder of the adaptive timing-protection runs.
pub const ADAPTIVE_LADDER: [Cycle; 5] = [100, 200, 400, 800, 1600];

/// Upper bound on the bits an `O_int` ladder of `rungs` leaks over
/// `interval_epochs` public epoch boundaries: one choice among `rungs`
/// per boundary. Zero for a one-rung (fixed) ladder.
pub fn leaked_bits(interval_epochs: u64, rungs: usize) -> f64 {
    interval_epochs as f64 * (rungs as f64).log2()
}

/// A backend wrapper that starts accesses only on multiples of a public
/// interval `O_int`, taken from an ascending ladder.
///
/// # Examples
///
/// ```
/// use proram_mem::{BlockAddr, Dram, DramConfig, MemRequest, MemoryBackend, NoProbe, Periodic};
///
/// let dram = Dram::new(DramConfig::default());
/// let mut periodic = Periodic::new(dram, &[100]);
/// let o = periodic.access(42, MemRequest::read(BlockAddr(1)), &NoProbe);
/// // The access could not start before cycle 100 (the next slot).
/// assert!(o.complete_at >= 200);
/// ```
#[derive(Debug, Clone)]
pub struct Periodic<B> {
    inner: B,
    ladder: Vec<Cycle>,
    /// Index of the rung in force.
    rung: usize,
    /// Time the current (or last) access finishes on the inner backend.
    next_issue: Cycle,
    /// Demand requests served in the current epoch.
    epoch_demand: u64,
    epoch_start: Cycle,
    /// Epoch boundaries crossed so far.
    epochs: u64,
    label: String,
}

impl<B: MemoryBackend> Periodic<B> {
    /// Wraps `inner` so accesses begin only at multiples of the interval
    /// in force, starting at the ladder's middle rung. A one-rung ladder
    /// is a fixed `O_int`; the label ends in `_intvl` for one rung and
    /// `_adintvl` for more.
    ///
    /// # Panics
    ///
    /// Panics if the ladder is empty, has a zero rung or is not strictly
    /// ascending.
    pub fn new(inner: B, ladder: &[Cycle]) -> Self {
        assert!(
            ladder.first().is_some_and(|&first| first > 0) && ladder.is_sorted_by(|a, b| a < b),
            "O_int ladder {ladder:?} must be non-empty, positive and strictly ascending"
        );
        let suffix = if ladder.len() == 1 {
            "intvl"
        } else {
            "adintvl"
        };
        let label = format!("{}_{suffix}", inner.label());
        Periodic {
            inner,
            ladder: ladder.to_vec(),
            rung: ladder.len() / 2,
            next_issue: 0,
            epoch_demand: 0,
            epoch_start: 0,
            epochs: 0,
            label,
        }
    }

    /// The public access interval `O_int` in force.
    pub fn interval(&self) -> Cycle {
        self.ladder[self.rung]
    }

    fn round_up(&self, t: Cycle) -> Cycle {
        let interval = self.interval();
        t.div_ceil(interval) * interval
    }

    /// Fills periodic slots with dummy accesses up to (not including) the
    /// slot at which a real request issued at `now` would start.
    fn drain_dummies_until(&mut self, now: Cycle) {
        // The memory resource performs an access every time it is free and
        // a periodic slot arrives, whether or not a real request is
        // pending. Replay the dummy accesses that must have happened while
        // the processor was not asking for memory.
        loop {
            let slot = self.round_up(self.next_issue.max(self.inner.free_at()));
            // A dummy happens in this slot only if it starts strictly
            // before the demand request could: the demand claims the first
            // slot at or after `now`.
            if slot >= self.round_up(now.max(self.next_issue)) {
                break;
            }
            let done = self.inner.dummy_access(slot);
            self.next_issue = done.max(slot + self.interval());
        }
    }

    /// Closes the epoch at `now`: compares the slot utilization it
    /// achieved against the target and moves at most one rung. The
    /// choice is a public function of public information only.
    fn rotate_epoch(&mut self, now: Cycle) {
        let elapsed = now.saturating_sub(self.epoch_start).max(1);
        let slots = (elapsed / self.interval()).max(1);
        let utilization = self.epoch_demand as f64 / slots as f64;
        if utilization > TARGET_UTILIZATION && self.rung > 0 {
            self.rung -= 1; // busy: speed up
        } else if utilization < TARGET_UTILIZATION / 2.0 && self.rung + 1 < self.ladder.len() {
            self.rung += 1; // idle: slow down, save dummies
        }
        self.epochs += 1;
        self.epoch_demand = 0;
        self.epoch_start = now;
    }
}

impl<B: MemoryBackend> MemoryBackend for Periodic<B> {
    fn access(&mut self, now: Cycle, req: MemRequest, llc: &dyn CacheProbe) -> AccessOutcome {
        self.drain_dummies_until(now);
        let slot = self.round_up(now.max(self.next_issue).max(self.inner.free_at()));
        let outcome = self.inner.access(slot, req, llc);
        self.next_issue = outcome.complete_at.max(slot + self.interval());
        self.epoch_demand += 1;
        if self.epoch_demand == EPOCH_REQUESTS {
            self.rotate_epoch(outcome.complete_at);
        }
        outcome
    }

    fn dummy_access(&mut self, now: Cycle) -> Cycle {
        let slot = self.round_up(now.max(self.next_issue).max(self.inner.free_at()));
        let done = self.inner.dummy_access(slot);
        self.next_issue = done.max(slot + self.interval());
        done
    }

    fn free_at(&self) -> Cycle {
        self.next_issue.max(self.inner.free_at())
    }

    fn note_llc_hit(&mut self, block: crate::BlockAddr) {
        self.inner.note_llc_hit(block);
    }

    fn note_llc_eviction(&mut self, block: crate::BlockAddr) {
        self.inner.note_llc_eviction(block);
    }

    /// Issues the dummies of every slot that starts before `now`: the
    /// idle tail of a run, which no later demand access would replay.
    fn idle_until(&mut self, now: Cycle) {
        self.drain_dummies_until(now);
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            interval_epochs: self.epochs,
            ..self.inner.stats()
        }
    }

    fn merged_fraction(&self) -> f64 {
        self.inner.merged_fraction()
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn attach_obs(&mut self, obs: proram_obs::Obs) {
        self.inner.attach_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NoProbe;
    use crate::dram::{Dram, DramConfig};
    use crate::request::BlockAddr;

    fn periodic_dram(interval: Cycle) -> Periodic<Dram> {
        Periodic::new(Dram::new(DramConfig::default()), &[interval])
    }

    fn laddered_dram(ladder: &[Cycle]) -> Periodic<Dram> {
        Periodic::new(Dram::new(DramConfig::default()), ladder)
    }

    /// Back-to-back requests from cycle 0, each issued at the previous
    /// completion, or after an idle gap of `gap` cycles.
    fn drive(p: &mut Periodic<Dram>, requests: u64, gap: Cycle) {
        let mut now = 0;
        for i in 0..requests {
            now += gap;
            now = p
                .access(now, MemRequest::read(BlockAddr(i)), &NoProbe)
                .complete_at;
        }
    }

    #[test]
    fn access_starts_on_slot_boundary() {
        let mut p = periodic_dram(100);
        let o = p.access(42, MemRequest::read(BlockAddr(0)), &NoProbe);
        // The controller is strictly periodic from cycle 0: a dummy fires in
        // slot 0 (no request was pending) and finishes at 108, so the demand
        // claims the next reachable slot, 200, completing at 308.
        assert_eq!(o.complete_at, 308);
        assert_eq!(p.stats().dummy_accesses, 1);
    }

    #[test]
    fn access_behind_in_flight_dummy_waits_for_next_slot() {
        let mut p = periodic_dram(100);
        let o = p.access(100, MemRequest::read(BlockAddr(0)), &NoProbe);
        // Slot 0's dummy is still in flight (finishes at 108); the demand
        // starts at slot 200.
        assert_eq!(o.complete_at, 308);
    }

    #[test]
    fn first_access_at_cycle_zero_needs_no_dummy() {
        let mut p = periodic_dram(100);
        let o = p.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        assert_eq!(o.complete_at, 108);
        assert_eq!(p.stats().dummy_accesses, 0);
    }

    /// Within an epoch the ladder is a plain fixed interval: a long
    /// compute phase is filled with dummies at either.
    #[test]
    fn idle_gaps_filled_with_dummies() {
        for (ladder, min_dummies) in [(&[100][..], 40), (&ADAPTIVE_LADDER[..], 10)] {
            let mut p = laddered_dram(ladder);
            p.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
            // Long compute phase: cycle 0..10_000. The memory must have
            // kept issuing dummy accesses meanwhile.
            p.access(10_000, MemRequest::read(BlockAddr(1)), &NoProbe);
            // Each dummy takes 108 cycles, so at O_int = 100 dummies land
            // on every other slot: ~49 of them in 10_000 cycles; at the
            // ladder's middle rung, 400, one per slot: ~24.
            let s = p.stats();
            assert!(s.dummy_accesses > min_dummies, "{ladder:?}: {s:?}");
            assert_eq!(s.demand_accesses, 2);
        }
    }

    /// Idling up to a cycle issues the dummies the next access would
    /// have replayed, and only those: a later access completes where it
    /// would have, behind the same number of dummies.
    #[test]
    fn idling_issues_the_dummies_the_next_access_would_replay() {
        let mut idled = periodic_dram(100);
        let mut plain = periodic_dram(100);
        idled.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        plain.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        idled.idle_until(5_000);
        // Slots 200, 400, ..., 4 800 carry a dummy each; 5 000 is not
        // before the cycle idled to.
        assert_eq!(idled.stats().dummy_accesses, 24);
        let a = idled.access(10_000, MemRequest::read(BlockAddr(1)), &NoProbe);
        let b = plain.access(10_000, MemRequest::read(BlockAddr(1)), &NoProbe);
        assert_eq!(a, b);
        assert_eq!(idled.stats(), plain.stats());
    }

    #[test]
    fn no_dummies_under_back_to_back_load() {
        let mut p = periodic_dram(100);
        drive(&mut p, 50, 0);
        assert_eq!(p.stats().dummy_accesses, 0);
    }

    #[test]
    fn starts_are_strictly_periodic() {
        // With O_int larger than the access time, completions must land at
        // slot + access_time exactly.
        let mut p = periodic_dram(500);
        let a = p.access(1, MemRequest::read(BlockAddr(0)), &NoProbe);
        assert_eq!(a.complete_at, 608); // slot 500
        let b = p.access(a.complete_at, MemRequest::read(BlockAddr(1)), &NoProbe);
        assert_eq!(b.complete_at, 1108); // slot 1000
    }

    /// A ladder starts at its middle rung, with no epoch crossed; the
    /// label tells a fixed interval from a ladder.
    #[test]
    fn interval_accessors() {
        for (ladder, interval, label) in [
            (&[100][..], 100, "dram_intvl"),
            (&[100, 400][..], 400, "dram_adintvl"),
            (&ADAPTIVE_LADDER[..], 400, "dram_adintvl"),
        ] {
            let p = laddered_dram(ladder);
            assert_eq!(p.interval(), interval);
            assert_eq!(p.label(), label);
            assert_eq!(p.stats().interval_epochs, 0);
        }
    }

    #[test]
    #[should_panic(expected = "must be non-empty, positive and strictly ascending")]
    fn zero_interval_panics() {
        periodic_dram(0);
    }

    #[test]
    #[should_panic(expected = "must be non-empty, positive and strictly ascending")]
    fn unsorted_ladder_rejected() {
        laddered_dram(&[200, 100]);
    }

    #[test]
    fn explicit_dummy_respects_slots() {
        let mut p = periodic_dram(100);
        let done = p.dummy_access(42);
        assert_eq!(done, 208);
        assert_eq!(p.stats().dummy_accesses, 1);
    }

    /// Back-to-back traffic fills more than half the slots, so the
    /// ladder moves down; a one-rung ladder crosses the same epochs and
    /// stays put.
    #[test]
    fn busy_traffic_shrinks_the_interval() {
        let mut p = laddered_dram(&ADAPTIVE_LADDER);
        drive(&mut p, 600, 0);
        assert!(p.interval() < 400, "interval should shrink under load");
        assert_eq!(p.stats().interval_epochs, 2);
        let mut fixed = periodic_dram(400);
        drive(&mut fixed, 600, 0);
        assert_eq!(fixed.interval(), 400);
        assert_eq!(fixed.stats().interval_epochs, 2);
    }

    #[test]
    fn idle_traffic_grows_the_interval() {
        let mut p = laddered_dram(&ADAPTIVE_LADDER);
        drive(&mut p, 600, 50_000);
        assert!(p.interval() > 400, "interval should grow when idle");
        let mut fixed = periodic_dram(400);
        drive(&mut fixed, 600, 50_000);
        assert_eq!(fixed.interval(), 400);
    }

    /// The leak is one ladder choice per epoch boundary, read off the
    /// ledger: nothing for a fixed interval.
    #[test]
    fn leakage_grows_with_epochs_only() {
        let mut p = laddered_dram(&ADAPTIVE_LADDER);
        drive(&mut p, 1100, 0);
        let epochs = p.stats().interval_epochs;
        assert_eq!(epochs, 1100 / EPOCH_REQUESTS);
        let expected = epochs as f64 * 5f64.log2();
        assert!((leaked_bits(epochs, ADAPTIVE_LADDER.len()) - expected).abs() < 1e-9);
        assert_eq!(leaked_bits(epochs, 1), 0.0);
        assert_eq!(leaked_bits(0, ADAPTIVE_LADDER.len()), 0.0);
    }
}
