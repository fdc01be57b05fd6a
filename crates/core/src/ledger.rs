//! The scheme layer's ledger: what [`crate::SuperBlockOram`] records about
//! the partition and its prefetches, as one value that commits or rolls
//! back with the access that edits it.

use proram_mem::BackendStats;
use proram_obs::{Obs, ObsEvent};
use proram_stats::FxHashMap;

/// The prefetch and hit bits, the six scheme-owned counters, the
/// merged-block gauge and the merge / break events of the open attempt.
///
/// An attempt runs between [`SchemeLedger::begin`] and either
/// [`SchemeLedger::commit`] or [`SchemeLedger::roll_back`], beside the
/// backend's commit transaction (DESIGN.md section 15). The counters and
/// the gauge are `Copy`, so `begin` copies them. The map is edited through
/// [`SchemeLedger::take`] and [`SchemeLedger::set`], which log each key's
/// prior value — the shape of the backend's undo journal — so an attempt
/// costs O(its edits), not O(ledger). Events wait in a buffer until the
/// attempt commits; a rollback drops them with the edits. Between
/// attempts the LLC's hit reports edit the bits directly
/// ([`SchemeLedger::mark_hit`]): no transaction is open to undo them.
#[derive(Debug, Clone, Default)]
pub(crate) struct SchemeLedger {
    /// A key is a block delivered as a prefetch whose fate is not yet
    /// decided (the prefetch bit), its value whether it has been used
    /// since (the hit bit).
    prefetched: FxHashMap<u64, bool>,
    /// `demand_accesses`, `prefetch_requests`, `prefetch_hits`,
    /// `prefetch_misses`, `merges` and `breaks`; the rest stay zero.
    pub(crate) stats: BackendStats,
    /// Data blocks in a super block of two or more: a gauge, so it stays
    /// out of `BackendStats`, whose warm-up snapshot is subtracted field
    /// by field.
    pub(crate) merged_blocks: u64,
    /// `stats` and `merged_blocks` as the open attempt found them.
    at_begin: (BackendStats, u64),
    /// Each map edit of the open attempt: the key and its prior value.
    undo: Vec<(u64, Option<bool>)>,
    /// The open attempt's events, filled only while the sink is enabled.
    events: Vec<ObsEvent>,
}

impl SchemeLedger {
    /// Opens an attempt.
    pub(crate) fn begin(&mut self) {
        self.at_begin = (self.stats, self.merged_blocks);
        self.undo.clear();
        self.events.clear();
    }

    /// Clears `block`'s prefetch bit and returns its hit bit, if the bit
    /// was set.
    pub(crate) fn take(&mut self, block: u64) -> Option<bool> {
        let prior = self.prefetched.remove(&block);
        if prior.is_some() {
            self.undo.push((block, prior));
        }
        prior
    }

    /// Sets `block`'s prefetch bit and clears its hit bit.
    pub(crate) fn set(&mut self, block: u64) {
        let prior = self.prefetched.insert(block, false);
        self.undo.push((block, prior));
    }

    /// `block`'s hit bit, if its prefetch bit is set.
    pub(crate) fn get(&self, block: u64) -> Option<bool> {
        self.prefetched.get(&block).copied()
    }

    /// Sets the hit bit of a prefetched `block`; `true` if it was clear.
    pub(crate) fn mark_hit(&mut self, block: u64) -> bool {
        self.prefetched
            .get_mut(&block)
            .is_some_and(|hit| !std::mem::replace(hit, true))
    }

    /// Every block whose prefetch bit is set, with its hit bit.
    pub(crate) fn bits(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.prefetched.iter().map(|(&block, &hit)| (block, hit))
    }

    /// Buffers the event `event` builds until the attempt commits; builds
    /// nothing while `obs` is disabled.
    pub(crate) fn emit(&mut self, obs: &Obs, event: impl FnOnce() -> ObsEvent) {
        if obs.is_enabled() {
            self.events.push(event());
        }
    }

    /// Ends the attempt keeping its edits, and releases its events to
    /// `obs`.
    pub(crate) fn commit(&mut self, obs: &Obs) {
        self.undo.clear();
        for e in self.events.drain(..) {
            obs.emit(|| e);
        }
    }

    /// Ends the attempt undoing its edits — the map's in reverse, since
    /// one attempt can take a key and set it again — and drops its events.
    pub(crate) fn roll_back(&mut self) {
        for (block, prior) in self.undo.drain(..).rev() {
            match prior {
                Some(hit) => self.prefetched.insert(block, hit),
                None => self.prefetched.remove(&block),
            };
        }
        (self.stats, self.merged_blocks) = self.at_begin;
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merge_event(base: u64) -> ObsEvent {
        ObsEvent::SuperBlockMerge {
            base,
            size: 2,
            counter: 0,
            threshold: 0,
        }
    }

    fn sorted(ledger: &SchemeLedger) -> Vec<(u64, bool)> {
        let mut bits: Vec<_> = ledger.bits().collect();
        bits.sort_unstable();
        bits
    }

    #[test]
    fn a_rollback_restores_what_the_attempt_found() {
        let obs = Obs::ring(16);
        let mut ledger = SchemeLedger::default();
        ledger.set(1);
        ledger.set(2);
        ledger.mark_hit(2);
        ledger.stats.merges = 3;
        ledger.merged_blocks = 4;
        ledger.commit(&obs);
        let before = sorted(&ledger);

        ledger.begin();
        assert_eq!(ledger.take(1), Some(false));
        assert_eq!(ledger.take(7), None);
        ledger.set(1); // taken, then set again
        ledger.set(2); // hit bit cleared
        ledger.set(5); // new
        ledger.stats.merges += 1;
        ledger.merged_blocks += 2;
        ledger.emit(&obs, || merge_event(1));
        ledger.roll_back();

        assert_eq!(sorted(&ledger), before);
        assert_eq!((ledger.stats.merges, ledger.merged_blocks), (3, 4));
        ledger.commit(&obs);
        assert!(obs.events().is_empty(), "a rolled-back event leaked");
    }

    #[test]
    fn a_commit_keeps_the_edits_and_releases_the_events_in_order() {
        let obs = Obs::ring(16);
        let mut ledger = SchemeLedger::default();
        ledger.begin();
        ledger.set(9);
        ledger.emit(&Obs::disabled(), || unreachable!("built while disabled"));
        ledger.emit(&obs, || merge_event(1));
        ledger.emit(&obs, || merge_event(2));
        assert!(obs.events().is_empty(), "released before the commit");
        ledger.commit(&obs);
        assert_eq!(obs.events(), [merge_event(1), merge_event(2)]);
        assert_eq!(sorted(&ledger), [(9, false)]);
        assert!(ledger.mark_hit(9));
        assert!(!ledger.mark_hit(9), "the hit bit is already set");
        assert!(!ledger.mark_hit(8), "no prefetch bit");
        assert_eq!(ledger.get(9), Some(true));
    }
}
