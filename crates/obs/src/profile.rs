//! Per-stage cycle accumulation.

use crate::event::StageKind;

/// Accumulated simulated cycles and entry counts per [`StageKind`].
///
/// This is the destination of [`Obs::profile`](crate::Obs::profile):
/// each record adds to one stage's cycle total and bumps its entry count,
/// so a finished run can report "where the cycles went" and "how many
/// spans landed there" without retaining per-span events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    cycles: [u64; StageKind::COUNT],
    entries: [u64; StageKind::COUNT],
}

impl StageProfile {
    /// Attributes `cycles` to `stage` (counts the entry even when the
    /// span was zero cycles).
    pub fn record(&mut self, stage: StageKind, cycles: u64) {
        self.cycles[stage.index()] += cycles;
        self.entries[stage.index()] += 1;
    }

    /// Total cycles attributed to `stage`.
    pub fn cycles(&self, stage: StageKind) -> u64 {
        self.cycles[stage.index()]
    }

    /// Number of spans attributed to `stage`.
    pub fn entries(&self, stage: StageKind) -> u64 {
        self.entries[stage.index()]
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|&e| e == 0)
    }

    /// Iterates `(stage, cycles, entries)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (StageKind, u64, u64)> + '_ {
        StageKind::ALL
            .iter()
            .map(|&s| (s, self.cycles(s), self.entries(s)))
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &StageProfile) {
        for s in StageKind::ALL {
            self.cycles[s.index()] += other.cycles[s.index()];
            self.entries[s.index()] += other.entries[s.index()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_stage() {
        let mut p = StageProfile::default();
        assert!(p.is_empty());
        p.record(StageKind::PathFetch, 100);
        p.record(StageKind::PathFetch, 50);
        p.record(StageKind::Evict, 0);
        assert_eq!(p.cycles(StageKind::PathFetch), 150);
        assert_eq!(p.entries(StageKind::PathFetch), 2);
        assert_eq!(p.cycles(StageKind::Evict), 0);
        assert_eq!(p.entries(StageKind::Evict), 1);
        assert!(!p.is_empty());
    }

    #[test]
    fn merge_folds_both_arrays() {
        let mut a = StageProfile::default();
        let mut b = StageProfile::default();
        a.record(StageKind::Backoff, 5);
        b.record(StageKind::Backoff, 7);
        a.merge(&b);
        assert_eq!(a.cycles(StageKind::Backoff), 12);
        assert_eq!(a.entries(StageKind::Backoff), 2);
    }

    #[test]
    fn iter_walks_pipeline_order() {
        let p = StageProfile::default();
        let stages: Vec<_> = p.iter().map(|(s, _, _)| s).collect();
        assert_eq!(stages, StageKind::ALL.to_vec());
    }
}
