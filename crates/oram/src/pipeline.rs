//! What one ORAM access reports, and the one place it retires.
//!
//! A logical access is the five steps of paper Section 2.2 — position-map
//! resolve, path read, block claim, path write-back, background eviction —
//! run as straight-line calls into the [`crate::PathOram`] primitives,
//! either by [`PathOram::try_access_block`] or by the super-block schemes
//! in `proram-core` (which claim more than one block from the fetched
//! path). Both end in [`AccessReport::retire`], which turns the access's
//! path counts into its cycle split ([`StageCycles`]) and reports it to
//! the attached observability handle. Every path — data, position-map or
//! dummy — costs the same [`crate::PathOram::path_cycles`]: path bytes over
//! pin bandwidth, the paper's one price for an access (Section 2.6).
//!
//! [`PathOram::try_access_block`]: crate::PathOram::try_access_block

use proram_mem::{AccessKind, BlockAddr};
use proram_obs::{Obs, ObsEvent, StageKind};

/// Per-stage cycle attribution of one access; the stage totals sum to the
/// reported latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCycles {
    /// Cycles spent fetching position-map paths.
    pub posmap: u64,
    /// Cycles spent fetching the data path itself.
    pub fetch: u64,
    /// Cycles spent on background-eviction (dummy) paths.
    pub evict: u64,
    /// Transient-retry backoff charged by fault injection.
    pub backoff: u64,
}

impl StageCycles {
    /// Total cycles across all stages — equals the access latency.
    pub fn total(&self) -> u64 {
        self.posmap + self.fetch + self.evict + self.backoff
    }
}

/// Result of one logical access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// Cycles the access occupied the ORAM (path transfers + overheads).
    /// Always equals [`StageCycles::total`] of `stages`.
    pub latency: u64,
    /// Total tree path accesses performed (data + posmap + background).
    pub tree_accesses: u64,
    /// Position-map path accesses among them.
    pub posmap_accesses: u64,
    /// Background evictions among them.
    pub background_evictions: u64,
    /// Per-stage cycle attribution summing to `latency`.
    pub stages: StageCycles,
}

impl AccessReport {
    /// Retires one logical access to `addr`: one data path plus
    /// `posmap_accesses` position-map paths and `background_evictions`
    /// dummy paths, each charged `path_cycles`, plus the transient-retry
    /// `backoff` the injected faults incurred. A merged super-block fetch
    /// claims more blocks from one shared path, so it is still exactly one
    /// data path.
    ///
    /// An enabled `obs` receives `access_issued`, `access_retired` and one
    /// profile entry per cycle lane, under a single lock acquisition.
    pub fn retire(
        obs: &Obs,
        addr: BlockAddr,
        kind: AccessKind,
        posmap_accesses: u64,
        background_evictions: u64,
        path_cycles: u64,
        backoff: u64,
    ) -> AccessReport {
        let stages = StageCycles {
            posmap: posmap_accesses * path_cycles,
            fetch: path_cycles,
            evict: background_evictions * path_cycles,
            backoff,
        };
        obs.emit_profiled(|| {
            (
                [
                    ObsEvent::AccessIssued {
                        addr: addr.0,
                        write: kind == AccessKind::Write,
                    },
                    ObsEvent::AccessRetired {
                        addr: addr.0,
                        latency: stages.total(),
                        posmap: stages.posmap,
                        fetch: stages.fetch,
                        evict: stages.evict,
                        backoff: stages.backoff,
                    },
                ],
                [
                    (StageKind::ResolvePosmap, stages.posmap),
                    (StageKind::PathFetch, stages.fetch),
                    (StageKind::Evict, stages.evict),
                    (StageKind::Backoff, stages.backoff),
                ],
            )
        });
        AccessReport {
            latency: stages.total(),
            tree_accesses: 1 + posmap_accesses + background_evictions,
            posmap_accesses,
            background_evictions,
            stages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OramConfig;
    use crate::controller::PathOram;

    #[test]
    fn attached_sink_sees_the_access_lifecycle() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        oram.attach_obs_handle(Obs::ring(1024));
        let report = oram
            .try_access_block(BlockAddr(3), AccessKind::Read)
            .unwrap();
        let events = oram.obs().events();
        // The access reports itself once, at retirement: issued then
        // retired, back to back.
        let issued = events
            .iter()
            .position(|e| matches!(e, ObsEvent::AccessIssued { .. }))
            .expect("access issued");
        assert_eq!(
            events[issued],
            ObsEvent::AccessIssued {
                addr: 3,
                write: false
            }
        );
        assert_eq!(
            events[issued + 1],
            ObsEvent::AccessRetired {
                addr: 3,
                latency: report.latency,
                posmap: report.stages.posmap,
                fetch: report.stages.fetch,
                evict: report.stages.evict,
                backoff: report.stages.backoff,
            }
        );
        let lifecycle = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ObsEvent::AccessIssued { .. } | ObsEvent::AccessRetired { .. }
                )
            })
            .count();
        assert_eq!(lifecycle, 2, "one issued/retired pair per access");
        // The per-stage profile mirrors the report's attribution.
        let profile = oram.obs().profile_snapshot();
        assert_eq!(profile.cycles(StageKind::PathFetch), report.stages.fetch);
        assert_eq!(
            profile.cycles(StageKind::ResolvePosmap),
            report.stages.posmap
        );
        assert_eq!(profile.entries(StageKind::Backoff), 1);
    }

    #[test]
    fn detached_oram_emits_nothing() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        oram.try_access_block(BlockAddr(3), AccessKind::Read)
            .unwrap();
        assert!(!oram.obs().is_enabled());
        assert_eq!(oram.obs().event_count(), 0);
    }

    #[test]
    fn stage_cycles_total_sums_fields() {
        let s = StageCycles {
            posmap: 10,
            fetch: 20,
            evict: 30,
            backoff: 5,
        };
        assert_eq!(s.total(), 65);
    }
}
