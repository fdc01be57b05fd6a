//! What one ORAM access reports, and the one place it retires.
//!
//! A logical access is the five steps of paper Section 2.2 — position-map
//! resolve, path read, block claim, path write-back, background eviction —
//! run as straight-line calls into the [`crate::PathOram`] primitives,
//! either by [`PathOram::try_access_block`] or by the super-block schemes
//! in `proram-core` (which claim more than one block from the fetched
//! path). Both end in [`AccessReport::retire`], which turns the access's
//! path counts into its latency and reports the cycle split to the
//! attached observability handle as one `access_retired` event. Every
//! path — data, position-map or dummy — costs the same
//! [`crate::PathOram::path_cycles`]: path bytes over pin bandwidth, the
//! paper's one price for an access (Section 2.6).
//!
//! [`PathOram::try_access_block`]: crate::PathOram::try_access_block

use proram_mem::{AccessKind, BlockAddr};
use proram_obs::{Obs, ObsEvent};

/// Result of one logical access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessReport {
    /// Cycles the access occupied the ORAM (path transfers + overheads).
    pub latency: u64,
    /// Total tree path accesses performed (data + posmap + background).
    pub tree_accesses: u64,
    /// Position-map path accesses among them.
    pub posmap_accesses: u64,
    /// Background evictions among them.
    pub background_evictions: u64,
}

impl AccessReport {
    /// Retires one logical access to `addr`: one data path plus
    /// `posmap_accesses` position-map paths and `background_evictions`
    /// dummy paths, each charged `path_cycles`, plus the transient-retry
    /// `backoff` the injected faults incurred. A merged super-block fetch
    /// claims more blocks from one shared path, so it is still exactly one
    /// data path.
    ///
    /// An enabled `obs` receives one `access_retired` event carrying the
    /// four cycle lanes (posmap / fetch / evict / backoff), which sum to
    /// the latency.
    pub fn retire(
        obs: &Obs,
        addr: BlockAddr,
        kind: AccessKind,
        posmap_accesses: u64,
        background_evictions: u64,
        path_cycles: u64,
        backoff: u64,
    ) -> AccessReport {
        let tree_accesses = 1 + posmap_accesses + background_evictions;
        let latency = tree_accesses * path_cycles + backoff;
        obs.emit(|| ObsEvent::AccessRetired {
            addr: addr.0,
            write: kind == AccessKind::Write,
            latency,
            posmap: posmap_accesses * path_cycles,
            fetch: path_cycles,
            evict: background_evictions * path_cycles,
            backoff,
        });
        AccessReport {
            latency,
            tree_accesses,
            posmap_accesses,
            background_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_trait::OramBackend;
    use crate::config::OramConfig;
    use crate::controller::PathOram;

    #[test]
    fn attached_sink_sees_the_access_lifecycle() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        oram.attach_obs(Obs::ring(1024));
        let path = oram.path_cycles();
        for (addr, kind) in [(3, AccessKind::Read), (5, AccessKind::Write)] {
            let report = oram.try_access_block(BlockAddr(addr), kind).unwrap();
            // The access reports itself once, at retirement, with lanes
            // that sum to its latency.
            let retired: Vec<_> = oram
                .obs()
                .events()
                .into_iter()
                .filter(|e| matches!(e, ObsEvent::AccessRetired { addr: a, .. } if *a == addr))
                .collect();
            assert_eq!(
                retired,
                vec![ObsEvent::AccessRetired {
                    addr,
                    write: kind == AccessKind::Write,
                    latency: report.latency,
                    posmap: report.posmap_accesses * path,
                    fetch: path,
                    evict: report.background_evictions * path,
                    backoff: 0,
                }]
            );
            assert_eq!(report.latency, report.tree_accesses * path);
        }
    }

    #[test]
    fn detached_oram_emits_nothing() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 9);
        oram.try_access_block(BlockAddr(3), AccessKind::Read)
            .unwrap();
        assert!(!oram.obs().is_enabled());
        assert_eq!(oram.obs().event_count(), 0);
    }
}
