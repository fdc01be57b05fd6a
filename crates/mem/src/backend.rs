//! The [`MemoryBackend`] trait connecting the cache hierarchy to main
//! memory, implemented by the DRAM model and by the ORAM controllers.

use crate::request::{BlockAddr, Cycle, MemRequest};
use proram_obs::Obs;

/// Read-only view of the last-level cache's tag array.
///
/// The PrORAM merge scheme (paper Section 4.2) probes the LLC to decide
/// whether a block's neighbor is resident: "we need to probe the LLC to
/// check if the neighbor block B' exists in the cache. Only the tag array
/// of the LLC needs to be accessed." This trait is that tag-array port.
pub trait CacheProbe {
    /// `true` if `block` is currently resident in the cache.
    fn contains(&self, block: BlockAddr) -> bool;
}

/// A probe that reports nothing resident.
///
/// Used by backends that do not need LLC information (DRAM) and by unit
/// tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoProbe;

impl CacheProbe for NoProbe {
    fn contains(&self, _block: BlockAddr) -> bool {
        false
    }
}

/// One block delivered to the LLC by a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fill {
    /// The block delivered.
    pub block: BlockAddr,
    /// `true` if the block was not the demand target (a super-block
    /// prefetch or a prefetcher fill); it enters the LLC with its prefetch
    /// bit set and hit bit clear (paper Section 4.3).
    pub prefetched: bool,
}

impl Fill {
    /// A demand fill of `block`.
    pub fn demand(block: BlockAddr) -> Self {
        Fill {
            block,
            prefetched: false,
        }
    }

    /// A prefetch fill of `block`.
    pub fn prefetch(block: BlockAddr) -> Self {
        Fill {
            block,
            prefetched: true,
        }
    }
}

/// Result of one [`MemoryBackend::access`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Absolute cycle at which the requested data is available.
    pub complete_at: Cycle,
    /// Blocks to insert into the LLC (demand block first, then any blocks
    /// prefetched alongside it).
    pub fills: Vec<Fill>,
}

/// Fault-injection, detection and recovery counters of a backend whose
/// storage sits in untrusted memory (the ORAM controllers; all-zero for
/// DRAM).
///
/// Injection counters are ground truth recorded by the fault injector
/// itself; detection/recovery counters are recorded where a read is
/// authenticated or retried. `undetected` counts injected corruptions
/// that survived a full authenticated read — the false negatives the
/// fault-sweep experiment asserts to be zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Ciphertext bit flips injected.
    pub injected_bit_flips: u64,
    /// Torn (partially applied) bucket writes injected.
    pub injected_torn_writes: u64,
    /// Dropped bucket writes injected (rollback to the previous image).
    pub injected_rollbacks: u64,
    /// Transient read-attempt failures injected.
    pub injected_transients: u64,
    /// Reads that failed authentication (corruption detected).
    pub detected_integrity: u64,
    /// Reads that authenticated but carried a stale version counter
    /// (rollback detected).
    pub detected_rollback: u64,
    /// Read retries performed for transient failures.
    pub transient_retries: u64,
    /// Extra cycles spent in retry backoff.
    pub backoff_cycles: u64,
    /// Faults survived: transient reads that succeeded on retry, crashed
    /// accesses the scheme layer recovered and retried.
    pub recovered: u64,
    /// Accesses that ended in a typed error and were served degraded by
    /// the scheme layer (every access after a controller's fail-stop).
    pub unrecovered: u64,
    /// Injected faults overwritten by a later write before any read could
    /// observe them (not detectable, and nothing to detect).
    pub masked_by_overwrite: u64,
    /// Injected corruptions that survived a full authenticated read — the
    /// false negatives; must stay zero.
    pub undetected: u64,
}

impl FaultStats {
    /// All injected faults (corruptions plus transients).
    pub fn total_injected(&self) -> u64 {
        self.injected_bit_flips
            + self.injected_torn_writes
            + self.injected_rollbacks
            + self.injected_transients
    }

    /// Corruptions injected and still observable (not masked by a later
    /// write) — the denominator of [`FaultStats::detection_rate`].
    pub fn observable_corruptions(&self) -> u64 {
        (self.injected_bit_flips + self.injected_torn_writes + self.injected_rollbacks)
            .saturating_sub(self.masked_by_overwrite)
    }

    /// Corruption detections (integrity + rollback).
    pub fn total_detected(&self) -> u64 {
        self.detected_integrity + self.detected_rollback
    }

    /// Fraction of observable injected corruptions that were detected;
    /// `None` when nothing observable was injected.
    pub fn detection_rate(&self) -> Option<f64> {
        let obs = self.observable_corruptions();
        (obs > 0).then(|| {
            let caught = obs - self.undetected;
            caught as f64 / obs as f64
        })
    }
}

impl std::ops::Add for FaultStats {
    type Output = FaultStats;

    /// Field-wise sum; aggregates injector- and scheme-side counters.
    fn add(self, rhs: FaultStats) -> FaultStats {
        FaultStats {
            injected_bit_flips: self.injected_bit_flips + rhs.injected_bit_flips,
            injected_torn_writes: self.injected_torn_writes + rhs.injected_torn_writes,
            injected_rollbacks: self.injected_rollbacks + rhs.injected_rollbacks,
            injected_transients: self.injected_transients + rhs.injected_transients,
            detected_integrity: self.detected_integrity + rhs.detected_integrity,
            detected_rollback: self.detected_rollback + rhs.detected_rollback,
            transient_retries: self.transient_retries + rhs.transient_retries,
            backoff_cycles: self.backoff_cycles + rhs.backoff_cycles,
            recovered: self.recovered + rhs.recovered,
            unrecovered: self.unrecovered + rhs.unrecovered,
            masked_by_overwrite: self.masked_by_overwrite + rhs.masked_by_overwrite,
            undetected: self.undetected + rhs.undetected,
        }
    }
}

impl std::ops::Sub for FaultStats {
    type Output = FaultStats;

    /// Field-wise difference; used for warmup-baseline subtraction.
    fn sub(self, rhs: FaultStats) -> FaultStats {
        FaultStats {
            injected_bit_flips: self.injected_bit_flips - rhs.injected_bit_flips,
            injected_torn_writes: self.injected_torn_writes - rhs.injected_torn_writes,
            injected_rollbacks: self.injected_rollbacks - rhs.injected_rollbacks,
            injected_transients: self.injected_transients - rhs.injected_transients,
            detected_integrity: self.detected_integrity - rhs.detected_integrity,
            detected_rollback: self.detected_rollback - rhs.detected_rollback,
            transient_retries: self.transient_retries - rhs.transient_retries,
            backoff_cycles: self.backoff_cycles - rhs.backoff_cycles,
            recovered: self.recovered - rhs.recovered,
            unrecovered: self.unrecovered - rhs.unrecovered,
            masked_by_overwrite: self.masked_by_overwrite - rhs.masked_by_overwrite,
            undetected: self.undetected - rhs.undetected,
        }
    }
}

/// Aggregate statistics exposed by every backend.
///
/// Fields that do not apply to a given technology are zero (e.g. DRAM has
/// no background evictions). `physical_accesses` is the quantity the paper
/// normalizes as "Norm. Memory Accesses" — proportional to memory-subsystem
/// energy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Logical demand requests served (reads + writes). DRAM leaves out
    /// stream-prefetcher requests; the super-block ORAM ignores
    /// `MemRequest::prefetch` and serves such a request as one more
    /// demand read, counted here.
    pub demand_accesses: u64,
    /// Prefetches, counted per backend: DRAM counts the
    /// stream-prefetcher requests it served; the super-block ORAM counts
    /// the super-block blocks it delivered beside a demanded block.
    pub prefetch_requests: u64,
    /// Physical memory operations, including ORAM path accesses for
    /// position maps and dummy/background-eviction accesses.
    pub physical_accesses: u64,
    /// Dummy accesses (ORAM background evictions + periodic filler).
    pub dummy_accesses: u64,
    /// ORAM position-map tree accesses (0 for DRAM).
    pub posmap_accesses: u64,
    /// Total bytes moved on the memory bus.
    pub bytes_moved: u64,
    /// Super-block / prefetcher blocks that were later used by the core.
    pub prefetch_hits: u64,
    /// Super-block / prefetcher blocks evicted or reloaded unused.
    pub prefetch_misses: u64,
    /// Cycles during which the memory resource was busy.
    pub busy_cycles: u64,
    /// Busy cycles attributable to demand-data path accesses (for DRAM,
    /// demand + prefetch transfers).
    pub data_path_cycles: u64,
    /// Busy cycles attributable to position-map path accesses (0 for
    /// DRAM).
    pub posmap_path_cycles: u64,
    /// Busy cycles attributable to dummy / background-eviction accesses.
    pub dummy_path_cycles: u64,
    /// Treetop-cache bucket hits: path buckets served from trusted
    /// on-chip memory instead of the encrypted store (0 for DRAM and
    /// for `treetop_levels = 0`).
    pub treetop_hits: u64,
    /// Bytes that never crossed the memory bus because the treetop
    /// cache absorbed them.
    pub treetop_bytes_saved: u64,
    /// Fault injection / detection / recovery counters (all-zero without
    /// fault injection).
    pub faults: FaultStats,
}

impl std::ops::Sub for BackendStats {
    type Output = BackendStats;

    /// Field-wise difference; used to exclude a measurement-warmup
    /// prefix from run statistics.
    fn sub(self, rhs: BackendStats) -> BackendStats {
        BackendStats {
            demand_accesses: self.demand_accesses - rhs.demand_accesses,
            prefetch_requests: self.prefetch_requests - rhs.prefetch_requests,
            physical_accesses: self.physical_accesses - rhs.physical_accesses,
            dummy_accesses: self.dummy_accesses - rhs.dummy_accesses,
            posmap_accesses: self.posmap_accesses - rhs.posmap_accesses,
            bytes_moved: self.bytes_moved - rhs.bytes_moved,
            prefetch_hits: self.prefetch_hits - rhs.prefetch_hits,
            prefetch_misses: self.prefetch_misses - rhs.prefetch_misses,
            busy_cycles: self.busy_cycles - rhs.busy_cycles,
            data_path_cycles: self.data_path_cycles - rhs.data_path_cycles,
            posmap_path_cycles: self.posmap_path_cycles - rhs.posmap_path_cycles,
            dummy_path_cycles: self.dummy_path_cycles - rhs.dummy_path_cycles,
            treetop_hits: self.treetop_hits - rhs.treetop_hits,
            treetop_bytes_saved: self.treetop_bytes_saved - rhs.treetop_bytes_saved,
            faults: self.faults - rhs.faults,
        }
    }
}

impl std::ops::Add for BackendStats {
    type Output = BackendStats;

    /// Field-wise sum; used to aggregate statistics across shards or
    /// measurement windows.
    fn add(self, rhs: BackendStats) -> BackendStats {
        BackendStats {
            demand_accesses: self.demand_accesses + rhs.demand_accesses,
            prefetch_requests: self.prefetch_requests + rhs.prefetch_requests,
            physical_accesses: self.physical_accesses + rhs.physical_accesses,
            dummy_accesses: self.dummy_accesses + rhs.dummy_accesses,
            posmap_accesses: self.posmap_accesses + rhs.posmap_accesses,
            bytes_moved: self.bytes_moved + rhs.bytes_moved,
            prefetch_hits: self.prefetch_hits + rhs.prefetch_hits,
            prefetch_misses: self.prefetch_misses + rhs.prefetch_misses,
            busy_cycles: self.busy_cycles + rhs.busy_cycles,
            data_path_cycles: self.data_path_cycles + rhs.data_path_cycles,
            posmap_path_cycles: self.posmap_path_cycles + rhs.posmap_path_cycles,
            dummy_path_cycles: self.dummy_path_cycles + rhs.dummy_path_cycles,
            treetop_hits: self.treetop_hits + rhs.treetop_hits,
            treetop_bytes_saved: self.treetop_bytes_saved + rhs.treetop_bytes_saved,
            faults: self.faults + rhs.faults,
        }
    }
}

impl BackendStats {
    /// Counters accumulated since `baseline` was captured.
    ///
    /// This is the snapshot-diff the simulator uses to exclude a
    /// measurement-warmup prefix: capture `stats()` at the warmup
    /// boundary, then diff the final counters against it.
    pub fn since(self, baseline: BackendStats) -> BackendStats {
        self - baseline
    }

    /// `true` if the per-stage cycle attribution is complete: every busy
    /// cycle is claimed by exactly one of the data / position-map / dummy
    /// categories. Backends that attribute stages must keep this exact;
    /// the run-metrics invariant check asserts it.
    pub fn stage_cycles_consistent(&self) -> bool {
        self.data_path_cycles + self.posmap_path_cycles + self.dummy_path_cycles == self.busy_cycles
    }
}

/// A main-memory technology: DRAM, Path ORAM, or an ORAM with super
/// blocks.
///
/// The simulator core is agnostic to what sits behind this trait; swapping
/// implementations is how the paper's `dram` / `oram` / `stat` / `dyn`
/// configurations are produced.
///
/// Backends are sequential state machines: calls must be made with
/// non-decreasing `now` values, and the backend internally serializes
/// accesses onto its resources (a single ORAM access saturates the DRAM
/// pins — paper Section 2.6 — so the ORAM backends model exactly one
/// in-flight access).
pub trait MemoryBackend {
    /// Performs `req`, issued by the LLC at absolute cycle `now`.
    ///
    /// `llc` is the tag-probe port used by the dynamic super block merge
    /// scheme; backends that do not need it ignore it.
    fn access(&mut self, now: Cycle, req: MemRequest, llc: &dyn CacheProbe) -> AccessOutcome;

    /// Performs one dummy access starting no earlier than `now`, returning
    /// its completion cycle. For ORAM this is a background eviction
    /// (Section 2.4); for DRAM it is a plain bus-occupying read.
    fn dummy_access(&mut self, now: Cycle) -> Cycle;

    /// First cycle at which a new access could begin.
    fn free_at(&self) -> Cycle;

    /// Informs the backend that the LLC hit on `block`.
    ///
    /// ORAM super-block schemes use this to set the block's *hit bit*
    /// (paper Algorithm 2: "In Processor: when block b is accessed,
    /// b.hit = true"). The default implementation ignores it.
    fn note_llc_hit(&mut self, _block: BlockAddr) {}

    /// Informs the backend that `block` was evicted from the LLC without a
    /// writeback (clean eviction). Dirty evictions instead arrive as
    /// [`MemRequest::write`] accesses. The default implementation ignores
    /// it.
    fn note_llc_eviction(&mut self, _block: BlockAddr) {}

    /// Statistics accumulated since construction.
    fn stats(&self) -> BackendStats;

    /// Short human-readable name used in experiment output.
    fn label(&self) -> &str;

    /// Attaches an observability handle; the backend (and everything it
    /// wraps) emits its events there from now on.
    /// The default implementation discards the handle, so backends with
    /// nothing to report need not care.
    fn attach_obs(&mut self, _obs: Obs) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_probe_is_empty() {
        assert!(!NoProbe.contains(BlockAddr(0)));
        assert!(!NoProbe.contains(BlockAddr(u64::MAX)));
    }

    #[test]
    fn fill_constructors() {
        assert!(!Fill::demand(BlockAddr(1)).prefetched);
        assert!(Fill::prefetch(BlockAddr(1)).prefetched);
    }

    #[test]
    fn stats_add_and_since_round_trip() {
        let a = BackendStats {
            demand_accesses: 3,
            physical_accesses: 10,
            bytes_moved: 1024,
            ..Default::default()
        };
        let b = BackendStats {
            demand_accesses: 2,
            physical_accesses: 5,
            prefetch_hits: 1,
            ..Default::default()
        };
        let sum = a + b;
        assert_eq!(sum.demand_accesses, 5);
        assert_eq!(sum.physical_accesses, 15);
        assert_eq!(sum.since(b), a);
        assert_eq!(sum.since(a), b);
    }

    #[test]
    fn fault_stats_rates_and_arithmetic() {
        let mut f = FaultStats::default();
        assert_eq!(f.detection_rate(), None);
        f.injected_bit_flips = 4;
        f.injected_rollbacks = 2;
        f.masked_by_overwrite = 1;
        f.detected_integrity = 4;
        f.detected_rollback = 1;
        assert_eq!(f.observable_corruptions(), 5);
        assert_eq!(f.detection_rate(), Some(1.0));
        f.undetected = 1;
        assert_eq!(f.detection_rate(), Some(0.8));
        let sum = f + f;
        assert_eq!(sum.injected_bit_flips, 8);
        assert_eq!(sum - f, f);
    }

    #[test]
    fn stage_cycle_attribution_sums_to_busy() {
        let mut s = BackendStats {
            busy_cycles: 100,
            data_path_cycles: 60,
            posmap_path_cycles: 30,
            dummy_path_cycles: 10,
            ..Default::default()
        };
        assert!(s.stage_cycles_consistent());
        s.dummy_path_cycles = 11;
        assert!(!s.stage_cycles_consistent());
    }
}
