//! The simulated chip: `N` in-order tiles over one memory controller.
//!
//! A chip is `N` tiles — each an in-order core with a private L1 and an
//! optional stream prefetcher — sharing one inclusive LLC and one memory
//! controller ("We assume there is only one memory controller on the
//! chip"). [`System`] is that chip at any core count, so the single-core
//! figures and the multi-core ablations are measured with the same
//! instrument. The multi-core point it reproduces is Section 2.6: "Since
//! a single ORAM access saturates the available DRAM bandwidth, it brings
//! no benefits to serve multiple ORAM requests in parallel" — DRAM
//! throughput scales with cores (bank overlap), ORAM throughput does not
//! (one serialized controller).
//!
//! The canonical step path lives here and only here: L1 lookup → LLC
//! lookup → demand fetch → fill → eviction/write-back → prefetch-candidate
//! issue. The memory-backend factory (`build_backend`) is likewise the
//! single place a `MemoryKind` is turned into a backend.
//!
//! Simplifications (documented in DESIGN.md): each core runs its own
//! trace over a private address range ([`crate::runner::run_multicore`]
//! assigns them), so no cache-coherence traffic exists; the shared LLC is
//! inclusive of every private L1, and an LLC eviction back-invalidates
//! all of them.
//!
//! # Modeled ordering of miss-triggered prefetches
//!
//! Stream-prefetcher candidates generated by an LLC miss are issued at the
//! *post-demand* clock: the model treats the prefetcher as observing the
//! miss when the demand data returns, so candidates enter the memory
//! queue behind the demand access that triggered them and never complete
//! before it. This matches the blocking in-order core of Table 1 (the
//! core cannot overlap a prefetch with the demand it is stalled on) and
//! is asserted in `demand_fetch`.

use crate::config::{MemoryKind, SystemConfig};
use crate::metrics::{CoreMetrics, RunMetrics};
use crate::prefetch::StreamPrefetcher;
use proram_cache::{CacheAccess, Evicted, HierarchyStats, TiledHierarchy};
use proram_core::SuperBlockOram;
use proram_mem::{BackendStats, BlockAddr, Cycle, Dram, MemRequest, MemoryBackend, Periodic};
use proram_obs::{Obs, ObsEvent};
use proram_oram::OramConfig;
use proram_workloads::{TraceOp, Workload};

/// Per-tile mutable state: clock, prefetcher and op count.
#[derive(Default)]
struct TileState {
    prefetcher: Option<StreamPrefetcher>,
    now: Cycle,
    /// Trace ops executed since construction (warmup included).
    trace_ops: u64,
}

/// One reading of a run's three ledgers: each tile's clock and op count,
/// the cache fabric's counters and the memory backend's.
type Ledgers = (Vec<CoreMetrics>, HierarchyStats, BackendStats);

/// A runnable chip: the tiled cache fabric, the single memory backend,
/// per-tile clocks and the warmup snapshot. It keeps no counter of its
/// own: [`finish`](System::finish) reads the run's metrics off the three
/// ledgers.
///
/// Each core is in-order and blocking (Table 1): it advances its clock by
/// each trace op's compute cycles, then performs the memory access,
/// stalling on LLC misses until the demand data returns. Write-backs and
/// prefetches are issued without stalling but occupy the memory resource,
/// which is how ORAM bandwidth contention (Section 3.1) arises.
///
/// [`build`](System::build) makes one core;
/// [`runner::run_multicore`](crate::runner::run_multicore) makes and runs
/// N, each over its own address range. Drive core 0 op by op with
/// [`step`](System::step), or every core to completion with
/// [`run`](System::run).
pub struct System {
    hierarchy: TiledHierarchy,
    memory: Box<dyn MemoryBackend>,
    tiles: Vec<TileState>,
    /// `log2` of the line size: a byte address shifted right by it is the
    /// block address.
    line_shift: u32,
    /// The ledgers at the warmup boundary, zero until `run` takes it;
    /// `finish` subtracts it.
    baseline: Ledgers,
    /// Observability handle shared with the memory backend (disabled by
    /// default).
    obs: Obs,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.tiles.len())
            .field("memory", &self.memory.label())
            .field("line_bytes", &(1u64 << self.line_shift))
            .finish_non_exhaustive()
    }
}

/// Builds the memory backend for a configuration — the single copy of the
/// `MemoryKind` → backend construction: the one place an ORAM is sized
/// from a footprint.
///
/// The ORAM holds the next power of two of blocks covering
/// `footprint_bytes` (at least the configured minimum) so every trace
/// address maps to a valid block.
fn build_backend(config: &SystemConfig, footprint_bytes: u64) -> Box<dyn MemoryBackend> {
    let num_data_blocks = footprint_bytes
        .div_ceil(config.line_bytes())
        .next_power_of_two()
        .max(config.oram.num_data_blocks);
    match &config.memory {
        MemoryKind::Dram => timed(config, Dram::new(config.dram)),
        MemoryKind::Oram(scheme) => {
            let oram_cfg = OramConfig {
                num_data_blocks,
                ..config.oram.clone()
            };
            let backend = SuperBlockOram::new(oram_cfg, scheme.clone(), config.seed);
            timed(config, backend)
        }
    }
}

/// Boxes a backend of any kind, wrapped in the periodic-access layer when
/// the configuration sets an `O_int` ladder — the one site that wraps.
fn timed<B: MemoryBackend + 'static>(config: &SystemConfig, backend: B) -> Box<dyn MemoryBackend> {
    if config.periodic_intervals.is_empty() {
        Box::new(backend)
    } else {
        Box::new(Periodic::new(backend, &config.periodic_intervals))
    }
}

impl System {
    /// Builds a one-core system for a workload with the given footprint.
    ///
    /// The ORAM is sized to the next power of two covering
    /// `footprint_bytes` (at least the configured minimum) so every trace
    /// address maps to a valid block.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn build(config: &SystemConfig, footprint_bytes: u64) -> Self {
        Self::with_cores(config, 1, footprint_bytes)
    }

    /// Builds a system with `num_cores` tiles for workloads covering
    /// `footprint_bytes` in total; outside this crate, N cores come with
    /// their address ranges from [`crate::runner::run_multicore`].
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or the configuration is inconsistent.
    pub(crate) fn with_cores(
        config: &SystemConfig,
        num_cores: usize,
        footprint_bytes: u64,
    ) -> Self {
        assert!(num_cores > 0, "need at least one core");
        config.validate();
        let memory = build_backend(config, footprint_bytes);
        System {
            hierarchy: TiledHierarchy::new(config.hierarchy, num_cores),
            tiles: (0..num_cores)
                .map(|_| TileState {
                    prefetcher: config.stream_prefetcher.then(StreamPrefetcher::default),
                    ..TileState::default()
                })
                .collect(),
            // `validate` checked that the line size is a power of two.
            line_shift: config.line_bytes().trailing_zeros(),
            memory,
            baseline: (
                vec![CoreMetrics::default(); num_cores],
                HierarchyStats::default(),
                BackendStats::default(),
            ),
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle to every tile and the memory
    /// backend: demand fetches emit tile issue/retire events and the
    /// backend's own instrumentation interleaves into the same sink.
    ///
    /// Attach before running; the caller's clone of the handle keeps
    /// seeing events after the run consumes the system.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.memory.attach_obs(obs.clone());
        self.obs = obs;
    }

    /// Current cycle of core 0's clock.
    pub fn now(&self) -> Cycle {
        self.tiles[0].now
    }

    /// The memory backend (for ORAM-specific inspection in tests).
    pub fn memory(&self) -> &dyn MemoryBackend {
        self.memory.as_ref()
    }

    /// Executes one trace op on core 0.
    pub fn step(&mut self, op: TraceOp) {
        self.step_core(0, op);
    }

    /// Executes one trace op on `tile` — the canonical step path.
    fn step_core(&mut self, tile: usize, op: TraceOp) {
        self.tiles[tile].now += u64::from(op.comp_cycles);
        self.tiles[tile].trace_ops += 1;
        let block = BlockAddr(op.addr >> self.line_shift);
        match self.hierarchy.access(tile, block, op.write) {
            CacheAccess::L1Hit { latency } => {
                self.tiles[tile].now += latency;
            }
            CacheAccess::L2Hit {
                latency,
                prefetch_first_use,
            } => {
                self.tiles[tile].now += latency;
                if prefetch_first_use {
                    self.memory.note_llc_hit(block);
                }
            }
            CacheAccess::Miss { latency } => {
                self.tiles[tile].now += latency;
                self.demand_fetch(tile, block, op.write);
            }
        }
    }

    /// Issues one request to the memory backend at `tile`'s current
    /// clock, returning the completion to retire: issue hands an
    /// [`MemRequest`] to the backend,
    /// [`retire_completion`](Self::retire_completion) applies the
    /// returned fills to the cache fabric.
    fn issue_request(&mut self, tile: usize, req: MemRequest) -> proram_mem::AccessOutcome {
        self.memory
            .access(self.tiles[tile].now, req, &self.hierarchy)
    }

    /// Retires a completion on `tile`: fills the returned lines into the
    /// hierarchy (dirtying the demanded line on writes; with
    /// `force_prefetch` every fill is marked prefetched, for completions
    /// of stream-prefetcher requests) and handles the line each fill
    /// displaces. A write-back never probes the LLC, so handling a
    /// departure before the completion's later fills land is the same as
    /// handling it after them.
    fn retire_completion(
        &mut self,
        tile: usize,
        outcome: &proram_mem::AccessOutcome,
        demanded: BlockAddr,
        write: bool,
        force_prefetch: bool,
    ) {
        for fill in &outcome.fills {
            let is_demand = fill.block == demanded && !fill.prefetched;
            let evicted = self.hierarchy.fill(
                tile,
                fill.block,
                fill.prefetched || force_prefetch,
                is_demand && write,
            );
            if let Some(ev) = evicted {
                self.handle_eviction(tile, ev);
            }
        }
    }

    fn demand_fetch(&mut self, tile: usize, block: BlockAddr, write: bool) {
        let issued_at = self.tiles[tile].now;
        self.obs.emit(|| ObsEvent::TileIssue {
            core: tile as u32,
            addr: block.0,
            at: issued_at,
        });
        // Write misses are write-allocate: fetch the line, then dirty it.
        let outcome = self.issue_request(tile, MemRequest::read(block));
        self.tiles[tile].now = outcome.complete_at;
        let demand_complete = outcome.complete_at;
        self.obs.emit(|| ObsEvent::TileRetire {
            core: tile as u32,
            addr: block.0,
            at: demand_complete,
        });
        self.retire_completion(tile, &outcome, block, write, false);
        // Traditional prefetcher (Figure 5): candidates issue behind the
        // demand access without stalling the core, but they occupy the
        // memory resource. See the module docs for the modeled ordering.
        if let Some(mut pf) = self.tiles[tile].prefetcher.take() {
            let candidates = pf.on_miss(block);
            self.tiles[tile].prefetcher = Some(pf);
            for cand in candidates {
                if self.hierarchy.contains_block(cand) {
                    continue;
                }
                let o = self.issue_request(tile, MemRequest::prefetch(cand));
                debug_assert!(
                    o.complete_at >= demand_complete,
                    "prefetch completed at {} before its triggering demand at {}",
                    o.complete_at,
                    demand_complete
                );
                self.retire_completion(tile, &o, cand, false, true);
            }
        }
    }

    /// Forwards a line that left the fabric to the backend and issues its
    /// write-back if it is dirty; the fabric has already counted both.
    fn handle_eviction(&mut self, tile: usize, ev: Evicted) {
        // The backend's prefetch ledger (the scheme's hit / prefetch
        // bits) sees every departure.
        self.memory.note_llc_eviction(ev.block);
        if ev.dirty {
            // Write-back buffers hide the latency from the core, but the
            // access still occupies memory bandwidth.
            self.memory.access(
                self.tiles[tile].now,
                MemRequest::write(ev.block),
                &self.hierarchy,
            );
        }
    }

    /// The three ledgers as they stand, warmup included.
    fn ledgers(&self) -> Ledgers {
        let cores = self
            .tiles
            .iter()
            .map(|tile| CoreMetrics {
                cycles: tile.now,
                trace_ops: tile.trace_ops,
            })
            .collect();
        (cores, self.hierarchy.stats(), self.memory.stats())
    }

    /// Runs every workload to completion on its core, excluding each
    /// core's first `warmup_ops` operations from the reported metrics so
    /// results reflect steady state (caches and super-block state warm)
    /// rather than cold-start behaviour.
    ///
    /// Scheduling is earliest-first: the unfinished core with the lowest
    /// clock executes its next op, which serializes contention on the
    /// shared memory controller in global time order. Warmup runs under
    /// the same discipline, restricted to cores that have not yet executed
    /// their warmup prefix; the ledgers are snapshotted at the barrier
    /// where every core has. Aggregate `cycles` is the slowest core's
    /// post-warmup completion time.
    ///
    /// # Panics
    ///
    /// Panics if the number of workloads differs from the number of cores.
    pub fn run(mut self, workloads: &mut [&mut dyn Workload], warmup_ops: u64) -> RunMetrics {
        assert_eq!(
            workloads.len(),
            self.tiles.len(),
            "one workload per core required"
        );
        let benchmark = if workloads.len() == 1 {
            workloads[0].name().to_owned()
        } else {
            format!("{}-core", workloads.len())
        };
        let n = self.tiles.len();
        let mut executed = vec![0u64; n];
        let mut done = vec![false; n];
        // Warmup phase: each core runs its first `warmup_ops` ops (or its
        // whole trace, if shorter), interleaved earliest-first.
        while let Some(idx) = self.earliest(|i| !done[i] && executed[i] < warmup_ops) {
            match workloads[idx].next_op() {
                Some(op) => {
                    self.step_core(idx, op);
                    executed[idx] += 1;
                }
                None => done[idx] = true,
            }
        }
        self.baseline = self.ledgers();
        // Measured phase: run every core to the end of its trace.
        while let Some(idx) = self.earliest(|i| !done[i]) {
            match workloads[idx].next_op() {
                Some(op) => self.step_core(idx, op),
                None => done[idx] = true,
            }
        }
        let mut m = self.finish();
        m.benchmark = benchmark;
        m
    }

    /// Index of the tile with the lowest clock among those `eligible`.
    fn earliest(&self, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        self.tiles
            .iter()
            .enumerate()
            .filter(|(i, _)| eligible(*i))
            .min_by_key(|(_, t)| t.now)
            .map(|(i, _)| i)
    }

    /// Finalizes and returns the metrics: the three ledgers minus the
    /// warmup snapshot (everything since construction if `run` took
    /// none).
    pub fn finish(self) -> RunMetrics {
        let (cores, caches, backend) = self.ledgers();
        let (cores0, caches0, backend0) = self.baseline;
        let per_core: Vec<CoreMetrics> = cores
            .iter()
            .zip(&cores0)
            .map(|(c, c0)| CoreMetrics {
                cycles: c.cycles - c0.cycles,
                trace_ops: c.trace_ops - c0.trace_ops,
            })
            .collect();
        let caches = caches - caches0;
        let m = RunMetrics {
            label: self.memory.label().to_owned(),
            benchmark: String::new(),
            cycles: per_core.iter().map(|c| c.cycles).max().unwrap_or(0),
            trace_ops: per_core.iter().map(|c| c.trace_ops).sum(),
            demand_fetches: caches.l2.misses,
            writebacks: caches.writebacks,
            unused_prefetch_evictions: caches.unused_prefetch_evictions,
            caches,
            backend: backend - backend0,
            per_core,
        };
        assert!(
            m.stage_cycles_consistent(),
            "per-stage cycle attribution does not sum to backend busy cycles"
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_core::SchemeConfig;
    use proram_workloads::synthetic::LocalityMix;

    fn run(kind: MemoryKind, locality: f64, ops: u64) -> RunMetrics {
        let cfg = SystemConfig::quick_test(kind);
        let mut w = LocalityMix::new(4 << 20, locality, ops, 7);
        System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0)
    }

    /// Runs `LocalityMix` workloads, one per core and seeded `seed + core`,
    /// on a `cores`-core system with no address offsets.
    fn run_cores(
        cfg: &SystemConfig,
        cores: usize,
        mix: (u64, f64, u64, u64),
        warmup: u64,
    ) -> RunMetrics {
        let (footprint, locality, ops, seed) = mix;
        let mut ws: Vec<LocalityMix> = (0..cores as u64)
            .map(|i| LocalityMix::new(footprint, locality, ops, seed + i))
            .collect();
        let mut refs: Vec<&mut dyn Workload> =
            ws.iter_mut().map(|w| w as &mut dyn Workload).collect();
        System::with_cores(cfg, cores, 4 << 20).run(&mut refs, warmup)
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        System::with_cores(&SystemConfig::quick_test(MemoryKind::Dram), 0, 4 << 20);
    }

    #[test]
    #[should_panic(expected = "one workload per core")]
    fn workload_count_must_match_cores() {
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let mut w = LocalityMix::new(1 << 20, 0.5, 100, 1);
        System::with_cores(&cfg, 2, 4 << 20).run(&mut [&mut w], 0);
    }

    /// Multi-core runs once returned `RunMetrics` with `caches`,
    /// `demand_fetches`, `writebacks` and `unused_prefetch_evictions`
    /// zeroed out: every run-wide counter must be populated, the
    /// write-backs and LLC misses must be the DRAM's demand accesses,
    /// and each core's clock and op count must re-aggregate to the
    /// totals.
    #[test]
    fn per_core_metrics_aggregate_to_totals() {
        // Miss-heavy: random accesses over footprints well beyond the
        // caches, with writes.
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let m = run_cores(&cfg, 3, (4 << 20, 0.0, 2000, 7), 0);
        assert_eq!(m.per_core.len(), 3);
        assert_eq!(m.trace_ops, m.per_core.iter().map(|c| c.trace_ops).sum());
        assert_eq!(m.cycles, m.per_core.iter().map(|c| c.cycles).max().unwrap());
        assert!(m.caches.l1.misses > 0, "L1 stats zeroed");
        assert!(m.caches.l2.misses > 0, "LLC stats zeroed");
        assert!(m.writebacks > 0, "writebacks zeroed");
        // DRAM serves each LLC miss and each write-back as one demand
        // access, counted apart from the cache.
        assert_eq!(m.backend.demand_accesses, m.demand_fetches + m.writebacks);
        for (i, c) in m.per_core.iter().enumerate() {
            assert_eq!(c.trace_ops, 2000);
            assert!(c.cycles > 0, "core {i} clock zeroed");
        }
    }

    #[test]
    fn warmup_is_excluded_per_core() {
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let cold = run_cores(&cfg, 2, (1 << 20, 0.5, 3000, 11), 0);
        let warm = run_cores(&cfg, 2, (1 << 20, 0.5, 3000, 11), 1000);
        assert_eq!(warm.trace_ops, 2 * 2000);
        for c in &warm.per_core {
            assert_eq!(c.trace_ops, 2000);
        }
        assert!(warm.cycles < cold.cycles);
        assert!(warm.demand_fetches < cold.demand_fetches);
    }

    #[test]
    fn attached_obs_sees_tile_issue_retire_and_backend_events() {
        let mut sys = System::with_cores(
            &SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::dynamic(2))),
            2,
            4 << 20,
        );
        let obs = Obs::ring(1 << 16);
        sys.attach_obs(obs.clone());
        let mut ws: Vec<LocalityMix> = (0..2)
            .map(|i| LocalityMix::new(1 << 20, 0.5, 2_000, 5 + i))
            .collect();
        let mut refs: Vec<&mut dyn Workload> =
            ws.iter_mut().map(|w| w as &mut dyn Workload).collect();
        let m = sys.run(&mut refs, 0);
        let events = obs.events();
        let issues = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::TileIssue { .. }))
            .count() as u64;
        let retires = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::TileRetire { .. }))
            .count() as u64;
        assert_eq!(issues, m.demand_fetches);
        assert_eq!(issues, retires);
        // Both cores issued.
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::TileIssue { core: 1, .. })));
        // The ORAM backend's events interleave into the same sink: one
        // statistics window per 1 000 ORAM requests.
        assert!(m.backend.demand_accesses > 1_000, "{:?}", m.backend);
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::PrefetchWindow { .. })));
    }

    /// The trace and the ledger are one record: the `access_retired`
    /// lanes of a run sum to the backend's path and backoff cycles, one
    /// event per demand access, one `tile_retire` per demand fetch.
    ///
    /// The cells: the plain dynamic scheme; with faults; and behind the
    /// stream prefetcher, whose requests the ORAM serves as demand reads
    /// and the LLC does not count as misses. Periodic mode stays out on
    /// purpose: a periodic dummy retires no access, so there
    /// `dummy_path_cycles` exceeds the evict lane by design.
    #[test]
    fn the_trace_and_the_ledger_agree() {
        use proram_oram::{FaultClass, FaultConfig};
        let plain = SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        // Faults need the payload store, whose serialized posmap block
        // holds fewer entries than the default fanout.
        let mut faulty = plain.clone();
        faulty.oram = OramConfig {
            store_payloads: true,
            entries_per_posmap_block: 4,
            stash_limit: 40,
            fault: Some(FaultConfig {
                retry_backoff_cycles: 100,
                ..FaultConfig::single(FaultClass::Transient, 0.02, 5)
            }),
            ..plain.oram.clone()
        };
        let mut prefetch = plain.clone();
        prefetch.stream_prefetcher = true;
        for (cell, cfg) in [("plain", plain), ("faults", faulty), ("prefetch", prefetch)] {
            assert!(cfg.periodic_intervals.is_empty());
            let mut w = LocalityMix::new(4 << 20, 0.6, 20_000, 5);
            let mut sys = System::build(&cfg, w.footprint_bytes());
            let obs = Obs::ring(1 << 17);
            sys.attach_obs(obs.clone());
            let m = sys.run(&mut [&mut w], 0);
            assert_eq!(obs.dropped(), 0, "{cell}: the fold needs the whole trace");
            let (mut lanes, mut retired, mut tile_retires) = ([0u64; 4], 0, 0);
            for e in obs.events() {
                match e {
                    ObsEvent::AccessRetired {
                        posmap,
                        fetch,
                        evict,
                        backoff,
                        ..
                    } => {
                        for (lane, c) in lanes.iter_mut().zip([posmap, fetch, evict, backoff]) {
                            *lane += c;
                        }
                        retired += 1;
                    }
                    ObsEvent::TileRetire { .. } => tile_retires += 1,
                    _ => {}
                }
            }
            let b = &m.backend;
            let ledger = [
                b.posmap_path_cycles,
                b.data_path_cycles,
                b.dummy_path_cycles,
                b.faults.backoff_cycles,
            ];
            assert_eq!(lanes, ledger, "{cell}: posmap / fetch / evict / backoff");
            assert_eq!(retired, b.demand_accesses, "{cell}");
            assert_eq!(tile_retires, m.demand_fetches, "{cell}");
            if cell == "faults" {
                assert!(lanes[2] > 0 && lanes[3] > 0, "{cell}: {lanes:?}");
            }
            // The backend serves each LLC miss and each write-back as one
            // demand access; the stream prefetcher's requests add more.
            if cell == "prefetch" {
                assert!(b.demand_accesses > m.demand_fetches + m.writebacks);
            } else {
                assert_eq!(b.demand_accesses, m.demand_fetches + m.writebacks, "{cell}");
            }
        }
    }

    #[test]
    fn crash_injection_recovers_inside_the_sim_stack() {
        use proram_oram::{CrashConfig, KillPoint};
        let mut cfg = SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        // Crash injection needs the encrypted store; the payload-bearing
        // test layout is the one the crash suites use.
        cfg.oram = OramConfig {
            crash: Some(CrashConfig::at(KillPoint::MidJournal, 4)),
            ..OramConfig::small_for_tests(1 << 12)
        };
        let mut w = LocalityMix::new(1 << 20, 0.5, 2000, 9);
        let m = System::build(&cfg, 4 << 20).run(&mut [&mut w], 0);
        // The kill fired once mid-journal; the scheme layer recovered the
        // transaction (rollback + retry) instead of degrading the access,
        // so the unrecovered counter stays clean and every op retired.
        assert!(m.backend.faults.recovered >= 1, "recovery never ran");
        assert_eq!(m.backend.faults.unrecovered, 0);
        assert_eq!(m.trace_ops, 2000);
    }

    #[test]
    fn prefetcher_runs_on_every_core() {
        let mut cfg = SystemConfig::quick_test(MemoryKind::Dram);
        cfg.stream_prefetcher = true;
        // Sequential traces on both cores: the prefetcher must have
        // brought in lines.
        let m = run_cores(&cfg, 2, (4 << 20, 1.0, 5000, 3), 0);
        assert!(m.backend.prefetch_requests > 0);
    }

    #[test]
    fn dram_run_completes() {
        let m = run(MemoryKind::Dram, 0.5, 2000);
        assert_eq!(m.trace_ops, 2000);
        assert!(m.cycles > 2000);
        assert_eq!(m.label, "dram");
        assert!(m.demand_fetches > 0);
    }

    #[test]
    fn single_core_run_reports_one_core_entry() {
        let m = run(MemoryKind::Dram, 0.5, 2000);
        let core = CoreMetrics {
            cycles: m.cycles,
            trace_ops: m.trace_ops,
        };
        assert_eq!(m.per_core, [core]);
    }

    #[test]
    fn oram_is_much_slower_than_dram() {
        let dram = run(MemoryKind::Dram, 0.0, 3000);
        let oram = run(MemoryKind::Oram(SchemeConfig::baseline()), 0.0, 3000);
        let slowdown = oram.cycles as f64 / dram.cycles as f64;
        assert!(
            slowdown > 2.0,
            "ORAM should be much slower on a memory-bound trace: {slowdown:.2}x"
        );
    }

    #[test]
    fn hits_do_not_touch_memory() {
        // A footprint smaller than the L1 never misses after warmup.
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let mut w = LocalityMix::new(8 << 10, 1.0, 5000, 3);
        let m = System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0);
        assert!(
            m.backend.demand_accesses < 100,
            "tiny working set should stay cached: {} fetches",
            m.backend.demand_accesses
        );
    }

    #[test]
    fn writebacks_reach_memory() {
        // All-write sweep over a large footprint forces dirty evictions.
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let mut w = LocalityMix::new(8 << 20, 0.0, 20_000, 3);
        let m = System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0);
        assert!(m.writebacks > 0, "no writebacks observed");
    }

    /// Sequential runs need at least two sweeps of the array: pairs
    /// merge during the first lap (when the neighbor is still cached)
    /// and pay off from the second lap on. 1 MB footprint = 8192 lines
    /// = ~131k ops per lap at 16 touches per line.
    fn run_two_laps(kind: MemoryKind) -> RunMetrics {
        let cfg = SystemConfig::quick_test(kind);
        let mut w = LocalityMix::new(1 << 20, 1.0, 280_000, 7);
        System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0)
    }

    #[test]
    fn dynamic_scheme_prefetches_on_sequential_trace() {
        let m = run_two_laps(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        assert!(
            m.backend.prefetch_hits > 100,
            "sequential trace should train and use super blocks: {} hits",
            m.backend.prefetch_hits
        );
        assert_eq!(m.label, "dyn");
    }

    #[test]
    fn dynamic_beats_baseline_on_sequential_trace() {
        let base = run_two_laps(MemoryKind::Oram(SchemeConfig::baseline()));
        let dynamic = run_two_laps(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        let gain = dynamic.speedup_over(&base);
        assert!(gain > 0.05, "dyn gain on pure-sequential: {gain:.3}");
    }

    #[test]
    fn dynamic_tracks_baseline_on_random_trace() {
        let base = run(MemoryKind::Oram(SchemeConfig::baseline()), 0.0, 15_000);
        let dynamic = run(MemoryKind::Oram(SchemeConfig::dynamic(2)), 0.0, 15_000);
        let gain = dynamic.speedup_over(&base);
        assert!(
            gain.abs() < 0.05,
            "dyn must not hurt random traces: {gain:.3}"
        );
    }

    #[test]
    fn static_scheme_hurts_random_traces() {
        let base = run(MemoryKind::Oram(SchemeConfig::baseline()), 0.0, 15_000);
        let stat = run(
            MemoryKind::Oram(SchemeConfig::static_scheme(2)),
            0.0,
            15_000,
        );
        let gain = stat.speedup_over(&base);
        assert!(
            gain < 0.0,
            "static super blocks should lose without locality: {gain:.3}"
        );
    }

    /// An `O_int` ladder, fixed or adaptive, wraps every memory kind,
    /// DRAM included, and the run's label is the wrapped backend's: the
    /// idle slots of a sparse trace are filled with dummy accesses under
    /// each, and the adaptive ladder's epoch boundaries reach the ledger.
    #[test]
    fn periodic_timing_wraps_every_memory_kind() {
        for (kind, name) in [
            (MemoryKind::Dram, "dram"),
            (MemoryKind::Oram(SchemeConfig::baseline()), "oram"),
        ] {
            for (ladder, suffix) in [
                (vec![100], "intvl"),
                (proram_mem::ADAPTIVE_LADDER.to_vec(), "adintvl"),
            ] {
                let label = format!("{name}_{suffix}");
                let mut cfg = SystemConfig::quick_test(kind.clone());
                cfg.periodic_intervals = ladder;
                let mut w = LocalityMix::new(1 << 20, 0.5, 3000, 5);
                let m = System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0);
                assert_eq!(m.label, label);
                assert!(m.backend.dummy_accesses > 0, "{label}: no dummy access");
                if suffix == "adintvl" {
                    assert!(m.backend.interval_epochs > 0, "{label}: no epoch crossed");
                }
            }
        }
    }

    #[test]
    fn prefetcher_on_dram_helps_sequential() {
        let plain = run(MemoryKind::Dram, 1.0, 20_000);
        let mut cfg = SystemConfig::quick_test(MemoryKind::Dram);
        cfg.stream_prefetcher = true;
        let mut w = LocalityMix::new(4 << 20, 1.0, 20_000, 7);
        let with_pf = System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0);
        assert!(
            with_pf.cycles < plain.cycles,
            "stream prefetcher should help sequential DRAM: {} vs {}",
            with_pf.cycles,
            plain.cycles
        );
    }

    #[test]
    fn oram_sized_to_footprint() {
        let cfg = SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::baseline()));
        // A footprint larger than the configured minimum must not panic.
        let mut w = LocalityMix::new(64 << 20, 0.0, 500, 2);
        let m = System::build(&cfg, w.footprint_bytes()).run(&mut [&mut w], 0);
        assert_eq!(m.trace_ops, 500);
    }
}
