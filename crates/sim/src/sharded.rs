//! `N` independent ORAM controllers behind one scheduler.
//!
//! Paper Section 2.6 observes that "since a single ORAM access saturates
//! the available DRAM bandwidth, it brings no benefits to serve multiple
//! ORAM requests in parallel" — the simulator's single serialized
//! controller reproduces that claim. [`ShardedOram`] *relaxes* it as an
//! ablation: blocks are statically address-partitioned over `N`
//! controllers (shard = address mod `N`), each owning a private tree and
//! bandwidth, so requests to different shards overlap. `N = 1` is exactly
//! the serialized baseline; the gap between `N = 1` and `N > 1` measures
//! how much of the multi-core scaling wall is controller serialization
//! rather than the access pattern.
//!
//! Each shard is a full [`SuperBlockOram`] over [`PathOram`], so sharding
//! composes with super-block prefetching.

use crate::config::SystemConfig;
use proram_core::{SchemeConfig, SuperBlockOram};
use proram_mem::{
    AccessOutcome, BackendStats, BlockAddr, CacheProbe, Cycle, MemRequest, MemoryBackend, NoProbe,
};
use proram_obs::Obs;
use proram_oram::{OramConfig, PathOram};
use proram_par::WorkerPool;

/// Translates a shard's local block addresses back to global ones before
/// probing the LLC, so super-block detection inside a shard sees the
/// cache contents it actually cares about.
struct ShardProbe<'a> {
    llc: &'a dyn CacheProbe,
    shards: u64,
    shard: u64,
}

impl CacheProbe for ShardProbe<'_> {
    fn contains(&self, local: BlockAddr) -> bool {
        self.llc
            .contains(BlockAddr(local.0 * self.shards + self.shard))
    }
}

/// `N` address-partitioned ORAM controllers behind one request scheduler.
pub struct ShardedOram {
    shards: Vec<SuperBlockOram<PathOram>>,
    label: String,
    /// Worker pool for [`ShardedOram::access_batch`]; `None` (the
    /// default) steps shards serially on the calling thread.
    pool: Option<WorkerPool>,
    /// Batches in which a shard worker panicked and the abandoned slice
    /// was re-served serially (graceful degradation, never an abort).
    batch_panics: u64,
    /// Armed fault injection: the next *parallel* batch panics inside its
    /// worker on reaching this original request index (taken once).
    panic_at: Option<usize>,
}

impl std::fmt::Debug for ShardedOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOram")
            .field("shards", &self.shards.len())
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// One shard's slice of a batch: the controller is *moved* onto a worker
/// thread along with its requests and moved back at the merge barrier.
struct ShardJob {
    shard: usize,
    ctrl: SuperBlockOram<PathOram>,
    /// `(original request index, shard-local request)` in issue order.
    reqs: Vec<(usize, MemRequest)>,
    /// Outcomes, same order as `reqs` (filled by the worker).
    outcomes: Vec<(usize, AccessOutcome)>,
    /// Set when a request panicked on the worker: the remaining slice is
    /// abandoned and re-served serially at the merge barrier. Catching
    /// *inside* the job is what keeps the moved controller alive — a
    /// panic that escaped the closure would consume the job, and the
    /// shard's tree, stash and position map with it.
    panicked: bool,
}

impl ShardedOram {
    /// Builds `num_shards` controllers, each sized to its slice of
    /// `total_data_blocks` (rounded up to a power of two) and seeded
    /// distinctly from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or the per-shard configuration is
    /// invalid.
    pub fn new(
        oram: &OramConfig,
        scheme: &SchemeConfig,
        num_shards: usize,
        total_data_blocks: u64,
        seed: u64,
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let per_shard = total_data_blocks
            .div_ceil(num_shards as u64)
            .next_power_of_two()
            .max(64);
        let shards = (0..num_shards)
            .map(|i| {
                let cfg = OramConfig {
                    num_data_blocks: per_shard,
                    ..oram.clone()
                };
                SuperBlockOram::new(cfg, scheme.clone(), seed.wrapping_add(i as u64))
            })
            .collect();
        ShardedOram {
            shards,
            label: format!("{}_sh{num_shards}", scheme.label()),
            pool: None,
            batch_panics: 0,
            panic_at: None,
        }
    }

    /// Builds from a [`SystemConfig`] whose memory kind is
    /// [`crate::config::MemoryKind::OramShards`], covering
    /// `footprint_bytes`.
    pub fn from_system(
        config: &SystemConfig,
        scheme: &SchemeConfig,
        num_shards: usize,
        footprint_bytes: u64,
    ) -> Self {
        let needed = footprint_bytes
            .div_ceil(config.line_bytes())
            .max(config.oram.num_data_blocks);
        ShardedOram::new(&config.oram, scheme, num_shards, needed, config.seed)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrows shard `i`'s controller (per-shard attribution in
    /// `proram-bench obs`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn shard(&self, i: usize) -> &SuperBlockOram<PathOram> {
        &self.shards[i]
    }

    /// The shard owning a global block and that block's local address.
    fn route(&self, block: BlockAddr) -> (usize, BlockAddr) {
        let n = self.shards.len() as u64;
        ((block.0 % n) as usize, BlockAddr(block.0 / n))
    }

    /// A global address from a shard-local one.
    fn unroute(&self, shard: usize, local: BlockAddr) -> BlockAddr {
        BlockAddr(local.0 * self.shards.len() as u64 + shard as u64)
    }

    /// Builds a pool sized for `threads` cooperating threads (the caller
    /// included); subsequent [`ShardedOram::access_batch`] calls step
    /// shards on it. Results are identical to the serial path at any
    /// thread count (see DESIGN.md section 14). `threads <= 1` drops the
    /// pool instead, restoring the serial path.
    pub fn set_worker_threads(&mut self, threads: usize) {
        self.pool = (threads > 1).then(|| WorkerPool::new(threads));
    }

    /// Serves a batch of independent requests, all issued at `now`, and
    /// returns one outcome per request (same order).
    ///
    /// Requests are partitioned by owning shard; with a pool attached
    /// ([`ShardedOram::set_worker_threads`]) each shard's controller is
    /// *moved* onto a worker thread, steps its slice of the batch in issue
    /// order, and is moved back at the merge barrier — the retire order
    /// seen by the caller is the original request order regardless of
    /// which worker finished first, so outcomes, per-shard statistics and
    /// adversary traces are identical at any thread count.
    ///
    /// Shard controllers are `!Sync` while borrowed by the caller's LLC
    /// probe, so batch accesses see no LLC ([`NoProbe`]): super-block
    /// detection runs on access-pattern history alone. Single-request
    /// traffic that wants LLC-aware prefetch decisions should keep using
    /// [`MemoryBackend::access`].
    pub fn access_batch(&mut self, now: Cycle, reqs: &[MemRequest]) -> Vec<AccessOutcome> {
        let n = self.shards.len() as u64;
        let parallel = self
            .pool
            .as_ref()
            .is_some_and(|p| p.workers() > 0 && reqs.len() >= 2);
        if !parallel {
            return reqs
                .iter()
                .map(|req| self.access(now, *req, &NoProbe))
                .collect();
        }
        // Fork: partition requests by shard, preserving issue order
        // within each shard, and move every controller into its job.
        let mut per_shard: Vec<Vec<(usize, MemRequest)>> = Vec::new();
        per_shard.resize_with(self.shards.len(), Vec::new);
        for (i, req) in reqs.iter().enumerate() {
            let (shard, local) = self.route(req.block);
            per_shard[shard].push((
                i,
                MemRequest {
                    block: local,
                    ..*req
                },
            ));
        }
        let jobs: Vec<ShardJob> = std::mem::take(&mut self.shards)
            .into_iter()
            .zip(per_shard)
            .enumerate()
            .map(|(shard, (ctrl, reqs))| ShardJob {
                shard,
                ctrl,
                reqs,
                outcomes: Vec::new(),
                panicked: false,
            })
            .collect();
        let panic_at = self.panic_at.take();
        let pool = self.pool.as_ref().expect("parallel implies pool");
        let done = pool.run(jobs, move |mut job: ShardJob| {
            job.outcomes.reserve(job.reqs.len());
            for &(orig, req) in &job.reqs {
                let boom = panic_at == Some(orig);
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    assert!(!boom, "injected shard worker panic");
                    job.ctrl.access(now, req, &NoProbe)
                }));
                let Ok(mut outcome) = attempt else {
                    // Keep the controller; its unserved requests fall
                    // back to the caller thread at the merge barrier.
                    job.panicked = true;
                    break;
                };
                for fill in &mut outcome.fills {
                    fill.block = BlockAddr(fill.block.0 * n + job.shard as u64);
                }
                job.outcomes.push((orig, outcome));
            }
            job
        });
        // Join: controllers return to their slots in shard order and
        // outcomes merge back to original request positions.
        let mut out: Vec<Option<AccessOutcome>> = reqs.iter().map(|_| None).collect();
        let mut unserved: Vec<usize> = Vec::new();
        for job in done {
            debug_assert_eq!(job.shard, self.shards.len());
            if job.panicked {
                self.batch_panics += 1;
                unserved.extend(
                    job.reqs
                        .iter()
                        .skip(job.outcomes.len())
                        .map(|&(orig, _)| orig),
                );
            }
            self.shards.push(job.ctrl);
            for (orig, outcome) in job.outcomes {
                out[orig] = Some(outcome);
            }
        }
        // Graceful degradation: requests a panicked shard abandoned are
        // re-served serially through the normal single-request path, so
        // the batch still returns one outcome per request and later
        // batches keep working.
        for orig in unserved {
            out[orig] = Some(self.access(now, reqs[orig], &NoProbe));
        }
        out.into_iter()
            .map(|o| o.expect("every request served by its shard"))
            .collect()
    }

    /// Times a shard batch hit a worker panic and fell back to serial
    /// service for the abandoned slice.
    pub fn batch_panics(&self) -> u64 {
        self.batch_panics
    }

    /// Arms deterministic worker-panic injection: the next parallel batch
    /// panics inside the worker thread when it reaches the request at
    /// original index `orig`, exercising the abandoned-slice serial
    /// fallback without corrupting any controller.
    pub fn inject_worker_panic(&mut self, orig: usize) {
        self.panic_at = Some(orig);
    }
}

impl MemoryBackend for ShardedOram {
    fn access(&mut self, now: Cycle, req: MemRequest, llc: &dyn CacheProbe) -> AccessOutcome {
        let (shard, local) = self.route(req.block);
        let probe = ShardProbe {
            llc,
            shards: self.shards.len() as u64,
            shard: shard as u64,
        };
        let local_req = MemRequest {
            block: local,
            ..req
        };
        let mut outcome = self.shards[shard].access(now, local_req, &probe);
        for fill in &mut outcome.fills {
            fill.block = self.unroute(shard, fill.block);
        }
        outcome
    }

    fn dummy_access(&mut self, now: Cycle) -> Cycle {
        // Periodic dummies go to the earliest-free shard, the way the
        // DRAM model picks a bank.
        let shard = self
            .shards
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.free_at())
            .map(|(i, _)| i)
            .expect("at least one shard");
        self.shards[shard].dummy_access(now)
    }

    fn free_at(&self) -> Cycle {
        // The scheduler can issue as soon as any shard is free.
        self.shards.iter().map(|s| s.free_at()).min().unwrap_or(0)
    }

    fn note_llc_hit(&mut self, block: BlockAddr) {
        let (shard, local) = self.route(block);
        self.shards[shard].note_llc_hit(local);
    }

    fn note_llc_eviction(&mut self, block: BlockAddr) {
        let (shard, local) = self.route(block);
        self.shards[shard].note_llc_eviction(local);
    }

    fn stats(&self) -> BackendStats {
        self.shards
            .iter()
            .map(|s| s.stats())
            .fold(BackendStats::default(), |acc, s| acc + s)
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn attach_obs(&mut self, obs: Obs) {
        // Every shard shares the one sink; shard identity is recoverable
        // from each shard's own statistics (`ShardedOram::shard`).
        for shard in &mut self.shards {
            shard.attach_obs(obs.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_mem::NoProbe;

    fn sharded(n: usize) -> ShardedOram {
        let oram = OramConfig {
            num_data_blocks: 1 << 10,
            store_payloads: false,
            trace_capacity: 0,
            ..OramConfig::default()
        };
        ShardedOram::new(&oram, &SchemeConfig::baseline(), n, 1 << 10, 42)
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        sharded(0);
    }

    #[test]
    fn routing_round_trips() {
        let s = sharded(4);
        for a in [0u64, 1, 5, 1023] {
            let (shard, local) = s.route(BlockAddr(a));
            assert_eq!(s.unroute(shard, local), BlockAddr(a));
        }
    }

    #[test]
    fn every_block_is_served_by_its_shard() {
        let mut s = sharded(4);
        for a in 0..64u64 {
            let o = s.access(0, MemRequest::read(BlockAddr(a)), &NoProbe);
            assert_eq!(o.fills.len(), 1);
            assert_eq!(o.fills[0].block, BlockAddr(a), "fill not mapped back");
        }
        let stats = s.stats();
        assert_eq!(stats.demand_accesses, 64);
        assert!(stats.stage_cycles_consistent());
    }

    #[test]
    fn one_shard_serializes_requests() {
        // N = 1 is the paper's serialized controller: back-to-back
        // requests to different blocks cannot overlap.
        let mut s = sharded(1);
        let a = s.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        let b = s.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
        assert!(b.complete_at > a.complete_at);
    }

    #[test]
    fn shards_overlap_requests_to_different_shards() {
        // With 4 shards, blocks 0..4 land on distinct controllers, so all
        // four requests issued at cycle 0 overlap; the serialized
        // controller must take ~4x longer for the same work.
        let run = |n: usize| {
            let mut s = sharded(n);
            (0..4u64)
                .map(|a| {
                    s.access(0, MemRequest::read(BlockAddr(a)), &NoProbe)
                        .complete_at
                })
                .max()
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(
            parallel * 2 < serial,
            "4 shards should overlap 4 requests: {parallel} vs serialized {serial}"
        );
    }

    #[test]
    fn batch_results_identical_at_any_worker_thread_count() {
        // The tentpole determinism contract at the shard level: moving
        // controllers onto worker threads and merging at the barrier must
        // be invisible — outcomes, aggregate statistics and every
        // per-shard stat agree with the serial path exactly.
        let reqs: Vec<MemRequest> = (0..48u64)
            .map(|a| MemRequest::read(BlockAddr((a * 7) % 1024)))
            .collect();
        let run = |threads: usize| {
            let mut s = sharded(4);
            s.set_worker_threads(threads);
            let batches: Vec<Vec<AccessOutcome>> =
                reqs.chunks(16).map(|c| s.access_batch(0, c)).collect();
            let per_shard: Vec<BackendStats> =
                (0..s.num_shards()).map(|i| s.shard(i).stats()).collect();
            (batches, s.stats(), per_shard)
        };
        let baseline = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn batch_fills_map_back_to_global_addresses() {
        let mut s = sharded(4);
        s.set_worker_threads(4);
        let reqs: Vec<MemRequest> = (0..8u64).map(|a| MemRequest::read(BlockAddr(a))).collect();
        let outcomes = s.access_batch(0, &reqs);
        assert_eq!(outcomes.len(), 8);
        for (req, o) in reqs.iter().zip(&outcomes) {
            assert!(
                o.fills.iter().any(|f| f.block == req.block),
                "demand block {:?} missing from fills",
                req.block
            );
        }
        assert_eq!(s.stats().demand_accesses, 8);
    }

    #[test]
    fn worker_panic_degrades_to_serial_and_batch_completes() {
        let reqs: Vec<MemRequest> = (0..16u64).map(|a| MemRequest::read(BlockAddr(a))).collect();
        let mut s = sharded(4);
        s.set_worker_threads(4);
        s.inject_worker_panic(5);
        let outcomes = s.access_batch(0, &reqs);
        assert_eq!(outcomes.len(), 16);
        for (req, o) in reqs.iter().zip(&outcomes) {
            assert!(
                o.fills.iter().any(|f| f.block == req.block),
                "demand block {:?} missing after panic fallback",
                req.block
            );
        }
        assert_eq!(s.batch_panics(), 1);
        // The controllers and the pool both survive: the next batch is
        // clean and the panic counter stays put.
        let again = s.access_batch(0, &reqs);
        assert_eq!(again.len(), 16);
        assert_eq!(s.batch_panics(), 1);
        assert_eq!(s.stats().demand_accesses, 32);
    }

    #[test]
    fn dummy_access_picks_an_idle_shard() {
        let mut s = sharded(2);
        let before: u64 = s.stats().dummy_accesses;
        s.dummy_access(0);
        s.dummy_access(0);
        assert_eq!(s.stats().dummy_accesses, before + 2);
    }
}
