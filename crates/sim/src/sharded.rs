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

use proram_core::{SchemeConfig, SuperBlockOram};
use proram_mem::{
    AccessOutcome, BackendStats, BlockAddr, CacheProbe, Cycle, MemRequest, MemoryBackend, NoProbe,
};
use proram_obs::Obs;
use proram_oram::{OramConfig, PathOram};

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
#[derive(Debug)]
pub struct ShardedOram {
    shards: Vec<SuperBlockOram<PathOram>>,
    label: String,
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
        }
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

    /// Does nothing: the simulated machine is one thread, so every shard
    /// steps on the caller's. Kept only because the frozen benchmark
    /// crate (`perf/src/kernels.rs`) still calls it; it goes with ROADMAP
    /// item 2's `benchmark` PR, the one that retires the names `perf/`
    /// pins.
    pub fn set_worker_threads(&mut self, _threads: usize) {}

    /// Serves `reqs`, all issued at `now`, one after another through
    /// [`MemoryBackend::access`] with no LLC probe, and returns one
    /// outcome per request in order. Kept only because the frozen
    /// benchmark crate (`perf/src/kernels.rs`) still calls it; it goes
    /// with ROADMAP item 2's `benchmark` PR.
    pub fn access_batch(&mut self, now: Cycle, reqs: &[MemRequest]) -> Vec<AccessOutcome> {
        reqs.iter()
            .map(|&r| self.access(now, r, &NoProbe))
            .collect()
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
        // Every shard shares the one sink; its events carry shard-local
        // addresses.
        for shard in &mut self.shards {
            shard.attach_obs(obs.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn dummy_access_picks_an_idle_shard() {
        let mut s = sharded(2);
        let before: u64 = s.stats().dummy_accesses;
        s.dummy_access(0);
        s.dummy_access(0);
        assert_eq!(s.stats().dummy_accesses, before + 2);
    }
}
