//! `N` ORAM controllers with blocks split by address (shard = address
//! mod `N`), kept for the frozen benchmark crate only: its `par.*`
//! kernel (`perf/src/kernels.rs`) still builds one and calls the three
//! names below. No simulated memory kind uses it, because routing by
//! address shows an observer `log2 N` bits of every access. ROADMAP item
//! 2(f) deletes it with the `par.*` kernel.

use proram_core::{SchemeConfig, SuperBlockOram};
use proram_mem::{AccessOutcome, BlockAddr, Cycle, MemRequest, MemoryBackend, NoProbe};
use proram_oram::{OramConfig, PathOram};

/// `N` address-partitioned ORAM controllers served one after another.
#[derive(Debug)]
pub struct ShardedOram {
    shards: Vec<SuperBlockOram<PathOram>>,
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
        ShardedOram { shards }
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

    /// Does nothing: every shard steps on the caller's thread.
    pub fn set_worker_threads(&mut self, _threads: usize) {}

    /// Serves `reqs`, all issued at `now`, one after another: each goes
    /// to its shard's controller with no LLC probe, and its fills come
    /// back under their global addresses. Returns one outcome per
    /// request, in order.
    pub fn access_batch(&mut self, now: Cycle, reqs: &[MemRequest]) -> Vec<AccessOutcome> {
        reqs.iter()
            .map(|&req| {
                let (shard, local) = self.route(req.block);
                let local_req = MemRequest {
                    block: local,
                    ..req
                };
                let mut outcome = self.shards[shard].access(now, local_req, &NoProbe);
                for fill in &mut outcome.fills {
                    fill.block = self.unroute(shard, fill.block);
                }
                outcome
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(n: usize) -> ShardedOram {
        let oram = OramConfig {
            num_data_blocks: 1 << 10,
            store_payloads: false,
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
    fn every_fill_maps_back_to_its_global_address() {
        let mut s = sharded(4);
        s.set_worker_threads(2);
        let reqs: Vec<MemRequest> = (0..64u64).map(|a| MemRequest::read(BlockAddr(a))).collect();
        let outcomes = s.access_batch(0, &reqs);
        assert_eq!(outcomes.len(), reqs.len());
        for (req, o) in reqs.iter().zip(&outcomes) {
            assert_eq!(o.fills.len(), 1);
            assert_eq!(o.fills[0].block, req.block, "fill not mapped back");
        }
        // Address mod 4 spreads the 64 blocks evenly.
        for shard in &s.shards {
            assert_eq!(shard.stats().demand_accesses, 16);
        }
    }
}
