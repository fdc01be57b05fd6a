//! The insecure DRAM baseline.
//!
//! Matches the Graphite DRAM model used by the paper (Section 5.1): a flat
//! access latency (100 cycles) plus a pin-bandwidth-limited transfer
//! (16 GB/s on a 1 GHz chip = 16 bytes/cycle), and bank-level parallelism
//! so multiple requests — e.g. a demand miss plus prefetches — can overlap.
//! "While the insecure DRAM model can exploit bank-level parallelism and
//! issue multiple memory requests at the same time, all ORAM accesses are
//! serialized."

use crate::backend::{AccessOutcome, BackendStats, CacheProbe, Fill, Fills, MemoryBackend};
use crate::request::{Cycle, MemRequest};

/// Configuration of the DRAM timing model.
///
/// Defaults reproduce the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Flat access latency in cycles (row access + on-chip traversal).
    pub latency_cycles: u32,
    /// Pin bandwidth, bytes per core cycle (16 GB/s at 1 GHz = 16).
    pub bytes_per_cycle: u32,
    /// Cache line / transfer unit size in bytes.
    pub line_bytes: u32,
    /// Number of independent banks; each can hold one in-flight access.
    pub banks: u32,
}

impl DramConfig {
    /// Cycles the shared data bus is occupied per line transfer.
    fn transfer_cycles(&self) -> u64 {
        u64::from(self.line_bytes.div_ceil(self.bytes_per_cycle).max(1))
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            latency_cycles: 100,
            bytes_per_cycle: 16,
            line_bytes: 128,
            banks: 8,
        }
    }
}

/// The DRAM timing model.
///
/// Each access claims the earliest-free bank and then the shared data bus:
/// `complete = max(now, bank_free, bus_free) + latency + transfer`. With
/// an idle bus this yields the flat 108-cycle access of the paper's
/// default configuration; under prefetch pressure the bus serializes
/// transfers, modeling the bandwidth ceiling.
///
/// # Examples
///
/// ```
/// use proram_mem::{BlockAddr, Dram, DramConfig, MemRequest, MemoryBackend, NoProbe};
///
/// let mut dram = Dram::new(DramConfig::default());
/// let first = dram.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
/// assert_eq!(first.complete_at, 108);
/// // A second access issued at the same time overlaps in another bank and
/// // only waits for the bus.
/// let second = dram.access(0, MemRequest::read(BlockAddr(2)), &NoProbe);
/// assert_eq!(second.complete_at, 116);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    bank_free: Vec<Cycle>,
    bus_free: Cycle,
    stats: BackendStats,
    label: String,
}

impl Dram {
    /// Creates a DRAM model with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `bytes_per_cycle` is zero.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.banks > 0, "dram needs at least one bank");
        assert!(
            config.bytes_per_cycle > 0,
            "dram bandwidth must be positive"
        );
        Dram {
            config,
            bank_free: vec![0; config.banks as usize],
            bus_free: 0,
            stats: BackendStats::default(),
            label: "dram".to_owned(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn schedule(&mut self, now: Cycle) -> Cycle {
        // Earliest-free bank, then the shared bus.
        let (bank_idx, &bank_free) = self
            .bank_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("at least one bank");
        let start = now.max(bank_free).max(
            self.bus_free
                .saturating_sub(u64::from(self.config.latency_cycles)),
        );
        let transfer = self.config.transfer_cycles();
        // The bus is claimed after the latency portion.
        let bus_start = (start + u64::from(self.config.latency_cycles)).max(self.bus_free);
        let complete = bus_start + transfer;
        self.bank_free[bank_idx] = complete;
        self.bus_free = bus_start + transfer;
        self.stats.busy_cycles += transfer;
        self.stats.bytes_moved += u64::from(self.config.line_bytes);
        self.stats.physical_accesses += 1;
        complete
    }
}

impl MemoryBackend for Dram {
    fn access(&mut self, now: Cycle, req: MemRequest, _llc: &dyn CacheProbe) -> AccessOutcome {
        if req.prefetch {
            self.stats.prefetch_requests += 1;
        } else {
            self.stats.demand_accesses += 1;
        }
        let complete_at = self.schedule(now);
        self.stats.data_path_cycles += self.config.transfer_cycles();
        let mut fills = Fills::new();
        fills.push(Fill {
            block: req.block,
            prefetched: req.prefetch,
        });
        AccessOutcome { complete_at, fills }
    }

    fn dummy_access(&mut self, now: Cycle) -> Cycle {
        self.stats.dummy_accesses += 1;
        let complete = self.schedule(now);
        self.stats.dummy_path_cycles += self.config.transfer_cycles();
        complete
    }

    fn free_at(&self) -> Cycle {
        self.bank_free.iter().copied().min().unwrap_or(0)
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NoProbe;
    use crate::request::BlockAddr;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn single_access_latency() {
        let mut d = dram();
        let o = d.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        // 100 latency + 128/16 = 8 transfer.
        assert_eq!(o.complete_at, 108);
        assert_eq!(*o.fills, [Fill::demand(BlockAddr(0))]);
    }

    #[test]
    fn accesses_overlap_across_banks() {
        let mut d = dram();
        let a = d.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        let b = d.access(0, MemRequest::read(BlockAddr(1)), &NoProbe);
        // Bank-parallel: only the bus serializes, so the second access
        // finishes one transfer later, not one full access later.
        assert_eq!(b.complete_at, a.complete_at + d.config().transfer_cycles());
    }

    #[test]
    fn bus_saturates_with_many_parallel_requests() {
        let mut d = dram();
        let mut last = 0;
        for i in 0..32 {
            last = d
                .access(0, MemRequest::read(BlockAddr(i)), &NoProbe)
                .complete_at;
        }
        // 32 transfers of 8 cycles each must occupy >= 256 bus cycles.
        assert!(last >= 100 + 32 * 8, "last={last}");
    }

    #[test]
    fn idle_gaps_do_not_accumulate() {
        let mut d = dram();
        d.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        let late = d.access(10_000, MemRequest::read(BlockAddr(1)), &NoProbe);
        assert_eq!(late.complete_at, 10_108);
    }

    #[test]
    fn prefetch_counted_separately() {
        let mut d = dram();
        d.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        d.access(0, MemRequest::prefetch(BlockAddr(1)), &NoProbe);
        let s = d.stats();
        assert_eq!(s.demand_accesses, 1);
        assert_eq!(s.prefetch_requests, 1);
        assert_eq!(s.physical_accesses, 2);
    }

    #[test]
    fn prefetch_fill_is_marked() {
        let mut d = dram();
        let o = d.access(0, MemRequest::prefetch(BlockAddr(5)), &NoProbe);
        assert_eq!(*o.fills, [Fill::prefetch(BlockAddr(5))]);
    }

    #[test]
    fn dummy_access_occupies_resources() {
        let mut d = dram();
        let c = d.dummy_access(0);
        assert_eq!(c, 108);
        assert_eq!(d.stats().dummy_accesses, 1);
        assert_eq!(d.stats().physical_accesses, 1);
    }

    #[test]
    fn stage_attribution_covers_all_busy_cycles() {
        let mut d = dram();
        d.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        d.access(0, MemRequest::prefetch(BlockAddr(1)), &NoProbe);
        d.dummy_access(0);
        let s = d.stats();
        assert!(s.stage_cycles_consistent());
        assert_eq!(s.data_path_cycles, 2 * d.config().transfer_cycles());
        assert_eq!(s.dummy_path_cycles, d.config().transfer_cycles());
        assert_eq!(s.posmap_path_cycles, 0);
    }

    #[test]
    fn bytes_moved_accumulates() {
        let mut d = dram();
        d.access(0, MemRequest::read(BlockAddr(0)), &NoProbe);
        d.access(0, MemRequest::write(BlockAddr(1)), &NoProbe);
        assert_eq!(d.stats().bytes_moved, 256);
    }

    #[test]
    fn bandwidth_sweep_changes_transfer_time() {
        for (bpc, expect) in [(4u32, 32u64), (8, 16), (16, 8)] {
            let cfg = DramConfig {
                bytes_per_cycle: bpc,
                ..DramConfig::default()
            };
            assert_eq!(cfg.transfer_cycles(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        Dram::new(DramConfig {
            banks: 0,
            ..DramConfig::default()
        });
    }

    #[test]
    fn free_at_tracks_earliest_bank() {
        let mut d = dram();
        assert_eq!(d.free_at(), 0);
        for i in 0..8 {
            d.access(0, MemRequest::read(BlockAddr(i)), &NoProbe);
        }
        assert!(d.free_at() > 0);
    }

    #[test]
    fn label_is_dram() {
        assert_eq!(dram().label(), "dram");
    }
}
