//! System configuration (the paper's Table 1).

use proram_cache::HierarchyConfig;
use proram_core::SchemeConfig;
use proram_mem::{Cycle, DramConfig};
use proram_oram::OramConfig;

/// Which main-memory technology backs the LLC.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoryKind {
    /// Insecure DRAM (the paper's `dram` baseline).
    Dram,
    /// Path ORAM with the given super-block scheme. Use
    /// [`SchemeConfig::baseline`] for plain ORAM, `static_scheme` for
    /// `stat`, `dynamic` for PrORAM.
    Oram(SchemeConfig),
    /// `N` independent ORAM controllers behind one scheduler, blocks
    /// statically address-partitioned over them
    /// ([`crate::sharded::ShardedOram`]). `OramShards(s, 1)` reproduces
    /// the serialized single controller of the paper's Section 2.6;
    /// larger `N` relaxes it (the serialization ablation).
    OramShards(SchemeConfig, usize),
}

impl MemoryKind {
    /// Short label for experiment output.
    pub fn label(&self) -> String {
        match self {
            MemoryKind::Dram => "dram".to_owned(),
            MemoryKind::Oram(s) => s.label().to_owned(),
            MemoryKind::OramShards(s, n) => format!("{}_sh{n}", s.label()),
        }
    }
}

/// Full system configuration.
///
/// Defaults mirror Table 1: 1 GHz in-order core, 32 KB L1, 512 KB L2,
/// 128-byte lines, 16 GB/s DRAM, Z = 3 ORAM with 100-entry stash and a
/// maximum super-block size of 2.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// Main-memory technology.
    pub memory: MemoryKind,
    /// ORAM parameters (used when `memory` is [`MemoryKind::Oram`] or
    /// [`MemoryKind::OramShards`], each shard built from them).
    /// `num_data_blocks` is treated as a minimum — the system grows it to
    /// cover the workload footprint.
    pub oram: OramConfig,
    /// DRAM parameters (used for DRAM runs; the pin bandwidth also feeds
    /// the ORAM timing model).
    pub dram: DramConfig,
    /// Enable the traditional stream prefetcher (Figure 5): 16 streams,
    /// trained after 2 misses at one stride of at most 8 blocks, 2 blocks
    /// ahead.
    pub stream_prefetcher: bool,
    /// Public `O_int` ladder for timing-channel protection, ascending
    /// (Figure 15, Section 2.5). One rung is a fixed `O_int`; more rungs
    /// let the interval move one rung per public epoch, leaking
    /// `log2(rungs)` bits each
    /// ([`proram_mem::leaked_bits`]). Empty disables periodic timing.
    pub periodic_intervals: Vec<Cycle>,
    /// RNG seed for the ORAM.
    pub seed: u64,
}

impl SystemConfig {
    /// Table 1 defaults with the given memory kind.
    pub fn paper_default(memory: MemoryKind) -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::default(),
            memory,
            oram: OramConfig::default(),
            dram: DramConfig::default(),
            stream_prefetcher: false,
            periodic_intervals: Vec::new(),
            seed: 42,
        }
    }

    /// A tiny configuration for unit tests: small caches and ORAM so runs
    /// finish in milliseconds.
    pub fn quick_test(memory: MemoryKind) -> Self {
        SystemConfig {
            oram: OramConfig {
                num_data_blocks: 1 << 12,
                store_payloads: false,
                trace_capacity: 0,
                ..OramConfig::default()
            },
            ..SystemConfig::paper_default(memory)
        }
    }

    /// Line size in bytes (shared by caches, DRAM and ORAM blocks).
    pub fn line_bytes(&self) -> u64 {
        u64::from(self.hierarchy.l2.line_bytes)
    }

    /// Applies a line-size sweep (Figure 14), keeping every component
    /// consistent.
    pub fn with_line_bytes(mut self, line_bytes: u32) -> Self {
        self.hierarchy = HierarchyConfig::paper(line_bytes);
        self.dram.line_bytes = line_bytes;
        self.oram.timing.block_bytes = line_bytes;
        self
    }

    /// Applies a bandwidth sweep in GB/s at 1 GHz (Figure 11).
    pub fn with_bandwidth_gbps(mut self, gbps: u32) -> Self {
        self.dram.bytes_per_cycle = gbps;
        self.oram.timing.bytes_per_cycle = gbps;
        self
    }

    /// Checks consistency of line sizes across components and of the
    /// `O_int` ladder.
    ///
    /// # Panics
    ///
    /// Panics if cache, DRAM and ORAM line sizes disagree, if the line
    /// size is not a power of two (the system turns a byte address into a
    /// block address by a shift), or if `periodic_intervals` has a zero
    /// rung or is not strictly ascending.
    pub fn validate(&self) {
        assert!(
            self.periodic_intervals.first() != Some(&0)
                && self.periodic_intervals.is_sorted_by(|a, b| a < b),
            "periodic_intervals {:?} must be positive and strictly ascending",
            self.periodic_intervals
        );
        assert!(
            self.line_bytes().is_power_of_two(),
            "line size {} is not a power of two",
            self.line_bytes()
        );
        assert_eq!(
            self.hierarchy.l1.line_bytes, self.hierarchy.l2.line_bytes,
            "L1/L2 line sizes differ"
        );
        assert_eq!(
            self.dram.line_bytes, self.hierarchy.l2.line_bytes,
            "DRAM line size differs"
        );
        assert_eq!(
            self.oram.timing.block_bytes, self.hierarchy.l2.line_bytes,
            "ORAM block size differs from the cache line size"
        );
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_cache::CacheConfig;

    #[test]
    fn defaults_match_table_1() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.hierarchy.l1.capacity_bytes, 32 * 1024);
        assert_eq!(cfg.hierarchy.l2.capacity_bytes, 512 * 1024);
        assert_eq!(cfg.line_bytes(), 128);
        assert_eq!(cfg.dram.bytes_per_cycle, 16);
        assert_eq!(cfg.oram.z, 3);
        assert_eq!(cfg.oram.stash_limit, 100);
        cfg.validate();
    }

    #[test]
    fn line_size_sweep_stays_consistent() {
        for lb in [64u32, 128, 256] {
            let cfg = SystemConfig::default().with_line_bytes(lb);
            cfg.validate();
            assert_eq!(cfg.line_bytes(), u64::from(lb));
        }
    }

    #[test]
    fn bandwidth_sweep_updates_both_models() {
        let cfg = SystemConfig::default().with_bandwidth_gbps(4);
        assert_eq!(cfg.dram.bytes_per_cycle, 4);
        assert_eq!(cfg.oram.timing.bytes_per_cycle, 4);
    }

    #[test]
    fn memory_labels() {
        assert_eq!(MemoryKind::Dram.label(), "dram");
        assert_eq!(MemoryKind::Oram(SchemeConfig::dynamic(2)).label(), "dyn");
        assert_eq!(MemoryKind::Oram(SchemeConfig::baseline()).label(), "oram");
        assert_eq!(
            MemoryKind::OramShards(SchemeConfig::baseline(), 4).label(),
            "oram_sh4"
        );
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn line_size_that_is_not_a_power_of_two_rejected() {
        // Every component agrees on 96 bytes and each cache geometry is
        // valid on its own (64 x 4 and 512 x 8 sets).
        let mut cfg = SystemConfig::default();
        cfg.hierarchy.l1 = CacheConfig::new(64 * 4 * 96, 4, 96, 1);
        cfg.hierarchy.l2 = CacheConfig::new(512 * 8 * 96, 8, 96, 8);
        cfg.dram.line_bytes = 96;
        cfg.oram.timing.block_bytes = 96;
        cfg.validate();
    }

    fn with_ladder(periodic_intervals: Vec<Cycle>) -> SystemConfig {
        SystemConfig {
            periodic_intervals,
            ..SystemConfig::default()
        }
    }

    /// An empty ladder is off and one rung is a fixed `O_int`; a zero
    /// rung is caught here, not later inside `Periodic::new`.
    #[test]
    #[should_panic(expected = "periodic_intervals [0, 100] must be positive and strictly")]
    fn zero_interval_rung_rejected() {
        for ladder in [vec![], vec![100], vec![100, 200]] {
            with_ladder(ladder).validate();
        }
        with_ladder(vec![0, 100]).validate();
    }

    #[test]
    #[should_panic(expected = "periodic_intervals [100, 100] must be positive and strictly")]
    fn interval_ladder_that_is_not_strictly_ascending_rejected() {
        with_ladder(vec![100, 100]).validate();
    }

    #[test]
    #[should_panic(expected = "ORAM block size")]
    fn inconsistent_line_size_rejected() {
        let mut cfg = SystemConfig::default();
        cfg.oram.timing.block_bytes = 64;
        cfg.validate();
    }
}
