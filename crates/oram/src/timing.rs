//! First-principles Path ORAM timing.
//!
//! "The 16 GB/s is calculated assuming a 1 GHz chip with 128 pins and pins
//! are the bottleneck of the data transfer" (paper Section 5.1). A path
//! access reads and writes `levels * Z` blocks, so its latency is the
//! bytes moved divided by the pin bandwidth, plus a fixed controller
//! overhead (decryption pipeline, DRAM command overhead).

/// Timing parameters for one ORAM tree access.
///
/// # Examples
///
/// ```
/// use proram_oram::OramTiming;
///
/// let t = OramTiming::default();
/// // 2 (read+write) * 26 levels * Z=3 * (128+16) bytes / 16 B-per-cycle.
/// assert_eq!(t.path_cycles(26, 3), 1404 + 60);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OramTiming {
    /// Pin bandwidth in bytes per cycle (16 GB/s at 1 GHz = 16).
    pub bytes_per_cycle: u32,
    /// Data payload bytes per block (the cache-line size).
    pub block_bytes: u32,
    /// Per-block metadata moved on the wire (address + leaf + IV share).
    pub meta_bytes: u32,
    /// Fixed per-path-access overhead: decryption pipeline fill, DRAM
    /// command/row overhead.
    pub fixed_overhead_cycles: u32,
    /// Multiplier on the bytes-moved term modelling achievable DRAM
    /// efficiency (1.0 = pure pin-bandwidth limit). The paper's quoted
    /// 2364-cycle default latency corresponds to a derate of about 1.6
    /// over the pure-pin number; see EXPERIMENTS.md.
    pub bandwidth_derate: f64,
}

impl OramTiming {
    /// Cycles for one full path access (read + write of every bucket on
    /// the path) of a tree with `levels` levels and `z` blocks per bucket.
    pub fn path_cycles(&self, levels: u32, z: usize) -> u64 {
        self.cycles_for_bytes(self.path_bytes(levels, z))
    }

    /// Cycles one tree access costs that moves `bytes` on the memory
    /// bus: the derated transfer over pin bandwidth plus the fixed
    /// overhead.
    pub fn cycles_for_bytes(&self, bytes: u64) -> u64 {
        let transfer =
            (bytes as f64 * self.bandwidth_derate / f64::from(self.bytes_per_cycle)).ceil() as u64;
        transfer + u64::from(self.fixed_overhead_cycles)
    }

    /// Bytes moved on the memory bus by one path access.
    pub fn path_bytes(&self, levels: u32, z: usize) -> u64 {
        2u64 * u64::from(levels) * z as u64 * u64::from(self.block_bytes + self.meta_bytes)
    }

    /// Timing with the paper's Table 1 parameters and a derate calibrated
    /// so the full-scale (8 GB, 26-level, Z=3) access costs the paper's
    /// 2364 cycles.
    pub fn paper_calibrated() -> Self {
        OramTiming {
            bandwidth_derate: 1.64,
            fixed_overhead_cycles: 62,
            ..OramTiming::default()
        }
    }

    /// Timing with a different pin bandwidth in GB/s at 1 GHz (Fig 11
    /// sweep: 4, 8, 16).
    pub fn with_bandwidth_gbps(mut self, gbps: u32) -> Self {
        self.bytes_per_cycle = gbps;
        self
    }
}

impl Default for OramTiming {
    fn default() -> Self {
        OramTiming {
            bytes_per_cycle: 16,
            block_bytes: 128,
            meta_bytes: 16,
            fixed_overhead_cycles: 60,
            bandwidth_derate: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_formula() {
        let t = OramTiming::default();
        // 2 * 20 * 3 * 144 / 16 = 1080, + 60 overhead.
        assert_eq!(t.path_cycles(20, 3), 1140);
        assert_eq!(t.path_bytes(20, 3), 17_280);
    }

    #[test]
    fn paper_scale_calibration() {
        // Full-scale tree: 8 GB / 128 B = 2^26 data blocks; with the
        // posmap regions the unified tree needs 2^25 leaves => 26 levels.
        let t = OramTiming::paper_calibrated();
        let cycles = t.path_cycles(26, 3);
        let err = (cycles as f64 - 2364.0).abs() / 2364.0;
        assert!(
            err < 0.02,
            "calibrated latency {cycles} not within 2% of 2364"
        );
    }

    #[test]
    fn z4_costs_more_than_z3() {
        let t = OramTiming::default();
        assert!(t.path_cycles(20, 4) > t.path_cycles(20, 3));
    }

    #[test]
    fn halving_bandwidth_roughly_doubles_transfer() {
        let t16 = OramTiming::default();
        let t8 = OramTiming::default().with_bandwidth_gbps(8);
        let base = t16.path_cycles(20, 3) - 60;
        assert_eq!(t8.path_cycles(20, 3) - 60, base * 2);
    }

    #[test]
    fn block_size_scales_bytes() {
        let t64 = OramTiming {
            block_bytes: 64,
            ..OramTiming::default()
        };
        let t256 = OramTiming {
            block_bytes: 256,
            ..OramTiming::default()
        };
        assert!(t64.path_bytes(20, 3) < t256.path_bytes(20, 3));
    }
}
