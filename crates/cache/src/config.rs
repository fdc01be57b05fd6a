//! Cache geometry configuration.

/// Geometry and timing of one cache level.
///
/// # Examples
///
/// ```
/// use proram_cache::CacheConfig;
///
/// let l2 = CacheConfig::new(512 * 1024, 8, 128, 8);
/// assert_eq!(l2.num_sets(), 512);
/// assert_eq!(l2.num_lines(), 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line size in bytes; must match the memory system's block size.
    pub line_bytes: u32,
    /// Hit latency in cycles.
    pub hit_latency: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`check`](CacheConfig::check).
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32, hit_latency: u32) -> Self {
        let cfg = CacheConfig {
            capacity_bytes,
            ways,
            line_bytes,
            hit_latency,
        };
        cfg.check();
        cfg
    }

    /// Checks the geometry. The fields are public, so a configuration can
    /// be edited after [`new`](CacheConfig::new) accepted it;
    /// [`Cache::new`](crate::Cache::new) runs this again on what it is
    /// actually given.
    ///
    /// # Panics
    ///
    /// Panics unless capacity, ways and line size are positive, there are
    /// at most 255 ways (a set's live count is a `u8`), capacity is a
    /// multiple of `ways * line_bytes`, and the resulting set count is a
    /// power of two (the set index is a mask).
    pub fn check(&self) {
        assert!(
            self.capacity_bytes > 0 && self.ways > 0 && self.line_bytes > 0,
            "cache geometry must be positive"
        );
        assert!(self.ways <= 255, "at most 255 ways, got {}", self.ways);
        let set_bytes = u64::from(self.ways) * u64::from(self.line_bytes);
        assert!(
            self.capacity_bytes.is_multiple_of(set_bytes),
            "capacity {} not a multiple of ways*line ({set_bytes})",
            self.capacity_bytes
        );
        assert!(
            self.num_sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.capacity_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u64 {
        self.capacity_bytes / u64::from(self.line_bytes)
    }

    /// The paper's L1: 32 KB, 4-way (Table 1).
    pub fn paper_l1(line_bytes: u32) -> Self {
        CacheConfig::new(32 * 1024, 4, line_bytes, 1)
    }

    /// The paper's shared L2: 512 KB per tile, 8-way (Table 1).
    pub fn paper_l2(line_bytes: u32) -> Self {
        CacheConfig::new(512 * 1024, 8, line_bytes, 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_derivations() {
        let c = CacheConfig::new(32 * 1024, 4, 128, 1);
        assert_eq!(c.num_sets(), 64);
        assert_eq!(c.num_lines(), 256);
    }

    #[test]
    fn paper_configs() {
        assert_eq!(CacheConfig::paper_l1(128).num_lines(), 256);
        assert_eq!(CacheConfig::paper_l2(128).num_lines(), 4096);
        // Cacheline sweep (Fig 14) keeps geometry valid at 64 and 256 B.
        for lb in [64, 128, 256] {
            CacheConfig::paper_l1(lb);
            CacheConfig::paper_l2(lb);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panic() {
        CacheConfig::new(3 * 128 * 2, 2, 128, 1);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_ways_panic() {
        CacheConfig::new(1024, 0, 128, 1);
    }

    #[test]
    #[should_panic(expected = "at most 255 ways")]
    fn more_ways_than_a_live_count_holds_panic() {
        CacheConfig::new(256 * 128, 256, 128, 1);
    }
}
