//! ORAM configuration: the [`OramConfig`] struct, its validating
//! [`OramConfigBuilder`] and the typed [`ConfigError`].

use crate::addr::AddressSpace;
use crate::bucket::Bucket;
use crate::fault::FaultConfig;
use crate::timing::OramTiming;
use std::fmt;

/// A rejected [`OramConfig`]: which field is inconsistent and why.
///
/// Returned by [`OramConfig::check`] and [`OramConfigBuilder::build`];
/// the [`fmt::Display`] text is the same message the panicking
/// [`OramConfig::validate`] uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    message: String,
}

impl ConfigError {
    fn new(field: &'static str, message: impl Into<String>) -> Self {
        ConfigError {
            field,
            message: message.into(),
        }
    }

    /// Name of the [`OramConfig`] field the error concerns.
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a [`crate::PathOram`] instance.
///
/// Defaults follow the paper's Table 1, scaled down from the 8 GB /
/// 2^26-block tree to a 2^20-block tree so experiments run at laptop
/// scale. The timing formula is unchanged; see `DESIGN.md` §7.
///
/// # Examples
///
/// ```
/// use proram_oram::OramConfig;
///
/// let cfg = OramConfig::default();
/// assert_eq!(cfg.z, 3);
/// assert_eq!(cfg.stash_limit, 100);
/// assert!(cfg.tree_levels() >= 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OramConfig {
    /// Number of data blocks stored (paper: 2^26; scaled default 2^20).
    pub num_data_blocks: u64,
    /// Blocks per bucket (paper default 3), at most
    /// [`Bucket::MAX_Z`](crate::Bucket::MAX_Z).
    pub z: usize,
    /// Position-map entries per posmap block (paper: 32 entries of 25+2
    /// bits in a 128-byte block).
    pub entries_per_posmap_block: u64,
    /// Number of posmap hierarchies stored in the tree. The paper's
    /// "Number of ORAM hierarchies = 4" is data + 3 posmap levels with
    /// the smallest level's labels held on-chip; here that corresponds to
    /// `on_tree_hierarchies = 3` minus however many fit on-chip — the
    /// constructor clamps so the on-chip table stays small.
    pub on_tree_hierarchies: u8,
    /// Stash occupancy at which background eviction kicks in (paper
    /// default 100).
    pub stash_limit: usize,
    /// PLB capacity in posmap blocks.
    pub plb_blocks: usize,
    /// Use a tree one level shorter than the default sizing, doubling
    /// occupancy (~2/3 of slots at Z=3). Denser trees shorten paths but
    /// raise background-eviction pressure — the trade-off explored in
    /// \[25\].
    pub dense_tree: bool,
    /// Number of levels at the top of the tree held in on-chip SRAM
    /// (*treetop caching*, part of the design space of the paper's
    /// baseline \[25\]). Cached levels cost no DRAM traffic on a path
    /// access; level `k` needs `(2^k - 1) * Z` on-chip block slots, so
    /// only a handful of levels are realistic.
    pub treetop_levels: u32,
    /// Timing model.
    pub timing: OramTiming,
    /// Carry real payload bytes, in an encrypted DRAM image that is then
    /// the only copy of every bucket below the treetop: a path fetch
    /// authenticates, decrypts and decodes its buckets out of the image,
    /// a write-back seals them into it. Off (opaque mode), the tree is
    /// plaintext metadata only — what the timing experiments run on.
    pub store_payloads: bool,
    /// Initial super-block grouping: every aligned group of this many data
    /// blocks starts mapped to one common leaf. `1` disables grouping;
    /// the *static super block* scheme of paper Section 3.3 sets this to
    /// its super-block size ("In the initialization stage of Path ORAM,
    /// blocks are merged into super blocks").
    pub init_group_size: u64,
    /// Seeded fault injection on the encrypted image (requires
    /// `store_payloads`). `None` disables the injector entirely; `Some`
    /// with all rates zero installs it silently — the injector draws from
    /// its own RNG, so observable behavior is unchanged. Transient read
    /// failures are retried within the injector's budget; a corrupted,
    /// torn or rolled-back bucket is detected by the read that meets it
    /// and fail-stops the controller with the typed error (there is no
    /// second copy to repair it from).
    pub fault: Option<FaultConfig>,
    /// Deterministic crash injection (requires `store_payloads`): every
    /// access runs under the crash-consistent commit protocol of
    /// DESIGN.md section 15, and the configured kill point fires on its
    /// Nth crossing, unwinding the access as
    /// [`crate::OramError::Crashed`]. Recovery
    /// ([`crate::PathOram::recover`]) then rolls the journal back or
    /// replays it forward. `None` disables both injection and journaling
    /// — the hot path is byte-identical to a crash-free build. Mutually
    /// exclusive with [`OramConfig::fault`]: the injectors' accounting
    /// assumes they own the failure surface alone.
    pub crash: Option<crate::crash::CrashConfig>,
}

impl OramConfig {
    /// Scaled paper configuration with the given data-block count.
    ///
    /// # Panics
    ///
    /// Panics if `num_data_blocks` is zero.
    pub fn scaled(num_data_blocks: u64) -> Self {
        assert!(num_data_blocks > 0, "ORAM needs at least one data block");
        OramConfig {
            num_data_blocks,
            ..OramConfig::default()
        }
    }

    /// A tiny functional configuration for unit tests: payload storage on,
    /// small posmap fanout so recursion is exercised.
    pub fn small_for_tests(num_data_blocks: u64) -> Self {
        OramConfig {
            num_data_blocks,
            z: 4,
            entries_per_posmap_block: 8,
            on_tree_hierarchies: 2,
            stash_limit: 50,
            plb_blocks: 8,
            timing: OramTiming::default(),
            store_payloads: true,
            init_group_size: 1,
            dense_tree: false,
            treetop_levels: 0,
            fault: None,
            crash: None,
        }
    }

    /// The unified address-space layout implied by this configuration.
    pub fn address_space(&self) -> AddressSpace {
        AddressSpace::new(
            self.num_data_blocks,
            self.entries_per_posmap_block,
            self.on_tree_hierarchies,
        )
    }

    /// Number of tree levels: a tree whose slot count is roughly `3x` the
    /// block count at Z = 3 (leaves = next power of two of half the
    /// blocks), matching the occupancy regime of the paper's baseline
    /// \[25\].
    pub fn tree_levels(&self) -> u32 {
        let total = self.address_space().total_tree_blocks();
        let half = (total / 2).max(2);
        // Round *down* to a power of two: with Z = 3 this puts occupancy a
        // bit above 1/3 of the slots, the regime of the paper's baseline.
        let leaves = 1u64 << (63 - half.leading_zeros());
        let levels = leaves.trailing_zeros() + 1;
        if self.dense_tree {
            (levels - 1).max(2)
        } else {
            levels
        }
    }

    /// Number of tree levels that actually move on the DRAM bus per path
    /// access (total levels minus the treetop-cached ones, at least 1).
    pub fn off_chip_levels(&self) -> u32 {
        self.tree_levels()
            .saturating_sub(self.treetop_levels)
            .max(1)
    }

    /// Cycles for one path access under this configuration (treetop-cached
    /// levels are on-chip and free).
    pub fn path_cycles(&self) -> u64 {
        self.timing.path_cycles(self.off_chip_levels(), self.z)
    }

    /// Checks internal consistency, reporting the first inconsistency as
    /// a typed [`ConfigError`].
    ///
    /// This is the canonical validation path; the panicking
    /// [`OramConfig::validate`] and [`OramConfigBuilder::build`] both
    /// delegate here.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a field is out of range on its own
    /// (zero blocks, zero `z`, a fault rate that is not a probability,
    /// ...) or the fields are jointly inconsistent (tree too small for
    /// the blocks, treetop cache covering the whole tree, fault injection
    /// without a stored image, ...).
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.num_data_blocks == 0 {
            return Err(ConfigError::new(
                "num_data_blocks",
                "ORAM needs at least one data block",
            ));
        }
        if self.z == 0 {
            return Err(ConfigError::new("z", "Z must be positive"));
        }
        if self.z > Bucket::MAX_Z {
            return Err(ConfigError::new(
                "z",
                format!(
                    "Z above {}, the slots a bucket is laid out for",
                    Bucket::MAX_Z
                ),
            ));
        }
        if self.entries_per_posmap_block < 2 {
            return Err(ConfigError::new(
                "entries_per_posmap_block",
                "posmap fanout must be >= 2",
            ));
        }
        if self.stash_limit == 0 {
            return Err(ConfigError::new(
                "stash_limit",
                "stash limit must be positive",
            ));
        }
        if self.plb_blocks == 0 {
            return Err(ConfigError::new(
                "plb_blocks",
                "PLB must hold at least one block",
            ));
        }
        if !self.init_group_size.is_power_of_two()
            || self.init_group_size > self.entries_per_posmap_block
        {
            return Err(ConfigError::new(
                "init_group_size",
                "init_group_size must be a power of two no larger than the posmap fanout",
            ));
        }
        let space = self.address_space();
        let levels = self.tree_levels();
        let slots = (1u64 << levels).saturating_sub(1) * self.z as u64;
        if space.total_tree_blocks() > slots {
            return Err(ConfigError::new(
                "z",
                format!(
                    "tree too small: {} blocks, {} slots",
                    space.total_tree_blocks(),
                    slots
                ),
            ));
        }
        let leaves = 1u64 << (levels - 1);
        if leaves > u64::from(u32::MAX) {
            return Err(ConfigError::new(
                "num_data_blocks",
                "leaf labels overflow u32",
            ));
        }
        if self.treetop_levels >= levels {
            return Err(ConfigError::new(
                "treetop_levels",
                format!(
                    "treetop cache ({}) must leave at least one off-chip level: \
                     off_chip_levels() would clamp to 1 of {levels} tree levels",
                    self.treetop_levels
                ),
            ));
        }
        if self.treetop_levels > 16 {
            return Err(ConfigError::new(
                "treetop_levels",
                format!(
                    "treetop cache of {} levels needs 2^{} on-chip buckets",
                    self.treetop_levels, self.treetop_levels
                ),
            ));
        }
        if self.store_payloads {
            let entry_bytes = crate::storage::ENTRY_BYTES as u64;
            if self.entries_per_posmap_block * entry_bytes > u64::from(self.timing.block_bytes) {
                return Err(ConfigError::new(
                    "entries_per_posmap_block",
                    "posmap entries do not fit a serialized block; reduce entries_per_posmap_block",
                ));
            }
        }
        if let Some(fault) = &self.fault {
            if !self.store_payloads {
                return Err(ConfigError::new(
                    "fault",
                    "fault injection requires store_payloads (there is no image to corrupt otherwise)",
                ));
            }
            if let Err(msg) = fault.validate() {
                return Err(ConfigError::new("fault", msg));
            }
        }
        if let Some(crash) = &self.crash {
            if !self.store_payloads {
                return Err(ConfigError::new(
                    "crash",
                    "crash injection requires store_payloads (the commit protocol journals the image)",
                ));
            }
            if self.fault.is_some() {
                return Err(ConfigError::new(
                    "crash",
                    "crash injection and fault injection are mutually exclusive",
                ));
            }
            if let Err(msg) = crash.validate() {
                return Err(ConfigError::new("crash", msg));
            }
        }
        Ok(())
    }

    /// Checks internal consistency, panicking on the first inconsistency.
    ///
    /// Thin wrapper over [`OramConfig::check`] for construction paths
    /// that treat a bad configuration as a programming error (the
    /// constructors call this).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`]'s message when the tree cannot
    /// hold the blocks, payload storage is requested with a posmap fanout
    /// too large to serialize into one block, or any other field is
    /// inconsistent.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// A validating builder seeded with [`OramConfig::default`].
    pub fn builder() -> OramConfigBuilder {
        OramConfigBuilder::default()
    }

    /// A builder seeded with this configuration, for deriving variants.
    pub fn to_builder(&self) -> OramConfigBuilder {
        OramConfigBuilder { cfg: self.clone() }
    }
}

/// Builder for [`OramConfig`] whose [`OramConfigBuilder::build`]
/// validates the whole configuration before handing it out.
///
/// Struct-literal construction stays possible (all fields are public and
/// `Default` works), but the builder is the canonical public surface: it
/// cannot hand back a configuration that a constructor would reject.
///
/// # Examples
///
/// ```
/// use proram_oram::OramConfig;
///
/// let cfg = OramConfig::builder()
///     .num_data_blocks(1 << 14)
///     .stash_limit(80)
///     .treetop_levels(2)
///     .build()
///     .expect("consistent configuration");
/// assert_eq!(cfg.num_data_blocks, 1 << 14);
///
/// let err = OramConfig::builder().num_data_blocks(0).build().unwrap_err();
/// assert_eq!(err.field(), "num_data_blocks");
/// ```
#[derive(Debug, Clone, Default)]
pub struct OramConfigBuilder {
    cfg: OramConfig,
}

impl OramConfigBuilder {
    /// Sets the number of data blocks stored.
    pub fn num_data_blocks(mut self, n: u64) -> Self {
        self.cfg.num_data_blocks = n;
        self
    }

    /// Sets the blocks-per-bucket parameter `Z`.
    pub fn z(mut self, z: usize) -> Self {
        self.cfg.z = z;
        self
    }

    /// Sets the position-map fanout (entries per posmap block).
    pub fn entries_per_posmap_block(mut self, entries: u64) -> Self {
        self.cfg.entries_per_posmap_block = entries;
        self
    }

    /// Sets the number of posmap hierarchies stored in the tree.
    pub fn on_tree_hierarchies(mut self, h: u8) -> Self {
        self.cfg.on_tree_hierarchies = h;
        self
    }

    /// Sets the soft stash limit that triggers background eviction.
    pub fn stash_limit(mut self, limit: usize) -> Self {
        self.cfg.stash_limit = limit;
        self
    }

    /// Sets the PLB capacity in posmap blocks.
    pub fn plb_blocks(mut self, blocks: usize) -> Self {
        self.cfg.plb_blocks = blocks;
        self
    }

    /// Uses a tree one level shorter than the default sizing.
    pub fn dense_tree(mut self, dense: bool) -> Self {
        self.cfg.dense_tree = dense;
        self
    }

    /// Caches the top `levels` tree levels on-chip.
    pub fn treetop_levels(mut self, levels: u32) -> Self {
        self.cfg.treetop_levels = levels;
        self
    }

    /// Sets the timing model.
    pub fn timing(mut self, timing: OramTiming) -> Self {
        self.cfg.timing = timing;
        self
    }

    /// Carries real payload bytes, in an encrypted image.
    pub fn store_payloads(mut self, on: bool) -> Self {
        self.cfg.store_payloads = on;
        self
    }

    /// Does nothing: every path read authenticates the image it fetches
    /// from, so there is nothing left to switch. Kept only because the
    /// frozen benchmark crate (`perf/src/workloads.rs`) still calls it;
    /// it goes with the next `benchmark` PR, the one that retires the
    /// names `perf/` pins.
    pub fn verify_image(self, _: bool) -> Self {
        self
    }

    /// Does nothing: the adversary's view is the `path_access` events of
    /// an attached [`proram_obs::Obs`] ring, so there is no recorder to
    /// size. Kept only because the frozen benchmark crate
    /// (`perf/src/workloads.rs`) still calls it; it goes with the next
    /// `benchmark` PR, the one that retires the names `perf/` pins.
    pub fn trace_capacity(self, _: usize) -> Self {
        self
    }

    /// Sets the initial super-block grouping size.
    pub fn init_group_size(mut self, size: u64) -> Self {
        self.cfg.init_group_size = size;
        self
    }

    /// Installs seeded fault injection on the encrypted image.
    pub fn fault(mut self, fault: FaultConfig) -> Self {
        self.cfg.fault = Some(fault);
        self
    }

    /// Arms deterministic crash injection: the kill point fires on its
    /// configured crossing and every access runs under the commit
    /// protocol (DESIGN.md section 15).
    pub fn crash(mut self, crash: crate::crash::CrashConfig) -> Self {
        self.cfg.crash = Some(crash);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found by [`OramConfig::check`]
    /// — zero-block trees, treetop caches covering the whole tree, fault
    /// rates that are not probabilities, fault injection without a
    /// stored image, and the other field inconsistencies
    /// documented there.
    pub fn build(self) -> Result<OramConfig, ConfigError> {
        self.cfg.check()?;
        Ok(self.cfg)
    }
}

impl Default for OramConfig {
    fn default() -> Self {
        OramConfig {
            num_data_blocks: 1 << 20,
            z: 3,
            entries_per_posmap_block: 32,
            on_tree_hierarchies: 2,
            stash_limit: 100,
            plb_blocks: 64,
            timing: OramTiming::paper_calibrated(),
            store_payloads: false,
            init_group_size: 1,
            dense_tree: false,
            treetop_levels: 0,
            fault: None,
            crash: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_tree_geometry() {
        let cfg = OramConfig::default();
        // 2^20 data + 2^15 + 2^10 posmap blocks => leaves = 2^19, 20 levels.
        assert_eq!(cfg.tree_levels(), 20);
        cfg.validate();
    }

    #[test]
    fn small_config_validates() {
        OramConfig::small_for_tests(256).validate();
    }

    #[test]
    fn dense_tree_drops_one_level() {
        let sparse = OramConfig::default();
        let dense = OramConfig {
            dense_tree: true,
            ..OramConfig::default()
        };
        assert_eq!(dense.tree_levels(), sparse.tree_levels() - 1);
        dense.validate();
    }

    #[test]
    fn undersized_tree_rejected() {
        // The tree is sized for about three slots per block at Z = 3; one
        // slot per bucket cannot hold the blocks.
        let cfg = OramConfig {
            z: 1,
            ..OramConfig::default()
        };
        let err = cfg.check().unwrap_err();
        assert_eq!(err.field(), "z");
        assert!(err.to_string().contains("tree too small"));
    }

    #[test]
    fn oversized_bucket_rejected() {
        let cfg = OramConfig {
            z: Bucket::MAX_Z + 1,
            ..OramConfig::default()
        };
        let err = cfg.check().unwrap_err();
        assert_eq!(err.field(), "z");
        assert!(err.to_string().contains("Z above 4"));
        let cfg = OramConfig {
            z: Bucket::MAX_Z,
            ..OramConfig::default()
        };
        assert_eq!(cfg.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "posmap entries do not fit")]
    fn oversized_posmap_rejected_with_payloads() {
        let cfg = OramConfig {
            entries_per_posmap_block: 64,
            store_payloads: true,
            ..OramConfig::small_for_tests(1 << 10)
        };
        cfg.validate();
    }

    #[test]
    fn a_posmap_block_may_exactly_fill_the_payload() {
        // 16 entries of 8 serialized bytes fill a 128-byte payload; one
        // more does not fit.
        let with_fanout = |entries_per_posmap_block| OramConfig {
            entries_per_posmap_block,
            store_payloads: true,
            ..OramConfig::small_for_tests(1 << 10)
        };
        assert_eq!(OramTiming::default().block_bytes, 128);
        assert_eq!(with_fanout(16).check(), Ok(()));
        let err = with_fanout(17).check().unwrap_err();
        assert_eq!(err.field(), "entries_per_posmap_block");
        assert!(err.to_string().contains("posmap entries do not fit"));
    }

    #[test]
    fn path_cycles_positive() {
        assert!(OramConfig::default().path_cycles() > 1000);
    }

    #[test]
    fn treetop_caching_shortens_the_paid_path() {
        let plain = OramConfig::default();
        let cached = OramConfig {
            treetop_levels: 4,
            ..OramConfig::default()
        };
        assert_eq!(cached.off_chip_levels(), plain.tree_levels() - 4);
        assert!(cached.path_cycles() < plain.path_cycles());
        cached.validate();
    }

    #[test]
    #[should_panic(expected = "at least one off-chip level")]
    fn treetop_covering_whole_tree_rejected() {
        let cfg = OramConfig {
            treetop_levels: 64,
            ..OramConfig::small_for_tests(64)
        };
        cfg.validate();
    }

    #[test]
    fn treetop_bound_error_references_off_chip_levels() {
        let err = OramConfig {
            treetop_levels: 64,
            ..OramConfig::small_for_tests(64)
        }
        .check()
        .unwrap_err();
        assert!(err.to_string().contains("off_chip_levels()"), "{err}");
    }

    #[test]
    fn fault_injection_validates_with_payloads() {
        let cfg = OramConfig {
            fault: Some(FaultConfig::silent(1)),
            ..OramConfig::small_for_tests(256)
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fault injection requires store_payloads")]
    fn fault_injection_without_payloads_rejected() {
        let cfg = OramConfig {
            fault: Some(FaultConfig::silent(1)),
            ..OramConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn crash_injection_validation_gates() {
        use crate::crash::{CrashConfig, KillPoint};
        // Without a stored image there is nothing to journal.
        let err = OramConfig::builder()
            .crash(CrashConfig::first(KillPoint::WriteBack))
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "crash");
        assert!(err.to_string().contains("requires store_payloads"), "{err}");
        // Crash and fault injection own the failure surface exclusively.
        let err = OramConfig {
            crash: Some(CrashConfig::first(KillPoint::WriteBack)),
            fault: Some(FaultConfig::silent(1)),
            ..OramConfig::small_for_tests(256)
        }
        .check()
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");
        // Crossings are 1-based.
        let err = OramConfig {
            crash: Some(CrashConfig::at(KillPoint::WriteBack, 0)),
            ..OramConfig::small_for_tests(256)
        }
        .check()
        .unwrap_err();
        assert_eq!(err.field(), "crash");
        // And the well-formed variants pass.
        OramConfig {
            crash: Some(CrashConfig::at(KillPoint::MidJournal, 3)),
            ..OramConfig::small_for_tests(256)
        }
        .validate();
    }

    #[test]
    fn scaled_changes_only_size() {
        let cfg = OramConfig::scaled(1 << 16);
        assert_eq!(cfg.num_data_blocks, 1 << 16);
        assert_eq!(cfg.z, 3);
        cfg.validate();
    }

    #[test]
    fn builder_round_trips_the_default() {
        let built = OramConfig::builder().build().expect("default is valid");
        assert_eq!(built, OramConfig::default());
    }

    #[test]
    fn builder_sets_every_field_it_names() {
        let cfg = OramConfig::builder()
            .num_data_blocks(1 << 12)
            .z(4)
            .entries_per_posmap_block(8)
            .on_tree_hierarchies(2)
            .stash_limit(50)
            .plb_blocks(8)
            .dense_tree(false)
            .treetop_levels(1)
            .store_payloads(true)
            .init_group_size(4)
            .build()
            .expect("consistent configuration");
        assert_eq!(cfg.num_data_blocks, 1 << 12);
        assert_eq!(cfg.init_group_size, 4);
    }

    #[test]
    fn builder_rejects_zero_block_trees() {
        let err = OramConfig::builder()
            .num_data_blocks(0)
            .build()
            .unwrap_err();
        assert_eq!(err.field(), "num_data_blocks");
        assert!(err.to_string().contains("at least one data block"));
    }

    #[test]
    fn builder_reports_bad_fault_rates_as_a_config_error() {
        // Out of range, NaN, and write rates that sum past 1: each comes
        // back typed from the `Result` path instead of panicking.
        let out_of_range = FaultConfig::single(crate::fault::FaultClass::BitFlip, 1.5, 0);
        let nan = FaultConfig::single(crate::fault::FaultClass::Transient, f64::NAN, 0);
        let sum_past_one = FaultConfig {
            bit_flip_rate: 0.6,
            torn_write_rate: 0.6,
            ..FaultConfig::silent(0)
        };
        for (fault, needle) in [
            (out_of_range, "bit_flip_rate 1.5 outside [0, 1]"),
            (nan, "transient_rate NaN outside [0, 1]"),
            (sum_past_one, "sum to at most 1"),
        ] {
            let err = OramConfig::small_for_tests(256)
                .to_builder()
                .fault(fault)
                .build()
                .unwrap_err();
            assert_eq!(err.field(), "fault");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn builder_rejects_incompatible_options_with_legacy_messages() {
        // check() must report the exact strings validate() panicked with,
        // so Result- and panic-based callers see one vocabulary.
        let err = OramConfig::builder()
            .fault(FaultConfig::silent(1))
            .build()
            .unwrap_err();
        assert!(err
            .to_string()
            .contains("fault injection requires store_payloads"));
        let err = OramConfig::builder().stash_limit(0).build().unwrap_err();
        assert!(err.to_string().contains("stash limit must be positive"));
    }

    #[test]
    fn to_builder_derives_variants() {
        let base = OramConfig::small_for_tests(256);
        let derived = base
            .to_builder()
            .store_payloads(false)
            .build()
            .expect("still consistent");
        assert_eq!(derived.num_data_blocks, base.num_data_blocks);
        assert!(!derived.store_payloads);
    }

    #[test]
    fn check_matches_validate_on_valid_configs() {
        for cfg in [
            OramConfig::default(),
            OramConfig::small_for_tests(64),
            OramConfig::scaled(1 << 10),
        ] {
            assert!(cfg.check().is_ok());
            cfg.validate();
        }
    }
}
