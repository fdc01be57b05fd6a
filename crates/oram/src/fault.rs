//! Seeded fault injection for the encrypted DRAM image.
//!
//! The PrORAM threat model places the ORAM tree in untrusted memory; this
//! module makes that adversary concrete. A [`FaultyStore`] wraps the raw
//! byte backing of [`crate::EncryptedStore`] and, driven by its own
//! deterministic RNG (never the ORAM's — a zero-rate injector is
//! observationally silent), injects four fault classes:
//!
//! * **Bit flips** ([`FaultClass::BitFlip`]): one random ciphertext byte
//!   of a just-written bucket is XOR-ed with a random nonzero mask.
//! * **Torn writes** ([`FaultClass::TornWrite`]): a bucket write is only
//!   partially applied — a random suffix of the previous image survives.
//! * **Rollback** ([`FaultClass::Rollback`]): a bucket write is dropped
//!   entirely, replaying the previously valid (authentic!) ciphertext.
//! * **Transient read failures** ([`FaultClass::Transient`]): a bucket
//!   read fails and must be retried, with exponential backoff, up to the
//!   configured retry budget.
//!
//! The store also keeps the ground truth needed to prove *zero false
//! negatives*: every injected corruption is remembered as pending until
//! either a read detects it (clearing it) or a fresh write overwrites it
//! (counted as masked). A clean read of a bucket with a pending fault
//! increments [`proram_mem::FaultStats::undetected`] — the counter the
//! fault-sweep experiment and CI assert to be zero.

use proram_mem::FaultStats;
use proram_stats::{Rng64, Xoshiro256};

use crate::error::OramError;

/// The injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// A single ciphertext byte of a written bucket is corrupted.
    BitFlip,
    /// A bucket write is torn: only a prefix of the new image lands.
    TornWrite,
    /// A bucket write is dropped, rolling the bucket back to its previous
    /// (authentic) image.
    Rollback,
    /// A bucket read transiently fails and must be retried.
    Transient,
}

impl FaultClass {
    /// All classes, for sweeps.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::BitFlip,
        FaultClass::TornWrite,
        FaultClass::Rollback,
        FaultClass::Transient,
    ];

    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::BitFlip => "bit-flip",
            FaultClass::TornWrite => "torn-write",
            FaultClass::Rollback => "rollback",
            FaultClass::Transient => "transient",
        }
    }
}

/// Configuration of the fault injector.
///
/// Write-fault rates (`bit_flip_rate`, `torn_write_rate`, `rollback_rate`)
/// are per bucket *write*; `transient_rate` is per bucket *read attempt*.
/// All-zero rates make the injector a deterministic no-op: the injection
/// RNG is separate from the ORAM's, so enabling a zero-rate injector does
/// not perturb any ORAM behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injector's own RNG.
    pub seed: u64,
    /// Probability a bucket write gets one ciphertext byte flipped.
    pub bit_flip_rate: f64,
    /// Probability a bucket write is torn (random suffix of the old image
    /// survives).
    pub torn_write_rate: f64,
    /// Probability a bucket write is dropped entirely (rollback replay).
    pub rollback_rate: f64,
    /// Probability one bucket read attempt fails transiently.
    pub transient_rate: f64,
    /// Retries allowed after the first failed read attempt before the
    /// failure is reported as [`OramError::Transient`].
    pub retry_budget: u32,
    /// Backoff cost (cycles) of the first retry; each further retry of the
    /// same read doubles it.
    pub retry_backoff_cycles: u64,
}

impl FaultConfig {
    /// An injector with every rate zero — structurally present but
    /// behaviorally silent.
    pub fn silent(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flip_rate: 0.0,
            torn_write_rate: 0.0,
            rollback_rate: 0.0,
            transient_rate: 0.0,
            retry_budget: 3,
            retry_backoff_cycles: 64,
        }
    }

    /// An injector exercising a single fault class at `rate`.
    pub fn single(class: FaultClass, rate: f64, seed: u64) -> Self {
        let mut cfg = FaultConfig::silent(seed);
        match class {
            FaultClass::BitFlip => cfg.bit_flip_rate = rate,
            FaultClass::TornWrite => cfg.torn_write_rate = rate,
            FaultClass::Rollback => cfg.rollback_rate = rate,
            FaultClass::Transient => cfg.transient_rate = rate,
        }
        cfg
    }

    /// Checks rates are probabilities and write-fault rates are mutually
    /// exclusive per write.
    ///
    /// # Errors
    ///
    /// Names the first rate outside `[0, 1]` (NaN included), or reports
    /// write rates summing past 1.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("bit_flip_rate", self.bit_flip_rate),
            ("torn_write_rate", self.torn_write_rate),
            ("rollback_rate", self.rollback_rate),
            ("transient_rate", self.transient_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} {r} outside [0, 1]"));
            }
        }
        if self.write_rate() > 1.0 {
            return Err("write-fault rates must sum to at most 1".into());
        }
        Ok(())
    }

    fn write_rate(&self) -> f64 {
        self.bit_flip_rate + self.torn_write_rate + self.rollback_rate
    }
}

/// The fault-injecting byte backing of an [`crate::EncryptedStore`].
#[derive(Debug, Clone)]
pub struct FaultyStore {
    data: Vec<u8>,
    bucket_bytes: usize,
    cfg: FaultConfig,
    rng: Xoshiro256,
    /// Ground truth: the injected-and-not-yet-resolved fault per bucket.
    pending: Vec<Option<FaultClass>>,
    /// Pre-write image of the bucket between `begin_write` and
    /// `commit_write` (torn writes and rollbacks restore from it).
    old: Vec<u8>,
    stats: FaultStats,
}

impl FaultyStore {
    /// Wraps an existing byte image of `data.len() / bucket_bytes` buckets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `data` is not a whole
    /// number of buckets.
    pub fn new(data: Vec<u8>, bucket_bytes: usize, cfg: FaultConfig) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("{msg}");
        }
        assert!(bucket_bytes > 0, "bucket size must be positive");
        assert_eq!(data.len() % bucket_bytes, 0, "partial bucket in image");
        let num_buckets = data.len() / bucket_bytes;
        let rng = Xoshiro256::seed_from(cfg.seed);
        FaultyStore {
            data,
            bucket_bytes,
            cfg,
            rng,
            pending: vec![None; num_buckets],
            old: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// The injector configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injection/detection counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The raw byte image (adversary-visible ciphertext).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Direct mutable access for test-driven tampering; bypasses the
    /// injection bookkeeping.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Uniform draw in `[0, 1)` from the injector RNG.
    fn next_f64(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn bucket_range(&self, index: usize) -> std::ops::Range<usize> {
        index * self.bucket_bytes..(index + 1) * self.bucket_bytes
    }

    /// Starts a bucket write: snapshots the previous image (the rollback /
    /// torn-write source) and returns the writable bucket slice. A fault
    /// still pending on this bucket is masked by the overwrite.
    pub fn begin_write(&mut self, index: usize) -> &mut [u8] {
        if self.pending[index].take().is_some() {
            self.stats.masked_by_overwrite += 1;
        }
        let range = self.bucket_range(index);
        self.old.clear();
        self.old.extend_from_slice(&self.data[range.clone()]);
        &mut self.data[range]
    }

    /// Finishes the bucket write begun by [`FaultyStore::begin_write`],
    /// possibly injecting one write fault.
    pub fn commit_write(&mut self, index: usize) {
        if self.cfg.write_rate() <= 0.0 {
            return;
        }
        let r = self.next_f64();
        let c1 = self.cfg.bit_flip_rate;
        let c2 = c1 + self.cfg.torn_write_rate;
        let c3 = c2 + self.cfg.rollback_rate;
        let range = self.bucket_range(index);
        if r < c1 {
            let off = self.rng.next_below(self.bucket_bytes as u64) as usize;
            let mask = (self.rng.next_below(255) + 1) as u8;
            self.data[range.start + off] ^= mask;
            self.pending[index] = Some(FaultClass::BitFlip);
            self.stats.injected_bit_flips += 1;
        } else if r < c2 {
            // Tear: the write reached only the first `split` bytes; the
            // rest keeps the previous image.
            let split = 1 + self.rng.next_below(self.bucket_bytes as u64 - 1) as usize;
            let dst = &mut self.data[range.start + split..range.end];
            let src = &self.old[split..];
            if dst != src {
                dst.copy_from_slice(src);
                self.pending[index] = Some(FaultClass::TornWrite);
                self.stats.injected_torn_writes += 1;
            }
            // If old and new ciphertext agree past the split the tear is a
            // complete write — no fault to account.
        } else if r < c3 {
            let dst = &mut self.data[range];
            if dst != &self.old[..] {
                dst.copy_from_slice(&self.old);
                self.pending[index] = Some(FaultClass::Rollback);
                self.stats.injected_rollbacks += 1;
            }
        }
    }

    /// Gate in front of one authenticated bucket read: draws transient
    /// failures and retries (with exponential backoff, charged to
    /// [`FaultStats::backoff_cycles`]) up to the retry budget.
    ///
    /// # Errors
    ///
    /// Returns the number of attempts performed when the budget is
    /// exhausted; the caller reports [`OramError::Transient`].
    pub fn read_gate(&mut self) -> Result<(), u32> {
        if self.cfg.transient_rate <= 0.0 {
            return Ok(());
        }
        let max_attempts = 1 + self.cfg.retry_budget;
        let mut attempts = 0u32;
        while attempts < max_attempts {
            attempts += 1;
            if self.next_f64() >= self.cfg.transient_rate {
                if attempts > 1 {
                    self.stats.transient_retries += u64::from(attempts - 1);
                    self.stats.recovered += 1;
                }
                return Ok(());
            }
            self.stats.injected_transients += 1;
            // Exponential backoff before the next attempt. Doubling is
            // capped with saturating arithmetic: a large base cost times a
            // deep retry (the shift alone caps at 2^16) must clamp to
            // u64::MAX, not wrap, so latency accounting stays monotone at
            // extreme retry budgets.
            let doubling = 1u64 << (attempts - 1).min(16);
            let backoff = self.cfg.retry_backoff_cycles.saturating_mul(doubling);
            self.stats.backoff_cycles = self.stats.backoff_cycles.saturating_add(backoff);
        }
        self.stats.transient_retries += u64::from(max_attempts - 1);
        Err(max_attempts)
    }

    /// Records that a read of bucket `index` detected `err`, resolving any
    /// pending injected fault there.
    pub fn note_detected(&mut self, index: usize, err: &OramError) {
        match err {
            OramError::Integrity { .. } => self.stats.detected_integrity += 1,
            OramError::Rollback { .. } => self.stats.detected_rollback += 1,
            _ => {}
        }
        self.pending[index] = None;
    }

    /// Records that a full authenticated read of bucket `index` passed. A
    /// pending injected fault surviving such a read is a false negative.
    pub fn note_clean_read(&mut self, index: usize) {
        if self.pending[index].take().is_some() {
            self.stats.undetected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(cfg: FaultConfig) -> FaultyStore {
        FaultyStore::new(vec![0u8; 4 * 32], 32, cfg)
    }

    #[test]
    fn silent_injector_never_mutates() {
        let mut s = store(FaultConfig::silent(1));
        for _ in 0..100 {
            let out = s.begin_write(2);
            out.fill(0xAB);
            s.commit_write(2);
            assert!(s.read_gate().is_ok());
        }
        assert_eq!(s.stats(), FaultStats::default());
        assert!(s.bytes()[2 * 32..3 * 32].iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn bit_flips_change_exactly_one_byte() {
        let mut s = store(FaultConfig::single(FaultClass::BitFlip, 1.0, 7));
        s.begin_write(1).fill(0x55);
        s.commit_write(1);
        let changed = s.bytes()[32..64].iter().filter(|&&b| b != 0x55).count();
        assert_eq!(changed, 1);
        assert_eq!(s.stats().injected_bit_flips, 1);
    }

    #[test]
    fn rollback_restores_previous_image() {
        let mut s = store(FaultConfig::single(FaultClass::Rollback, 1.0, 7));
        // First write: rolled back to the all-zero initial image.
        s.begin_write(0).fill(0x11);
        s.commit_write(0);
        assert!(s.bytes()[..32].iter().all(|&b| b == 0));
        assert_eq!(s.stats().injected_rollbacks, 1);
    }

    #[test]
    fn torn_write_keeps_a_prefix_of_the_new_image() {
        let mut s = store(FaultConfig::single(FaultClass::TornWrite, 1.0, 3));
        s.begin_write(0).fill(0x22);
        s.commit_write(0);
        s.begin_write(0).fill(0x33);
        s.commit_write(0);
        let bucket = &s.bytes()[..32];
        assert_eq!(bucket[0], 0x33, "write must start applying");
        assert!(
            bucket.iter().any(|&b| b != 0x33),
            "a suffix of the old image must survive"
        );
    }

    #[test]
    fn detection_clears_pending_and_clean_read_counts_misses() {
        let mut s = store(FaultConfig::single(FaultClass::BitFlip, 1.0, 9));
        s.begin_write(0).fill(1);
        s.commit_write(0);
        s.note_detected(
            0,
            &OramError::Integrity {
                bucket: 0,
                slot: Some(0),
            },
        );
        assert_eq!(s.stats().detected_integrity, 1);
        s.note_clean_read(0);
        assert_eq!(s.stats().undetected, 0, "resolved fault is not a miss");

        s.begin_write(1).fill(1);
        s.commit_write(1);
        s.note_clean_read(1);
        assert_eq!(s.stats().undetected, 1);
    }

    #[test]
    fn overwrite_masks_pending_fault() {
        let mut s = store(FaultConfig::single(FaultClass::BitFlip, 1.0, 5));
        s.begin_write(0).fill(1);
        s.commit_write(0);
        s.begin_write(0).fill(2);
        assert_eq!(s.stats().masked_by_overwrite, 1);
    }

    #[test]
    fn transient_gate_respects_budget() {
        let cfg = FaultConfig {
            retry_budget: 2,
            ..FaultConfig::single(FaultClass::Transient, 1.0, 4)
        };
        let mut s = store(cfg);
        assert_eq!(s.read_gate(), Err(3), "1 attempt + 2 retries");
        assert_eq!(s.stats().injected_transients, 3);
        assert_eq!(s.stats().transient_retries, 2);
        assert!(s.stats().backoff_cycles > 0);
    }

    #[test]
    fn transient_recovery_counts() {
        let cfg = FaultConfig {
            retry_budget: 8,
            ..FaultConfig::single(FaultClass::Transient, 0.5, 12)
        };
        let mut s = store(cfg);
        let mut recovered_runs = 0;
        for _ in 0..200 {
            if s.read_gate().is_ok() {
                recovered_runs += 1;
            }
        }
        assert!(
            recovered_runs > 150,
            "rate 0.5 with budget 8 mostly succeeds"
        );
        assert!(s.stats().recovered > 0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing_at_high_budgets() {
        // A pathological deployment: near-maximal base backoff and a
        // retry budget deep enough to hit the shift cap many times over.
        // Before the saturating fix the doubling wrapped u64 and the
        // accumulated backoff_cycles went *down* across retries.
        let cfg = FaultConfig {
            retry_budget: 200,
            retry_backoff_cycles: u64::MAX / 2,
            ..FaultConfig::single(FaultClass::Transient, 1.0, 21)
        };
        let mut s = store(cfg);
        assert_eq!(s.read_gate(), Err(201));
        assert_eq!(
            s.stats().backoff_cycles,
            u64::MAX,
            "accumulated backoff clamps at u64::MAX"
        );

        // Monotonicity under repeated exhausted reads: saturated stays
        // saturated.
        assert_eq!(s.read_gate(), Err(201));
        assert_eq!(s.stats().backoff_cycles, u64::MAX);
    }

    #[test]
    fn backoff_doubles_exactly_below_the_saturation_range() {
        let cfg = FaultConfig {
            retry_budget: 4,
            retry_backoff_cycles: 64,
            ..FaultConfig::single(FaultClass::Transient, 1.0, 21)
        };
        let mut s = store(cfg);
        assert_eq!(s.read_gate(), Err(5));
        // 64 * (1 + 2 + 4 + 8 + 16) = 64 * 31.
        assert_eq!(s.stats().backoff_cycles, 64 * 31);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = || {
            let mut s = store(FaultConfig::single(FaultClass::BitFlip, 0.5, 99));
            for i in 0..50 {
                s.begin_write(i % 4).fill(i as u8);
                s.commit_write(i % 4);
            }
            (s.bytes().to_vec(), s.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_rate_rejected() {
        store(FaultConfig::single(FaultClass::BitFlip, 1.5, 0));
    }
}
