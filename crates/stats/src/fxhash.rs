//! A fast, deterministic hasher for hot-path hash maps.
//!
//! The standard library's default `SipHash` is keyed per process for HashDoS
//! resistance, which the simulator neither needs (keys are block addresses
//! it generates itself) nor wants: it costs a large constant per lookup on
//! paths executed millions of times, and per-process keying makes map
//! iteration order vary across runs. This is the multiply-rotate scheme
//! used by rustc ("FxHash"), fixed-seeded, so lookups are cheap and
//! iteration order is reproducible for a given insertion history.
//!
//! Simulation-internal only — like [`crate::rng`], not for adversarial
//! input.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// rustc's FxHash multiplier (64-bit golden-ratio-derived constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-rotate hasher.
///
/// # Examples
///
/// ```
/// use proram_stats::FxHashMap;
///
/// let mut m: FxHashMap<u64, &str> = FxHashMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m.get(&7), Some(&"seven"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Builds [`FxHasher`]s from the fixed seed.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 3);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&i), Some(&(i * 3)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn hashing_is_deterministic() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_writes_cover_remainders() {
        for len in [0usize, 1, 7, 8, 9, 16, 23] {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut a = FxHasher::default();
            a.write(&bytes);
            let mut b = FxHasher::default();
            b.write(&bytes);
            assert_eq!(a.finish(), b.finish(), "len={len}");
        }
    }

    #[test]
    fn iteration_order_is_reproducible() {
        let build = || {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for i in 0..100 {
                m.insert(i * 17, i);
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
