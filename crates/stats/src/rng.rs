//! Seedable, platform-stable pseudo-random number generators.
//!
//! The simulator must be bit-for-bit reproducible from a seed so that every
//! experiment in the paper can be re-run deterministically. We therefore ship
//! two small, well-known generators instead of depending on an external
//! crate whose stream might change between versions:
//!
//! * [`SplitMix64`] — used for seeding and for the ORAM encryption keystream,
//! * [`Xoshiro256`] — xoshiro256** 1.0, the general-purpose generator.

/// A source of 64-bit random values.
///
/// All simulator randomness flows through this trait so components can be
/// tested with scripted generators.
///
/// # Examples
///
/// ```
/// use proram_stats::{Rng64, Xoshiro256};
///
/// let mut rng = Xoshiro256::seed_from(7);
/// let die = rng.next_below(6) + 1;
/// assert!((1..=6).contains(&die));
/// ```
pub trait Rng64 {
    /// Returns the next 64 bits from the generator.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// Uses rejection sampling (Lemire-style threshold) so the result is
    /// exactly uniform for any bound.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Reject values in the final partial copy of `0..bound` so every
        // residue class is equally likely: `v` is kept iff the copy it
        // falls in, `v - r ..= v - r + bound - 1`, ends below `u64::MAX`.
        // One division per draw.
        loop {
            let v = self.next_u64();
            let r = v % bound;
            if v - r <= u64::MAX - bound {
                return r;
            }
        }
    }

    /// Returns a uniformly distributed value in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "next_range requires lo < hi");
        lo + self.next_below(hi - lo)
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `\[0, 1\]`).
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// SplitMix64: a tiny, fast generator mainly used to expand seeds.
///
/// The output sequence is the reference sequence from Steele, Lea &
/// Flood, "Fast splittable pseudorandom number generators".
///
/// # Examples
///
/// ```
/// use proram_stats::{Rng64, SplitMix64};
///
/// let mut sm = SplitMix64::new(0);
/// assert_eq!(sm.next_u64(), 0xE220A8397B1DCDAF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The golden-ratio increment added to the state each step.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator with the given state.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The output function: a pure mix of one state value.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the generator four steps and returns all four outputs —
    /// exactly the values four [`Rng64::next_u64`] calls would produce.
    ///
    /// SplitMix's only loop-carried dependency is the state increment, so
    /// the four mixes are data-independent and schedule in parallel; the
    /// keystream XOR in `proram-oram`'s cipher uses this to process 32
    /// bytes per round without changing a single output byte.
    #[inline]
    pub fn next4(&mut self) -> [u64; 4] {
        let base = self.state;
        self.state = base.wrapping_add(Self::GAMMA.wrapping_mul(4));
        [
            Self::mix(base.wrapping_add(Self::GAMMA)),
            Self::mix(base.wrapping_add(Self::GAMMA.wrapping_mul(2))),
            Self::mix(base.wrapping_add(Self::GAMMA.wrapping_mul(3))),
            Self::mix(base.wrapping_add(Self::GAMMA.wrapping_mul(4))),
        ]
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        SplitMix64::new(0x9E37_79B9_7F4A_7C15)
    }
}

impl Rng64 for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        Self::mix(self.state)
    }
}

/// xoshiro256** 1.0 by Blackman and Vigna: the simulator's main generator.
///
/// Seeded through [`SplitMix64`] as the authors recommend, so any `u64` seed
/// produces a well-mixed initial state.
///
/// # Examples
///
/// ```
/// use proram_stats::{Rng64, Xoshiro256};
///
/// let mut rng = Xoshiro256::seed_from(1234);
/// let samples: Vec<u64> = (0..4).map(|_| rng.next_below(100)).collect();
/// assert!(samples.iter().all(|&v| v < 100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zeros (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(
            s.iter().any(|&w| w != 0),
            "xoshiro256 state must be nonzero"
        );
        Xoshiro256 { s }
    }

    /// Returns the full 256-bit state, suitable for serializing into a
    /// checkpoint record and later restoring via
    /// [`from_state`](Xoshiro256::from_state).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Creates a generator from a 64-bit seed, expanded via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256::from_state([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()])
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each simulator component (stash, workload, crypto) its
    /// own stream without the streams being correlated.
    pub fn fork(&mut self) -> Self {
        Xoshiro256::seed_from(self.next_u64())
    }
}

impl Default for Xoshiro256 {
    fn default() -> Self {
        Xoshiro256::seed_from(0)
    }
}

impl Rng64 for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // implementation by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn next4_matches_four_scalar_steps() {
        for seed in [0u64, 1, 1234567, u64::MAX] {
            let mut scalar = SplitMix64::new(seed);
            let mut wide = SplitMix64::new(seed);
            for _ in 0..8 {
                let expect = [
                    scalar.next_u64(),
                    scalar.next_u64(),
                    scalar.next_u64(),
                    scalar.next_u64(),
                ];
                assert_eq!(wide.next4(), expect, "seed={seed}");
            }
            // Interleaving wide and scalar steps stays on the sequence.
            assert_eq!(wide.next_u64(), scalar.next_u64());
        }
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256::seed_from(99);
        let mut b = Xoshiro256::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xoshiro_streams_differ_across_seeds() {
        let mut a = Xoshiro256::seed_from(1);
        let mut b = Xoshiro256::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_is_in_range_and_covers_all_residues() {
        let mut rng = Xoshiro256::seed_from(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn next_below_keeps_the_accept_set_of_the_two_division_form() {
        /// Replays a script and counts the draws.
        struct Scripted {
            values: Vec<u64>,
            drawn: usize,
        }
        impl Rng64 for Scripted {
            fn next_u64(&mut self) -> u64 {
                self.drawn += 1;
                self.values[self.drawn - 1]
            }
        }
        /// `next_below` as it was: a zone computed up front, a second
        /// division on acceptance.
        fn reference(rng: &mut Scripted, bound: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX % bound) - 1;
            loop {
                let v = rng.next_u64();
                if v <= zone {
                    return v % bound;
                }
            }
        }
        for bound in [3, 40, 1000, (1 << 63) + 1, u64::MAX] {
            // The last full copy of `0..bound` ends at `edge - 1`; `edge`
            // and everything above it is the rejected tail.
            let edge = u64::MAX - u64::MAX % bound;
            let mut values = vec![
                edge,
                u64::MAX,
                edge - 1,
                0,
                bound - 1,
                bound,
                u64::MAX,
                edge,
            ];
            let mut noise = Xoshiro256::seed_from(bound);
            values.extend((0..64).map(|_| noise.next_u64()));
            // Accepted under every bound: a call that starts before it
            // cannot run off the script.
            values.push(0);
            let script = |values: &Vec<u64>| Scripted {
                values: values.clone(),
                drawn: 0,
            };
            let (mut new, mut old) = (script(&values), script(&values));
            while new.drawn < values.len() - 1 {
                assert_eq!(new.next_below(bound), reference(&mut old, bound));
                assert_eq!(new.drawn, old.drawn, "bound {bound}");
            }
            assert!(new.drawn > 8, "the rejected tail was met and skipped");
        }
    }

    #[test]
    fn next_below_power_of_two_fast_path() {
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..1000 {
            assert!(rng.next_below(64) < 64);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256::seed_from(0).next_below(0);
    }

    #[test]
    fn next_range_bounds() {
        let mut rng = Xoshiro256::seed_from(11);
        for _ in 0..1000 {
            let v = rng.next_range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = Xoshiro256::seed_from(4);
        assert!((0..100).all(|_| !rng.next_bool(0.0)));
        assert!((0..100).all(|_| rng.next_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from(8);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements the identity permutation is astronomically
        // unlikely; the shuffle must have moved something.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fork_produces_uncorrelated_stream() {
        let mut parent = Xoshiro256::seed_from(42);
        let mut child = parent.fork();
        let same = (0..64)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    #[should_panic(expected = "state must be nonzero")]
    fn zero_state_rejected() {
        Xoshiro256::from_state([0; 4]);
    }

    #[test]
    fn state_round_trips_through_from_state() {
        let mut a = Xoshiro256::seed_from(17);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = Xoshiro256::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
