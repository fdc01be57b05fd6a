//! Zipfian sampling for skewed workloads.
//!
//! The YCSB-like workload in the paper's DBMS evaluation draws record keys
//! from a Zipfian distribution. This module implements the rejection-based
//! sampler from Gray et al., "Quickly generating billion-record synthetic
//! databases" (the same algorithm the YCSB client uses), so key popularity
//! matches the real benchmark's shape.

use crate::rng::Rng64;

/// A Zipfian distribution over `0..n` with exponent `theta`.
///
/// Rank 0 is the most popular item. `theta = 0.99` reproduces the YCSB
/// default skew.
///
/// # Examples
///
/// ```
/// use proram_stats::{Rng64, Xoshiro256, Zipf};
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = Xoshiro256::seed_from(1);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipf {
    /// Creates a Zipfian distribution over `0..n` with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or `theta` is not in `[0, 1)` (the Gray et al.
    /// recurrence requires `theta < 1`; use a uniform sampler for 0 skew).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf population must be positive");
        assert!((0.0..1.0).contains(&theta), "zipf theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation; populations in the simulator are at most a few
        // million so this is fine and exact.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws a rank in `0..n`; rank 0 is the hottest.
    pub fn sample<R: Rng64>(&self, rng: &mut R) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let raw = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        raw.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn samples_are_in_range() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = Xoshiro256::seed_from(7);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Xoshiro256::seed_from(9);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max, "rank 0 should be the hottest item");
        // With theta=0.99 the head should dominate: top-10 ranks should be a
        // large fraction of all samples.
        let head: u64 = counts[..10].iter().sum();
        assert!(head > 30_000, "head mass too small: {head}");
    }

    #[test]
    fn near_uniform_when_theta_small() {
        let zipf = Zipf::new(10, 0.01);
        let mut rng = Xoshiro256::seed_from(2);
        let mut counts = vec![0u64; 10];
        for _ in 0..100_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // Every item gets within 3x of the uniform share.
        for &c in &counts {
            assert!(c > 10_000 / 3, "unexpectedly cold item: {c}");
        }
    }

    #[test]
    fn population_of_one_always_returns_zero() {
        let zipf = Zipf::new(1, 0.5);
        let mut rng = Xoshiro256::seed_from(4);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        Zipf::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be in")]
    fn theta_one_panics() {
        Zipf::new(10, 1.0);
    }
}
