//! Estimators: the segment-minimum host-time estimator, quartiles, and
//! the FNV-1a digest of simulated counters.

/// Host time of a deterministic workload with shared-machine noise
/// removed.
///
/// Every repetition cuts its timed region into the same fixed segments
/// of identical work, so `reps[r][i]` measures the same instructions for
/// every `r`. Noise on a shared machine only ever adds time, so the
/// minimum over repetitions is the best estimate of each segment and the
/// sum over segments counts every phase of the workload exactly once —
/// unlike a minimum over whole runs or over batches of *different* work,
/// it is not biased towards cheap phases.
///
/// # Panics
///
/// Panics if `reps` is empty or the repetitions disagree on the segment
/// count (they would not have done identical work).
pub fn denoised_ns(reps: &[&[u64]]) -> u64 {
    let first = reps.first().expect("at least one repetition");
    assert!(
        reps.iter().all(|r| r.len() == first.len()),
        "repetitions disagree on the number of segments"
    );
    (0..first.len())
        .map(|i| reps.iter().map(|r| r[i]).min().expect("non-empty"))
        .sum()
}

/// The median of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them. Fewer than two values
/// have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Python: j = k*(n+1) // 4 clamped to 1..=n-1; delta = k*(n+1) - 4*j.
        let m = n + 1;
        let j = (k * m / 4).clamp(1, n - 1);
        let delta = (k * m) as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0 or there are fewer than two values).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// FNV-1a over 64-bit words: the `sim_digest` of a workload, and the
/// address-stream hash. Deterministic across platforms and runs, unlike
/// the std hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    #[inline]
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_stats::{Rng64, Xoshiro256};

    #[test]
    fn segment_min_recovers_the_clean_time_under_one_sided_noise() {
        // 40 segments of different true cost; each repetition adds a
        // noise burst (0..3x the segment) to a random third of them.
        let truth: Vec<u64> = (0..40).map(|i| 1_000 + 137 * i).collect();
        let mut rng = Xoshiro256::seed_from(9);
        let reps: Vec<Vec<u64>> = (0..8)
            .map(|_| {
                truth
                    .iter()
                    .map(|&t| {
                        if rng.next_below(3) == 0 {
                            t + rng.next_below(3 * t)
                        } else {
                            t
                        }
                    })
                    .collect()
            })
            .collect();
        let clean: u64 = truth.iter().sum();
        let slices: Vec<&[u64]> = reps.iter().map(Vec::as_slice).collect();
        let est = denoised_ns(&slices);
        let best_whole_run = reps.iter().map(|r| r.iter().sum::<u64>()).min().unwrap();
        assert!(est >= clean, "noise is one-sided: {est} < {clean}");
        assert!(est < clean + clean / 100, "{est} vs clean {clean}");
        assert!(
            best_whole_run > clean + clean / 10,
            "every whole repetition should still carry noise: {best_whole_run}"
        );
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn repetitions_must_share_a_segmentation() {
        denoised_ns(&[&[1, 2], &[1]]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
        assert_eq!(spread(&[7.0]), 0.0);
    }

    #[test]
    fn fnv_separates_inputs() {
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.u64(1);
        b.u64(2);
        assert_ne!(a.0, b.0);
    }
}
