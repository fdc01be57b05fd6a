//! Integer histograms.
//!
//! Used throughout the simulator for stash-occupancy distributions, path
//! usage counts and prefetch-distance profiles.

use std::collections::BTreeMap;
use std::fmt;

/// Values below this bound are counted in a dense array; hot-path
/// histograms (stash occupancy, prefetch distances) never leave it.
const DENSE_LIMIT: u64 = 512;

/// A histogram over `u64` sample values.
///
/// Small values (below 512) are counted in a dense array — recording those
/// is an index increment, cheap enough for once-per-ORAM-access use.
/// Larger values fall back to a `BTreeMap`, so sparse ranges (e.g. 2^25
/// ORAM leaves) cost no memory until observed. Iteration is in sample
/// order either way.
///
/// # Examples
///
/// ```
/// use proram_stats::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(3);
/// h.record(3);
/// h.record(7);
/// assert_eq!(h.count(3), 2);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.max(), Some(7));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Counts for values `0..DENSE_LIMIT`, indexed by value; grown lazily
    /// to the largest observed small value.
    dense: Vec<u64>,
    /// Counts for values `>= DENSE_LIMIT`.
    sparse: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if value < DENSE_LIMIT {
            let idx = value as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, 0);
            }
            self.dense[idx] += n;
        } else {
            *self.sparse.entry(value).or_insert(0) += n;
        }
        self.total += n;
    }

    /// Number of observations of exactly `value`.
    pub fn count(&self, value: u64) -> u64 {
        if value < DENSE_LIMIT {
            self.dense.get(value as usize).copied().unwrap_or(0)
        } else {
            self.sparse.get(&value).copied().unwrap_or(0)
        }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest observed value, if any.
    pub fn min(&self) -> Option<u64> {
        self.dense
            .iter()
            .position(|&c| c > 0)
            .map(|v| v as u64)
            .or_else(|| self.sparse.keys().next().copied())
    }

    /// Largest observed value, if any.
    pub fn max(&self) -> Option<u64> {
        self.sparse
            .keys()
            .next_back()
            .copied()
            .or_else(|| self.dense.iter().rposition(|&c| c > 0).map(|v| v as u64))
    }

    /// Mean of the observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let sum: f64 = self.iter().map(|(v, c)| v as f64 * c as f64).sum();
        Some(sum / self.total as f64)
    }

    /// Smallest value `v` such that at least `q` (in `\[0,1\]`) of the mass is
    /// at or below `v`; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `\[0, 1\]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (v, c) in self.iter() {
            acc += c;
            if acc >= target {
                return Some(v);
            }
        }
        self.max()
    }

    /// Iterates over `(value, count)` pairs in increasing value order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        // Dense values all precede sparse ones, so chaining keeps the
        // sample order.
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
            .chain(self.sparse.iter().map(|(&v, &c)| (v, c)))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (v, c) in other.iter() {
            self.record_n(v, c);
        }
    }
}

impl PartialEq for Histogram {
    /// Logical equality: the same observations, regardless of how the
    /// dense array happens to be sized.
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.iter().eq(other.iter())
    }
}

impl Eq for Histogram {}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(empty histogram)");
        }
        writeln!(
            f,
            "total={} mean={:.2}",
            self.total,
            self.mean().unwrap_or(0.0)
        )?;
        for (v, c) in self.iter() {
            writeln!(f, "{v:>8}: {c}")?;
        }
        Ok(())
    }
}

impl Extend<u64> for Histogram {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(1);
        assert_eq!(h.count(5), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(99), 0);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn record_n_zero_is_noop() {
        let mut h = Histogram::new();
        h.record_n(4, 0);
        assert!(h.is_empty());
        assert_eq!(h.count(4), 0);
    }

    #[test]
    fn min_max_mean() {
        let h: Histogram = [2u64, 4, 4, 10].into_iter().collect();
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.max(), Some(10));
        assert!((h.mean().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(format!("{h}"), "(empty histogram)");
    }

    #[test]
    fn quantiles() {
        let h: Histogram = (1..=100u64).collect();
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn quantile_out_of_range_panics() {
        let h: Histogram = [1u64].into_iter().collect();
        h.quantile(1.5);
    }

    #[test]
    fn merge_adds_mass() {
        let mut a: Histogram = [1u64, 2].into_iter().collect();
        let b: Histogram = [2u64, 3].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(1), 1);
        assert_eq!(a.count(2), 2);
        assert_eq!(a.count(3), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn iter_is_sorted() {
        let h: Histogram = [9u64, 1, 5, 5].into_iter().collect();
        let values: Vec<u64> = h.iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![1, 5, 9]);
    }

    #[test]
    fn dense_and_sparse_ranges_mix() {
        let mut h = Histogram::new();
        h.record(3); // dense
        h.record_n(100_000, 2); // sparse
        h.record(511);
        h.record(512);
        assert_eq!(h.count(3), 1);
        assert_eq!(h.count(100_000), 2);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(100_000));
        let values: Vec<u64> = h.iter().map(|(v, _)| v).collect();
        assert_eq!(values, vec![3, 511, 512, 100_000]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn equality_is_logical() {
        // Two histograms with the same observations are equal even if one
        // grew its dense array further via values later superseded.
        let a: Histogram = [1u64, 5].into_iter().collect();
        let b: Histogram = [5u64, 1].into_iter().collect();
        assert_eq!(a, b);
        let c: Histogram = [1u64, 6].into_iter().collect();
        assert_ne!(a, c);
    }

    #[test]
    fn display_contains_counts() {
        let h: Histogram = [3u64, 3].into_iter().collect();
        let s = format!("{h}");
        assert!(s.contains("total=2"));
        assert!(s.contains("3"));
    }
}
