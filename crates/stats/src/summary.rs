//! Averages over benchmark results.

/// Geometric mean of a set of strictly positive values.
///
/// The paper reports average speedups; geometric means are the conventional
/// way to average ratios across benchmarks.
///
/// # Panics
///
/// Panics if any value is not strictly positive.
///
/// # Examples
///
/// ```
/// use proram_stats::summary::geometric_mean;
///
/// let g = geometric_mean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }
}
