//! Rolling statistics window for adaptive thresholding.
//!
//! Equation 1 (paper Section 4.4.2) needs three rates: `eviction_rate`
//! ("the number of background evictions divided by the total number of
//! memory requests"), `access_rate` ("the percentage of time when the
//! ORAM is busy") and `prefetch_hit_rate` ("the percentage of hits out of
//! all prefetched blocks"). "These numbers are collected within a time
//! window and updated periodically (every 1000 ORAM requests in this
//! paper)."

/// The rates most recently published by a completed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRates {
    /// Background evictions per memory request.
    pub eviction_rate: f64,
    /// Fraction of wall-clock time the ORAM was busy.
    pub access_rate: f64,
    /// Used prefetches over all resolved prefetches.
    pub prefetch_hit_rate: f64,
}

impl Default for WindowRates {
    fn default() -> Self {
        // Optimistic priors before the first window completes: no eviction
        // pressure, idle ORAM, perfect prefetching. These make the initial
        // thresholds small so merging can start, exactly like a freshly
        // reset hardware profiler would.
        WindowRates {
            eviction_rate: 0.0,
            access_rate: 0.0,
            prefetch_hit_rate: 1.0,
        }
    }
}

/// Accumulates per-request observations and publishes [`WindowRates`]
/// every `window` requests.
///
/// # Examples
///
/// ```
/// use proram_core::WindowStats;
///
/// let mut w = WindowStats::new(4);
/// for _ in 0..4 {
///     w.record_request(1, 2000, 1000); // 1 background eviction, busy 1000/2000
/// }
/// let rates = w.rates();
/// assert!((rates.eviction_rate - 1.0).abs() < 1e-12);
/// assert!((rates.access_rate - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct WindowStats {
    window: u64,
    requests: u64,
    background_evictions: u64,
    elapsed_cycles: u64,
    busy_cycles: u64,
    prefetch_hits: u64,
    prefetch_misses: u64,
    published: WindowRates,
    /// Windows closed so far.
    closed: u64,
}

impl WindowStats {
    /// Creates a window of the given length in requests.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window must be positive");
        WindowStats {
            window,
            requests: 0,
            background_evictions: 0,
            elapsed_cycles: 0,
            busy_cycles: 0,
            prefetch_hits: 0,
            prefetch_misses: 0,
            published: WindowRates::default(),
            closed: 0,
        }
    }

    /// Records one memory request: how many background evictions it
    /// caused, the wall-clock span since the previous request, and the
    /// cycles the ORAM spent busy serving it. Returns the ordinal of the
    /// window this request closed (1 for the first), if it closed one.
    pub fn record_request(
        &mut self,
        background_evictions: u64,
        elapsed: u64,
        busy: u64,
    ) -> Option<u64> {
        self.requests += 1;
        self.background_evictions += background_evictions;
        self.elapsed_cycles += elapsed;
        self.busy_cycles += busy;
        (self.requests >= self.window).then(|| self.publish())
    }

    /// Records the outcome of a resolved prefetch.
    pub fn record_prefetch(&mut self, hit: bool) {
        if hit {
            self.prefetch_hits += 1;
        } else {
            self.prefetch_misses += 1;
        }
    }

    fn publish(&mut self) -> u64 {
        let evr = self.background_evictions as f64 / self.requests as f64;
        let ar = if self.elapsed_cycles == 0 {
            0.0
        } else {
            // The one clamp: a request's busy cycles are recorded as given
            // and may exceed its elapsed span, but the rate is a fraction.
            (self.busy_cycles as f64 / self.elapsed_cycles as f64).min(1.0)
        };
        let resolved = self.prefetch_hits + self.prefetch_misses;
        let phr = if resolved == 0 {
            // Keep the previous estimate when no prefetches resolved: the
            // window carries no new information about prefetch quality.
            self.published.prefetch_hit_rate
        } else {
            self.prefetch_hits as f64 / resolved as f64
        };
        self.published = WindowRates {
            eviction_rate: evr,
            access_rate: ar,
            prefetch_hit_rate: phr,
        };
        self.requests = 0;
        self.background_evictions = 0;
        self.elapsed_cycles = 0;
        self.busy_cycles = 0;
        self.prefetch_hits = 0;
        self.prefetch_misses = 0;
        self.closed += 1;
        self.closed
    }

    /// The most recently published rates (priors before the first window
    /// completes).
    pub fn rates(&self) -> WindowRates {
        self.published
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priors_before_first_window() {
        let w = WindowStats::new(1000);
        let r = w.rates();
        assert_eq!(r.eviction_rate, 0.0);
        assert_eq!(r.prefetch_hit_rate, 1.0);
    }

    #[test]
    fn rates_published_at_window_boundary() {
        let mut w = WindowStats::new(2);
        assert_eq!(w.record_request(0, 1000, 500), None);
        // Not yet published.
        assert_eq!(w.rates().access_rate, 0.0);
        assert_eq!(w.record_request(2, 1000, 1000), Some(1));
        let r = w.rates();
        assert!((r.eviction_rate - 1.0).abs() < 1e-12);
        assert!((r.access_rate - 0.75).abs() < 1e-12);
        assert_eq!(w.record_request(0, 1000, 0), None);
        assert_eq!(w.record_request(0, 1000, 0), Some(2));
    }

    #[test]
    fn prefetch_rate_updates() {
        let mut w = WindowStats::new(2);
        w.record_prefetch(true);
        w.record_prefetch(true);
        w.record_prefetch(false);
        w.record_request(0, 100, 100);
        w.record_request(0, 100, 100);
        assert!((w.rates().prefetch_hit_rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_prefetch_window_keeps_previous_rate() {
        let mut w = WindowStats::new(1);
        w.record_prefetch(false);
        w.record_request(0, 100, 100);
        assert_eq!(w.rates().prefetch_hit_rate, 0.0);
        // Next window has no prefetches; the rate must not reset to 1.
        w.record_request(0, 100, 100);
        assert_eq!(w.rates().prefetch_hit_rate, 0.0);
    }

    #[test]
    fn windows_reset_counters() {
        let mut w = WindowStats::new(1);
        w.record_request(5, 100, 100);
        assert_eq!(w.rates().eviction_rate, 5.0);
        w.record_request(0, 100, 0);
        assert_eq!(w.rates().eviction_rate, 0.0);
    }

    #[test]
    fn access_rate_capped_at_one() {
        let mut w = WindowStats::new(1);
        w.record_request(0, 10, 100);
        assert!(w.rates().access_rate <= 1.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WindowStats::new(0);
    }
}
