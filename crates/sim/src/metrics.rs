//! Per-run measurements and the derived quantities the paper's figures
//! plot.

use proram_cache::HierarchyStats;
use proram_mem::{BackendStats, Cycle};

/// Per-core (per-tile) measurements from one simulation run: what only a
/// core has, its clock and its op count.
///
/// Produced by [`crate::System`] for every core; a single-core run
/// carries exactly one entry. Run-level `cycles` is the entries' maximum
/// and `trace_ops` their sum. Every other counter is counted once per
/// run, in [`RunMetrics`]: the caches in [`RunMetrics::caches`], the
/// system's own counters beside them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreMetrics {
    /// This core's completion time in cycles (its final clock).
    pub cycles: Cycle,
    /// Trace operations this core executed.
    pub trace_ops: u64,
}

impl CoreMetrics {
    /// Subtracts a warmup-boundary snapshot so the metrics cover only the
    /// measured phase.
    pub fn subtract_baseline(&mut self, baseline: &CoreMetrics) {
        self.cycles -= baseline.cycles;
        self.trace_ops -= baseline.trace_ops;
    }

    /// Average cycles per trace op on this core.
    pub fn cpi(&self) -> f64 {
        if self.trace_ops == 0 {
            0.0
        } else {
            self.cycles as f64 / self.trace_ops as f64
        }
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Memory-system label (`dram`, `oram`, `stat`, `dyn`, ...).
    pub label: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Completion time in cycles.
    pub cycles: Cycle,
    /// Trace operations executed.
    pub trace_ops: u64,
    /// Cache statistics.
    pub caches: HierarchyStats,
    /// Memory-backend statistics.
    pub backend: BackendStats,
    /// LLC demand misses (memory fetches issued).
    pub demand_fetches: u64,
    /// Dirty write-backs issued to memory.
    pub writebacks: u64,
    /// Prefetched lines evicted from the LLC without being used.
    pub unused_prefetch_evictions: u64,
    /// Prefetcher candidates dropped because the line was resident.
    pub prefetch_candidates_filtered: u64,
    /// Per-core clocks and op counts (one entry per tile; `cycles` is
    /// their maximum, `trace_ops` their sum).
    pub per_core: Vec<CoreMetrics>,
}

impl RunMetrics {
    /// The paper's *Speedup* metric of a run against a baseline run:
    /// positive means this run is faster (e.g. `0.42` = 42% gain).
    pub fn speedup_over(&self, baseline: &RunMetrics) -> f64 {
        assert!(self.cycles > 0, "run did not execute");
        baseline.cycles as f64 / self.cycles as f64 - 1.0
    }

    /// The paper's *Norm. Memory Accesses* metric (proportional to
    /// memory-subsystem energy): physical accesses of this run over the
    /// baseline's.
    pub fn norm_memory_accesses(&self, baseline: &RunMetrics) -> f64 {
        if baseline.backend.physical_accesses == 0 {
            return 1.0;
        }
        self.backend.physical_accesses as f64 / baseline.backend.physical_accesses as f64
    }

    /// Normalized completion time (Figures 11-14 plot this against the
    /// DRAM baseline).
    pub fn norm_completion_time(&self, baseline: &RunMetrics) -> f64 {
        assert!(baseline.cycles > 0, "baseline did not execute");
        self.cycles as f64 / baseline.cycles as f64
    }

    /// Prefetch miss rate (Figure 9): the backend's unused prefetches over
    /// all it resolved (`prefetch_misses` over `prefetch_hits +
    /// prefetch_misses`); `None` until a prefetch resolves.
    pub fn prefetch_miss_rate(&self) -> Option<f64> {
        let hits = self.backend.prefetch_hits;
        let misses = self.backend.prefetch_misses;
        let total = hits + misses;
        (total > 0).then(|| misses as f64 / total as f64)
    }

    /// Whether the backend's per-stage cycle attribution (data paths +
    /// posmap/PLB paths + dummy paths) sums to its reported busy cycles.
    /// [`crate::System::finish`] asserts this at the end of every run.
    pub fn stage_cycles_consistent(&self) -> bool {
        self.backend.stage_cycles_consistent()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: Cycle, accesses: u64) -> RunMetrics {
        RunMetrics {
            cycles,
            trace_ops: 100,
            backend: BackendStats {
                physical_accesses: accesses,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn speedup_sign_convention() {
        let base = metrics(1000, 10);
        let faster = metrics(800, 10);
        let slower = metrics(1250, 10);
        assert!((faster.speedup_over(&base) - 0.25).abs() < 1e-12);
        assert!((slower.speedup_over(&base) + 0.2).abs() < 1e-12);
        assert_eq!(base.speedup_over(&base), 0.0);
    }

    #[test]
    fn norm_accesses() {
        let base = metrics(1000, 100);
        let leaner = metrics(900, 80);
        assert!((leaner.norm_memory_accesses(&base) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn norm_completion_time() {
        let base = metrics(1000, 10);
        let x = metrics(5000, 10);
        assert!((x.norm_completion_time(&base) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_miss_rate_requires_data() {
        let mut m = metrics(10, 1);
        assert_eq!(m.prefetch_miss_rate(), None);
        m.backend.prefetch_hits = 3;
        m.backend.prefetch_misses = 1;
        assert_eq!(m.prefetch_miss_rate(), Some(0.25));
    }

    #[test]
    fn core_metrics_baseline_subtraction() {
        let mut c = CoreMetrics {
            cycles: 1000,
            trace_ops: 200,
        };
        c.subtract_baseline(&CoreMetrics {
            cycles: 400,
            trace_ops: 80,
        });
        assert_eq!(
            c,
            CoreMetrics {
                cycles: 600,
                trace_ops: 120
            }
        );
    }

    #[test]
    fn core_cpi() {
        let c = CoreMetrics {
            cycles: 500,
            trace_ops: 100,
        };
        assert!((c.cpi() - 5.0).abs() < 1e-12);
        assert_eq!(CoreMetrics::default().cpi(), 0.0);
    }
}
