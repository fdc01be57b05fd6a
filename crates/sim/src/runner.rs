//! One-call experiment execution.

use crate::config::SystemConfig;
use crate::metrics::RunMetrics;
use crate::multicore::MultiCoreSystem;
use crate::system::System;
use proram_workloads::{suite, BenchSpec, Scale, Workload};

/// Runs a workload on a freshly built system.
pub fn run_workload(workload: &mut dyn Workload, config: &SystemConfig) -> RunMetrics {
    let system = System::build(config, workload.footprint_bytes());
    system.run(workload)
}

/// Builds a registered benchmark at `scale` and runs it, excluding the
/// scale's warmup prefix from the metrics.
pub fn run_spec(spec: BenchSpec, scale: Scale, config: &SystemConfig) -> RunMetrics {
    let mut workload = suite::build(spec, scale);
    let system = System::build(config, workload.footprint_bytes());
    system.run_with_warmup(workload.as_mut(), scale.warmup_ops)
}

/// Runs one benchmark under several memory configurations, returning the
/// metrics in the same order. Each run rebuilds the workload so traces
/// are identical across configurations.
pub fn compare(spec: BenchSpec, scale: Scale, configs: &[SystemConfig]) -> Vec<RunMetrics> {
    configs
        .iter()
        .map(|cfg| run_spec(spec, scale, cfg))
        .collect()
}

/// Builds an `num_cores`-tile system running `build_workload(core_id)` on
/// each core and runs it to completion, excluding the scale's warmup
/// prefix on every core. The result carries one [`CoreMetrics`] entry per
/// core in [`RunMetrics::per_core`].
///
/// [`CoreMetrics`]: crate::metrics::CoreMetrics
pub fn run_multicore(
    config: &SystemConfig,
    num_cores: usize,
    warmup_ops: u64,
    build_workload: impl FnMut(usize) -> Box<dyn Workload>,
) -> RunMetrics {
    MultiCoreSystem::build(config, num_cores, build_workload).run_with_warmup(warmup_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryKind;
    use crate::metrics::CoreMetrics;
    use proram_core::SchemeConfig;
    use proram_workloads::Suite;

    fn quick_scale() -> Scale {
        Scale {
            ops: 1500,
            warmup_ops: 0,
            footprint_scale: 0.03,
            seed: 5,
        }
    }

    #[test]
    fn run_spec_executes_named_benchmark() {
        let spec = suite::specs(Suite::Splash2)
            .into_iter()
            .find(|s| s.name == "fft")
            .expect("fft registered");
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let m = run_spec(spec, quick_scale(), &cfg);
        assert_eq!(m.benchmark, "fft");
        assert_eq!(m.trace_ops, 1500);
    }

    #[test]
    fn compare_keeps_traces_identical() {
        let spec = suite::specs(Suite::Splash2)
            .into_iter()
            .find(|s| s.name == "ocean_c")
            .expect("registered");
        let configs = vec![
            SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::baseline())),
            SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::baseline())),
        ];
        let results = compare(spec, quick_scale(), &configs);
        // Identical configs on identical traces give identical cycles.
        assert_eq!(results[0].cycles, results[1].cycles);
        assert_eq!(results[0].trace_ops, results[1].trace_ops);
    }

    #[test]
    fn dbms_benchmarks_run() {
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        for spec in suite::specs(Suite::Dbms) {
            let m = run_spec(spec, quick_scale(), &cfg);
            assert_eq!(m.trace_ops, 1500, "{}", spec.name);
        }
    }

    /// Whether the per-core counters re-aggregate to the run totals.
    fn per_core_sums_to_totals(m: &RunMetrics) -> bool {
        let sum = |f: fn(&CoreMetrics) -> u64| m.per_core.iter().map(f).sum::<u64>();
        sum(|c| c.trace_ops) == m.trace_ops
            && sum(|c| c.demand_fetches) == m.demand_fetches
            && sum(|c| c.writebacks) == m.writebacks
            && sum(|c| c.l1.hits) == m.caches.l1.hits
            && sum(|c| c.l1.misses) == m.caches.l1.misses
    }

    /// The Table 1 system: paper-default ORAM under the dynamic scheme.
    fn table1_config() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        cfg.oram.num_data_blocks = 1 << 14;
        cfg
    }

    #[test]
    fn per_core_counters_reaggregate_to_run_totals() {
        use proram_workloads::synthetic::LocalityMix;
        let scale = Scale {
            ops: 4_000,
            warmup_ops: 500,
            footprint_scale: 0.03,
            seed: 3,
        };
        let single = run_spec(suite::specs(Suite::Splash2)[0], scale, &table1_config());
        assert_eq!(single.per_core.len(), 1);
        assert!(single.trace_ops > 0 && single.demand_fetches > 0);
        assert!(per_core_sums_to_totals(&single));

        let mut dual = run_multicore(&table1_config(), 2, 0, |id| {
            Box::new(LocalityMix::with_stride(
                1 << 18,
                0.8,
                2_000,
                11 + id as u64,
                64,
            ))
        });
        assert_eq!(dual.per_core.len(), 2);
        assert!(per_core_sums_to_totals(&dual));
        // A tampered per-core counter must break the cross-check.
        dual.per_core[0].trace_ops += 1;
        assert!(!per_core_sums_to_totals(&dual));
    }

    #[test]
    fn run_multicore_reports_per_core_breakdown() {
        use proram_workloads::synthetic::LocalityMix;
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let m = run_multicore(&cfg, 2, 200, |id| {
            Box::new(LocalityMix::new(1 << 20, 0.5, 1200, 5 + id as u64))
        });
        assert_eq!(m.per_core.len(), 2);
        assert_eq!(m.trace_ops, 2 * 1000);
        for c in &m.per_core {
            assert_eq!(c.trace_ops, 1000);
        }
    }
}
