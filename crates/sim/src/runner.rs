//! One-call experiment execution.

use crate::config::SystemConfig;
use crate::metrics::RunMetrics;
use crate::system::System;
use proram_workloads::{suite, BenchSpec, Scale, TraceOp, Workload};

/// Runs a workload on a freshly built one-core system.
pub fn run_workload(workload: &mut dyn Workload, config: &SystemConfig) -> RunMetrics {
    System::build(config, workload.footprint_bytes()).run(&mut [workload], 0)
}

/// Builds a registered benchmark at `scale` and runs it, excluding the
/// scale's warmup prefix from the metrics.
pub fn run_spec(spec: BenchSpec, scale: Scale, config: &SystemConfig) -> RunMetrics {
    let mut workload = suite::build(spec, scale);
    System::build(config, workload.footprint_bytes())
        .run(&mut [workload.as_mut()], scale.warmup_ops)
}

/// One core's workload moved to its own address range: every address it
/// issues is shifted up by `offset` (SPMD-style data partitioning, so the
/// cores never share a line).
struct CoreRange {
    inner: Box<dyn Workload>,
    offset: u64,
}

impl Workload for CoreRange {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn footprint_bytes(&self) -> u64 {
        self.offset + self.inner.footprint_bytes()
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        self.inner.next_op().map(|mut op| {
            op.addr += self.offset;
            op
        })
    }
}

/// Builds a `num_cores`-core system and its workloads: core `i` runs
/// `build_workload(i)` over its own address range, based at the first
/// line boundary past the range of core `i - 1`. Pass the workloads to
/// [`System::run`] in order.
///
/// # Panics
///
/// Panics if `num_cores` is zero or the configuration is inconsistent.
fn build_multicore(
    config: &SystemConfig,
    num_cores: usize,
    mut build_workload: impl FnMut(usize) -> Box<dyn Workload>,
) -> (System, Vec<Box<dyn Workload>>) {
    let line_bytes = config.line_bytes();
    let mut workloads: Vec<Box<dyn Workload>> = Vec::with_capacity(num_cores);
    let mut footprint = 0u64;
    for id in 0..num_cores {
        let inner = build_workload(id);
        let offset = footprint.div_ceil(line_bytes) * line_bytes;
        footprint = offset + inner.footprint_bytes();
        workloads.push(Box::new(CoreRange { inner, offset }));
    }
    (System::with_cores(config, num_cores, footprint), workloads)
}

/// Builds an `num_cores`-core system running `build_workload(core_id)` on
/// each core, over its own address range, and runs it to completion,
/// excluding the scale's warmup prefix on every core. The result carries
/// one [`CoreMetrics`] entry per core in [`RunMetrics::per_core`].
///
/// [`CoreMetrics`]: crate::metrics::CoreMetrics
pub fn run_multicore(
    config: &SystemConfig,
    num_cores: usize,
    warmup_ops: u64,
    build_workload: impl FnMut(usize) -> Box<dyn Workload>,
) -> RunMetrics {
    let (system, mut workloads) = build_multicore(config, num_cores, build_workload);
    let mut refs: Vec<&mut dyn Workload> = workloads.iter_mut().map(|w| w.as_mut() as _).collect();
    system.run(&mut refs, warmup_ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryKind;
    use proram_core::SchemeConfig;
    use proram_workloads::synthetic::LocalityMix;
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
        let spec = suite::spec("fft").expect("fft registered");
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let m = run_spec(spec, quick_scale(), &cfg);
        assert_eq!(m.benchmark, "fft");
        assert_eq!(m.trace_ops, 1500);
    }

    #[test]
    fn dbms_benchmarks_run() {
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        for spec in suite::specs(Suite::Dbms) {
            let m = run_spec(spec, quick_scale(), &cfg);
            assert_eq!(m.trace_ops, 1500, "{}", spec.name);
        }
    }

    /// Whether the per-core clocks and op counts re-aggregate to the run
    /// totals (the maximum and the sum).
    fn per_core_sums_to_totals(m: &RunMetrics) -> bool {
        let cores = m.per_core.iter();
        cores.clone().map(|c| c.trace_ops).sum::<u64>() == m.trace_ops
            && cores.map(|c| c.cycles).max() == Some(m.cycles)
    }

    /// The Table 1 system: paper-default ORAM under the dynamic scheme.
    fn table1_config() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)));
        cfg.oram.num_data_blocks = 1 << 14;
        cfg
    }

    #[test]
    fn per_core_counters_reaggregate_to_run_totals() {
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
        // A tampered per-core entry must break the cross-check.
        dual.per_core[0].trace_ops += 1;
        assert!(!per_core_sums_to_totals(&dual));
        dual.per_core[0].trace_ops -= 1;
        dual.per_core[1].cycles = dual.cycles + 1;
        assert!(!per_core_sums_to_totals(&dual));
    }

    #[test]
    fn run_multicore_reports_per_core_breakdown() {
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

    fn run_cores(kind: MemoryKind, num_cores: usize, ops: u64) -> RunMetrics {
        let cfg = SystemConfig::quick_test(kind);
        run_multicore(&cfg, num_cores, 0, |id| {
            Box::new(LocalityMix::with_stride(
                1 << 20,
                0.8,
                ops,
                7 + id as u64,
                128,
            ))
        })
    }

    /// A one-core multi-core run IS the single-core run: the offsetting
    /// path leaves timing and accounting identical for the same seed,
    /// workload and configuration.
    fn assert_one_core_equivalence(kind: MemoryKind) {
        let cfg = SystemConfig::quick_test(kind);
        let build = || LocalityMix::with_stride(1 << 20, 0.8, 4000, 7, 128);
        let single = run_workload(&mut build(), &cfg);
        let multi = run_multicore(&cfg, 1, 0, |_| Box::new(build()));
        assert_eq!(single.cycles, multi.cycles, "cycles diverged");
        assert_eq!(
            single.demand_fetches, multi.demand_fetches,
            "demand fetches diverged"
        );
        assert_eq!(
            single.backend.physical_accesses, multi.backend.physical_accesses,
            "physical accesses diverged"
        );
        assert_eq!(single.writebacks, multi.writebacks);
        assert_eq!(single.caches.l1, multi.caches.l1);
        assert_eq!(single.caches.l2, multi.caches.l2);
    }

    #[test]
    fn one_core_equals_single_system_on_dram() {
        assert_one_core_equivalence(MemoryKind::Dram);
    }

    #[test]
    fn one_core_equals_single_system_on_dynamic_oram() {
        assert_one_core_equivalence(MemoryKind::Oram(SchemeConfig::dynamic(2)));
    }

    #[test]
    fn dram_throughput_scales_with_cores_but_oram_does_not() {
        // The Section 2.6 claim. Throughput = total ops / cycles.
        let throughput = |kind: MemoryKind, cores: usize| {
            let m = run_cores(kind, cores, 4000);
            m.trace_ops as f64 / m.cycles as f64
        };
        let dram_scaling = throughput(MemoryKind::Dram, 4) / throughput(MemoryKind::Dram, 1);
        let oram_scaling = throughput(MemoryKind::Oram(SchemeConfig::baseline()), 4)
            / throughput(MemoryKind::Oram(SchemeConfig::baseline()), 1);
        assert!(
            dram_scaling > oram_scaling + 0.3,
            "DRAM should scale better: dram x{dram_scaling:.2} vs oram x{oram_scaling:.2}"
        );
        assert!(
            oram_scaling < 1.5,
            "ORAM serialization must cap multi-core scaling: x{oram_scaling:.2}"
        );
    }

    /// Reads `footprint` bytes from address 0 up, in 24-byte steps
    /// (wrapping), for `left` ops.
    struct Scan {
        footprint: u64,
        next: u64,
        left: u64,
    }

    impl Workload for Scan {
        fn name(&self) -> &str {
            "scan"
        }

        fn footprint_bytes(&self) -> u64 {
            self.footprint
        }

        fn next_op(&mut self) -> Option<TraceOp> {
            self.left = self.left.checked_sub(1)?;
            let addr = self.next;
            self.next = (self.next + 24) % self.footprint;
            Some(TraceOp::read(1, addr))
        }
    }

    /// Records every address the wrapped workload issues.
    struct Recorder {
        inner: Box<dyn Workload>,
        seen: Vec<u64>,
    }

    impl Workload for Recorder {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn footprint_bytes(&self) -> u64 {
            self.inner.footprint_bytes()
        }

        fn next_op(&mut self) -> Option<TraceOp> {
            let op = self.inner.next_op()?;
            self.seen.push(op.addr);
            Some(op)
        }
    }

    #[test]
    fn core_address_ranges_are_disjoint() {
        let cfg = SystemConfig::quick_test(MemoryKind::Dram);
        let line = cfg.line_bytes();
        // Footprints that are not line multiples, so an unaligned base
        // would share a line with the core below it.
        let (system, workloads) = build_multicore(&cfg, 3, |id| {
            Box::new(Scan {
                footprint: 1000 + 700 * id as u64,
                next: 0,
                left: 200,
            })
        });
        let mut recorders: Vec<Recorder> = workloads
            .into_iter()
            .map(|inner| Recorder {
                inner,
                seen: Vec::new(),
            })
            .collect();
        let mut refs: Vec<&mut dyn Workload> = recorders
            .iter_mut()
            .map(|r| r as &mut dyn Workload)
            .collect();
        assert_eq!(system.run(&mut refs, 0).trace_ops, 600);
        // Each core's scan starts at its base, so the lowest address it
        // issued is the base.
        let lines: Vec<(u64, u64)> = recorders
            .iter()
            .enumerate()
            .map(|(core, r)| {
                let (lo, hi) = (r.seen.iter().min(), r.seen.iter().max());
                let (&lo, &hi) = lo.zip(hi).expect("every core issued");
                assert_eq!(lo % line, 0, "core {core}'s base {lo} is not line-aligned");
                (lo / line, hi / line)
            })
            .collect();
        for (i, a) in lines.iter().enumerate() {
            for (j, b) in lines.iter().enumerate().skip(i + 1) {
                assert!(
                    a.1 < b.0 || b.1 < a.0,
                    "cores {i} and {j} share lines: {a:?} and {b:?}"
                );
            }
        }
    }
}
