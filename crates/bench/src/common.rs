//! Shared experiment plumbing.

use proram_core::SchemeConfig;
use proram_sim::{runner, MemoryKind, RunMetrics, System, SystemConfig};
use proram_workloads::{BenchSpec, Scale, Workload};

/// The three memory systems every comparison figure uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaseScheme {
    /// Baseline Path ORAM (`oram`).
    Oram,
    /// Static super block scheme (`stat`).
    Static,
    /// Dynamic super block scheme / PrORAM (`dyn`).
    Dynamic,
}

impl BaseScheme {
    /// The scheme configuration with the given maximum super-block size.
    pub fn scheme(self, max_sbsize: u64) -> SchemeConfig {
        match self {
            BaseScheme::Oram => SchemeConfig::baseline(),
            BaseScheme::Static => SchemeConfig::static_scheme(max_sbsize),
            BaseScheme::Dynamic => SchemeConfig::dynamic(max_sbsize),
        }
    }

    /// All three, in presentation order.
    pub fn all() -> [BaseScheme; 3] {
        [BaseScheme::Oram, BaseScheme::Static, BaseScheme::Dynamic]
    }
}

/// Builds the default ORAM system configuration for a scheme.
pub fn oram_config(scheme: SchemeConfig) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(scheme));
    // Experiments run at laptop scale: trees are sized per workload by
    // the runner; this is only the floor.
    cfg.oram.num_data_blocks = 1 << 14;
    cfg
}

/// Builds the DRAM system configuration.
pub fn dram_config() -> SystemConfig {
    SystemConfig::paper_default(MemoryKind::Dram)
}

/// Runs `spec` under baseline / static / dynamic ORAM with the default
/// max super-block size (2), returning `(oram, stat, dyn)` metrics.
pub fn run_three_schemes(spec: BenchSpec, scale: Scale) -> (RunMetrics, RunMetrics, RunMetrics) {
    let run = |s: BaseScheme| runner::run_spec(spec, scale, &oram_config(s.scheme(2)));
    (
        run(BaseScheme::Oram),
        run(BaseScheme::Static),
        run(BaseScheme::Dynamic),
    )
}

/// Steps the first `ops` operations of `workload` on core 0 (fewer if
/// the trace ends first): the warm-up prefix `System::run` would
/// exclude, stepped by hand so the caller can read the system at the
/// warm-up boundary before `run(.., 0)` measures the rest.
pub(crate) fn warm_up(system: &mut System, workload: &mut dyn Workload, ops: u64) {
    for _ in 0..ops {
        let Some(op) = workload.next_op() else { break };
        system.step(op);
    }
}

/// Runs a self-built workload (synthetic benchmarks) under a config.
/// The builder is called fresh per run so traces are identical.
pub fn run_built<W, F>(build: F, config: &SystemConfig) -> RunMetrics
where
    W: Workload,
    F: Fn() -> W,
{
    let mut w = build();
    runner::run_workload(&mut w, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::suite;

    #[test]
    fn scheme_labels() {
        assert_eq!(BaseScheme::Oram.scheme(2).label(), "oram");
        assert_eq!(BaseScheme::Static.scheme(2).label(), "stat");
        assert_eq!(BaseScheme::Dynamic.scheme(2).label(), "dyn");
    }

    #[test]
    fn three_scheme_run_produces_comparable_metrics() {
        let spec = suite::spec("fft").unwrap();
        let scale = Scale {
            ops: 1200,
            warmup_ops: 0,
            footprint_scale: 0.03,
            seed: 3,
        };
        let (oram, stat, dynamic) = run_three_schemes(spec, scale);
        assert_eq!(oram.trace_ops, stat.trace_ops);
        assert_eq!(oram.trace_ops, dynamic.trace_ops);
        assert_eq!(oram.label, "oram");
        assert_eq!(stat.label, "stat");
        assert_eq!(dynamic.label, "dyn");
    }
}
