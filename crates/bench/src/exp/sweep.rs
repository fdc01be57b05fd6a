//! Shared machinery for the sensitivity sweeps of Figures 11-14: run
//! oram / stat / dyn (and the DRAM reference) under a swept system
//! parameter and report completion time normalized to DRAM.

use crate::common;
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::{runner, SystemConfig};
use proram_stats::{table, Table};
use proram_workloads::{suite, Suite};

/// One point of a sweep: a label and a configuration transform.
pub struct SweptConfig {
    /// Row label (e.g. `"8GB/s"`, `"Z=4"`).
    pub label: String,
    /// Applies the swept parameter to a base configuration. `Send +
    /// Sync` so sweep points can be shared across worker threads.
    pub apply: Box<dyn Fn(SystemConfig) -> SystemConfig + Send + Sync>,
}

impl std::fmt::Debug for SweptConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SweptConfig({})", self.label)
    }
}

/// Runs `benchmarks x sweeps`, producing one row per combination with
/// oram/stat/dyn completion times normalized to the DRAM run under the
/// same swept parameter.
///
/// Every `(benchmark, sweep point)` cell is an independent set of four
/// runs, so the grid fans over `ctx.jobs` workers; rows are assembled
/// in grid order afterwards, identical to a serial run.
pub fn norm_completion_rows(
    title: &str,
    benchmarks: &[&str],
    sweeps: Vec<SweptConfig>,
    ctx: RunCtx,
) -> Table {
    let mut t = Table::new(&["bench", "sweep", "oram", "stat", "dyn"]).with_title(title);
    let combos: Vec<_> = suite::specs(Suite::Splash2)
        .into_iter()
        .filter(|s| benchmarks.contains(&s.name))
        .flat_map(|spec| sweeps.iter().map(move |sweep| (spec, sweep)))
        .collect();
    let rows = WorkerPool::new(ctx.jobs).run(combos, |(spec, sweep)| {
        let scale = ctx.scale;
        let dram_cfg = (sweep.apply)(common::dram_config());
        let dram = runner::run_spec(spec, scale, &dram_cfg);
        let mut cells = vec![spec.name.to_owned(), sweep.label.clone()];
        for scheme in [
            SchemeConfig::baseline(),
            SchemeConfig::static_scheme(2),
            SchemeConfig::dynamic(2),
        ] {
            let cfg = (sweep.apply)(common::oram_config(scheme));
            let m = runner::run_spec(spec, scale, &cfg);
            cells.push(table::f3(m.norm_completion_time(&dram)));
        }
        cells
    });
    for cells in rows {
        t.row(&cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::Scale;

    fn tiny() -> RunCtx {
        RunCtx::serial(Scale {
            ops: 500,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 1,
        })
    }

    #[test]
    fn sweep_produces_expected_grid() {
        let sweeps = vec![SweptConfig {
            label: "base".into(),
            apply: Box::new(|c| c),
        }];
        let t = norm_completion_rows("test", &["fft"], sweeps, tiny());
        assert_eq!(t.len(), 1);
        let s = t.to_string();
        assert!(s.contains("fft"));
    }

    #[test]
    fn parallel_grid_matches_serial() {
        let mk = || {
            vec![
                SweptConfig {
                    label: "a".into(),
                    apply: Box::new(|c| c),
                },
                SweptConfig {
                    label: "b".into(),
                    apply: Box::new(|mut c: SystemConfig| {
                        c.oram.z = 4;
                        c
                    }),
                },
            ]
        };
        let serial = norm_completion_rows("t", &["fft"], mk(), tiny());
        let parallel = norm_completion_rows("t", &["fft"], mk(), RunCtx { jobs: 4, ..tiny() });
        assert_eq!(serial.to_string(), parallel.to_string());
    }

    #[test]
    fn swept_config_debug() {
        let s = SweptConfig {
            label: "x".into(),
            apply: Box::new(|c| c),
        };
        assert!(format!("{s:?}").contains('x'));
    }
}
