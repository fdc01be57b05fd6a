//! Where `dyn` trails `stat`: each scheme's speedup beside the partition
//! it builds.
//!
//! The paper has `dyn` track `stat` at high locality (Figure 6a) and gain
//! about twice as much (Figure 8). Six traces run the way their figure
//! runs them: YCSB, ocean_c, ocean_nc and TPCC as in Figure 8, Figure
//! 6a's 100 % locality point (Z = 4, no warm-up) and YCSB at Figure 15's
//! `O_int`. Each runs under `stat`, `dyn` and `dyn_warm` (`dyn` started
//! from the static partition), measured against the trace's own
//! baseline (`oram`, periodic on the `O_int` row), so the `stat` and
//! `dyn` speedups are the source figure's cells. Beside each speedup:
//!
//! * the merged share (`MemoryBackend::merged_fraction`), a gauge read
//!   off the controller at the end of the warm-up and at the end of the
//!   run;
//! * merges and breaks per 10k measured ops;
//! * prefetches per merge, `-` without merges.

use crate::common;
use crate::exp::{fig15, fig6, RunCtx};
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::{RunMetrics, System, SystemConfig};
use proram_stats::{table, Table};
use proram_workloads::synthetic::LocalityMix;
use proram_workloads::{suite, Scale, Workload};

/// One trace, with the system and warm-up its figure runs it with.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A registry benchmark as Figure 8 runs it.
    Fig8(&'static str),
    /// Figure 6a's 100 % locality point.
    Fig6a,
    /// A registry benchmark as Figure 15 runs it.
    Fig15(&'static str),
}

/// Each trace under the name its rows carry.
const SOURCES: [(&str, Source); 6] = [
    ("YCSB", Source::Fig8("YCSB")),
    ("ocean_c", Source::Fig8("ocean_c")),
    ("ocean_nc", Source::Fig8("ocean_nc")),
    ("TPCC", Source::Fig8("TPCC")),
    ("locality_100%", Source::Fig6a),
    ("YCSB_intvl", Source::Fig15("YCSB")),
];

impl Source {
    fn config(self, scheme: SchemeConfig) -> SystemConfig {
        match self {
            Source::Fig8(_) => common::oram_config(scheme),
            Source::Fig6a => fig6::z4(scheme),
            Source::Fig15(_) => fig15::periodic(scheme),
        }
    }

    /// The trace and its warm-up prefix.
    fn workload(self, scale: Scale) -> (Box<dyn Workload>, u64) {
        match self {
            Source::Fig8(name) | Source::Fig15(name) => {
                let spec = suite::spec(name).expect("registered benchmark");
                (suite::build(spec, scale), scale.warmup_ops)
            }
            Source::Fig6a => {
                let footprint = fig6::footprint_for(scale.ops);
                let mix =
                    LocalityMix::with_stride(footprint, 1.0, scale.ops, scale.seed, fig6::STRIDE);
                (Box::new(mix), 0)
            }
        }
    }
}

/// Runs `source` under `scheme`: the ledger of the measured ops, and the
/// merged share at the end of the warm-up and at the end of the run.
fn measure(source: Source, scale: Scale, scheme: SchemeConfig) -> (RunMetrics, [f64; 2]) {
    let (mut workload, warmup_ops) = source.workload(scale);
    let mut system = System::build(&source.config(scheme), workload.footprint_bytes());
    common::warm_up(&mut system, workload.as_mut(), warmup_ops);
    let warm = system.memory().merged_fraction();
    let metrics = system.run(&mut [workload.as_mut()], 0);
    (metrics, [warm, system.memory().merged_fraction()])
}

/// Runs the table: every trace under `oram` and the three schemes, one
/// row per trace and scheme.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let schemes = [
        ("oram", SchemeConfig::baseline()),
        ("stat", SchemeConfig::static_scheme(2)),
        ("dyn", SchemeConfig::dynamic(2)),
        (
            "dyn_warm",
            SchemeConfig {
                static_init_size: 2,
                ..SchemeConfig::dynamic(2)
            },
        ),
    ];
    let runs: Vec<(Source, SchemeConfig)> = SOURCES
        .iter()
        .flat_map(|&(_, source)| schemes.iter().map(move |(_, s)| (source, s.clone())))
        .collect();
    let measured =
        WorkerPool::new(ctx.jobs).run(runs, |(source, scheme)| measure(source, ctx.scale, scheme));
    let mut t = Table::new(&[
        "bench",
        "scheme",
        "speedup",
        "merged_warm",
        "merged_end",
        "merges_10k",
        "breaks_10k",
        "pf_per_merge",
    ])
    .with_title(
        "Scheme partitions: speedup vs the row's baseline ORAM, merged share at the end of \
         warm-up and of the run, merges and breaks per 10k ops, prefetches per merge",
    );
    for ((bench, _), group) in SOURCES.iter().zip(measured.chunks(schemes.len())) {
        let (base, _) = &group[0];
        for ((scheme, _), (m, merged)) in schemes.iter().zip(group).skip(1) {
            let b = &m.backend;
            let per_10k = |n: u64| format!("{:.1}", n as f64 * 1e4 / m.trace_ops as f64);
            let per_merge = match b.merges {
                0 => "-".to_owned(),
                merges => format!("{:.2}", b.prefetch_requests as f64 / merges as f64),
            };
            t.row(&[
                bench.to_string(),
                scheme.to_string(),
                table::pct(m.speedup_over(base)),
                table::f3(merged[0]),
                table::f3(merged[1]),
                per_10k(b.merges),
                per_10k(b.breaks),
                per_merge,
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::fig8;
    use proram_workloads::Suite;

    /// The cell of `t` in the first row whose leading cells are `keys`,
    /// under `column`.
    fn cell(t: &Table, keys: &[&str], column: &str) -> String {
        let col = t.headers().iter().position(|h| h == column).expect(column);
        let row = t
            .rows()
            .iter()
            .find(|r| r.iter().zip(keys).all(|(c, k)| c == k));
        row.expect("a row with those leading cells")[col].clone()
    }

    /// The same runs give the same cells: every `stat` / `dyn` speedup is
    /// its source figure's (`dyn_warm` has no source). `dyn_warm` starts
    /// with every block merged, and `dyn` with next to none.
    #[test]
    fn every_speedup_is_its_source_figures_cell() {
        let ctx = RunCtx::serial(Scale {
            ops: 1500,
            warmup_ops: 500,
            footprint_scale: 0.02,
            seed: 1,
        });
        let gap = &run(ctx)[0];
        assert_eq!(gap.len(), 6 * 3);
        let splash2 = fig8::run_suite(Suite::Splash2, ctx);
        let dbms = fig8::run_suite(Suite::Dbms, ctx);
        let fig6a = fig6::run_6a(ctx);
        let fig15 = fig15::run_suite(Suite::Dbms, ctx);
        for (bench, figure, row, suffix) in [
            ("YCSB", &dbms, "YCSB", ""),
            ("ocean_c", &splash2, "ocean_c", ""),
            ("ocean_nc", &splash2, "ocean_nc", ""),
            ("TPCC", &dbms, "TPCC", ""),
            ("locality_100%", &fig6a, "100%", ""),
            ("YCSB_intvl", &fig15, "YCSB", "_intvl"),
        ] {
            for scheme in ["stat", "dyn"] {
                let source = cell(figure, &[row], &format!("{scheme}{suffix}"));
                assert_eq!(cell(gap, &[bench, scheme], "speedup"), source, "{bench}");
            }
        }
        let start = |scheme| cell(gap, &["locality_100%", scheme], "merged_warm");
        assert_eq!(start("dyn_warm"), "1.000");
        let dyn_start: f64 = start("dyn").parse().expect("a share");
        assert!(dyn_start < 0.01, "dyn starts at {dyn_start}");
    }
}
