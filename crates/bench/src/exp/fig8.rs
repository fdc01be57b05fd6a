//! Figure 8: speedup and normalized memory accesses of the static and
//! dynamic super block schemes on Splash2 (8a), SPEC06 (8b) and DBMS
//! (8c).

use crate::common;
use crate::exp::RunCtx;
use proram_par::WorkerPool;
use proram_stats::{summary, table, Table};
use proram_workloads::{suite, Suite};

/// Runs one suite's comparison.
pub fn run_suite(suite: Suite, ctx: RunCtx) -> Table {
    let title = match suite {
        Suite::Splash2 => "Figure 8a: Splash2",
        Suite::Spec06 => "Figure 8b: SPEC06",
        Suite::Dbms => "Figure 8c: DBMS",
    };
    let mut t = Table::new(&["bench", "stat", "dyn", "stat_norm_acc", "dyn_norm_acc"]).with_title(
        format!("{title}: speedup and norm. memory accesses vs baseline ORAM"),
    );
    let mut stat_ratio = Vec::new();
    let mut dyn_ratio = Vec::new();
    let mut stat_mem = Vec::new();
    let mut dyn_mem = Vec::new();
    let per_spec = WorkerPool::new(ctx.jobs).run(suite::specs(suite), |spec| {
        let (oram, stat, dynamic) = common::run_three_schemes(spec, ctx.scale);
        (
            spec,
            stat.speedup_over(&oram),
            dynamic.speedup_over(&oram),
            stat.norm_memory_accesses(&oram),
            dynamic.norm_memory_accesses(&oram),
        )
    });
    for (spec, sg, dg, s_acc, d_acc) in per_spec {
        t.row(&[
            spec.name,
            &table::pct(sg),
            &table::pct(dg),
            &table::f3(s_acc),
            &table::f3(d_acc),
        ]);
        stat_ratio.push(1.0 + sg);
        dyn_ratio.push(1.0 + dg);
        if spec.memory_intensive {
            stat_mem.push(1.0 + sg);
            dyn_mem.push(1.0 + dg);
        }
    }
    let avg_row = |label: &str, stat: &[f64], dynamic: &[f64], t: &mut Table| {
        if stat.is_empty() {
            return;
        }
        t.row(&[
            label,
            &table::pct(summary::geometric_mean(stat) - 1.0),
            &table::pct(summary::geometric_mean(dynamic) - 1.0),
            "-",
            "-",
        ]);
    };
    avg_row("avg", &stat_ratio, &dyn_ratio, &mut t);
    avg_row("mem_avg", &stat_mem, &dyn_mem, &mut t);
    t
}

/// Runs all three suites. Each suite already fans its benchmarks over
/// the worker pool, so the suites run in sequence.
pub fn run_all(ctx: RunCtx) -> Vec<Table> {
    vec![
        run_suite(Suite::Splash2, ctx),
        run_suite(Suite::Spec06, ctx),
        run_suite(Suite::Dbms, ctx),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::Scale;

    #[test]
    fn dbms_suite_rows() {
        let t = run_suite(
            Suite::Dbms,
            RunCtx::serial(Scale {
                ops: 1000,
                warmup_ops: 0,
                footprint_scale: 0.02,
                seed: 1,
            }),
        );
        // YCSB + TPCC + avg + mem_avg.
        assert_eq!(t.len(), 4);
        let s = t.to_string();
        assert!(s.contains("YCSB"));
        assert!(s.contains("TPCC"));
    }
}
