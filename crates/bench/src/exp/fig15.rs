//! Figure 15: periodic ORAM accesses (timing-channel protection).
//!
//! Speedup of non-periodic baseline ORAM, periodic static (`stat_intvl`)
//! and periodic dynamic (`dyn_intvl`) super blocks, all relative to the
//! *periodic* baseline ORAM, with `O_int = 100`.

use crate::common;
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::runner;
use proram_stats::{summary, table, Table};
use proram_workloads::{suite, Suite};

/// The paper's public access interval.
pub const O_INT: u64 = 100;

/// Runs one suite.
pub fn run_suite(suite: Suite, ctx: RunCtx) -> Table {
    let mut t = Table::new(&["bench", "oram", "stat_intvl", "dyn_intvl"]).with_title(format!(
        "Figure 15 ({}): speedup vs periodic baseline ORAM, O_int = {O_INT}",
        suite.name()
    ));
    let periodic = |scheme: SchemeConfig| {
        let mut cfg = common::oram_config(scheme);
        cfg.periodic_interval = Some(O_INT);
        cfg
    };
    let mut gains: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let per_spec = WorkerPool::new(ctx.jobs).run(suite::specs(suite), |spec| {
        let scale = ctx.scale;
        let base = runner::run_spec(spec, scale, &periodic(SchemeConfig::baseline()));
        let oram_np = runner::run_spec(spec, scale, &common::oram_config(SchemeConfig::baseline()));
        let stat = runner::run_spec(spec, scale, &periodic(SchemeConfig::static_scheme(2)));
        let dynamic = runner::run_spec(spec, scale, &periodic(SchemeConfig::dynamic(2)));
        (
            spec.name,
            [
                oram_np.speedup_over(&base),
                stat.speedup_over(&base),
                dynamic.speedup_over(&base),
            ],
        )
    });
    for (name, cells) in per_spec {
        for (v, g) in cells.iter().zip(gains.iter_mut()) {
            g.push(1.0 + v);
        }
        t.row(&[
            name,
            &table::pct(cells[0]),
            &table::pct(cells[1]),
            &table::pct(cells[2]),
        ]);
    }
    t.row(&[
        "avg",
        &table::pct(summary::geometric_mean(&gains[0]) - 1.0),
        &table::pct(summary::geometric_mean(&gains[1]) - 1.0),
        &table::pct(summary::geometric_mean(&gains[2]) - 1.0),
    ]);
    t
}

/// Runs all three suites.
pub fn run(ctx: RunCtx) -> Vec<Table> {
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
    fn dbms_rows() {
        let t = run_suite(
            Suite::Dbms,
            RunCtx::serial(Scale {
                ops: 800,
                warmup_ops: 0,
                footprint_scale: 0.02,
                seed: 1,
            }),
        );
        assert_eq!(t.len(), 3); // YCSB, TPCC, avg
    }
}
