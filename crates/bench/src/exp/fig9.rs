//! Figure 9: prefetch miss rates of the static and dynamic schemes.
//!
//! "Since the static super block scheme prefetches all the neighbor
//! blocks, the miss rate is very high for benchmarks that lack spatial
//! locality. On average, the dynamic super block scheme lowers the
//! overall prefetch miss rate."

use crate::common;
use crate::exp::RunCtx;
use proram_par::WorkerPool;
use proram_stats::{table, Table};
use proram_workloads::Suite;

/// Runs the miss-rate comparison on one suite, skipping benchmarks whose
/// runs resolve no prefetches at all (the paper likewise drops
/// `water_ns`/`water_s`: "they are too compute bound and do not access
/// ORAM frequently").
pub fn run_suite(suite: Suite, ctx: RunCtx) -> Table {
    let mut t = Table::new(&["bench", "stat_miss_rate", "dyn_miss_rate"])
        .with_title(format!("Figure 9 ({}): prefetch miss rate", suite.name()));
    let mut stat_rates = Vec::new();
    let mut dyn_rates = Vec::new();
    let per_spec = WorkerPool::new(ctx.jobs).run(common::specs(suite), |spec| {
        let (_oram, stat, dynamic) = common::run_three_schemes(spec, ctx.scale);
        (
            spec.name,
            stat.prefetch_miss_rate(),
            dynamic.prefetch_miss_rate(),
        )
    });
    for (name, stat_rate, dyn_rate) in per_spec {
        let Some(sm) = stat_rate else { continue };
        // The dynamic scheme may issue no prefetches on a no-locality
        // benchmark; count that as a 0% miss rate (it wasted nothing).
        let dm = dyn_rate.unwrap_or(0.0);
        stat_rates.push(sm);
        dyn_rates.push(dm);
        t.row(&[name, &table::f3(sm), &table::f3(dm)]);
    }
    if !stat_rates.is_empty() {
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        t.row(&[
            "avg",
            &table::f3(avg(&stat_rates)),
            &table::f3(avg(&dyn_rates)),
        ]);
    }
    t
}

/// Runs Figures 9a (Splash2) and 9b (SPEC06).
pub fn run(ctx: RunCtx) -> Vec<Table> {
    vec![
        run_suite(Suite::Splash2, ctx),
        run_suite(Suite::Spec06, ctx),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::Scale;

    #[test]
    fn rates_are_probabilities() {
        let t = run_suite(
            Suite::Dbms,
            RunCtx::serial(Scale {
                ops: 1500,
                warmup_ops: 0,
                footprint_scale: 0.02,
                seed: 3,
            }),
        );
        for line in t.to_string().lines().skip(2) {
            for cell in line.split_whitespace().skip(1) {
                if let Ok(v) = cell.parse::<f64>() {
                    assert!((0.0..=1.0).contains(&v), "miss rate {v} out of range");
                }
            }
        }
    }
}
