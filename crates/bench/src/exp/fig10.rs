//! Figure 10: sweep of the Equation-1 merge/break coefficients.
//!
//! "mxny in the figure means that Cmerge = x and Cbreak = y." Smaller
//! merge coefficients merge earlier and help benchmarks with locality;
//! coefficients do not matter for benchmarks without locality.

use crate::common;
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::runner;
use proram_stats::{table, Table};
use proram_workloads::{suite, Suite};

/// The coefficient pairs of the paper's sweep.
pub const COEFFICIENTS: &[(&str, f64, f64)] = &[
    ("m1b1", 1.0, 1.0),
    ("m2b2", 2.0, 2.0),
    ("m4b1", 4.0, 1.0),
    ("m4b4", 4.0, 4.0),
    ("m8b8", 8.0, 8.0),
];

/// Benchmarks used in the paper's Figure 10.
pub const BENCHMARKS: &[&str] = &["ocean_c", "ocean_nc", "fft", "volrend"];

/// Runs the sweep: dynamic-scheme speedup over baseline ORAM for every
/// coefficient pair.
pub fn run(ctx: RunCtx) -> Table {
    let headers: Vec<String> = std::iter::once("bench".to_owned())
        .chain(COEFFICIENTS.iter().map(|(n, _, _)| (*n).to_owned()))
        .collect();
    let mut t = Table::new(&headers)
        .with_title("Figure 10: merge/break coefficient sweep, dyn speedup vs baseline ORAM");
    let specs: Vec<_> = suite::specs(Suite::Splash2)
        .into_iter()
        .filter(|s| BENCHMARKS.contains(&s.name))
        .collect();
    let rows = WorkerPool::new(ctx.jobs).run(specs, |spec| {
        let scale = ctx.scale;
        let oram = runner::run_spec(spec, scale, &common::oram_config(SchemeConfig::baseline()));
        let mut row = vec![spec.name.to_owned()];
        for &(_, cm, cb) in COEFFICIENTS {
            let scheme = SchemeConfig::dynamic(2).with_coefficients(cm, cb);
            let m = runner::run_spec(spec, scale, &common::oram_config(scheme));
            row.push(table::pct(m.speedup_over(&oram)));
        }
        row
    });
    for row in rows {
        t.row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_per_benchmark() {
        let t = run(RunCtx::serial(proram_workloads::Scale {
            ops: 800,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 2,
        }));
        assert_eq!(t.len(), BENCHMARKS.len());
    }
}
