//! Figure 5: traditional data prefetching on DRAM vs ORAM.
//!
//! "Prefetching helps to improve performance on DRAM based systems. The
//! ORAM, however, takes too much memory bandwidth and the memory
//! subsystem is busy serving useful requests."

use crate::common;
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::runner;
use proram_stats::{table, Table};
use proram_workloads::{splash2, suite, BenchSpec, Suite};

/// Runs the six Figure 5 benchmarks with a stream prefetcher on DRAM and
/// on baseline ORAM; reports speedup of prefetching over the same system
/// without it.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let mut t = Table::new(&["bench", "dram_pre", "oram_pre"])
        .with_title("Figure 5: traditional prefetching speedup (vs same system without prefetch)");
    let specs: Vec<BenchSpec> = suite::specs(Suite::Splash2)
        .into_iter()
        .filter(|s| splash2::FIG5_NAMES.contains(&s.name))
        .collect();
    // Each benchmark's four runs are independent of every other
    // benchmark's; fan the benchmarks over the worker pool.
    let gains = WorkerPool::new(ctx.jobs).run(specs, |spec| {
        let scale = ctx.scale;
        let dram = runner::run_spec(spec, scale, &common::dram_config());
        let mut dram_pf = common::dram_config();
        dram_pf.stream_prefetcher = true;
        let dram_pre = runner::run_spec(spec, scale, &dram_pf);

        let oram_cfg = common::oram_config(SchemeConfig::baseline());
        let oram = runner::run_spec(spec, scale, &oram_cfg);
        let mut oram_pf = oram_cfg.clone();
        oram_pf.stream_prefetcher = true;
        let oram_pre = runner::run_spec(spec, scale, &oram_pf);

        (
            spec.name,
            dram_pre.speedup_over(&dram),
            oram_pre.speedup_over(&oram),
        )
    });
    let mut dram_gains = Vec::new();
    let mut oram_gains = Vec::new();
    for (name, dg, og) in gains {
        dram_gains.push(dg);
        oram_gains.push(og);
        t.row(&[name, &table::pct(dg), &table::pct(og)]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    t.row(&[
        "avg",
        &table::pct(avg(&dram_gains)),
        &table::pct(avg(&oram_gains)),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proram_workloads::Scale;

    /// `BackendStats`' request fields mean different things per backend.
    /// Behind the stream prefetcher, DRAM counts its requests in
    /// `prefetch_requests`; the super-block ORAM serves each as one more
    /// demand read, and its `prefetch_requests` counts super-block blocks
    /// delivered, none for `oram_pre`'s baseline scheme. The cache sees
    /// the same trace either way, so the ORAM's surplus of demand
    /// accesses is exactly DRAM's prefetch requests.
    #[test]
    fn stream_prefetches_are_prefetch_requests_on_dram_and_demand_reads_on_oram() {
        let spec = suite::spec(splash2::FIG5_NAMES[0]).expect("registered");
        let scale = Scale {
            ops: 3000,
            warmup_ops: 500,
            footprint_scale: 0.02,
            seed: 2,
        };
        let [dram, oram] = [
            common::dram_config(),
            common::oram_config(SchemeConfig::baseline()),
        ]
        .map(|mut config| {
            config.stream_prefetcher = true;
            runner::run_spec(spec, scale, &config)
        });
        assert!(dram.backend.prefetch_requests > 0);
        assert_eq!(
            dram.backend.demand_accesses,
            dram.demand_fetches + dram.writebacks
        );
        assert_eq!(oram.backend.prefetch_requests, 0);
        assert_eq!(
            oram.backend.demand_accesses,
            oram.demand_fetches + oram.writebacks + dram.backend.prefetch_requests
        );
    }

    #[test]
    fn produces_one_row_per_benchmark_plus_average() {
        let t = &run(RunCtx::serial(Scale {
            ops: 800,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 2,
        }))[0];
        assert_eq!(t.len(), splash2::FIG5_NAMES.len() + 1);
    }
}
