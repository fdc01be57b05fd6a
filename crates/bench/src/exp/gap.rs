//! The Splash2 gap, attributed: why `dyn` gains about half the paper's
//! +20.2 % on Splash2's memory-intensive benchmarks.
//!
//! A scaled tree is the suspect, and it bundles two effects that this
//! experiment separates on the tree the runner already builds:
//!
//! * *Path latency.* A sim-scale path is cheaper than the paper's
//!   full-scale one, so memory is a smaller share of completion time and
//!   the same saved accesses buy a smaller speedup. Every run is repeated
//!   at the full-scale latency: its path price is read off its own ledger
//!   (`busy_cycles / physical_accesses`, exact because every path costs
//!   `path_cycles`) and the difference to Table 1's full-scale price is
//!   added to the fixed per-path overhead. The tree, the trace and every
//!   scheme decision stay as they were; only the price of a path moves.
//! * *Posmap share.* Posmap paths per demand access under `oram` and
//!   `dyn`, and the `dyn` gain with each run's posmap path cycles taken
//!   out of its completion time — the most that posmap traffic can
//!   explain.
//!
//! Figure 15's `oram` column (non-periodic over the `O_int = 100`
//! periodic baseline) is reported at both latencies as well.

use crate::common;
use crate::exp::{fig15, table1, RunCtx};
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::{runner, RunMetrics, SystemConfig};
use proram_stats::{summary, table, Table};
use proram_workloads::{suite, BenchSpec, Scale, Suite};

/// Runs `spec` under `config` at the sim-scale latency (the tree as
/// built) and again with every path repriced to the full-scale latency.
///
/// # Panics
///
/// Panics if the run issues no path, or if the repriced run's ledger does
/// not price every path at exactly the full-scale figure.
fn at_both_latencies(spec: BenchSpec, scale: Scale, config: &SystemConfig) -> [RunMetrics; 2] {
    let sim = runner::run_spec(spec, scale, config);
    let full_price = table1::full_scale_oram().path_cycles();
    let mut full_config = config.clone();
    let extra = full_price
        .checked_sub(sim.path_price())
        .expect("a sim-scale path costs no more than a full-scale one");
    full_config.oram.timing.fixed_overhead_cycles +=
        u32::try_from(extra).expect("a path costs less than u32::MAX cycles");
    let full = runner::run_spec(spec, scale, &full_config);
    assert_eq!(full.path_price(), full_price, "{} repriced", spec.name);
    [sim, full]
}

/// Completion time with the posmap paths taken out.
fn cycles_without_posmap(m: &RunMetrics) -> f64 {
    (m.cycles - m.backend.posmap_path_cycles) as f64
}

/// One benchmark's measurements; each pair is `[sim, full]` latency.
struct Row {
    name: &'static str,
    splash2: bool,
    price: u64,
    stat: [f64; 2],
    dynamic: [f64; 2],
    fig15_oram: [f64; 2],
    posmap_oram: f64,
    posmap_dyn: f64,
    dyn_without_posmap: f64,
}

fn measure(spec: BenchSpec, scale: Scale) -> Row {
    let runs = |scheme| at_both_latencies(spec, scale, &common::oram_config(scheme));
    let oram = runs(SchemeConfig::baseline());
    let stat = runs(SchemeConfig::static_scheme(2));
    let dynamic = runs(SchemeConfig::dynamic(2));
    let mut periodic = common::oram_config(SchemeConfig::baseline());
    periodic.periodic_intervals = vec![fig15::O_INT];
    let periodic = at_both_latencies(spec, scale, &periodic);
    let over_oram = |runs: &[RunMetrics; 2]| [0, 1].map(|i| runs[i].speedup_over(&oram[i]));
    Row {
        name: spec.name,
        splash2: spec.suite == Suite::Splash2,
        price: oram[0].path_price(),
        stat: over_oram(&stat),
        dynamic: over_oram(&dynamic),
        fig15_oram: [0, 1].map(|i| oram[i].speedup_over(&periodic[i])),
        posmap_oram: oram[0].posmap_per_demand(),
        posmap_dyn: dynamic[0].posmap_per_demand(),
        dyn_without_posmap: cycles_without_posmap(&oram[0]) / cycles_without_posmap(&dynamic[0])
            - 1.0,
    }
}

/// Runs the attribution: Figure 8's memory-intensive Splash2 rows and
/// YCSB, then a `mem_avg` row over the Splash2 rows (geometric mean of
/// the speedup columns, as Figure 8's).
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let specs: Vec<BenchSpec> = suite::specs(Suite::Splash2)
        .into_iter()
        .filter(|s| s.memory_intensive)
        .chain(suite::spec("YCSB"))
        .collect();
    let rows = WorkerPool::new(ctx.jobs).run(specs, |spec| measure(spec, ctx.scale));
    // A PLB miss walks every on-tree posmap hierarchy. The runner's
    // re-sizing changes only the data-block count, so the walk at every
    // sim-scale tree is the configured one.
    let full = table1::full_scale_oram();
    let sim_walk = common::oram_config(SchemeConfig::baseline())
        .oram
        .address_space()
        .on_tree_hierarchies();
    let mut t = Table::new(&[
        "bench",
        "path_sim",
        "stat_sim",
        "dyn_sim",
        "stat_full",
        "dyn_full",
        "f15_oram_sim",
        "f15_oram_full",
        "pm_oram",
        "pm_dyn",
        "dyn_no_pm",
    ])
    .with_title(format!(
        "Splash2 gap: speedup vs baseline ORAM at the sim-scale path price and at the full-scale {} cycles; a PLB miss walks {} posmap paths at 2^26 blocks and {sim_walk} at every sim-scale tree",
        full.path_cycles(),
        full.address_space().on_tree_hierarchies(),
    ));
    for r in &rows {
        t.row(&[
            r.name,
            &r.price.to_string(),
            &table::pct(r.stat[0]),
            &table::pct(r.dynamic[0]),
            &table::pct(r.stat[1]),
            &table::pct(r.dynamic[1]),
            &table::pct(r.fig15_oram[0]),
            &table::pct(r.fig15_oram[1]),
            &table::f3(r.posmap_oram),
            &table::f3(r.posmap_dyn),
            &table::pct(r.dyn_without_posmap),
        ]);
    }
    let splash2: Vec<&Row> = rows.iter().filter(|r| r.splash2).collect();
    let mean = |gain: fn(&Row) -> f64| {
        let ratios: Vec<f64> = splash2.iter().map(|r| 1.0 + gain(r)).collect();
        table::pct(summary::geometric_mean(&ratios) - 1.0)
    };
    t.row(&[
        "mem_avg",
        "-",
        &mean(|r| r.stat[0]),
        &mean(|r| r.dynamic[0]),
        &mean(|r| r.stat[1]),
        &mean(|r| r.dynamic[1]),
        &mean(|r| r.fig15_oram[0]),
        &mean(|r| r.fig15_oram[1]),
        "-",
        "-",
        &mean(|r| r.dyn_without_posmap),
    ]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ops: 600,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 1,
        }
    }

    #[test]
    fn one_row_per_benchmark_plus_mem_avg() {
        // Every full-latency run asserts its own ledger price, so running
        // the table checks each of them.
        let t = &run(RunCtx::serial(tiny()))[0];
        let names: Vec<&str> = t.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(
            names,
            ["lu_nc", "raytrace", "radix", "fft", "ocean_c", "ocean_nc", "YCSB", "mem_avg"]
        );
    }

    #[test]
    fn the_repriced_ledger_prices_every_path_at_the_full_scale_figure() {
        let spec = suite::spec("radix").expect("radix registered");
        let [sim, full] =
            at_both_latencies(spec, tiny(), &common::oram_config(SchemeConfig::dynamic(2)));
        assert_eq!(full.path_price(), 2365);
        assert!(sim.path_price() < 2365);
        assert_eq!(sim.trace_ops, full.trace_ops);
        assert!(full.cycles > sim.cycles);
    }
}
