//! The serialization ablation: reproduce the paper's Section 2.6
//! observation — one ORAM controller serializes every request, so extra
//! cores buy almost nothing — then relax it two ways: across requests
//! with address-partitioned controller shards
//! ([`proram_sim::ShardedOram`]), and inside one request with the fetch
//! pipeline's bank-aware scheduler ([`proram_mem::BankConfig`]).
//!
//! `shards=1` must track the stock single controller; larger shard
//! counts recover multi-core scaling in proportion to how much of the
//! wall was controller serialization rather than the access pattern.
//! In the bank sweep, pipeline-off must price a path at the legacy lump
//! sum, a single bank serializes every bucket read behind it, and added
//! banks overlap bucket latencies until only the shared bus is left.
//! Everything here is simulated cycles, so both tables are
//! deterministic.

use crate::exp::RunCtx;
use crate::jobs;
use proram_core::SchemeConfig;
use proram_mem::BankConfig;
use proram_oram::{OramConfig, PathOram};
use proram_sim::{runner, MemoryKind, SystemConfig};
use proram_stats::{table, Table};
use proram_workloads::synthetic::LocalityMix;
use proram_workloads::Scale;

/// Core counts swept (rows).
const CORES: [usize; 3] = [1, 2, 4];
/// Shard counts swept (columns after the stock controller).
const SHARDS: [usize; 3] = [1, 2, 4];
/// Bank counts swept (columns after pipeline-off).
const BANKS: [u32; 4] = [1, 2, 4, 8];

fn throughput(kind: MemoryKind, cores: usize, scale: Scale) -> f64 {
    let ops = (scale.ops / 4).clamp(1_000, 8_000);
    let cfg = SystemConfig::paper_default(kind);
    let m = runner::run_multicore(&cfg, cores, 0, |id| {
        Box::new(LocalityMix::with_stride(
            1 << 20,
            0.8,
            ops,
            scale.seed + id as u64,
            128,
        ))
    });
    m.trace_ops as f64 * 1000.0 / m.cycles as f64
}

/// Aggregate throughput (trace ops per kilocycle) of every
/// (core count, controller) cell, row-major: per core count the stock
/// controller, then `OramShards(N)` for each of [`SHARDS`].
fn shard_sweep(ctx: RunCtx) -> Vec<f64> {
    // All cells are independent runs: fan them over the worker pool;
    // results come back in sweep order.
    let mut cells = Vec::new();
    for &cores in &CORES {
        cells.push((cores, MemoryKind::Oram(SchemeConfig::baseline())));
        for &n in &SHARDS {
            cells.push((cores, MemoryKind::OramShards(SchemeConfig::baseline(), n)));
        }
    }
    jobs::parallel_map(ctx.jobs, cells, |(cores, kind)| {
        throughput(kind, cores, ctx.scale)
    })
}

/// The tree whose per-path fetch cost the bank sweep prices.
fn fetch_kernel_config() -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(1 << 12)
        .store_payloads(false)
        .trace_capacity(0)
        .build()
        .expect("valid sweep configuration")
}

/// Pipeline-off, then one bank-aware scheduler per entry of [`BANKS`].
fn bank_configs() -> Vec<Option<BankConfig>> {
    let banked = BANKS.iter().map(|&banks| {
        Some(BankConfig {
            banks,
            ..BankConfig::default()
        })
    });
    std::iter::once(None).chain(banked).collect()
}

/// Cycles one off-chip path fetch costs, straight from the controller.
fn fetch_cycles(pipeline: Option<BankConfig>) -> u64 {
    let mut builder = fetch_kernel_config().to_builder();
    if let Some(bank) = pipeline {
        builder = builder.pipeline(bank);
    }
    PathOram::new(builder.build().expect("valid sweep configuration"), 1).fetch_cycles()
}

/// Completion time of a single-core locality-mix run.
fn end_to_end_cycles(pipeline: Option<BankConfig>, scale: Scale) -> u64 {
    let ops = (scale.ops / 2).clamp(2_000, 20_000);
    let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::baseline()));
    cfg.oram.pipeline = pipeline;
    let mut workload = LocalityMix::with_stride(1 << 20, 0.8, ops, scale.seed, 128);
    runner::run_workload(&mut workload, &cfg).cycles
}

/// Per-path fetch cycles and end-to-end cycles, each in
/// [`bank_configs`] order.
fn bank_sweep(ctx: RunCtx) -> (Vec<u64>, Vec<u64>) {
    let fetch = bank_configs().into_iter().map(fetch_cycles).collect();
    let system = jobs::parallel_map(ctx.jobs, bank_configs(), |pipeline| {
        end_to_end_cycles(pipeline, ctx.scale)
    });
    (fetch, system)
}

/// Regenerates the two serialization-ablation tables: aggregate
/// throughput (trace ops per kilocycle) of the stock serialized
/// controller next to `OramShards(N)` for every core count, and the
/// bank sweep of the fetch pipeline (cycles one path fetch costs, and
/// a single-core run's completion time, per bank count).
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let mut shards = Table::new(&["cores", "oram", "oram_sh1", "oram_sh2", "oram_sh4"]).with_title(
        "Serialization ablation (Section 2.6): one controller caps scaling; shards relax it",
    );
    let results = shard_sweep(ctx);
    for (&cores, row) in CORES.iter().zip(results.chunks(1 + SHARDS.len())) {
        let mut cols = vec![cores.to_string()];
        cols.extend(row.iter().map(|tp| table::f3(*tp)));
        shards.row(&cols);
    }

    let mut headers = vec!["cycles".to_owned(), "off".to_owned()];
    headers.extend(BANKS.iter().map(|b| format!("banks{b}")));
    let mut banks = Table::new(&headers).with_title(
        "Bank sweep: one bank serializes a path's bucket reads; more banks overlap them",
    );
    let (fetch, system) = bank_sweep(ctx);
    for (label, cycles) in [("per-path fetch", fetch), ("end to end", system)] {
        let mut cols = vec![label.to_owned()];
        cols.extend(cycles.iter().map(u64::to_string));
        banks.row(&cols);
    }
    vec![shards, banks]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunCtx {
        RunCtx::with_jobs(
            Scale {
                ops: 4_000,
                warmup_ops: 0,
                footprint_scale: 0.02,
                seed: 3,
            },
            2,
        )
    }

    #[test]
    fn tables_sweep_all_core_and_bank_counts() {
        let tables = run(tiny());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), CORES.len());
        assert!(tables[0].to_string().contains("oram_sh4"));
        assert_eq!(tables[1].len(), 2);
        assert_eq!(tables[1].headers().len(), 2 + BANKS.len());
        assert!(tables[1].to_string().contains("banks8"));
    }

    #[test]
    fn bank_overlap_and_shard_scaling_hold() {
        let ctx = tiny();
        let (fetch, system) = bank_sweep(ctx);
        let [off, banks1, banks2, ..] = fetch[..] else {
            panic!("sweep covers off + {BANKS:?}");
        };
        assert_eq!(
            off,
            PathOram::new(fetch_kernel_config(), 1).path_cycles(),
            "pipeline-off must keep the legacy lump-sum path cost"
        );
        for pair in fetch[1..].windows(2) {
            assert!(
                pair[1] <= pair[0],
                "adding banks must never slow a fetch: {pair:?}"
            );
        }
        assert!(banks2 < banks1, "two banks must overlap bucket reads");
        assert!(
            system[2] < system[1],
            "the per-path overlap must survive end to end"
        );
        let four_cores = shard_sweep(ctx);
        let four_cores = four_cores
            .chunks(1 + SHARDS.len())
            .last()
            .expect("sweep ran");
        assert!(
            four_cores[SHARDS.len()] > four_cores[1],
            "sharding must relax controller serialization"
        );
    }
}
