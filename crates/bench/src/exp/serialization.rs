//! The serialization ablation: reproduce the paper's Section 2.6
//! observation — one ORAM controller serializes every request, so extra
//! cores buy almost nothing — then relax it across requests with
//! address-partitioned controller shards ([`proram_sim::ShardedOram`]).
//!
//! The `dram` column runs the same cores on plain DRAM, which scales.
//! `shards=1` must track the stock single controller; larger shard
//! counts recover multi-core scaling in proportion to how much of the
//! wall was controller serialization rather than the access pattern.
//! Everything here is simulated cycles, so the table is deterministic.

use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::{runner, MemoryKind, SystemConfig};
use proram_stats::{table, Table};
use proram_workloads::synthetic::LocalityMix;
use proram_workloads::Scale;

/// Core counts swept (rows).
const CORES: [usize; 3] = [1, 2, 4];
/// Shard counts swept (columns after the stock controller).
const SHARDS: [usize; 3] = [1, 2, 4];
/// Cells per core count: DRAM, the stock controller, then the shards.
const ROW: usize = 2 + SHARDS.len();

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
/// (core count, memory) cell, row-major: per core count plain DRAM, the
/// stock controller, then `OramShards(N)` for each of [`SHARDS`].
fn shard_sweep(ctx: RunCtx) -> Vec<f64> {
    // All cells are independent runs: fan them over the worker pool;
    // results come back in sweep order.
    let mut cells = Vec::new();
    for &cores in &CORES {
        cells.push((cores, MemoryKind::Dram));
        cells.push((cores, MemoryKind::Oram(SchemeConfig::baseline())));
        for &n in &SHARDS {
            cells.push((cores, MemoryKind::OramShards(SchemeConfig::baseline(), n)));
        }
    }
    WorkerPool::new(ctx.jobs).run(cells, |(cores, kind)| throughput(kind, cores, ctx.scale))
}

/// Regenerates the serialization-ablation table: aggregate throughput
/// (trace ops per kilocycle) of plain DRAM and the stock serialized
/// controller next to `OramShards(N)` for every core count.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let mut shards = Table::new(&["cores", "dram", "oram", "oram_sh1", "oram_sh2", "oram_sh4"])
        .with_title(
            "Serialization ablation (Section 2.6): one controller caps scaling; shards relax it",
        );
    let results = shard_sweep(ctx);
    for (&cores, row) in CORES.iter().zip(results.chunks(ROW)) {
        let mut cols = vec![cores.to_string()];
        cols.extend(row.iter().map(|tp| table::f3(*tp)));
        shards.row(&cols);
    }
    vec![shards]
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
    fn one_table_sweeps_all_core_counts() {
        let tables = run(tiny());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), CORES.len());
        assert!(tables[0].to_string().contains("oram_sh4"));
    }

    #[test]
    fn one_shard_is_the_stock_controller_and_four_relax_it() {
        let cells = shard_sweep(tiny());
        let four_cores = cells.chunks(ROW).last().expect("sweep ran");
        assert!(
            four_cores[0] > cells[0],
            "DRAM throughput must scale with cores"
        );
        for row in cells.chunks(ROW) {
            assert_eq!(row[1], row[2], "oram_sh1 must track the stock oram");
        }
        assert!(
            four_cores[ROW - 1] > four_cores[2],
            "sharding must relax controller serialization"
        );
    }
}
