//! The serialization ablation: reproduce the paper's Section 2.6
//! observation — one ORAM controller serializes every request, so extra
//! cores buy almost nothing.
//!
//! The `dram` column runs the same cores on plain DRAM, which scales; the
//! `oram` column runs them on the stock single controller, which does
//! not. Everything here is simulated cycles, so the table is
//! deterministic.

use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::{runner, MemoryKind, SystemConfig};
use proram_stats::{table, Table};
use proram_workloads::synthetic::LocalityMix;
use proram_workloads::Scale;

/// Core counts swept (rows).
const CORES: [usize; 3] = [1, 2, 4];
/// Cells per core count: DRAM, then the stock controller.
const ROW: usize = 2;

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
/// (core count, memory) cell, row-major: per core count plain DRAM, then
/// the stock controller.
fn core_sweep(ctx: RunCtx) -> Vec<f64> {
    // All cells are independent runs: fan them over the worker pool;
    // results come back in sweep order.
    let mut cells = Vec::new();
    for &cores in &CORES {
        cells.push((cores, MemoryKind::Dram));
        cells.push((cores, MemoryKind::Oram(SchemeConfig::baseline())));
    }
    WorkerPool::new(ctx.jobs).run(cells, |(cores, kind)| throughput(kind, cores, ctx.scale))
}

/// Regenerates the serialization-ablation table: aggregate throughput
/// (trace ops per kilocycle) of plain DRAM and the stock serialized
/// controller for every core count.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let mut scaling = Table::new(&["cores", "dram", "oram"])
        .with_title("Serialization ablation (Section 2.6): one controller caps scaling");
    let results = core_sweep(ctx);
    for (&cores, row) in CORES.iter().zip(results.chunks(ROW)) {
        let mut cols = vec![cores.to_string()];
        cols.extend(row.iter().map(|tp| table::f3(*tp)));
        scaling.row(&cols);
    }
    vec![scaling]
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
        let text = tables[0].to_string();
        assert!(text.contains("dram") && text.contains("oram"));
    }

    /// Both halves of Section 2.6 on the table's own cells: four cores
    /// beat one on DRAM, and four cores stay under 1.5x one core on the
    /// serialized controller (the bound of
    /// `runner::tests::dram_throughput_scales_with_cores_but_oram_does_not`).
    #[test]
    fn dram_scales_with_cores_and_one_controller_caps_oram() {
        let cells = core_sweep(tiny());
        let (one_core, four_cores) = (&cells[..ROW], cells.chunks(ROW).last().expect("sweep ran"));
        assert!(
            four_cores[0] > one_core[0],
            "DRAM throughput must scale with cores: {} vs {}",
            four_cores[0],
            one_core[0]
        );
        assert!(
            four_cores[1] < 1.5 * one_core[1],
            "one controller must cap ORAM scaling: {} vs {}",
            four_cores[1],
            one_core[1]
        );
    }
}
