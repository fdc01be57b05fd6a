//! Table 1: system configuration.

use crate::common;
use proram_core::SchemeConfig;
use proram_oram::{OramConfig, OramTiming};
use proram_stats::Table;

use crate::exp::RunCtx;

/// Table 1's tree at Table 1's size: 8 GB => 2^26 data blocks => a
/// 26-level tree, every other field the paper default. Only its shape and
/// price are read; placing its blocks would take 8 GiB.
pub(super) fn full_scale_oram() -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(1 << 26)
        .build()
        .expect("valid full-scale configuration")
}

/// Prints the configuration the simulator runs with, alongside the
/// paper's values.
pub fn run(_ctx: RunCtx) -> Vec<Table> {
    let cfg = common::oram_config(SchemeConfig::dynamic(2));
    let mut t = Table::new(&["parameter", "paper", "this reproduction"])
        .with_title("Table 1: System Configuration");
    t.row(&[
        "core model",
        "1 GHz, in order",
        "1 GHz, in order (trace-driven)",
    ]);
    t.row(&[
        "L1 I/D cache",
        "32 KB, 4-way",
        &format!(
            "{} KB, {}-way",
            cfg.hierarchy.l1.capacity_bytes / 1024,
            cfg.hierarchy.l1.ways
        ),
    ]);
    t.row(&[
        "shared L2",
        "512 KB per tile, 8-way",
        &format!(
            "{} KB, {}-way",
            cfg.hierarchy.l2.capacity_bytes / 1024,
            cfg.hierarchy.l2.ways
        ),
    ]);
    t.row(&[
        "cacheline (block)",
        "128 bytes",
        &format!("{} bytes", cfg.line_bytes()),
    ]);
    t.row(&[
        "DRAM bandwidth",
        "16 GB/s",
        &format!("{} GB/s", cfg.dram.bytes_per_cycle),
    ]);
    t.row(&[
        "DRAM latency",
        "100 cycles",
        &format!("{} cycles", cfg.dram.latency_cycles),
    ]);
    t.row(&["ORAM capacity", "8 GB", "sized per workload (scaled)"]);
    t.row(&[
        "ORAM hierarchies",
        "4",
        &format!("{}", cfg.oram.on_tree_hierarchies + 2),
    ]);
    t.row(&[
        "ORAM basic block",
        "128 bytes",
        &format!("{} bytes", cfg.oram.timing.block_bytes),
    ]);
    let full = full_scale_oram();
    let full_latency = OramTiming::paper_calibrated().path_cycles(full.tree_levels(), full.z);
    t.row(&[
        "Path ORAM latency",
        "2364 cycles",
        &format!(
            "{full_latency} cycles at full scale / {} at sim scale",
            cfg.oram.path_cycles()
        ),
    ]);
    t.row(&["Z", "3", &format!("{}", cfg.oram.z)]);
    t.row(&["max super block size", "2", "2"]);
    t.row(&["stash size", "100", &format!("{}", cfg.oram.stash_limit)]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_mentions_key_parameters() {
        let t = &run(RunCtx::serial(proram_workloads::Scale::quick()))[0];
        let s = t.to_string();
        assert!(s.contains("Path ORAM latency"));
        assert!(s.contains("2364"));
        assert!(s.contains("stash size"));
    }

    #[test]
    fn full_scale_latency_close_to_paper() {
        let full = full_scale_oram();
        assert_eq!(full.tree_levels(), 26);
        let latency = OramTiming::paper_calibrated().path_cycles(26, 3);
        assert!((latency as f64 - 2364.0).abs() / 2364.0 < 0.02);
    }
}
