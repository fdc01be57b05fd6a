//! Ablations beyond the paper's figures: the extensions DESIGN.md calls
//! out (strided super blocks, Section 6.2; treetop caching from the
//! baseline's design space \[25\]; PLB sizing for the unified position
//! map).

use crate::common;
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::runner;
use proram_stats::{table, Table};
use proram_workloads::synthetic::StridedScan;
use proram_workloads::{suite, Scale};

/// Strided super blocks on a strided scan: the contiguous scheme finds
/// nothing; the stride-matched scheme prefetches like the sequential
/// case.
pub fn strided_super_blocks(scale: Scale) -> Table {
    let mut t = Table::new(&["scheme", "speedup", "prefetch_hits", "norm_accesses"])
        .with_title("Ablation: strided super blocks (Section 6.2 extension), 8-block-stride scan");
    // 8-block (1 KiB) stride over a footprint sized for several sweeps.
    let footprint = (scale.ops * 1024 / 3).clamp(2 << 20, 16 << 20);
    let build = || StridedScan::new(footprint, 1024, scale.ops, scale.seed);
    let schemes: Vec<(&str, SchemeConfig)> = vec![
        ("oram", SchemeConfig::baseline()),
        ("dyn_contig", SchemeConfig::dynamic(2)),
        (
            "dyn_stride8",
            SchemeConfig::dynamic(2).with_super_block_stride(8),
        ),
    ];
    let mut baseline = None;
    for (name, scheme) in schemes {
        let m = common::run_built(build, &common::oram_config(scheme));
        let base = baseline.get_or_insert_with(|| m.clone());
        t.row(&[
            name.to_owned(),
            table::pct(m.speedup_over(base)),
            m.backend.prefetch_hits.to_string(),
            table::f3(m.norm_memory_accesses(base)),
        ]);
    }
    t
}

/// Treetop caching sweep: on-chip top levels shorten the paid path.
pub fn treetop_caching(scale: Scale) -> Table {
    let mut t = Table::new(&["treetop_levels", "oram", "dyn"])
        .with_title("Ablation: treetop caching (completion time normalized to 0 levels)");
    let spec = suite::spec("ocean_c").expect("registered");
    let run = |levels: u32, scheme: SchemeConfig| {
        let mut cfg = common::oram_config(scheme);
        cfg.oram.treetop_levels = levels;
        runner::run_spec(spec, scale, &cfg)
    };
    let base_oram = run(0, SchemeConfig::baseline());
    let base_dyn = run(0, SchemeConfig::dynamic(2));
    for levels in [0u32, 2, 4, 6] {
        let oram = run(levels, SchemeConfig::baseline());
        let dynamic = run(levels, SchemeConfig::dynamic(2));
        t.row(&[
            levels.to_string(),
            table::f3(oram.norm_completion_time(&base_oram)),
            table::f3(dynamic.norm_completion_time(&base_dyn)),
        ]);
    }
    t
}

/// PLB capacity sweep: the unified position map's on-chip cache governs
/// how many extra tree accesses each miss costs.
pub fn plb_sizing(scale: Scale) -> Table {
    let mut t = Table::new(&["plb_blocks", "posmap_per_demand", "norm_time"])
        .with_title("Ablation: PLB capacity (baseline ORAM on a scattered workload)");
    let spec = suite::spec("mcf").expect("registered");
    let run = |blocks: usize| {
        let mut cfg = common::oram_config(SchemeConfig::baseline());
        cfg.oram.plb_blocks = blocks;
        runner::run_spec(spec, scale, &cfg)
    };
    let base = run(64);
    for blocks in [4usize, 16, 64, 256] {
        let m = run(blocks);
        t.row(&[
            blocks.to_string(),
            table::f3(m.posmap_per_demand()),
            table::f3(m.norm_completion_time(&base)),
        ]);
    }
    t
}

/// Adaptive O_int (dynamic timing protection, \[9\]): performance and
/// leakage against fixed intervals.
pub fn adaptive_interval(scale: Scale) -> Table {
    use proram_core::SuperBlockOram;
    use proram_mem::{AdaptivePeriodic, AdaptivePeriodicConfig, MemoryBackend};
    use proram_sim::RunMetrics;

    let mut t = Table::new(&[
        "protection",
        "cycles_vs_fixed100",
        "dummy_accesses",
        "leaked_bits",
    ])
    .with_title("Ablation: fixed vs adaptive O_int timing protection");
    let spec = suite::spec("cholesky").expect("registered");

    // Fixed intervals go through the standard runner.
    let fixed = |interval: u64| -> RunMetrics {
        let mut cfg = common::oram_config(SchemeConfig::baseline());
        cfg.periodic_interval = Some(interval);
        runner::run_spec(spec, scale, &cfg)
    };
    let f100 = fixed(100);
    let f800 = fixed(800);

    // The adaptive wrapper is driven directly (it is not part of the
    // paper's configurations, so the system builder does not know it).
    let mut workload = suite::build(spec, scale);
    let blocks = (workload.footprint_bytes().div_ceil(128))
        .next_power_of_two()
        .max(1 << 14);
    let oram_cfg = common::oram_config(SchemeConfig::baseline())
        .oram
        .to_builder()
        .num_data_blocks(blocks)
        .build()
        .expect("valid ablation configuration");
    let backend = SuperBlockOram::new(oram_cfg, SchemeConfig::baseline(), scale.seed);
    let mut adaptive = AdaptivePeriodic::new(backend, AdaptivePeriodicConfig::default());
    let mut now = 0u64;
    let mut ops = 0u64;
    while let Some(op) = workload.next_op() {
        now += u64::from(op.comp_cycles);
        ops += 1;
        // Memory-side only: every 16th op goes to memory (a crude LLC),
        // enough to exercise the interval controller end to end.
        if ops.is_multiple_of(16) {
            let req = proram_mem::MemRequest::read(proram_mem::BlockAddr(op.addr / 128));
            now = adaptive.access(now, req, &proram_mem::NoProbe).complete_at;
        }
    }
    t.row(&[
        "fixed O_int=100".to_owned(),
        table::f3(1.0),
        f100.backend.dummy_accesses.to_string(),
        "0".to_owned(),
    ]);
    t.row(&[
        "fixed O_int=800".to_owned(),
        table::f3(f800.cycles as f64 / f100.cycles as f64),
        f800.backend.dummy_accesses.to_string(),
        "0".to_owned(),
    ]);
    t.row(&[
        "adaptive ladder".to_owned(),
        "-".to_owned(),
        adaptive.stats().dummy_accesses.to_string(),
        format!("{:.1}", adaptive.leaked_bits()),
    ]);
    t
}

/// Super blocks on a different tree ORAM (paper Section 6.1): the same
/// dynamic controller on the Shi-style backend, driven by a sequential
/// workload, against its own baseline.
pub fn shi_generality(scale: Scale) -> Table {
    use proram_core::SuperBlockOram;
    use proram_mem::{BlockAddr, MemRequest, MemoryBackend};
    use proram_oram::{ShiOram, ShiOramConfig};
    use proram_stats::{Rng64, Xoshiro256};

    let mut t = Table::new(&["backend+scheme", "tree_accesses", "prefetch_hits"])
        .with_title("Ablation: super blocks generalize beyond Path ORAM (Section 6.1)");
    let blocks = 1u64 << 12;
    let run = |scheme: SchemeConfig| {
        let backend = ShiOram::new(
            ShiOramConfig {
                num_data_blocks: blocks,
                ..Default::default()
            },
            scale.seed,
        );
        let mut oram = SuperBlockOram::from_backend(backend, scheme);
        // Drive a raw sequential-with-reuse request stream (no cache
        // model: this isolates the ORAM-level effect).
        let mut rng = Xoshiro256::seed_from(scale.seed);
        let mut resident: std::collections::VecDeque<u64> = Default::default();
        struct Probe(std::collections::HashSet<u64>);
        impl proram_mem::CacheProbe for Probe {
            fn contains(&self, b: BlockAddr) -> bool {
                self.0.contains(&b.0)
            }
        }
        let mut probe = Probe(Default::default());
        let n = scale.ops / 8;
        for i in 0..n {
            let addr = if rng.next_bool(0.8) {
                BlockAddr(i % blocks) // sequential sweep
            } else {
                BlockAddr(rng.next_below(blocks))
            };
            if probe.0.contains(&addr.0) {
                oram.note_llc_hit(addr);
                continue;
            }
            let out = oram.access(i, MemRequest::read(addr), &probe);
            for f in out.fills {
                probe.0.insert(f.block.0);
                resident.push_back(f.block.0);
                if resident.len() > 2048 {
                    let v = resident.pop_front().expect("nonempty");
                    probe.0.remove(&v);
                    oram.note_llc_eviction(BlockAddr(v));
                }
            }
        }
        let label = oram.label().to_owned();
        let stats = MemoryBackend::stats(&oram);
        (label, stats)
    };
    for scheme in [SchemeConfig::baseline(), SchemeConfig::dynamic(2)] {
        let (label, stats) = run(scheme);
        t.row(&[
            label,
            stats.physical_accesses.to_string(),
            stats.prefetch_hits.to_string(),
        ]);
    }
    t
}

/// Stash occupancy under the three schemes: the quantity background
/// eviction exists to bound (cf. the stash design space in \[25\]).
pub fn stash_occupancy(scale: Scale) -> Table {
    use proram_core::SuperBlockOram;
    use proram_mem::{BlockAddr, MemRequest, MemoryBackend};
    use proram_stats::{Rng64, Xoshiro256};

    let mut t = Table::new(&["scheme", "p50", "p99", "peak", "bg_evictions"])
        .with_title("Ablation: stash occupancy during a mixed workload (Z=3)");
    for scheme in [
        SchemeConfig::baseline(),
        SchemeConfig::static_scheme(2),
        SchemeConfig::dynamic(2),
    ] {
        let mut cfg = common::oram_config(scheme.clone()).oram;
        cfg.num_data_blocks = 1 << 13;
        let mut oram = SuperBlockOram::new(cfg, scheme, scale.seed);
        let mut rng = Xoshiro256::seed_from(scale.seed);
        // A small resident-set model so the dynamic scheme sees locality
        // evidence and actually merges.
        struct Probe(std::collections::HashSet<u64>);
        impl proram_mem::CacheProbe for Probe {
            fn contains(&self, b: BlockAddr) -> bool {
                self.0.contains(&b.0)
            }
        }
        let mut probe = Probe(Default::default());
        let mut order: std::collections::VecDeque<u64> = Default::default();
        let n = (scale.ops / 10).max(2_000);
        for i in 0..n {
            let addr = if rng.next_bool(0.6) {
                BlockAddr(i % (1 << 12))
            } else {
                BlockAddr(rng.next_below(1 << 13))
            };
            let out = oram.access(i, MemRequest::read(addr), &probe);
            for f in out.fills {
                if probe.0.insert(f.block.0) {
                    order.push_back(f.block.0);
                }
                if order.len() > 1024 {
                    let v = order.pop_front().expect("nonempty");
                    probe.0.remove(&v);
                    oram.note_llc_eviction(BlockAddr(v));
                }
            }
        }
        let hist = oram.oram().stash().occupancy_histogram().clone();
        let stats = oram.oram().oram_stats();
        t.row(&[
            oram.label().to_owned(),
            hist.quantile(0.5).unwrap_or(0).to_string(),
            hist.quantile(0.99).unwrap_or(0).to_string(),
            oram.oram().stash().peak().to_string(),
            stats.background_evictions.to_string(),
        ]);
    }
    t
}

/// Multi-core scaling (paper Section 2.6): "a single ORAM access
/// saturates the available DRAM bandwidth, it brings no benefits to
/// serve multiple ORAM requests in parallel". Throughput is trace ops
/// per kilocycle, summed over cores.
pub fn multicore_scaling(scale: Scale) -> Table {
    use proram_sim::{runner, MemoryKind, SystemConfig};
    use proram_workloads::synthetic::LocalityMix;

    let mut t = Table::new(&[
        "cores",
        "dram_ops_per_kcycle",
        "dram_core_cpi",
        "oram_ops_per_kcycle",
        "oram_core_cpi",
    ])
    .with_title("Ablation: multi-core throughput scaling (Section 2.6)");
    let ops = (scale.ops / 4).max(2_000);
    // Returns (aggregate throughput, per-core CPI range) — the range
    // shows how evenly the shared memory controller serves the tiles.
    let run = |kind: MemoryKind, cores: usize| {
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
        let cpis: Vec<f64> = m.per_core.iter().map(|c| c.cpi()).collect();
        let lo = cpis.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = cpis.iter().cloned().fold(0.0, f64::max);
        let throughput = m.trace_ops as f64 * 1000.0 / m.cycles as f64;
        (throughput, format!("{lo:.1}..{hi:.1}"))
    };
    for cores in [1usize, 2, 4] {
        let (dram_tp, dram_cpi) = run(MemoryKind::Dram, cores);
        let (oram_tp, oram_cpi) = run(MemoryKind::Oram(SchemeConfig::baseline()), cores);
        t.row(&[
            cores.to_string(),
            table::f3(dram_tp),
            dram_cpi,
            table::f3(oram_tp),
            oram_cpi,
        ]);
    }
    t
}

/// Runs all ablations. The seven studies are independent, so they fan
/// over the worker pool; tables come back in presentation order.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let studies: Vec<fn(Scale) -> Table> = vec![
        strided_super_blocks,
        treetop_caching,
        plb_sizing,
        adaptive_interval,
        shi_generality,
        stash_occupancy,
        multicore_scaling,
    ];
    WorkerPool::new(ctx.jobs).run(studies, |study| study(ctx.scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            ops: 1200,
            warmup_ops: 200,
            footprint_scale: 0.02,
            seed: 1,
        }
    }

    #[test]
    fn strided_table_has_three_schemes() {
        assert_eq!(strided_super_blocks(tiny()).len(), 3);
    }

    #[test]
    fn treetop_sweep_has_four_points() {
        assert_eq!(treetop_caching(tiny()).len(), 4);
    }

    #[test]
    fn plb_sweep_has_four_points() {
        assert_eq!(plb_sizing(tiny()).len(), 4);
    }

    #[test]
    fn adaptive_interval_reports_leakage() {
        let t = adaptive_interval(tiny());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn multicore_scaling_has_three_rows() {
        let t = multicore_scaling(Scale {
            ops: 4000,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 3,
        });
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn stash_occupancy_reports_three_schemes() {
        let t = stash_occupancy(Scale {
            ops: 3000,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 2,
        });
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn shi_generality_compares_two_schemes() {
        let t = shi_generality(Scale {
            ops: 4000,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 1,
        });
        assert_eq!(t.len(), 2);
        let s = t.to_string();
        assert!(s.contains("oram_shi"));
        assert!(s.contains("dyn_shi"));
    }
}
