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
    let runs = [0u32, 2, 4, 6].map(|levels| {
        (
            levels,
            run(levels, SchemeConfig::baseline()),
            run(levels, SchemeConfig::dynamic(2)),
        )
    });
    let (_, base_oram, base_dyn) = &runs[0];
    for (levels, oram, dynamic) in &runs {
        t.row(&[
            levels.to_string(),
            table::f3(oram.norm_completion_time(base_oram)),
            table::f3(dynamic.norm_completion_time(base_dyn)),
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
    let runs = [4usize, 16, 64, 256].map(|blocks| (blocks, run(blocks)));
    let (_, base) = runs
        .iter()
        .find(|(blocks, _)| *blocks == 64)
        .expect("the sweep includes the 64-block base");
    for (blocks, m) in &runs {
        t.row(&[
            blocks.to_string(),
            table::f3(m.posmap_per_demand()),
            table::f3(m.norm_completion_time(base)),
        ]);
    }
    t
}

/// Adaptive O_int (dynamic timing protection, \[9\]): performance and
/// leakage against fixed intervals. Every row is one `System` run of
/// cholesky under baseline ORAM, differing only in the `O_int` ladder.
pub fn adaptive_interval(scale: Scale) -> Table {
    use proram_mem::{leaked_bits, ADAPTIVE_LADDER};

    let mut t = Table::new(&[
        "protection",
        "cycles_vs_fixed100",
        "dummy_accesses",
        "leaked_bits",
    ])
    .with_title(
        "Ablation: fixed vs adaptive O_int timing protection \
         (cholesky; leaked bits = epochs x log2(rungs), warm-up excluded)",
    );
    let spec = suite::spec("cholesky").expect("registered");
    let rows = [
        ("fixed O_int=100", &[100][..]),
        ("fixed O_int=800", &[800][..]),
        ("adaptive ladder", &ADAPTIVE_LADDER[..]),
    ];
    let runs = rows.map(|(name, ladder)| {
        let mut cfg = common::oram_config(SchemeConfig::baseline());
        cfg.periodic_intervals = ladder.to_vec();
        (name, ladder.len(), runner::run_spec(spec, scale, &cfg))
    });
    let fixed100 = runs[0].2.cycles as f64;
    for (name, rungs, m) in runs {
        t.row(&[
            name.to_owned(),
            table::f3(m.cycles as f64 / fixed100),
            m.backend.dummy_accesses.to_string(),
            format!("{:.1}", leaked_bits(m.backend.interval_epochs, rungs)),
        ]);
    }
    t
}

/// Super blocks on a different tree ORAM (paper Section 6.1): the same
/// dynamic controller on the Shi-style backend, driven by a sequential
/// workload, against its own baseline.
pub fn shi_generality(scale: Scale) -> Table {
    use proram_core::SuperBlockOram;
    use proram_mem::{BlockAddr, MemRequest, MemoryBackend};
    use proram_oram::{OramConfig, OramTiming, ShiOram};
    use proram_stats::{Rng64, Xoshiro256};

    let mut t = Table::new(&["backend+scheme", "tree_accesses", "prefetch_hits"])
        .with_title("Ablation: super blocks generalize beyond Path ORAM (Section 6.1)");
    let blocks = 1u64 << 12;
    let run = |scheme: SchemeConfig| {
        let backend = ShiOram::new(
            OramConfig {
                num_data_blocks: blocks,
                z: 4,
                on_tree_hierarchies: 0,
                timing: OramTiming::default(),
                ..OramConfig::default()
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

/// Runs all ablations. The six studies are independent, so they fan
/// over the worker pool; tables come back in presentation order.
pub fn run(ctx: RunCtx) -> Vec<Table> {
    let studies: Vec<fn(Scale) -> Table> = vec![
        strided_super_blocks,
        treetop_caching,
        plb_sizing,
        adaptive_interval,
        shi_generality,
        stash_occupancy,
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

    /// The adaptive row is measured like its fixed siblings: every cell
    /// is a number, and only the ladder leaks.
    #[test]
    fn adaptive_interval_reports_leakage() {
        let t = adaptive_interval(tiny());
        assert_eq!(t.len(), 3);
        for row in t.rows() {
            for cell in &row[1..] {
                assert!(cell.parse::<f64>().is_ok(), "{row:?}");
            }
        }
        assert_eq!(t.rows()[0][3], "0.0");
        assert_eq!(t.rows()[1][3], "0.0");
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

    /// Section 6.1: super blocks cut the Shi-style tree's accesses. At
    /// 65,536 ops the driver sends 8,192 requests over 4,096 blocks, so
    /// the sequential sweep wraps twice and merged blocks come back.
    #[test]
    fn shi_generality_compares_two_schemes() {
        let t = shi_generality(Scale {
            ops: 65_536,
            warmup_ops: 0,
            footprint_scale: 0.02,
            seed: 1,
        });
        let cell = |row: usize, col: usize| t.rows()[row][col].parse::<u64>().expect("a count");
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][0], "oram_shi");
        assert_eq!(t.rows()[1][0], "dyn_shi");
        assert!(cell(1, 1) < cell(0, 1), "{t}");
        assert!(cell(1, 2) > 0, "{t}");
    }
}
