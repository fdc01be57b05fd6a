//! Figure 6: synthetic locality sweep (6a) and phase change (6b).
//!
//! Both use Z = 4, as the paper does for its synthetic studies ("Z = 4 is
//! chosen here to make it easier to see the performance difference").

use crate::common;
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_par::WorkerPool;
use proram_sim::SystemConfig;
use proram_stats::{table, Table};
use proram_workloads::synthetic::{LocalityMix, PhaseChange};

/// Line-granular stride so each op touches a fresh cache line and a
/// fixed op budget sweeps the array several times.
pub(crate) const STRIDE: u64 = 128;

/// Synthetic footprint: a small multiple of the 512 KB LLC, so the LLC
/// holds a meaningful fraction of the array (making cache pollution by
/// useless prefetches *visible*, as in the paper's Figure 6a where the
/// static scheme loses at low locality), while the op budget still covers
/// many sweeps.
pub(crate) fn footprint_for(ops: u64) -> u64 {
    (ops * STRIDE / 8).clamp(1 << 20, 2 << 20)
}

pub(crate) fn z4(scheme: SchemeConfig) -> SystemConfig {
    let mut cfg = common::oram_config(scheme);
    cfg.oram.z = 4;
    // At the paper's full scale a Z=4 path (26 levels x 4 = 104 blocks)
    // exceeds the 100-block stash, so super-block schemes run under
    // standing eviction pressure. Our scaled trees have ~56-block paths;
    // a 60-block stash reproduces that stash:path ratio.
    cfg.oram.stash_limit = 60;
    cfg
}

/// Figure 6a: sweep the percentage of data with locality; `stat` and
/// `dyn` speedup over baseline ORAM.
pub fn run_6a(ctx: RunCtx) -> Table {
    let mut t = Table::new(&["locality", "stat", "dyn"])
        .with_title("Figure 6a: locality sweep, speedup vs baseline ORAM (Z=4)");
    let scale = ctx.scale;
    let footprint = footprint_for(scale.ops);
    // The six sweep points are independent triples of runs.
    let rows = WorkerPool::new(ctx.jobs).run(vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0], |pct| {
        let build = || LocalityMix::with_stride(footprint, pct, scale.ops, scale.seed, STRIDE);
        let oram = common::run_built(build, &z4(SchemeConfig::baseline()));
        let stat = common::run_built(build, &z4(SchemeConfig::static_scheme(2)));
        let dynamic = common::run_built(build, &z4(SchemeConfig::dynamic(2)));
        [
            format!("{:.0}%", pct * 100.0),
            table::pct(stat.speedup_over(&oram)),
            table::pct(dynamic.speedup_over(&oram)),
        ]
    });
    for row in rows {
        t.row(&row);
    }
    t
}

/// Figure 6b: phase-change behaviour of the merge/break variants.
pub fn run_6b(ctx: RunCtx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(&["scheme", "speedup", "norm_accesses"])
        .with_title("Figure 6b: phase change, speedup and normalized memory accesses (Z=4)");
    // Phases must each sweep the array several times: merges from a
    // sequential phase only hurt (and breaking only pays off) once the
    // now-random half is revisited repeatedly. The phase study therefore
    // runs a longer trace over a larger array than the locality sweep.
    let ops = scale.ops * 3;
    let footprint = footprint_for(scale.ops) * 2;
    let phase_len = (ops / 3).max(1);
    // A dense tree raises eviction pressure, making stale super blocks
    // genuinely costly — the effect breaking exists to avoid.
    let dense = |scheme: SchemeConfig| {
        let mut cfg = z4(scheme);
        cfg.oram.dense_tree = true;
        cfg
    };
    let build = || PhaseChange::with_stride(footprint, phase_len, ops, scale.seed, STRIDE);
    let oram = common::run_built(build, &dense(SchemeConfig::baseline()));
    let variants: Vec<(&str, SchemeConfig)> = vec![
        ("static", SchemeConfig::static_scheme(2)),
        ("sm_nb", SchemeConfig::static_merge_no_break(2)),
        ("am_nb", SchemeConfig::adaptive_merge_no_break(2)),
        ("am_ab", SchemeConfig::dynamic(2)),
    ];
    for (name, scheme) in variants {
        let m = common::run_built(build, &dense(scheme));
        t.row(&[
            name,
            &table::pct(m.speedup_over(&oram)),
            &table::f3(m.norm_memory_accesses(&oram)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunCtx {
        RunCtx::serial(proram_workloads::Scale {
            ops: 1500,
            warmup_ops: 0,
            footprint_scale: 1.0,
            seed: 4,
        })
    }

    #[test]
    fn sweep_has_six_points() {
        assert_eq!(run_6a(tiny()).len(), 6);
    }

    #[test]
    fn phase_change_has_four_variants() {
        assert_eq!(run_6b(tiny()).len(), 4);
    }
}
