//! Figure 7: super-block size sweep on a 100%-locality synthetic trace.
//!
//! "Even with perfect locality, as sbsize increases, performance of the
//! static super block scheme still degrades quickly due to excessive
//! background evictions. The dynamic super block scheme will throttle
//! merging of too large super blocks."

use crate::common;
use crate::exp::fig6::{footprint_for, z4, STRIDE};
use crate::exp::RunCtx;
use proram_core::SchemeConfig;
use proram_stats::{table, Table};
use proram_workloads::synthetic::LocalityMix;

/// Runs the sbsize in {2, 4, 8} sweep.
pub fn run(ctx: RunCtx) -> Table {
    let scale = ctx.scale;
    let mut t = Table::new(&["sbsize", "stat", "dyn", "stat_norm_acc", "dyn_norm_acc"])
        .with_title("Figure 7: super block size sweep, 100% locality (Z=4)");
    let footprint = footprint_for(scale.ops);
    let build = || LocalityMix::with_stride(footprint, 1.0, scale.ops, scale.seed, STRIDE);
    let oram = common::run_built(build, &z4(SchemeConfig::baseline()));
    for sbsize in [2u64, 4, 8] {
        let stat_cfg = z4(SchemeConfig::static_scheme(sbsize));
        let dyn_cfg = z4(SchemeConfig::dynamic(sbsize));
        let stat = common::run_built(build, &stat_cfg);
        let dynamic = common::run_built(build, &dyn_cfg);
        t.row(&[
            &sbsize.to_string(),
            &table::pct(stat.speedup_over(&oram)),
            &table::pct(dynamic.speedup_over(&oram)),
            &table::f3(stat.norm_memory_accesses(&oram)),
            &table::f3(dynamic.norm_memory_accesses(&oram)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_three_sizes() {
        let t = run(RunCtx::serial(proram_workloads::Scale {
            ops: 1200,
            warmup_ops: 0,
            footprint_scale: 1.0,
            seed: 1,
        }));
        assert_eq!(t.len(), 3);
    }
}
