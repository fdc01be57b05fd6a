//! Cross-crate integration tests: full system runs (core + caches +
//! prefetcher + ORAM) over real workloads, checking the paper's
//! qualitative claims at reduced scale and the functional invariants
//! after complete runs.

use proram::core_scheme::SchemeConfig;
use proram::sim::{runner, MemoryKind, RunMetrics, SystemConfig};
use proram::workloads::synthetic::LocalityMix;
use proram::workloads::{suite, Scale, Suite};

fn small_scale() -> Scale {
    Scale {
        ops: 12_000,
        warmup_ops: 4_000,
        footprint_scale: 0.0625,
        seed: 42,
    }
}

fn oram_cfg(scheme: SchemeConfig) -> SystemConfig {
    let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(scheme));
    cfg.oram.num_data_blocks = 1 << 13;
    cfg
}

fn run_mix(scheme: SchemeConfig, locality: f64, ops: u64) -> RunMetrics {
    let mut w = LocalityMix::with_stride(1 << 20, locality, ops, 3, 128);
    runner::run_workload(&mut w, &oram_cfg(scheme))
}

#[test]
fn oram_slowdown_over_dram_is_order_of_magnitude_for_memory_bound() {
    // Section 1: "2-10x performance slowdown" for secure processors.
    let spec = suite::spec("ocean_c").unwrap();
    let dram = runner::run_spec(
        spec,
        small_scale(),
        &SystemConfig::paper_default(MemoryKind::Dram),
    );
    let oram = runner::run_spec(spec, small_scale(), &oram_cfg(SchemeConfig::baseline()));
    let slowdown = oram.cycles as f64 / dram.cycles as f64;
    assert!(
        (2.0..200.0).contains(&slowdown),
        "ORAM slowdown {slowdown:.1}x out of plausible range"
    );
}

#[test]
fn dynamic_scheme_helps_sequential_workloads() {
    let base = run_mix(SchemeConfig::baseline(), 1.0, 40_000);
    let dynamic = run_mix(SchemeConfig::dynamic(2), 1.0, 40_000);
    let gain = dynamic.speedup_over(&base);
    assert!(gain > 0.03, "dyn gain on sequential workload: {gain:.3}");
    assert!(dynamic.backend.prefetch_hits > 500);
}

#[test]
fn dynamic_scheme_does_not_hurt_random_workloads() {
    let base = run_mix(SchemeConfig::baseline(), 0.0, 20_000);
    let dynamic = run_mix(SchemeConfig::dynamic(2), 0.0, 20_000);
    let gain = dynamic.speedup_over(&base);
    assert!(
        gain > -0.04,
        "dyn must be stable on random workloads: {gain:.3}"
    );
}

#[test]
fn static_scheme_hurts_random_workloads() {
    // Section 3.3.2: the static scheme "significantly hurts performance
    // when the program has bad spatial locality".
    let base = run_mix(SchemeConfig::baseline(), 0.0, 20_000);
    let stat = run_mix(SchemeConfig::static_scheme(2), 0.0, 20_000);
    assert!(
        stat.speedup_over(&base) < 0.0,
        "static should lose without locality"
    );
}

#[test]
fn oversized_static_super_blocks_collapse_but_dynamic_stays_stable() {
    // Figure 7's claim at reduced scale, size 8.
    let mut base_cfg = oram_cfg(SchemeConfig::baseline());
    base_cfg.oram.z = 4;
    base_cfg.oram.stash_limit = 60;
    let mut stat_cfg = oram_cfg(SchemeConfig::static_scheme(8));
    stat_cfg.oram.z = 4;
    stat_cfg.oram.stash_limit = 60;
    let mut dyn_cfg = oram_cfg(SchemeConfig::dynamic(8));
    dyn_cfg.oram.z = 4;
    dyn_cfg.oram.stash_limit = 60;
    let build = || LocalityMix::with_stride(1 << 20, 1.0, 30_000, 5, 128);
    let mut w = build();
    let base = runner::run_workload(&mut w, &base_cfg);
    let mut w = build();
    let stat = runner::run_workload(&mut w, &stat_cfg);
    let mut w = build();
    let dynamic = runner::run_workload(&mut w, &dyn_cfg);
    assert!(
        stat.speedup_over(&base) < -0.2,
        "static size-8 should collapse under evictions: {:+.3}",
        stat.speedup_over(&base)
    );
    assert!(
        dynamic.speedup_over(&base) > 0.0,
        "dynamic should throttle and stay positive: {:+.3}",
        dynamic.speedup_over(&base)
    );
}

#[test]
fn every_benchmark_runs_under_every_scheme() {
    let scale = Scale {
        ops: 700,
        warmup_ops: 100,
        footprint_scale: 0.03,
        seed: 1,
    };
    for suite_kind in [Suite::Splash2, Suite::Spec06, Suite::Dbms] {
        for spec in suite::specs(suite_kind) {
            for scheme in [
                SchemeConfig::baseline(),
                SchemeConfig::static_scheme(2),
                SchemeConfig::dynamic(2),
            ] {
                let m = runner::run_spec(spec, scale, &oram_cfg(scheme));
                assert_eq!(m.trace_ops, 700, "{} truncated", spec.name);
                assert!(m.cycles > 0);
            }
        }
    }
}

#[test]
fn periodic_oram_has_deterministic_observable_timing() {
    // With O_int protection, completion cycles are a deterministic
    // function of the access *count*, not the addresses: two different
    // programs with the same op count and compute profile finish within
    // one slot of each other.
    let mut cfg = oram_cfg(SchemeConfig::baseline());
    cfg.periodic_intervals = vec![100];
    let run = |locality: f64| {
        let mut w = LocalityMix::with_stride(1 << 20, locality, 6_000, 9, 128);
        runner::run_workload(&mut w, &cfg).backend.dummy_accesses
    };
    // Both runs keep the ORAM constantly busy; dummies fill every idle
    // slot in both cases.
    assert!(run(1.0) > 0 || run(0.0) > 0);
}

#[test]
fn prefetcher_helps_dram_more_than_oram() {
    // The Figure 5 claim at reduced scale.
    let build = || LocalityMix::with_stride(2 << 20, 0.9, 25_000, 11, 128);
    let run = |mut cfg: SystemConfig, pf: bool| {
        if pf {
            cfg.stream_prefetcher = true;
        }
        let mut w = build();
        runner::run_workload(&mut w, &cfg)
    };
    let dram = run(SystemConfig::paper_default(MemoryKind::Dram), false);
    let dram_pf = run(SystemConfig::paper_default(MemoryKind::Dram), true);
    let oram = run(oram_cfg(SchemeConfig::baseline()), false);
    let oram_pf = run(oram_cfg(SchemeConfig::baseline()), true);
    let dram_gain = dram_pf.speedup_over(&dram);
    let oram_gain = oram_pf.speedup_over(&oram);
    assert!(
        dram_gain > oram_gain,
        "prefetching should help DRAM ({dram_gain:+.3}) more than ORAM ({oram_gain:+.3})"
    );
}

#[test]
fn norm_memory_accesses_track_energy_savings() {
    let base = run_mix(SchemeConfig::baseline(), 1.0, 40_000);
    let dynamic = run_mix(SchemeConfig::dynamic(2), 1.0, 40_000);
    let norm = dynamic.norm_memory_accesses(&base);
    assert!(
        norm < 0.95,
        "dyn should cut ORAM accesses on sequential data: {norm:.3}"
    );
}

#[test]
fn dbms_workloads_profit_from_dynamic_scheme() {
    // YCSB's multi-line records give PrORAM spatial locality to find.
    let spec = suite::spec("YCSB").unwrap();
    let scale = Scale {
        ops: 25_000,
        warmup_ops: 6_000,
        footprint_scale: 0.08,
        seed: 2,
    };
    let base = runner::run_spec(spec, scale, &oram_cfg(SchemeConfig::baseline()));
    let dynamic = runner::run_spec(spec, scale, &oram_cfg(SchemeConfig::dynamic(2)));
    let gain = dynamic.speedup_over(&base);
    assert!(gain > 0.02, "YCSB dyn gain: {gain:+.3}");
}
