//! Reproducibility guarantees: every run is a pure function of its seed
//! and configuration — the property the evaluation methodology depends
//! on.

use proram::core_scheme::SchemeConfig;
use proram::sim::{runner, MemoryKind, RunMetrics, SystemConfig};
use proram::workloads::{suite, Scale};

fn run(seed: u64) -> RunMetrics {
    let spec = suite::spec("fft").expect("registered");
    let scale = Scale {
        ops: 4_000,
        warmup_ops: 1_000,
        footprint_scale: 0.05,
        seed,
    };
    let mut cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)));
    cfg.oram.num_data_blocks = 1 << 13;
    cfg.seed = seed;
    runner::run_spec(spec, scale, &cfg)
}

#[test]
fn identical_seeds_reproduce_bit_identical_metrics() {
    let a = run(7);
    let b = run(7);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.backend, b.backend);
    assert_eq!(a.caches, b.caches);
    assert_eq!(a.demand_fetches, b.demand_fetches);
    assert_eq!(a.writebacks, b.writebacks);
}

#[test]
fn different_seeds_differ() {
    let a = run(7);
    let b = run(8);
    assert_ne!(
        (a.cycles, a.backend.physical_accesses),
        (b.cycles, b.backend.physical_accesses),
        "seeds must matter"
    );
}

#[test]
fn dumps_and_live_runs_of_one_spec_are_identical() {
    use proram::workloads::tracefile::dump;

    let spec = suite::spec("gcc").expect("registered");
    let scale = Scale {
        ops: 3_000,
        warmup_ops: 0,
        footprint_scale: 0.05,
        seed: 3,
    };
    let cfg = SystemConfig::paper_default(MemoryKind::Oram(SchemeConfig::dynamic(2)));

    // What `proram-bench trace` prints is a function of the spec alone.
    let dumped = || {
        let mut bytes = Vec::new();
        let ops = dump(suite::build(spec, scale).as_mut(), &mut bytes).expect("dump");
        assert_eq!(ops, scale.ops);
        bytes
    };
    assert_eq!(dumped(), dumped(), "two dumps must be byte-identical");

    // And so is the run the simulator makes of it.
    let a = runner::run_spec(spec, scale, &cfg);
    let b = runner::run_spec(spec, scale, &cfg);
    assert_eq!(a.cycles, b.cycles, "two live runs must be cycle-identical");
    assert_eq!(a.backend, b.backend);
}
