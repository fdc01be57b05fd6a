//! Randomized tests over the memory timing wrappers, generated with the
//! workspace's deterministic RNG so every case reproduces from its seed.

use proram_mem::{BlockAddr, Dram, DramConfig, MemRequest, MemoryBackend, NoProbe, Periodic};
use proram_stats::{Rng64, Xoshiro256};

/// DRAM with a flat, deterministic access time (one bank keeps every
/// access serial, so completion = start + 108).
fn flat_dram() -> Dram {
    Dram::new(DramConfig {
        banks: 1,
        ..DramConfig::default()
    })
}

#[test]
fn periodic_accesses_start_on_slot_boundaries() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from(0x9E12 + case);
        let interval = rng.next_range(1, 2000);
        let num_gaps = rng.next_range(1, 40);
        let mut p = Periodic::new(flat_dram(), &[interval]);
        let mut now = 0;
        for i in 0..num_gaps {
            now += rng.next_below(5000);
            let o = p.access(now, MemRequest::read(BlockAddr(i)), &NoProbe);
            // With a single serial bank, completion - 108 is the start
            // cycle, which must be a multiple of the interval.
            let start = o.complete_at - 108;
            assert_eq!(
                start % interval,
                0,
                "start {start} not on an O_int boundary (case {case})"
            );
            assert!(start >= now, "access started before it was issued");
            now = o.complete_at;
        }
    }
}

#[test]
fn periodic_timing_is_independent_of_addresses() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from(0xAD00 + case);
        let interval = rng.next_range(50, 500);
        let addrs_a: Vec<u64> = (0..20).map(|_| rng.next_below(1000)).collect();
        let addrs_b: Vec<u64> = (0..20).map(|_| rng.next_below(1000)).collect();
        let gaps: Vec<u64> = (0..20).map(|_| rng.next_below(3000)).collect();
        // Two different address sequences with identical request timing
        // must produce identical completion timing — the timing channel
        // carries no address information.
        let run = |addrs: &[u64]| {
            let mut p = Periodic::new(flat_dram(), &[interval]);
            let mut now = 0;
            let mut completions = Vec::new();
            for (a, g) in addrs.iter().zip(&gaps) {
                now += g;
                let o = p.access(now, MemRequest::read(BlockAddr(*a)), &NoProbe);
                completions.push(o.complete_at);
                now = o.complete_at;
            }
            (completions, p.stats().dummy_accesses)
        };
        let (ca, da) = run(&addrs_a);
        let (cb, db) = run(&addrs_b);
        assert_eq!(ca, cb, "completion times depend on addresses (case {case})");
        assert_eq!(da, db, "dummy counts depend on addresses (case {case})");
    }
}

#[test]
fn adaptive_interval_always_on_the_ladder() {
    let ladder = [100, 400, 1600];
    for case in 0..32u64 {
        let mut rng = Xoshiro256::seed_from(0x1ADD + case);
        let requests = rng.next_range(512, 2048);
        let mut p = Periodic::new(flat_dram(), &ladder);
        let mut now = 0;
        for i in 0..requests {
            now += rng.next_below(60_000);
            now = p
                .access(now, MemRequest::read(BlockAddr(i)), &NoProbe)
                .complete_at;
            assert!(
                ladder.contains(&p.interval()),
                "interval off the ladder (case {case})"
            );
        }
        // Leakage accounting is exactly one decision per completed epoch
        // of 256 demand requests.
        assert_eq!(
            p.stats().interval_epochs,
            requests / 256,
            "epoch count (case {case})"
        );
    }
}

#[test]
fn dram_completions_are_monotonic() {
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from(0xD3A0 + case);
        let num_reqs = rng.next_range(1, 100);
        let mut d = Dram::new(DramConfig::default());
        let mut now = 0;
        let mut last_complete = 0;
        for _ in 0..num_reqs {
            let addr = rng.next_below(10_000);
            now += rng.next_below(500);
            let o = d.access(now, MemRequest::read(BlockAddr(addr)), &NoProbe);
            assert!(
                o.complete_at >= last_complete || o.complete_at > now,
                "completion went backwards (case {case})"
            );
            last_complete = last_complete.max(o.complete_at);
            now = now.max(o.complete_at.saturating_sub(108));
        }
    }
}
