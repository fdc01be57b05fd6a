//! Timing-channel protection in action: the same workload under no
//! protection, fixed periodic accesses (paper Section 5.6), and the
//! dynamically-adjusted O_int scheme the paper points to in Section 2.5
//! — showing the performance / dummy-energy / leakage triangle.
//!
//! ```text
//! cargo run --release --example timing_channel
//! ```

use proram::core_scheme::{SchemeConfig, SuperBlockOram};
use proram::mem::{leaked_bits, Periodic, ADAPTIVE_LADDER};
use proram::oram::OramConfig;
use proram::stats::Table;
use proram_mem::{BlockAddr, MemRequest, MemoryBackend, NoProbe};
use proram_stats::{Rng64, Xoshiro256};

/// A bursty request pattern: busy phases alternating with idle phases —
/// exactly what a fixed interval handles poorly.
fn drive(backend: &mut dyn MemoryBackend, seed: u64) -> (u64, u64) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut now = 0u64;
    for burst in 0..20u64 {
        // Busy phase: 100 back-to-back requests.
        for _ in 0..100 {
            let addr = BlockAddr(rng.next_below(1 << 12));
            now = backend
                .access(now, MemRequest::read(addr), &NoProbe)
                .complete_at;
        }
        // Idle phase: the program computes for a long while.
        now += 200_000 + burst * 1_000;
    }
    (now, backend.stats().dummy_accesses)
}

fn oram() -> SuperBlockOram {
    let cfg = OramConfig::builder()
        .num_data_blocks(1 << 12)
        .build()
        .expect("valid ORAM configuration");
    SuperBlockOram::new(cfg, SchemeConfig::baseline(), 33)
}

fn main() {
    let mut t = Table::new(&[
        "protection",
        "completion_cycles",
        "dummy_accesses",
        "leaked_bits",
    ])
    .with_title("Timing-channel protection: performance vs energy vs leakage");

    // 1. No protection: fastest, but access timing leaks the program's
    //    burst structure completely.
    let mut unprotected = oram();
    let (cycles, dummies) = drive(&mut unprotected, 1);
    t.row(&[
        "none (leaks timing)".to_owned(),
        cycles.to_string(),
        dummies.to_string(),
        "unbounded".to_owned(),
    ]);

    // 2. Fixed O_int = 100: zero leakage, but every idle phase burns a
    //    dummy access per ~2 slots.
    let mut fixed = Periodic::new(oram(), &[100]);
    let (cycles, dummies) = drive(&mut fixed, 1);
    t.row(&[
        "fixed O_int=100".to_owned(),
        cycles.to_string(),
        dummies.to_string(),
        "0".to_owned(),
    ]);

    // 3. Adaptive ladder: the same wrapper with five rungs slows the
    //    cadence in idle phases, paying a few public bits per epoch
    //    decision.
    let mut adaptive = Periodic::new(oram(), &ADAPTIVE_LADDER);
    let (cycles, dummies) = drive(&mut adaptive, 1);
    let epochs = adaptive.stats().interval_epochs;
    t.row(&[
        "adaptive O_int ladder".to_owned(),
        cycles.to_string(),
        dummies.to_string(),
        format!("<= {:.1}", leaked_bits(epochs, ADAPTIVE_LADDER.len())),
    ]);

    println!("{t}");
    println!("fixed periodicity hides everything but wastes dummies during idle bursts;");
    println!("the adaptive ladder saves part of them, paying cycles and a bounded,");
    println!("accountable number of leaked bits (one ladder choice per epoch).");
}
