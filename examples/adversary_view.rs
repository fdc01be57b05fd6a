//! The security demonstration: run two *completely different* programs
//! against PrORAM and show that the adversary-observable traces are
//! statistically indistinguishable — including when dynamic super blocks
//! are merging and breaking underneath (paper Section 4.6).
//!
//! ```text
//! cargo run --release --example adversary_view
//! ```

use proram::core_scheme::{SchemeConfig, SuperBlockOram};
use proram::oram::prelude::{Obs, ObsEvent, OramConfig};
use proram::stats::{chi2_uniform, serial_correlation};
use proram_mem::{BlockAddr, MemRequest, MemoryBackend, NoProbe};
use proram_stats::{Rng64, Xoshiro256};

/// Runs `n` accesses with the given address generator and returns the
/// observed leaf sequence: the `path_access` events of a ring attached to
/// the controller.
fn observe(mut next_addr: impl FnMut(u64) -> u64, n: u64) -> (Vec<u64>, u64) {
    let config = OramConfig::builder()
        .num_data_blocks(1 << 12)
        .store_payloads(false)
        .build()
        .expect("valid ORAM configuration");
    let mut oram = SuperBlockOram::new(config, SchemeConfig::dynamic(2), 99);
    let obs = Obs::ring(1 << 18);
    oram.attach_obs(obs.clone());
    let leaves = 1u64 << (oram.oram().config().tree_levels() - 1);
    for i in 0..n {
        let addr = BlockAddr(next_addr(i) % (1 << 12));
        oram.access(0, MemRequest::read(addr), &NoProbe);
    }
    assert_eq!(obs.dropped(), 0, "the ring holds the whole trace");
    let observed = obs
        .events()
        .iter()
        .filter_map(ObsEvent::path_leaf)
        .collect();
    (observed, leaves)
}

fn report(name: &str, leaves: &[u64], num_leaves: u64) {
    let chi2 = chi2_uniform(leaves, num_leaves);
    let rho = serial_correlation(leaves);
    println!(
        "{name:>22}: {:>6} observable path accesses | chi2={:>7.1} (dof {}) uniform={} | lag-1 corr={:+.4}",
        leaves.len(),
        chi2.statistic,
        chi2.dof,
        chi2.is_plausibly_uniform(6.0),
        rho
    );
    assert!(
        chi2.is_plausibly_uniform(6.0),
        "{name} trace is not uniform!"
    );
    assert!(rho.abs() < 0.05, "{name} trace accesses are linkable!");
}

fn main() {
    println!("two very different programs, one PrORAM, 20k accesses each:\n");

    // Program A: a sequential scanner — maximum spatial locality, lots of
    // merging activity inside the controller.
    let (a, leaves) = observe(|i| i / 4, 20_000);
    report("sequential scanner", &a, leaves);

    // Program B: a pseudorandom pointer chaser — no locality at all.
    let mut rng = Xoshiro256::seed_from(5);
    let (b, _) = observe(move |_| rng.next_u64(), 20_000);
    report("random pointer chaser", &b, leaves);

    println!("\nboth traces are uniform, independent sequences over the leaves.");
    println!("merging, breaking and prefetching changed *nothing* the bus reveals;");
    println!("only the number of accesses differs, which periodic accesses (fig 15)");
    println!("can also hide.");
}
