//! Security test-suite: replays the adversary-observable trace of the
//! ORAM (with and without super blocks, on its own and through the
//! simulated system) and checks the distributional claims of paper
//! Section 4.6. The trace is the `path_access` events of an attached
//! `Obs` ring.

use proram::core_scheme::{SchemeConfig, SuperBlockOram};
use proram::oram::{Leaf, OramBackend, OramConfig, PathOram};
use proram::sim::{MemoryKind, System, SystemConfig};
use proram::stats::{chi2_uniform, serial_correlation};
use proram::workloads::TraceOp;
use proram_mem::{AccessKind, BlockAddr, MemRequest, MemoryBackend, NoProbe, ADAPTIVE_LADDER};
use proram_obs::{Obs, ObsEvent};
use proram_stats::{Rng64, Xoshiro256};

/// Events a ring keeps: more than any test here emits.
const RING: usize = 1 << 18;

fn opaque_config(blocks: u64) -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(blocks)
        .store_payloads(false)
        .build()
        .expect("valid configuration")
}

/// The adversary's view: the leaf of every `path_access` event `obs`
/// holds, in bus order.
fn observed_leaves(obs: &Obs) -> Vec<u64> {
    assert_eq!(obs.dropped(), 0, "the ring must hold the whole trace");
    obs.events()
        .iter()
        .filter_map(ObsEvent::path_leaf)
        .collect()
}

fn observe_scheme(
    scheme: SchemeConfig,
    mut next_addr: impl FnMut(u64) -> u64,
    accesses: u64,
) -> (Vec<u64>, u64) {
    observe_scheme_seeded(scheme, &mut next_addr, accesses, 12345)
}

fn observe_scheme_seeded(
    scheme: SchemeConfig,
    next_addr: &mut dyn FnMut(u64) -> u64,
    accesses: u64,
    seed: u64,
) -> (Vec<u64>, u64) {
    let cfg = opaque_config(1 << 11);
    let mut oram = SuperBlockOram::new(cfg, scheme, seed);
    let obs = Obs::ring(RING);
    oram.attach_obs(obs.clone());
    let leaves = 1u64 << (oram.oram().config().tree_levels() - 1);
    for i in 0..accesses {
        let addr = BlockAddr(next_addr(i) % (1 << 11));
        oram.access(0, MemRequest::read(addr), &NoProbe);
    }
    (observed_leaves(&obs), leaves)
}

#[test]
fn baseline_oram_leaves_are_uniform() {
    let mut oram = PathOram::new(opaque_config(1 << 11), 7);
    let obs = Obs::ring(RING);
    oram.attach_obs(obs.clone());
    let leaves = 1u64 << (oram.config().tree_levels() - 1);
    // Repeatedly access the same block: the observed paths must still be
    // uniform (this is the unlinkability property of step 4).
    for _ in 0..8000 {
        oram.try_access_block(BlockAddr(42), AccessKind::Read)
            .unwrap();
    }
    let observed = observed_leaves(&obs);
    let r = chi2_uniform(&observed, leaves);
    assert!(
        r.is_plausibly_uniform(6.0),
        "chi2={} dof={}",
        r.statistic,
        r.dof
    );
}

#[test]
fn baseline_oram_leaves_are_unlinkable() {
    let mut oram = PathOram::new(opaque_config(1 << 11), 8);
    let obs = Obs::ring(RING);
    oram.attach_obs(obs.clone());
    let mut rng = Xoshiro256::seed_from(3);
    for _ in 0..8000 {
        oram.try_access_block(BlockAddr(rng.next_below(1 << 11)), AccessKind::Read)
            .unwrap();
    }
    let rho = serial_correlation(&observed_leaves(&obs));
    assert!(
        rho.abs() < 0.05,
        "observable accesses are serially correlated: {rho}"
    );
}

#[test]
fn dynamic_super_blocks_stay_uniform_under_sequential_locality() {
    // Sequential access maximizes merging activity; the trace must stay
    // uniform anyway ("an adversary cannot figure out whether merging
    // happens in an ORAM access at all").
    let (observed, leaves) = observe_scheme(SchemeConfig::dynamic(4), |i| i / 2, 10_000);
    let r = chi2_uniform(&observed, leaves);
    assert!(
        r.is_plausibly_uniform(6.0),
        "chi2={} dof={}",
        r.statistic,
        r.dof
    );
    let rho = serial_correlation(&observed);
    assert!(rho.abs() < 0.05, "rho={rho}");
}

#[test]
fn static_super_blocks_stay_uniform() {
    let (observed, leaves) = observe_scheme(SchemeConfig::static_scheme(4), |i| i * 17, 10_000);
    let r = chi2_uniform(&observed, leaves);
    assert!(
        r.is_plausibly_uniform(6.0),
        "chi2={} dof={}",
        r.statistic,
        r.dof
    );
}

#[test]
fn different_programs_produce_indistinguishable_leaf_distributions() {
    // Two adversarially different logical patterns on independently
    // seeded ORAMs; with the dynamic scheme active, both observable
    // traces must look like the same uniform source. We compare their
    // per-leaf histograms with a two-sample chi-square.
    let (a, leaves) = observe_scheme_seeded(SchemeConfig::dynamic(2), &mut |i| i, 12_000, 1111);
    let mut rng = Xoshiro256::seed_from(77);
    let (b, _) = observe_scheme_seeded(
        SchemeConfig::dynamic(2),
        &mut move |_| rng.next_u64(),
        12_000,
        2222,
    );

    let mut ha = vec![0f64; leaves as usize];
    let mut hb = vec![0f64; leaves as usize];
    for &l in &a {
        ha[l as usize] += 1.0;
    }
    for &l in &b {
        hb[l as usize] += 1.0;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let mut statistic = 0.0;
    let mut dof = 0u64;
    for (&ca, &cb) in ha.iter().zip(&hb) {
        let total = ca + cb;
        if total == 0.0 {
            continue;
        }
        let ea = total * na / (na + nb);
        let eb = total * nb / (na + nb);
        statistic += (ca - ea).powi(2) / ea + (cb - eb).powi(2) / eb;
        dof += 1;
    }
    let mean = (dof - 1) as f64;
    let sd = (2.0 * mean).sqrt();
    assert!(
        (statistic - mean).abs() < 6.0 * sd,
        "traces distinguishable: chi2={statistic:.1} vs dof={mean}"
    );
}

#[test]
fn dummy_accesses_are_indistinguishable_from_real_ones() {
    // Collect the leaf distribution of background evictions and real
    // accesses separately (ground truth the adversary lacks) and verify
    // both are uniform — on the wire nothing separates them.
    let cfg = opaque_config(1 << 11)
        .to_builder()
        .stash_limit(50)
        .build()
        .expect("valid configuration");
    let mut oram = PathOram::new(cfg, 9);
    let obs = Obs::ring(RING);
    oram.attach_obs(obs.clone());
    let leaves = 1u64 << (oram.config().tree_levels() - 1);
    let mut rng = Xoshiro256::seed_from(10);
    for _ in 0..4000 {
        oram.try_access_block(BlockAddr(rng.next_below(1 << 11)), AccessKind::Read)
            .unwrap();
        oram.try_background_evict().expect("healthy tree evicts");
    }
    let (real, dummy) = real_and_dummy_leaves(&obs);
    assert!(!real.is_empty() && !dummy.is_empty());
    assert!(chi2_uniform(&real, leaves).is_plausibly_uniform(6.0));
    assert!(chi2_uniform(&dummy, leaves).is_plausibly_uniform(6.0));
}

/// The leaves of `obs`'s `path_access` events split by ground truth:
/// `(real, dummy)`.
fn real_and_dummy_leaves(obs: &Obs) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(obs.dropped(), 0, "the ring must hold the whole trace");
    let (mut real, mut dummy) = (Vec::new(), Vec::new());
    for e in obs.events() {
        if let ObsEvent::PathAccess { leaf, dummy: d } = e {
            if d { &mut dummy } else { &mut real }.push(leaf);
        }
    }
    (real, dummy)
}

#[test]
fn ciphertexts_refresh_on_every_write() {
    // With payload storage enabled the encrypted image must change on
    // every path write-back even when the logical data is unchanged:
    // access the same block twice and compare the images in between.
    let cfg = OramConfig::small_for_tests(128);
    let mut oram = PathOram::new(cfg, 4);
    let image = |oram: &PathOram| -> Vec<Vec<u8>> {
        let store = oram.storage().expect("payloads on");
        (0..store.num_buckets())
            .map(|i| store.ciphertext(i).to_vec())
            .collect()
    };
    let mut images = vec![image(&oram)];
    for _ in 0..2 {
        oram.try_access_block(BlockAddr(5), AccessKind::Read)
            .unwrap();
        images.push(image(&oram));
    }
    // The root is on every path: three ciphertexts, all different.
    assert_ne!(images[0][0], images[1][0]);
    assert_ne!(images[1][0], images[2][0]);
    assert_ne!(images[0][0], images[2][0]);
    // A rewritten bucket never returns to a ciphertext it had before.
    let rewritten = (0..images[0].len()).filter(|&i| images[2][i] != images[1][i]);
    assert!(rewritten.into_iter().all(|i| images[2][i] != images[0][i]));
    oram.check_invariants();
}

#[test]
fn every_bucket_of_a_fetched_path_is_refreshed_and_no_other() {
    // What DRAM shows of one access: every off-chip bucket on a fetched
    // path comes back under a fresh nonce with a different ciphertext of
    // the same length — buckets whose content did not change and
    // all-dummy buckets included — and no other bucket changes at all.
    use std::collections::BTreeSet;
    let nonce = |image: &[u8]| u64::from_le_bytes(image[..8].try_into().unwrap());
    for treetop in [0, 2] {
        let cfg = OramConfig::small_for_tests(256)
            .to_builder()
            .treetop_levels(treetop)
            .build()
            .expect("valid configuration");
        let mut oram = PathOram::new(cfg, 31);
        let buckets = oram.storage().expect("payloads on").num_buckets();
        let mut rng = Xoshiro256::seed_from(8);
        let (mut unchanged_content, mut all_dummy) = (0, 0);
        for _ in 0..40 {
            let store = oram.storage_mut().expect("payloads on");
            let before: Vec<_> = (0..buckets)
                .map(|i| {
                    (
                        store.ciphertext(i).to_vec(),
                        store.try_read_bucket(i).unwrap(),
                    )
                })
                .collect();
            let newest = before.iter().map(|(image, _)| nonce(image)).max().unwrap();
            let obs = Obs::ring(RING);
            oram.attach_obs(obs.clone());
            oram.try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                .unwrap();
            let fetched: BTreeSet<usize> = observed_leaves(&obs)
                .into_iter()
                .flat_map(|leaf| oram.store_layout().off_chip_path(Leaf(leaf as u32)))
                .map(|(_, phys)| phys)
                .collect();
            assert!(!fetched.is_empty());
            let store = oram.storage_mut().expect("payloads on");
            for (i, (image, blocks)) in before.iter().enumerate() {
                let after = store.ciphertext(i);
                if !fetched.contains(&i) {
                    assert_eq!(after, &image[..], "bucket {i} is off every fetched path");
                    continue;
                }
                assert_eq!(after.len(), image.len());
                assert_ne!(after, &image[..], "bucket {i} kept its ciphertext");
                assert!(nonce(after) > newest, "bucket {i} reused a nonce");
                let now = store.try_read_bucket(i).unwrap();
                unchanged_content += usize::from(now == *blocks);
                all_dummy += usize::from(now.is_empty() && blocks.is_empty());
            }
        }
        assert!(
            unchanged_content > 0 && all_dummy > 0,
            "the run never exercised them"
        );
    }
}

#[test]
fn merge_and_break_do_not_leak_into_the_trace() {
    // Force heavy merge/break churn and check uniformity still holds.
    let cfg = opaque_config(1 << 10);
    let mut oram = SuperBlockOram::new(cfg, SchemeConfig::dynamic(2), 5);
    let obs = Obs::ring(RING);
    oram.attach_obs(obs.clone());
    let leaves = 1u64 << (oram.oram().config().tree_levels() - 1);
    let mut rng = Xoshiro256::seed_from(6);
    for phase in 0..40u64 {
        for i in 0..250u64 {
            // Alternate sequential (merge-inducing) and random
            // (break-inducing) phases.
            let addr = if phase % 2 == 0 {
                BlockAddr((phase * 250 + i) % (1 << 10))
            } else {
                BlockAddr(rng.next_below(1 << 10))
            };
            oram.access(0, MemRequest::read(addr), &NoProbe);
        }
    }
    let observed = observed_leaves(&obs);
    let r = chi2_uniform(&observed, leaves);
    assert!(
        r.is_plausibly_uniform(6.0),
        "chi2={} dof={}",
        r.statistic,
        r.dof
    );
}

/// The `O_int` ladder through the simulated system: the dynamic scheme
/// behind one rung and behind five ([`ADAPTIVE_LADDER`]), each running a
/// sequential and a random program whose compute between loads leaves
/// the ORAM idle slots to fill with dummies. The adversary's view is the
/// ledger's every physical access, its real and dummy leaves are each
/// uniform, and the whole sequence is unlinkable.
#[test]
fn periodic_ladder_cells_stay_oblivious_through_the_system() {
    const LOADS: u64 = 4_000;
    let mut rng = Xoshiro256::seed_from(9);
    let random: Vec<u64> = (0..LOADS).map(|_| rng.next_u64()).collect();
    for ladder in [vec![100], ADAPTIVE_LADDER.to_vec()] {
        for (program, lines) in [
            ("sequential", (0..LOADS).collect()),
            ("random", random.clone()),
        ] {
            let cell = format!("{} rung(s), {program}", ladder.len());
            let mut cfg = SystemConfig::quick_test(MemoryKind::Oram(SchemeConfig::dynamic(2)));
            cfg.periodic_intervals = ladder.clone();
            // The footprint's lines are exactly the configured blocks, so
            // the system builds the tree `cfg.oram` describes.
            let blocks = cfg.oram.num_data_blocks;
            let leaves = 1u64 << (cfg.oram.tree_levels() - 1);
            let mut system = System::build(&cfg, blocks * cfg.line_bytes());
            let obs = Obs::ring(RING);
            system.attach_obs(obs.clone());
            for line in lines {
                system.step(TraceOp {
                    comp_cycles: 2_000,
                    addr: line % blocks * cfg.line_bytes(),
                    write: false,
                });
            }
            let m = system.finish();
            let (real, dummy) = real_and_dummy_leaves(&obs);
            assert_eq!(
                (real.len() + dummy.len()) as u64,
                m.backend.physical_accesses,
                "{cell}: one path_access per physical access"
            );
            assert_eq!(dummy.len() as u64, m.backend.dummy_accesses, "{cell}");
            for (kind, observed) in [("real", &real), ("dummy", &dummy)] {
                let r = chi2_uniform(observed, leaves);
                assert!(
                    r.is_plausibly_uniform(6.0),
                    "{cell}, {kind}: chi2={} dof={} over {} leaves",
                    r.statistic,
                    r.dof,
                    observed.len()
                );
            }
            let rho = serial_correlation(&observed_leaves(&obs));
            assert!(rho.abs() < 0.05, "{cell}: rho={rho}");
        }
    }
}

#[test]
fn tampering_with_dram_is_detected_on_next_access() {
    // Fault injection through the whole stack: corrupt one ciphertext
    // byte of the root bucket (which lies on every path); the next access
    // must detect it via the PMMAC-style tags and surface a typed
    // integrity error.
    use proram::oram::OramError;
    let mut oram = PathOram::new(OramConfig::small_for_tests(128), 21);
    oram.try_access_block(BlockAddr(3), AccessKind::Read)
        .unwrap();
    oram.storage_mut()
        .expect("payloads on")
        .corrupt_byte(0, 20, 0x40);
    let err = oram
        .try_access_block(BlockAddr(4), AccessKind::Read)
        .expect_err("corruption must be detected");
    assert!(
        matches!(err, OramError::Integrity { bucket: 0, .. }),
        "unexpected error: {err:?}"
    );
}

#[test]
fn untampered_store_verifies_end_to_end() {
    let mut oram = PathOram::new(OramConfig::small_for_tests(128), 22);
    let mut rng = Xoshiro256::seed_from(1);
    for _ in 0..50 {
        oram.try_access_block(BlockAddr(rng.next_below(128)), AccessKind::Read)
            .unwrap();
    }
    oram.storage_mut()
        .expect("payloads on")
        .verify_all()
        .expect("image authentic");
}
