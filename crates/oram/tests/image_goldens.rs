//! Byte goldens of the encrypted image.
//!
//! The path crypto kernels (DESIGN.md section 14) may change how a path
//! is sealed and opened, never what is stored: same buckets, same fresh
//! nonce per write in path order, same tags, same keystream. These tests
//! replay the shared `common` golden workload and compare an FNV fold of
//! every image byte against constants captured on the per-bucket
//! implementation the kernels replaced — for treetop 0-2, and with the
//! undo journal, the zero-rate fault
//! injector and per-read verification on or off, none of which may move
//! a byte. The constants were re-pinned once since, when a slot lost its
//! hit byte and a pos-map entry its prefetch byte; every bucket header
//! and every decoded slot was checked equal across that change first.

mod common;

use common::{assert_golden, golden_config, image_hash, run_golden, GOLDEN_IMAGE, GOLDEN_PAYLOADS};
use proram_obs::Obs;
use proram_oram::{CrashConfig, FaultConfig, KillPoint, OramConfigBuilder};

/// Image hash after the golden replay with `treetop_levels` 1 and 2
/// (the store holds the off-chip suffix only; no treetop is
/// [`GOLDEN_IMAGE`]).
const IMAGE_TREETOP: [u64; 2] = [0x5b12_4ff0_80de_027a, 0x24a0_52d6_ce66_f908];

/// Replays the golden workload under the golden configuration as
/// modified by `edit`; returns the run digest and the image hash.
fn replay(edit: impl FnOnce(OramConfigBuilder) -> OramConfigBuilder) -> (common::RunDigest, u64) {
    let cfg = edit(golden_config(true).to_builder())
        .build()
        .expect("valid golden configuration");
    let oram = run_golden(cfg, Obs::disabled());
    (common::digest_state(&oram), image_hash(&oram))
}

#[test]
fn flat_image_matches_the_pinned_bytes() {
    let (digest, image) = replay(|b| b);
    assert_golden(&digest, &GOLDEN_PAYLOADS);
    assert_eq!(image, GOLDEN_IMAGE, "got {image:#018x}");
}

#[test]
fn treetop_images_match_the_pinned_bytes() {
    for (treetop, want) in (1u32..).zip(IMAGE_TREETOP) {
        let (_, image) = replay(|b| b.treetop_levels(treetop));
        assert_eq!(image, want, "treetop {treetop}: got {image:#018x}");
    }
}

/// The undo journal and a zero-rate fault injector leave the run digest
/// and every image byte alone.
#[test]
fn journal_and_injector_move_no_byte() {
    let never = CrashConfig::at(KillPoint::MidFlip, u64::MAX);
    let (digest, image) = replay(|b| b.crash(never));
    assert_golden(&digest, &GOLDEN_PAYLOADS);
    assert_eq!(image, GOLDEN_IMAGE, "journal armed: got {image:#018x}");
    let (digest, image) = replay(|b| b.fault(FaultConfig::silent(0xDEAD)));
    assert_golden(&digest, &GOLDEN_PAYLOADS);
    assert_eq!(image, GOLDEN_IMAGE, "zero-rate injector: got {image:#018x}");
    let (_, image) = replay(|b| b.treetop_levels(2).crash(never));
    assert_eq!(
        image, IMAGE_TREETOP[1],
        "journal armed, treetop 2: got {image:#018x}"
    );
}
