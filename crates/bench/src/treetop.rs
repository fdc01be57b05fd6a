//! The treetop-cache sweep behind `proram-bench treetop`.
//!
//! Sweeps `treetop_levels` × store layout over the encrypted hot-path
//! kernel: every on-chip level removes its share of serialization,
//! AES-CTR work, MAC verification and DRAM traffic from each path
//! access, so encrypted throughput should rise roughly in proportion to
//! the off-chip suffix that remains. `proram-bench treetop` writes the
//! sweep as `BENCH_treetop.json` and enforces the optimization's floor:
//! `treetop_levels = 4` must beat the uncached run by at least
//! [`SPEEDUP_FLOOR`]× on the flat layout.

use crate::microbench::Throughput;
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{OramConfig, PathOram, TreeLayout};
use proram_stats::{Rng64, Xoshiro256};
use std::time::Instant;

/// Data blocks in the sweep tree (2^12 => 12 levels at Z=3).
pub(crate) const NUM_BLOCKS: u64 = 1 << 12;
/// Accesses executed before timing starts.
const WARMUP: u64 = 1_000;
/// Accesses per timer check.
const CHUNK: u64 = 256;
/// Treetop level counts swept (0 is the uncached baseline).
pub const SWEEP: [u32; 5] = [0, 1, 2, 4, 6];
/// Minimum accesses-per-second ratio of `treetop_levels = 4` over the
/// uncached baseline (flat layout both sides). [`measure`] panics below
/// this, so the CI smoke run doubles as a regression gate. The ratio
/// measures what the skipped levels' crypto was worth: 1.54x when PR 10
/// set a 1.3 floor, 1.35-1.42x since the path kernels of PR 12 made a
/// level's crypto about half as expensive — same margin, lower floor. A
/// treetop that skipped nothing would read 1.0.
pub const SPEEDUP_FLOOR: f64 = 1.15;

/// One sweep point: the measurement of a `(treetop_levels, layout)`
/// pair on the encrypted kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// On-chip (plaintext) tree levels for this point.
    pub treetop_levels: u32,
    /// Off-chip store layout, in display form (`flat`,
    /// `subtree_packed(h)`).
    pub layout: String,
    /// Off-chip bytes one path access moves (fetch + write-back).
    pub bytes_per_access: u64,
    /// DRAM bytes the treetop saved during the timed phase.
    pub bytes_saved: u64,
    /// The timed measurement: `units` are logical ORAM accesses,
    /// `bytes` are off-chip path bytes moved.
    pub throughput: Throughput,
}

fn kernel_config(treetop_levels: u32, layout: TreeLayout) -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(NUM_BLOCKS)
        .entries_per_posmap_block(8)
        .store_payloads(true)
        .trace_capacity(0)
        .treetop_levels(treetop_levels)
        .tree_layout(layout)
        .build()
        .expect("kernel configuration is valid")
}

/// The tallest packing height in `1..=4` that divides the off-chip
/// depth left by `treetop_levels` — the most aggressive subtree band
/// the config validator accepts for this geometry.
pub fn packed_height(tree_levels: u32, treetop_levels: u32) -> u32 {
    let depth = tree_levels - treetop_levels;
    (1..=4u32)
        .rev()
        .find(|&h| depth.is_multiple_of(h))
        .expect("1 divides everything")
}

/// Runs the encrypted kernel at one sweep point for roughly `ms`
/// milliseconds of timed accesses.
pub fn run_kernel(treetop_levels: u32, layout: TreeLayout, ms: u64) -> SweepPoint {
    let layout_name = layout.to_string();
    let mut oram = PathOram::new(kernel_config(treetop_levels, layout), 1);
    let mut rng = Xoshiro256::seed_from(2);
    for _ in 0..WARMUP {
        oram.try_access_block(BlockAddr(rng.next_below(NUM_BLOCKS)), AccessKind::Read)
            .unwrap();
    }
    let before = oram.oram_stats();
    let start = Instant::now();
    let mut accesses = 0u64;
    loop {
        for _ in 0..CHUNK {
            oram.try_access_block(BlockAddr(rng.next_below(NUM_BLOCKS)), AccessKind::Read)
                .unwrap();
        }
        accesses += CHUNK;
        if start.elapsed().as_millis() >= u128::from(ms) {
            break;
        }
    }
    let after = oram.oram_stats();
    let bytes = after.bytes_moved - before.bytes_moved;
    SweepPoint {
        treetop_levels,
        layout: layout_name,
        // bytes_moved counts only off-chip traffic and is exactly
        // linear in the access count, so the ratio is exact.
        bytes_per_access: bytes / (after.total_path_accesses() - before.total_path_accesses()),
        bytes_saved: after.treetop_bytes_saved - before.treetop_bytes_saved,
        throughput: Throughput {
            units: accesses,
            bytes,
            allocations_avoided: 0,
            secs: start.elapsed().as_secs_f64(),
        },
    }
}

/// Measures every `treetop_levels` in [`SWEEP`] under both layouts
/// (flat and the tallest valid subtree packing), then enforces
/// [`SPEEDUP_FLOOR`] on the flat `4 / 0` accesses-per-second ratio.
pub fn measure(ms: u64) -> Vec<SweepPoint> {
    let levels = kernel_config(0, TreeLayout::Flat).tree_levels();
    let mut points = Vec::new();
    for treetop in SWEEP {
        let height = packed_height(levels, treetop);
        points.push(run_kernel(treetop, TreeLayout::Flat, ms));
        points.push(run_kernel(
            treetop,
            TreeLayout::SubtreePacked { height },
            ms,
        ));
    }
    let flat_rate = |t: u32| {
        points
            .iter()
            .find(|p| p.treetop_levels == t && p.layout == "flat")
            .expect("flat point measured")
            .throughput
            .units_per_sec()
    };
    let speedup = flat_rate(4) / flat_rate(0);
    assert!(
        speedup >= SPEEDUP_FLOOR,
        "treetop_levels=4 speedup {speedup:.3}x is below the {SPEEDUP_FLOOR}x floor"
    );
    points
}

/// Renders the sweep as the `BENCH_treetop.json` document.
pub fn to_json(points: &[SweepPoint], ms: u64) -> String {
    let rate = |t: u32, layout: &str| {
        points
            .iter()
            .find(|p| p.treetop_levels == t && p.layout == layout)
            .map(|p| p.throughput.units_per_sec())
    };
    let speedup = match (rate(4, "flat"), rate(0, "flat")) {
        (Some(fast), Some(base)) if base > 0.0 => fast / base,
        _ => 0.0,
    };
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"treetop cache + store layout sweep\",\n");
    out.push_str("  \"harness\": \"proram-bench treetop\",\n");
    out.push_str(&format!("  \"measure_ms\": {ms},\n"));
    out.push_str(&format!(
        "  \"config\": {{\"num_data_blocks\": {NUM_BLOCKS}, \"entries_per_posmap_block\": 8, \"store_payloads\": true, \"warmup_accesses\": {WARMUP}}},\n"
    ));
    out.push_str(&format!(
        "  \"flat_speedup_treetop4_over_0\": {speedup:.3},\n"
    ));
    out.push_str(&format!("  \"speedup_floor\": {SPEEDUP_FLOOR},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"treetop_levels\": {},\n      \"layout\": \"{}\",\n",
            p.treetop_levels, p.layout
        ));
        out.push_str(&format!(
            "      \"accesses_per_sec\": {:.1},\n      \"bytes_per_sec\": {:.4e},\n",
            p.throughput.units_per_sec(),
            p.throughput.bytes_per_sec()
        ));
        out.push_str(&format!(
            "      \"bytes_per_access\": {},\n      \"treetop_bytes_saved\": {},\n",
            p.bytes_per_access, p.bytes_saved
        ));
        out.push_str(&format!(
            "      \"timed_accesses\": {}\n",
            p.throughput.units
        ));
        out.push_str(if i + 1 == points.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_height_divides_the_off_chip_depth() {
        let levels = kernel_config(0, TreeLayout::Flat).tree_levels();
        for treetop in SWEEP {
            let h = packed_height(levels, treetop);
            assert!((1..=4).contains(&h));
            assert_eq!((levels - treetop) % h, 0, "treetop {treetop}");
        }
    }

    #[test]
    fn kernel_point_accounts_for_the_treetop() {
        let base = run_kernel(0, TreeLayout::Flat, 20);
        assert!(base.throughput.units >= CHUNK);
        assert_eq!(base.bytes_saved, 0);
        let cached = run_kernel(4, TreeLayout::Flat, 20);
        assert!(cached.bytes_saved > 0, "cached levels must save bytes");
        assert!(
            cached.bytes_per_access < base.bytes_per_access,
            "treetop must shrink the off-chip path"
        );
    }

    #[test]
    fn json_is_shaped_like_a_sweep() {
        let point = |treetop_levels: u32, layout: &str, rate: u64| SweepPoint {
            treetop_levels,
            layout: layout.to_string(),
            bytes_per_access: 9216,
            bytes_saved: 1024,
            throughput: Throughput {
                units: rate,
                bytes: 9216 * rate,
                allocations_avoided: 0,
                secs: 1.0,
            },
        };
        let points = [point(0, "flat", 100), point(4, "flat", 150)];
        let json = to_json(&points, 200);
        assert!(json.contains("\"flat_speedup_treetop4_over_0\": 1.500"));
        assert!(json.contains("\"treetop_levels\": 4"));
        assert!(json.contains("\"layout\": \"flat\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
