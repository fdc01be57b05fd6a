//! The ORAM-access hot-path kernels behind `proram-bench hotpath`.
//!
//! Two kernels drive a `PathOram` directly — no cache hierarchy, no
//! workload model — so their throughput isolates the controller + path
//! engine (`opaque`) and the same plus the encrypted byte-level image
//! (`encrypted`). `proram-bench hotpath` measures both and writes
//! `BENCH_hotpath.json` with the pre-optimization baseline alongside,
//! so the speedup of the allocation-free hot path stays auditable.
//!
//! [`measure`] also holds the widened keystream
//! ([`proram_oram::StreamCipher::apply`]) to its floor over the retained
//! scalar reference: the soft target is [`CIPHER_SPEEDUP_FLOOR`]
//! (typically met — the widening is pure instruction-level parallelism),
//! and the noise-tolerant [`CIPHER_SPEEDUP_HARD_FLOOR`] is *asserted*, so
//! a real regression fails the run while a noisy shared-core runner does
//! not.

use crate::microbench::Throughput;
use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{OramConfig, PathOram, StreamCipher};
use proram_stats::{Rng64, Xoshiro256};
use std::time::Instant;

/// Data blocks in the kernel tree (2^14 => 14 levels at Z=3).
pub(crate) const NUM_BLOCKS: u64 = 1 << 14;
/// Accesses executed before timing starts.
pub(crate) const WARMUP: u64 = 2_000;
/// Accesses per timer check.
pub(crate) const CHUNK: u64 = 256;

/// A kernel's measurement next to the recorded pre-optimization
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelReport {
    /// Kernel name (`oram-access/opaque`, `oram-access/encrypted`).
    pub name: &'static str,
    /// Throughput of the seed implementation on the same harness,
    /// recorded before the hot-path optimization landed.
    pub before_accesses_per_sec: f64,
    /// Byte throughput of the seed implementation.
    pub before_bytes_per_sec: f64,
    /// The fresh measurement. `units` are logical ORAM accesses;
    /// `bytes` are path bytes moved (`OramStats::bytes_moved`);
    /// `allocations_avoided` counts path-scratch reuses — each one a
    /// `read_path`/`write_path` round trip that allocated nothing.
    pub after: Throughput,
}

impl KernelReport {
    /// `after / before` accesses-per-second ratio.
    pub fn speedup(&self) -> f64 {
        self.after.units_per_sec() / self.before_accesses_per_sec
    }
}

pub(crate) fn kernel_config(store_payloads: bool) -> OramConfig {
    OramConfig::builder()
        .num_data_blocks(NUM_BLOCKS)
        .entries_per_posmap_block(8)
        .store_payloads(store_payloads)
        .trace_capacity(0)
        .build()
        .expect("kernel configuration is valid")
}

/// Runs one kernel for roughly `ms` milliseconds of timed accesses.
pub fn run_kernel(store_payloads: bool, ms: u64) -> Throughput {
    let mut oram = PathOram::new(kernel_config(store_payloads), 1);
    let mut rng = Xoshiro256::seed_from(2);
    for _ in 0..WARMUP {
        oram.try_access_block(BlockAddr(rng.next_below(NUM_BLOCKS)), AccessKind::Read)
            .unwrap();
    }
    let bytes_before = oram.oram_stats().bytes_moved;
    let reuse_before = oram.allocs_avoided();
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
    Throughput {
        units: accesses,
        bytes: oram.oram_stats().bytes_moved - bytes_before,
        allocations_avoided: oram.allocs_avoided() - reuse_before,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Target widened-over-scalar cipher throughput ratio. The 8-wide
/// keystream is pure ILP, so this is machine-independent and typically
/// measures ~1.55x; [`measure`] retries a trial that misses it
/// (shared runners dip under co-tenant load).
pub const CIPHER_SPEEDUP_FLOOR: f64 = 1.5;

/// Hard assertion floor for the cipher ratio: [`measure`] panics
/// when even the best retry lands below this. Set with enough margin
/// below [`CIPHER_SPEEDUP_FLOOR`] that sustained interference on a
/// shared single-core runner (observed compressing the measured ratio to
/// ~1.2x) does not fail the build, while a genuine loss of the widened
/// path's ILP (ratio ~1.0x) still does.
pub const CIPHER_SPEEDUP_HARD_FLOOR: f64 = 1.1;

/// Cipher-microbench buffer size: one plausible bucket body (Z = 3 slots
/// of a little over 1 KiB each).
const CIPHER_BUF_BYTES: usize = 4096;

/// Interleaved slices per cipher trial: both variants run many short
/// alternating timed slices and keep their best slice, so transient
/// interference (a noisy co-tenant, a frequency dip) hits individual
/// slices instead of biasing one whole side of the comparison.
const CIPHER_SLICES: usize = 8;

/// Measures both cipher formulations over alternating timed slices of
/// roughly `ms` milliseconds each; returns `(wide, scalar)` best-slice
/// throughput in bytes/sec.
fn cipher_rates(ms: u64) -> (f64, f64) {
    let cipher = StreamCipher::new(0x5EED_CAFE_F00D_D00D);
    let mut best = [0.0f64; 2];
    let mut buf = vec![0u8; CIPHER_BUF_BYTES];
    let mut nonce = 1u64;
    for _ in 0..CIPHER_SLICES {
        for (side, best_side) in best.iter_mut().enumerate() {
            let start = Instant::now();
            let mut bytes = 0u64;
            while start.elapsed().as_millis() < u128::from(ms) {
                for _ in 0..16 {
                    nonce = nonce.wrapping_add(1);
                    if side == 0 {
                        cipher.apply(nonce, &mut buf);
                    } else {
                        cipher.apply_scalar_reference(nonce, &mut buf);
                    }
                }
                bytes += 16 * CIPHER_BUF_BYTES as u64;
            }
            std::hint::black_box(&buf);
            *best_side = best_side.max(bytes as f64 / start.elapsed().as_secs_f64());
        }
    }
    (best[0], best[1])
}

/// Holds the widened cipher to its floor: the best widened-over-scalar
/// throughput ratio of up to three trials (roughly `ms` milliseconds
/// each; a trial below the soft [`CIPHER_SPEEDUP_FLOOR`] is retried)
/// must reach [`CIPHER_SPEEDUP_HARD_FLOOR`]. Anything less would mean
/// the widened keystream lost its instruction-level parallelism.
fn assert_cipher_floor(ms: u64) {
    // Per-slice budget: the trial runs 2 * CIPHER_SLICES slices.
    let slice_ms = (ms / (2 * CIPHER_SLICES as u64)).clamp(10, 50);
    let mut best = (0.0f64, 0.0, 0.0);
    for _ in 0..3 {
        let (wide, scalar) = cipher_rates(slice_ms);
        if wide / scalar > best.0 {
            best = (wide / scalar, wide, scalar);
        }
        if best.0 >= CIPHER_SPEEDUP_FLOOR {
            break;
        }
    }
    let (ratio, wide, scalar) = best;
    assert!(
        ratio >= CIPHER_SPEEDUP_HARD_FLOOR,
        "widened keystream must be >= {CIPHER_SPEEDUP_HARD_FLOOR}x the scalar reference \
         (soft target {CIPHER_SPEEDUP_FLOOR}x), got {ratio:.2}x \
         ({wide:.3e} vs {scalar:.3e} bytes/sec) after 3 attempts"
    );
}

/// Measures both kernels against their recorded baselines, after
/// holding the widened cipher to its floor.
///
/// The baseline numbers were captured on the seed implementation (PR 1)
/// with this exact harness — same tree, seeds, warmup and chunking —
/// immediately before the hot-path optimization, on the same class of
/// machine CI uses.
///
/// # Panics
///
/// Panics if the widened cipher misses [`CIPHER_SPEEDUP_HARD_FLOOR`].
pub fn measure(ms: u64) -> Vec<KernelReport> {
    assert_cipher_floor(ms);
    vec![
        KernelReport {
            name: "oram-access/opaque",
            before_accesses_per_sec: 177_859.3,
            before_bytes_per_sec: 6.158e9,
            after: run_kernel(false, ms),
        },
        KernelReport {
            name: "oram-access/encrypted",
            before_accesses_per_sec: 22_760.3,
            before_bytes_per_sec: 7.878e8,
            after: run_kernel(true, ms),
        },
    ]
}

/// Renders the reports as the `BENCH_hotpath.json` document.
pub fn to_json(reports: &[KernelReport], ms: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"oram-access hot path\",\n");
    out.push_str("  \"harness\": \"proram-bench hotpath\",\n");
    out.push_str(&format!("  \"measure_ms\": {ms},\n"));
    out.push_str(&format!(
        "  \"config\": {{\"num_data_blocks\": {NUM_BLOCKS}, \"entries_per_posmap_block\": 8, \"warmup_accesses\": {WARMUP}}},\n"
    ));
    out.push_str("  \"kernels\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        out.push_str(&format!(
            "      \"before\": {{\"accesses_per_sec\": {:.1}, \"bytes_per_sec\": {:.4e}}},\n",
            r.before_accesses_per_sec, r.before_bytes_per_sec
        ));
        out.push_str(&format!(
            "      \"after\": {{\"accesses_per_sec\": {:.1}, \"bytes_per_sec\": {:.4e}, \"timed_accesses\": {}, \"allocations_avoided\": {}}},\n",
            r.after.units_per_sec(),
            r.after.bytes_per_sec(),
            r.after.units,
            r.after.allocations_avoided
        ));
        out.push_str(&format!("      \"speedup\": {:.3}\n", r.speedup()));
        out.push_str(if i + 1 == reports.len() {
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
    fn kernel_runs_and_reuses_scratch() {
        let r = run_kernel(false, 30);
        assert!(r.units >= CHUNK);
        assert!(r.units_per_sec() > 0.0);
        assert!(r.bytes_per_sec() > 0.0);
        // Every timed round trip after warmup reuses the scratch.
        assert!(r.allocations_avoided >= r.units);
    }

    #[test]
    fn cipher_rates_report_positive_throughput() {
        let (wide, scalar) = cipher_rates(2);
        assert!(wide > 0.0);
        assert!(scalar > 0.0);
    }

    #[test]
    fn json_is_shaped_like_a_report() {
        let reports = [KernelReport {
            name: "oram-access/opaque",
            before_accesses_per_sec: 100.0,
            before_bytes_per_sec: 1.0e6,
            after: Throughput {
                units: 512,
                bytes: 5_120_000,
                allocations_avoided: 1024,
                secs: 2.048,
            },
        }];
        let json = to_json(&reports, 1000);
        assert!(json.contains("\"speedup\": 2.500"));
        assert!(json.contains("\"allocations_avoided\": 1024"));
        assert!(json.contains("oram-access/opaque"));
        // Balanced braces as a crude well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
