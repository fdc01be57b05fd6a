//! The synthetic microbenchmarks of paper Section 5.3.
//!
//! "The synthetic benchmark accesses an array with two patterns,
//! sequential or random. For the sequential pattern, part of the array is
//! scanned sequentially, leading to good spatial locality. For the random
//! pattern, the data is randomly accessed with no spatial locality."

use crate::pattern::Pattern;
use crate::trace::{TraceOp, Workload};
use proram_stats::{Rng64, Xoshiro256};

/// Default element size of the synthetic array (one word per access).
const ELEM_BYTES: u64 = 8;

/// Compute cycles between accesses: memory-bound, like the benchmark the
/// paper uses to isolate ORAM behaviour.
const COMP_CYCLES: u32 = 4;

/// Section 5.3.1: `X%` of the data is accessed sequentially, the rest
/// randomly.
///
/// # Examples
///
/// ```
/// use proram_workloads::{synthetic::LocalityMix, Workload};
///
/// let mut w = LocalityMix::new(1 << 16, 1.0, 100, 3);
/// let a = w.next_op().unwrap().addr;
/// let b = w.next_op().unwrap().addr;
/// assert_eq!(b - a, 8, "100% locality scans sequentially");
/// ```
#[derive(Debug, Clone)]
pub struct LocalityMix {
    name: String,
    footprint: u64,
    sequential: Pattern,
    random: Pattern,
    locality: f64,
    remaining: u64,
    elem_bytes: u64,
    rng: Xoshiro256,
}

impl LocalityMix {
    /// A trace of `ops` accesses over `footprint` bytes where a
    /// `locality` fraction of the data is scanned sequentially.
    ///
    /// # Panics
    ///
    /// Panics unless `locality` is in `\[0, 1\]` and `footprint` is at
    /// least two elements.
    pub fn new(footprint: u64, locality: f64, ops: u64, seed: u64) -> Self {
        LocalityMix::with_stride(footprint, locality, ops, seed, ELEM_BYTES)
    }

    /// Like [`LocalityMix::new`] with an explicit element stride. A
    /// stride of one cache line makes each op touch a fresh line — the
    /// figure experiments use this so a fixed op budget sweeps the array
    /// several times.
    ///
    /// # Panics
    ///
    /// Panics unless `stride` is positive and the footprint holds at
    /// least two elements.
    pub fn with_stride(footprint: u64, locality: f64, ops: u64, seed: u64, stride: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&locality),
            "locality must be in [0, 1]"
        );
        assert!(stride > 0, "stride must be positive");
        assert!(footprint >= 2 * stride, "footprint too small");
        let seq_span = ((footprint as f64 * locality) as u64 / stride).max(1) * stride;
        let rand_span = (footprint - seq_span).max(stride);
        LocalityMix {
            name: format!("synth_loc{:03.0}", locality * 100.0),
            footprint,
            sequential: Pattern::sequential(0, seq_span, stride),
            random: Pattern::random(seq_span.min(footprint - rand_span), rand_span),
            locality,
            remaining: ops,
            elem_bytes: stride,
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The element stride in bytes.
    pub fn stride(&self) -> u64 {
        self.elem_bytes
    }
}

impl Workload for LocalityMix {
    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // Accesses are distributed in proportion to the data split, so
        // "X% of data accessed sequentially" holds access-wise too.
        let addr = if self.rng.next_bool(self.locality) {
            self.sequential.next_addr(&mut self.rng)
        } else {
            self.random.next_addr(&mut self.rng)
        };
        let write = self.rng.next_bool(0.3);
        Some(TraceOp {
            comp_cycles: COMP_CYCLES,
            addr,
            write,
        })
    }
}

/// Section 5.3.2: phase-change behaviour. "In the first phase, half of
/// the data are accessed sequentially and the other half randomly. In
/// the second phase, the first (second) half is randomly (sequentially)
/// accessed. The pattern keeps switching."
#[derive(Debug, Clone)]
pub struct PhaseChange {
    footprint: u64,
    phase_len: u64,
    op_index: u64,
    total_ops: u64,
    seq_lo: Pattern,
    seq_hi: Pattern,
    rng: Xoshiro256,
}

impl PhaseChange {
    /// A trace of `ops` accesses over `footprint` bytes switching phase
    /// every `phase_len` accesses.
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` is zero or the footprint is too small.
    pub fn new(footprint: u64, phase_len: u64, ops: u64, seed: u64) -> Self {
        PhaseChange::with_stride(footprint, phase_len, ops, seed, ELEM_BYTES)
    }

    /// Like [`PhaseChange::new`] with an explicit element stride (see
    /// [`LocalityMix::with_stride`]).
    ///
    /// # Panics
    ///
    /// Panics if `phase_len` or `stride` is zero or the footprint is too
    /// small.
    pub fn with_stride(footprint: u64, phase_len: u64, ops: u64, seed: u64, stride: u64) -> Self {
        assert!(phase_len > 0, "phase length must be positive");
        assert!(stride > 0, "stride must be positive");
        assert!(footprint >= 4 * stride, "footprint too small");
        let half = footprint / 2;
        PhaseChange {
            footprint,
            phase_len,
            op_index: 0,
            total_ops: ops,
            seq_lo: Pattern::sequential(0, half, stride),
            seq_hi: Pattern::sequential(half, half, stride),
            rng: Xoshiro256::seed_from(seed),
        }
    }

    /// The phase (0-based) a given op index falls into.
    fn phase_of(&self, op_index: u64) -> u64 {
        op_index / self.phase_len
    }
}

impl Workload for PhaseChange {
    fn name(&self) -> &str {
        "synth_phase"
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        if self.op_index >= self.total_ops {
            return None;
        }
        let phase = self.phase_of(self.op_index);
        self.op_index += 1;
        let half = self.footprint / 2;
        let sequential_half_is_low = phase.is_multiple_of(2);
        let addr = if self.rng.next_bool(0.5) {
            // Touch the currently-sequential half.
            if sequential_half_is_low {
                self.seq_lo.next_addr(&mut self.rng)
            } else {
                self.seq_hi.next_addr(&mut self.rng)
            }
        } else {
            // Random access in the other half.
            let base = if sequential_half_is_low { half } else { 0 };
            base + self.rng.next_below(half)
        };
        let write = self.rng.next_bool(0.3);
        Some(TraceOp {
            comp_cycles: COMP_CYCLES,
            addr,
            write,
        })
    }
}

/// A pure strided scan: addresses advance by a fixed byte stride,
/// wrapping at the footprint — the access pattern of a column sweep over
/// a row-major matrix. Contiguous super blocks find no locality here;
/// the strided extension (paper Section 6.2) does.
#[derive(Debug, Clone)]
pub struct StridedScan {
    footprint: u64,
    pattern: Pattern,
    remaining: u64,
    write_frac: f64,
    rng: Xoshiro256,
}

impl StridedScan {
    /// A trace of `ops` accesses striding by `stride_bytes` over
    /// `footprint` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the stride is zero or larger than the footprint.
    pub fn new(footprint: u64, stride_bytes: u64, ops: u64, seed: u64) -> Self {
        assert!(stride_bytes > 0, "stride must be positive");
        assert!(stride_bytes < footprint, "stride must fit the footprint");
        StridedScan {
            footprint,
            pattern: Pattern::strided(0, footprint, stride_bytes),
            remaining: ops,
            write_frac: 0.3,
            rng: Xoshiro256::seed_from(seed),
        }
    }
}

impl Workload for StridedScan {
    fn name(&self) -> &str {
        "synth_stride"
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = self.pattern.next_addr(&mut self.rng);
        let write = self.rng.next_bool(self.write_frac);
        Some(TraceOp {
            comp_cycles: COMP_CYCLES,
            addr,
            write,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_locality_is_sequential() {
        let mut w = LocalityMix::new(1 << 16, 1.0, 1000, 1);
        let ops: Vec<TraceOp> = std::iter::from_fn(|| w.next_op()).collect();
        assert_eq!(ops.len(), 1000);
        for pair in ops.windows(2) {
            let d = pair[1].addr.wrapping_sub(pair[0].addr);
            assert!(
                d == ELEM_BYTES || pair[1].addr == 0,
                "not sequential: {pair:?}"
            );
        }
    }

    #[test]
    fn zero_locality_is_scattered() {
        let mut w = LocalityMix::new(1 << 20, 0.0, 1000, 2);
        let ops: Vec<TraceOp> = std::iter::from_fn(|| w.next_op()).collect();
        let sequential_pairs = ops
            .windows(2)
            .filter(|p| p[1].addr.wrapping_sub(p[0].addr) == ELEM_BYTES)
            .count();
        assert!(
            sequential_pairs < 20,
            "{sequential_pairs} sequential pairs at 0% locality"
        );
    }

    #[test]
    fn addresses_stay_in_footprint() {
        for locality in [0.0, 0.3, 0.7, 1.0] {
            let mut w = LocalityMix::new(1 << 14, locality, 2000, 3);
            while let Some(op) = w.next_op() {
                assert!(
                    op.addr < 1 << 14,
                    "escaped footprint at locality {locality}"
                );
            }
        }
    }

    #[test]
    fn name_encodes_locality() {
        assert_eq!(LocalityMix::new(1 << 14, 0.4, 1, 1).name(), "synth_loc040");
    }

    #[test]
    fn trace_length_respected() {
        let mut w = LocalityMix::new(1 << 14, 0.5, 17, 1);
        assert_eq!(std::iter::from_fn(|| w.next_op()).count(), 17);
        assert!(w.next_op().is_none());
    }

    #[test]
    fn phase_change_alternates_sequential_half() {
        let mut w = PhaseChange::new(1 << 16, 500, 2000, 5);
        let half = 1u64 << 15;
        let mut phase0_seq_lo = 0;
        let mut phase1_seq_hi = 0;
        let mut prev: Option<(u64, u64)> = None; // (phase, addr)
        for i in 0..2000u64 {
            let op = w.next_op().unwrap();
            let phase = i / 500;
            if let Some((p, addr)) = prev {
                if p == phase && op.addr == addr + ELEM_BYTES {
                    if phase % 2 == 0 && op.addr < half {
                        phase0_seq_lo += 1;
                    }
                    if phase % 2 == 1 && op.addr >= half {
                        phase1_seq_hi += 1;
                    }
                }
            }
            prev = Some((phase, op.addr));
        }
        assert!(phase0_seq_lo > 50, "even phases must scan the low half");
        assert!(phase1_seq_hi > 50, "odd phases must scan the high half");
    }

    #[test]
    fn phase_of_computation() {
        let w = PhaseChange::new(1 << 14, 100, 1000, 1);
        assert_eq!(w.phase_of(0), 0);
        assert_eq!(w.phase_of(99), 0);
        assert_eq!(w.phase_of(100), 1);
    }

    #[test]
    #[should_panic(expected = "locality must be in")]
    fn bad_locality_rejected() {
        LocalityMix::new(1 << 14, 1.5, 1, 1);
    }

    #[test]
    fn strided_variant_touches_fresh_lines() {
        let mut w = LocalityMix::with_stride(1 << 16, 1.0, 100, 1, 128);
        assert_eq!(w.stride(), 128);
        let a = w.next_op().unwrap().addr;
        let b = w.next_op().unwrap().addr;
        assert_eq!(b - a, 128);
    }

    #[test]
    fn phase_change_strided_builds() {
        let mut w = PhaseChange::with_stride(1 << 16, 100, 500, 2, 128);
        let n = std::iter::from_fn(|| w.next_op()).count();
        assert_eq!(n, 500);
    }

    #[test]
    fn strided_scan_advances_by_stride() {
        let mut w = StridedScan::new(1 << 16, 1024, 100, 1);
        let a = w.next_op().unwrap().addr;
        let b = w.next_op().unwrap().addr;
        assert_eq!(b - a, 1024);
        assert_eq!(w.name(), "synth_stride");
    }

    #[test]
    fn strided_scan_wraps_within_footprint() {
        let mut w = StridedScan::new(1 << 14, 4096, 500, 2);
        while let Some(op) = w.next_op() {
            assert!(op.addr < 1 << 14);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let collect = || {
            let mut w = LocalityMix::new(1 << 14, 0.5, 100, 9);
            std::iter::from_fn(move || w.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
