//! The YCSB-like workload \[5\]: Zipfian point reads and updates against a
//! hash-indexed record heap.
//!
//! Key popularity follows the YCSB client's Zipfian generator (theta =
//! 0.99). Hot records concentrate in the heap only as much as their key
//! order dictates — sequential key ranges are adjacent in the heap, which
//! is where the paper's 23.6% YCSB gain comes from: scans of hot ranges
//! and the hash-probe/record pairs exhibit exploitable spatial locality.

use crate::dbms::btree::BTree;
use crate::dbms::engine::{Arena, HashIndex, Table, TraceSink};
use crate::trace::{TraceOp, Workload};
use proram_stats::{Rng64, Xoshiro256, Zipf};
use std::collections::VecDeque;

/// YCSB-like driver.
///
/// # Examples
///
/// ```
/// use proram_workloads::{dbms::Ycsb, Workload};
///
/// let mut w = Ycsb::new(10_000, 0.5, 1000, 3);
/// let op = w.next_op().expect("ops");
/// assert!(op.addr < w.footprint_bytes());
/// ```
#[derive(Debug, Clone)]
pub struct Ycsb {
    records: Table,
    index: HashIndex,
    /// Ordered index used by the scan mix (workload E).
    ordered: BTree,
    zipf: Zipf,
    read_frac: f64,
    /// Fraction of transactions that are short range scans (YCSB
    /// workload E uses 0.95; the point workloads use 0).
    scan_frac: f64,
    max_scan_len: usize,
    footprint: u64,
    remaining_ops: u64,
    buffer: VecDeque<TraceOp>,
    rng: Xoshiro256,
}

/// YCSB record payload size: the standard 10 fields x 100 bytes, rounded
/// to cache lines. Every record operation is an 8-line sequential burst —
/// the spatial locality behind the paper's 23.6% YCSB gain.
const RECORD_BYTES: u64 = 1024;

impl Ycsb {
    /// Creates a database of `records` rows and a driver that will emit
    /// about `ops` memory operations with the given read fraction.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero or `read_frac` is outside `\[0, 1\]`.
    pub fn new(records: u64, read_frac: f64, ops: u64, seed: u64) -> Self {
        Ycsb::with_scans(records, read_frac, 0.0, ops, seed)
    }

    /// Like [`Ycsb::new`] with a fraction of short range scans (YCSB
    /// workload E): each scan walks the B-tree index and then reads the
    /// matching records in key order — heavy, sequential, super-block
    /// friendly traffic.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero or a fraction is outside `[0, 1]`.
    fn with_scans(records: u64, read_frac: f64, scan_frac: f64, ops: u64, seed: u64) -> Self {
        assert!(records > 0, "need at least one record");
        assert!((0.0..=1.0).contains(&read_frac), "read fraction in [0, 1]");
        assert!((0.0..=1.0).contains(&scan_frac), "scan fraction in [0, 1]");
        let mut arena = Arena::new();
        let mut table = Table::create(&mut arena, "usertable", RECORD_BYTES, records);
        let mut index = HashIndex::create(&mut arena, records);
        let mut ordered = BTree::create(&mut arena, records);
        // Load phase (untraced, like YCSB's load step).
        let mut sink = TraceSink::new();
        for k in 0..records {
            let id = table.append(&mut sink);
            index.insert(k, id, &mut sink);
            ordered.insert(k, id, &mut sink);
        }
        Ycsb {
            records: table,
            index,
            ordered,
            zipf: Zipf::new(records, 0.99),
            read_frac,
            scan_frac,
            max_scan_len: 16,
            footprint: arena.used(),
            remaining_ops: ops,
            buffer: VecDeque::new(),
            rng: Xoshiro256::seed_from(seed),
        }
    }

    fn run_txn(&mut self) {
        let mut sink = TraceSink::new();
        let key = self.zipf.sample(&mut self.rng);
        if self.rng.next_bool(self.scan_frac) {
            // Workload-E scan: B-tree range walk, then the records.
            let len = 1 + self.rng.next_below(self.max_scan_len as u64) as usize;
            for (_, id) in self.ordered.scan(key, len, &mut sink) {
                self.records.touch(id, false, &mut sink);
            }
        } else {
            let write = !self.rng.next_bool(self.read_frac);
            if let Some(id) = self.index.lookup(key, &mut sink) {
                self.records.touch(id, write, &mut sink);
            }
        }
        self.buffer.extend(sink);
    }
}

impl Workload for Ycsb {
    fn name(&self) -> &str {
        "YCSB"
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_op(&mut self) -> Option<TraceOp> {
        if self.remaining_ops == 0 {
            return None;
        }
        while self.buffer.is_empty() {
            self.run_txn();
        }
        self.remaining_ops -= 1;
        self.buffer.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_requested_op_count() {
        let mut w = Ycsb::new(1000, 0.5, 500, 1);
        assert_eq!(std::iter::from_fn(|| w.next_op()).count(), 500);
    }

    #[test]
    fn addresses_within_footprint() {
        let mut w = Ycsb::new(1000, 0.5, 2000, 2);
        let fp = w.footprint_bytes();
        while let Some(op) = w.next_op() {
            assert!(op.addr < fp);
        }
    }

    #[test]
    fn zipfian_skew_concentrates_record_touches() {
        let mut w = Ycsb::new(10_000, 1.0, 20_000, 3);
        let mut counts = std::collections::HashMap::new();
        while let Some(op) = w.next_op() {
            *counts.entry(op.addr / 1024).or_insert(0u64) += 1;
        }
        let mut values: Vec<u64> = counts.values().copied().collect();
        values.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = values.iter().take(10).sum();
        let total: u64 = values.iter().sum();
        assert!(
            top10 as f64 / total as f64 > 0.05,
            "hot set not hot: top10 share {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn record_reads_are_sequential_line_bursts() {
        let mut w = Ycsb::new(5_000, 1.0, 2_000, 6);
        let ops: Vec<TraceOp> = std::iter::from_fn(|| w.next_op()).collect();
        let line_sequential = ops
            .windows(2)
            .filter(|p| p[1].addr == p[0].addr + 128)
            .count();
        assert!(
            line_sequential as f64 > 0.4 * ops.len() as f64,
            "records should span sequential lines: {line_sequential}/{}",
            ops.len()
        );
    }

    #[test]
    fn read_only_mix_has_index_reads_and_record_reads() {
        let mut w = Ycsb::new(1000, 1.0, 1000, 4);
        let writes = std::iter::from_fn(|| w.next_op())
            .filter(|o| o.write)
            .count();
        assert_eq!(writes, 0, "read-only mix must not write");
    }

    #[test]
    fn update_mix_writes_records() {
        let mut w = Ycsb::new(1000, 0.0, 1000, 5);
        let writes = std::iter::from_fn(|| w.next_op())
            .filter(|o| o.write)
            .count();
        assert!(writes > 100, "update-only mix writes records: {writes}");
    }

    #[test]
    fn standard_mixes_have_their_signature_writes() {
        let writes = |read_frac: f64| {
            let mut w = Ycsb::new(1000, read_frac, 1500, 3);
            std::iter::from_fn(move || w.next_op())
                .filter(|o| o.write)
                .count()
        };
        assert_eq!(writes(1.0), 0, "C is read-only");
        assert!(writes(0.5) > writes(0.95), "A updates more than B");
    }

    #[test]
    fn scan_mix_reads_records_in_key_order() {
        let mut w = Ycsb::with_scans(2_000, 1.0, 1.0, 4_000, 8);
        let ops: Vec<TraceOp> = std::iter::from_fn(|| w.next_op()).collect();
        // Scans produce long ascending-address runs across consecutive
        // records (1 KiB apart) as well as within-record line runs.
        let ascending = ops.windows(2).filter(|p| p[1].addr > p[0].addr).count();
        assert!(
            ascending as f64 > 0.6 * ops.len() as f64,
            "scan traffic should be mostly ascending: {ascending}/{}",
            ops.len()
        );
        assert!(ops.iter().all(|o| !o.write), "workload E scans are reads");
    }

    #[test]
    fn deterministic() {
        let run = |seed| {
            let mut w = Ycsb::new(500, 0.5, 300, seed);
            std::iter::from_fn(move || w.next_op())
                .map(|o| o.addr)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
