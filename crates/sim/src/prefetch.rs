//! The traditional stream prefetcher of Figure 5.
//!
//! Section 3.1/5.2 of the paper evaluates a conventional stream prefetcher
//! on both DRAM and Path ORAM and shows it helps the former but not the
//! latter ("prefetching is likely to block normal requests and hurt
//! performance"). This is that prefetcher: a stride-detecting stream
//! table in the spirit of Chen & Baer \[3\] and stream buffers \[24\]. The
//! paper runs it with one setting, so its four parameters are constants.

use proram_mem::BlockAddr;

/// Number of concurrent streams tracked.
const TABLE_ENTRIES: usize = 16;
/// Misses with a consistent stride required before prefetching.
const TRAIN_THRESHOLD: u32 = 2;
/// Blocks prefetched ahead once a stream is established.
const DEGREE: i64 = 2;
/// Largest absolute stride (in blocks) considered a stream.
const MAX_STRIDE: i64 = 8;

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    last: u64,
    stride: i64,
    confidence: u32,
    lru: u64,
}

/// The stream prefetcher: watches the miss stream, learns strides, and
/// proposes blocks to prefetch.
///
/// The component is purely advisory — it emits candidate addresses; the
/// system decides whether bandwidth exists to fetch them. That split is
/// what lets the same prefetcher help DRAM and hurt ORAM in the Figure 5
/// experiment.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamPrefetcher {
    table: Vec<StreamEntry>,
    clock: u64,
}

impl StreamPrefetcher {
    /// Observes a demand miss and returns blocks to prefetch (possibly
    /// empty).
    pub(crate) fn on_miss(&mut self, block: BlockAddr) -> Vec<BlockAddr> {
        self.clock += 1;
        let clock = self.clock;

        // Find a stream this miss continues: the miss extends entry
        // `e` if block == e.last + e.stride, or redefines a small stride
        // from e.last.
        let mut best: Option<usize> = None;
        for (i, e) in self.table.iter().enumerate() {
            let delta = block.0 as i64 - e.last as i64;
            if delta != 0 && delta.abs() <= MAX_STRIDE {
                // Prefer an exact stride continuation.
                if delta == e.stride {
                    best = Some(i);
                    break;
                }
                if best.is_none() {
                    best = Some(i);
                }
            }
        }

        match best {
            Some(i) => {
                let delta = block.0 as i64 - self.table[i].last as i64;
                let entry = &mut self.table[i];
                if delta == entry.stride {
                    entry.confidence += 1;
                } else {
                    entry.stride = delta;
                    entry.confidence = 1;
                }
                entry.last = block.0;
                entry.lru = clock;
                if entry.confidence >= TRAIN_THRESHOLD {
                    let stride = entry.stride;
                    let base = entry.last;
                    let mut out = Vec::with_capacity(DEGREE as usize);
                    for k in 1..=DEGREE {
                        let target = base as i64 + stride * k;
                        if target >= 0 {
                            out.push(BlockAddr(target as u64));
                        }
                    }
                    return out;
                }
                Vec::new()
            }
            None => {
                // Allocate a fresh stream, evicting the LRU entry.
                if self.table.len() == TABLE_ENTRIES {
                    let lru = self
                        .table
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.lru)
                        .map(|(i, _)| i)
                        .expect("nonempty table");
                    self.table.swap_remove(lru);
                }
                self.table.push(StreamEntry {
                    last: block.0,
                    stride: 0,
                    confidence: 0,
                    lru: clock,
                });
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_trains_and_prefetches() {
        let mut p = StreamPrefetcher::default();
        assert!(p.on_miss(BlockAddr(10)).is_empty());
        assert!(p.on_miss(BlockAddr(11)).is_empty());
        let out = p.on_miss(BlockAddr(12));
        assert_eq!(out, vec![BlockAddr(13), BlockAddr(14)]);
    }

    #[test]
    fn negative_stride_stream() {
        let mut p = StreamPrefetcher::default();
        p.on_miss(BlockAddr(100));
        p.on_miss(BlockAddr(99));
        let out = p.on_miss(BlockAddr(98));
        assert_eq!(out, vec![BlockAddr(97), BlockAddr(96)]);
    }

    #[test]
    fn strided_stream() {
        let mut p = StreamPrefetcher::default();
        p.on_miss(BlockAddr(0));
        p.on_miss(BlockAddr(4));
        let out = p.on_miss(BlockAddr(8));
        assert_eq!(out, vec![BlockAddr(12), BlockAddr(16)]);
    }

    #[test]
    fn random_misses_never_prefetch() {
        let mut p = StreamPrefetcher::default();
        // Deltas all exceed MAX_STRIDE.
        for &a in &[5u64, 1000, 42, 90_000, 7, 50_000] {
            assert!(
                p.on_miss(BlockAddr(a)).is_empty(),
                "prefetched on random miss {a}"
            );
        }
    }

    #[test]
    fn stride_change_retrains() {
        let mut p = StreamPrefetcher::default();
        p.on_miss(BlockAddr(10));
        p.on_miss(BlockAddr(11));
        p.on_miss(BlockAddr(12)); // trained at stride 1
        assert!(
            p.on_miss(BlockAddr(14)).is_empty(),
            "stride change must retrain"
        );
        let out = p.on_miss(BlockAddr(16));
        assert_eq!(out, vec![BlockAddr(18), BlockAddr(20)]);
    }

    #[test]
    fn multiple_concurrent_streams() {
        let mut p = StreamPrefetcher::default();
        // Interleave two distant streams.
        for i in 0..3u64 {
            p.on_miss(BlockAddr(100 + i));
            p.on_miss(BlockAddr(90_000 + i));
        }
        let a = p.on_miss(BlockAddr(103));
        assert!(a.contains(&BlockAddr(104)));
        let b = p.on_miss(BlockAddr(90_003));
        assert!(b.contains(&BlockAddr(90_004)));
    }

    #[test]
    fn table_capacity_evicts_lru() {
        let mut p = StreamPrefetcher::default();
        // One stream more than the table holds, each too far from the
        // others to continue it: the last one evicts the first.
        for s in 0..=TABLE_ENTRIES as u64 {
            p.on_miss(BlockAddr(1_000 * (s + 1)));
        }
        // Continuing the evicted stream restarts training. Had it
        // survived, 1_002 would already prefetch.
        assert!(p.on_miss(BlockAddr(1_001)).is_empty());
        assert!(p.on_miss(BlockAddr(1_002)).is_empty());
        assert!(!p.on_miss(BlockAddr(1_003)).is_empty());
    }

    #[test]
    fn prefetch_addresses_never_negative() {
        let mut p = StreamPrefetcher::default();
        p.on_miss(BlockAddr(2));
        p.on_miss(BlockAddr(1));
        let out = p.on_miss(BlockAddr(0));
        assert!(
            out.is_empty(),
            "would-be negative targets are dropped: {out:?}"
        );
    }
}
