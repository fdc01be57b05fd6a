//! Randomized model test: the cache must behave exactly like a reference
//! true-LRU model over arbitrary operation sequences — the whole `Line`
//! contract (recency, dirty, prefetched, used), not only hit or miss.
//!
//! The reference keeps one heap-allocated recency list per set, the form
//! `Cache` itself had before its sets became one flat array; it shares no
//! code with the cache.
//!
//! Uses the workspace's deterministic RNG (`proram_stats`) instead of an
//! external property-testing crate so the suite builds with no network
//! access; every case is reproducible from the fixed seeds below.

use proram_cache::{Cache, CacheConfig, CacheStats, Evicted, HitInfo};
use proram_mem::BlockAddr;
use proram_stats::{Rng64, Xoshiro256};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct RefLine {
    block: u64,
    dirty: bool,
    prefetched: bool,
    used: bool,
}

impl RefLine {
    fn evicted(self) -> Evicted {
        Evicted {
            block: BlockAddr(self.block),
            dirty: self.dirty,
            prefetched_unused: self.prefetched && !self.used,
        }
    }
}

/// Reference model: one recency list per set, most recent first.
struct RefLru {
    sets: Vec<VecDeque<RefLine>>,
    ways: usize,
    stats: CacheStats,
}

/// One call on the cache's public interface.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u64, bool),
    Insert(u64, bool),
    Invalidate(u64),
    MarkDirty(u64),
    Peek(u64),
}

/// What a call returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Hit(Option<HitInfo>),
    Departed(Option<Evicted>),
    Found(bool),
}

impl RefLru {
    fn new(num_sets: u64, ways: usize) -> Self {
        RefLru {
            sets: (0..num_sets).map(|_| VecDeque::new()).collect(),
            ways,
            stats: CacheStats::default(),
        }
    }

    /// The set's list and the position of `block` in it.
    fn find(&mut self, block: u64) -> (&mut VecDeque<RefLine>, Option<usize>) {
        let set = (block % self.sets.len() as u64) as usize;
        let lines = &mut self.sets[set];
        let pos = lines.iter().position(|l| l.block == block);
        (lines, pos)
    }

    fn apply(&mut self, op: Op) -> Outcome {
        match op {
            Op::Lookup(block, write) => {
                let (lines, pos) = self.find(block);
                let hit = pos.map(|pos| {
                    let mut line = lines.remove(pos).expect("pos valid");
                    let prefetch_first_use = line.prefetched && !line.used;
                    line.dirty |= write;
                    line.used = true;
                    lines.push_front(line);
                    HitInfo { prefetch_first_use }
                });
                match hit {
                    Some(_) => self.stats.hits += 1,
                    None => self.stats.misses += 1,
                }
                Outcome::Hit(hit)
            }
            Op::Insert(block, prefetched) => {
                let ways = self.ways;
                let (lines, pos) = self.find(block);
                if let Some(pos) = pos {
                    let line = lines.remove(pos).expect("pos valid");
                    lines.push_front(line);
                    return Outcome::Departed(None);
                }
                let victim = if lines.len() == ways {
                    lines.pop_back()
                } else {
                    None
                };
                lines.push_front(RefLine {
                    block,
                    dirty: false,
                    prefetched,
                    used: !prefetched,
                });
                if let Some(v) = victim {
                    self.stats.evictions += 1;
                    self.stats.dirty_evictions += u64::from(v.dirty);
                }
                Outcome::Departed(victim.map(RefLine::evicted))
            }
            Op::Invalidate(block) => {
                let (lines, pos) = self.find(block);
                let gone = pos.map(|pos| lines.remove(pos).expect("pos valid"));
                Outcome::Departed(gone.map(RefLine::evicted))
            }
            Op::MarkDirty(block) => {
                let (lines, pos) = self.find(block);
                if let Some(pos) = pos {
                    lines[pos].dirty = true;
                }
                Outcome::Found(pos.is_some())
            }
            Op::Peek(block) => Outcome::Found(self.find(block).1.is_some()),
        }
    }

    fn len(&self) -> usize {
        self.sets.iter().map(VecDeque::len).sum()
    }

    fn resident_sorted(&self) -> Vec<u64> {
        let mut blocks: Vec<u64> = self.sets.iter().flatten().map(|l| l.block).collect();
        blocks.sort_unstable();
        blocks
    }
}

fn apply(cache: &mut Cache, op: Op) -> Outcome {
    match op {
        Op::Lookup(a, write) => Outcome::Hit(cache.lookup(BlockAddr(a), write)),
        Op::Insert(a, prefetched) => Outcome::Departed(cache.insert(BlockAddr(a), prefetched)),
        Op::Invalidate(a) => Outcome::Departed(cache.invalidate(BlockAddr(a))),
        Op::MarkDirty(a) => Outcome::Found(cache.mark_dirty(BlockAddr(a))),
        Op::Peek(a) => Outcome::Found(cache.peek(BlockAddr(a))),
    }
}

fn resident_sorted(cache: &Cache) -> Vec<u64> {
    let mut blocks: Vec<u64> = cache.resident_blocks().map(|b| b.0).collect();
    blocks.sort_unstable();
    blocks
}

/// A random op on a random block of `blocks`: lookups and fills dominate
/// (as in a run), the rest of the interface gets a tenth each.
fn random_op(rng: &mut Xoshiro256, blocks: &[u64]) -> Op {
    let a = blocks[rng.next_below(blocks.len() as u64) as usize];
    match rng.next_below(10) {
        0..=3 => Op::Lookup(a, rng.next_bool(0.5)),
        4..=5 => Op::Insert(a, false),
        6 => Op::Insert(a, true),
        7 => Op::Invalidate(a),
        8 => Op::MarkDirty(a),
        _ => Op::Peek(a),
    }
}

/// Blocks that contend for a few sets of a `num_sets`-set cache — the
/// first two, a middle one and the last, so the index mask is exercised
/// at both ends — with twice as many tags per set as there are ways.
fn contending_blocks(num_sets: u64, ways: u64) -> Vec<u64> {
    let mut sets = vec![0, 1 % num_sets, num_sets / 2, num_sets - 1];
    sets.sort_unstable();
    sets.dedup();
    (0..2 * ways)
        .flat_map(|tag| sets.iter().map(move |set| tag * num_sets + set))
        .collect()
}

#[test]
fn cache_matches_reference_lru() {
    // (sets, ways): every associativity up to 16 on four sets, a way
    // count that is not a power of two, then the paper's L1 and LLC
    // (Table 1).
    let geometries = [
        (4, 1),
        (4, 2),
        (4, 4),
        (4, 8),
        (4, 16),
        (1, 3),
        (64, 4),
        (512, 8),
    ];
    for (num_sets, ways) in geometries {
        let blocks = contending_blocks(num_sets, ways);
        for case in 0..24u64 {
            let mut rng = Xoshiro256::seed_from(0xCAFE ^ (num_sets << 32) ^ (ways << 16) ^ case);
            let num_ops = 1 + rng.next_below(60 * ways) as usize;
            let config = CacheConfig::new(num_sets * ways * 128, ways as u32, 128, 1);
            let mut cache = Cache::new(config);
            let mut model = RefLru::new(num_sets, ways as usize);
            for step in 0..num_ops {
                let op = random_op(&mut rng, &blocks);
                assert_eq!(
                    apply(&mut cache, op),
                    model.apply(op),
                    "{op:?} at step {step} ({num_sets} x {ways}, case {case})"
                );
                assert_eq!(cache.len(), model.len());
                assert_eq!(cache.is_empty(), model.len() == 0);
            }
            assert_eq!(
                cache.stats(),
                model.stats,
                "{num_sets} x {ways}, case {case}"
            );
            assert_eq!(resident_sorted(&cache), model.resident_sorted());
        }
    }
}

#[test]
fn peek_never_changes_behaviour() {
    // Interleaving peeks between every operation must not change any
    // outcome relative to the same run without peeks.
    let blocks: Vec<u64> = (0..32).collect();
    for case in 0..64u64 {
        let mut rng = Xoshiro256::seed_from(0xBEEF + case);
        let num_ops = 1 + rng.next_below(200) as usize;
        let config = CacheConfig::new(2 * 128 * 2, 2, 128, 1);
        let mut plain = Cache::new(config);
        let mut peeky = Cache::new(config);
        for _ in 0..num_ops {
            for probe in 0..8u64 {
                peeky.peek(BlockAddr(probe));
            }
            let op = random_op(&mut rng, &blocks);
            assert_eq!(apply(&mut plain, op), apply(&mut peeky, op));
        }
        assert_eq!(plain.stats(), peeky.stats());
    }
}
