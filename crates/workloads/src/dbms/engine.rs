//! The storage-engine substrate: address arena, record heap tables and an
//! open-addressing hash index, all instrumented to emit the byte
//! addresses they touch.

use crate::trace::TraceOp;

/// Collects the memory operations a storage-engine call performs.
pub type TraceSink = Vec<TraceOp>;

/// Compute cycles charged per engine memory touch (hashing, comparisons).
const ENGINE_COMP: u32 = 12;

/// A bump allocator for the engine's flat address space.
#[derive(Debug, Clone, Default)]
pub struct Arena {
    next: u64,
}

impl Arena {
    /// Creates an empty arena at address 0.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Reserves `bytes`, returning the region's base address. Regions are
    /// aligned to 128 bytes so tables start on cache-line boundaries.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        self.next = (self.next + bytes).div_ceil(128) * 128;
        base
    }

    /// Total bytes reserved (the workload footprint).
    pub fn used(&self) -> u64 {
        self.next
    }
}

/// A fixed-capacity heap of fixed-size records.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    base: u64,
    record_bytes: u64,
    capacity: u64,
    len: u64,
}

impl Table {
    /// Allocates a table of `capacity` records of `record_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if capacity or record size is zero.
    pub fn create(
        arena: &mut Arena,
        name: impl Into<String>,
        record_bytes: u64,
        capacity: u64,
    ) -> Self {
        assert!(
            record_bytes > 0 && capacity > 0,
            "table geometry must be positive"
        );
        let base = arena.alloc(record_bytes * capacity);
        Table {
            name: name.into(),
            base,
            record_bytes,
            capacity,
            len: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no records have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address of record `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of capacity.
    fn record_addr(&self, id: u64) -> u64 {
        assert!(
            id < self.capacity,
            "record {id} beyond capacity {}",
            self.capacity
        );
        self.base + id * self.record_bytes
    }

    /// Appends a record, returning its id and emitting the write(s).
    ///
    /// # Panics
    ///
    /// Panics when the table is full.
    pub fn append(&mut self, trace: &mut TraceSink) -> u64 {
        assert!(self.len < self.capacity, "table {} full", self.name);
        let id = self.len;
        self.len += 1;
        self.touch(id, true, trace);
        id
    }

    /// Emits the memory operations of reading (`write = false`) or
    /// updating record `id`: one access per cache line the record spans.
    pub fn touch(&self, id: u64, write: bool, trace: &mut TraceSink) {
        let start = self.record_addr(id);
        let end = start + self.record_bytes;
        let mut line = start / 128;
        loop {
            let addr = (line * 128).max(start);
            trace.push(TraceOp {
                comp_cycles: ENGINE_COMP,
                addr,
                write,
            });
            line += 1;
            if line * 128 >= end {
                break;
            }
        }
    }
}

/// Open-addressing (linear probing) hash index mapping `u64` keys to
/// record ids, emitting every bucket probe.
#[derive(Debug, Clone)]
pub struct HashIndex {
    base: u64,
    buckets: Vec<Option<(u64, u64)>>,
    mask: u64,
    len: u64,
}

/// Bytes per bucket (key + id + tag).
const BUCKET_BYTES: u64 = 16;

impl HashIndex {
    /// Allocates an index with at least `2 * expected` buckets (load
    /// factor <= 0.5).
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero.
    pub fn create(arena: &mut Arena, expected: u64) -> Self {
        assert!(expected > 0, "index must expect at least one key");
        let buckets = (expected * 2).next_power_of_two();
        let base = arena.alloc(buckets * BUCKET_BYTES);
        HashIndex {
            base,
            buckets: vec![None; buckets as usize],
            mask: buckets - 1,
            len: 0,
        }
    }

    fn hash(key: u64) -> u64 {
        // Fibonacci hashing; good spread for sequential keys.
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
    }

    fn bucket_addr(&self, slot: u64) -> u64 {
        self.base + slot * BUCKET_BYTES
    }

    /// Number of keys stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `key -> id`, emitting probe reads and the final write.
    ///
    /// # Panics
    ///
    /// Panics if the table is full or the key already exists.
    pub fn insert(&mut self, key: u64, id: u64, trace: &mut TraceSink) {
        assert!(self.len < self.buckets.len() as u64, "hash index full");
        let mut slot = Self::hash(key) & self.mask;
        loop {
            trace.push(TraceOp::read(ENGINE_COMP, self.bucket_addr(slot)));
            match self.buckets[slot as usize] {
                None => {
                    self.buckets[slot as usize] = Some((key, id));
                    self.len += 1;
                    trace.push(TraceOp::write(ENGINE_COMP, self.bucket_addr(slot)));
                    return;
                }
                Some((k, _)) => {
                    assert_ne!(k, key, "duplicate key {key}");
                    slot = (slot + 1) & self.mask;
                }
            }
        }
    }

    /// Looks up `key`, emitting probe reads.
    pub fn lookup(&self, key: u64, trace: &mut TraceSink) -> Option<u64> {
        let mut slot = Self::hash(key) & self.mask;
        loop {
            trace.push(TraceOp::read(ENGINE_COMP, self.bucket_addr(slot)));
            match self.buckets[slot as usize] {
                None => return None,
                Some((k, id)) if k == key => return Some(id),
                Some(_) => slot = (slot + 1) & self.mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_line_aligned() {
        let mut a = Arena::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(100);
        assert_eq!(r1, 0);
        assert_eq!(r2 % 128, 0);
        assert!(a.used() >= 200);
    }

    #[test]
    fn table_addresses_are_disjoint_per_record() {
        let mut a = Arena::new();
        let t = Table::create(&mut a, "t", 100, 10);
        assert_eq!(t.record_addr(1) - t.record_addr(0), 100);
    }

    #[test]
    fn append_emits_writes_and_grows() {
        let mut a = Arena::new();
        let mut t = Table::create(&mut a, "t", 100, 4);
        let mut trace = TraceSink::new();
        let id = t.append(&mut trace);
        assert_eq!(id, 0);
        assert_eq!(t.len(), 1);
        assert!(trace.iter().all(|op| op.write));
    }

    #[test]
    fn wide_record_touches_multiple_lines() {
        let mut a = Arena::new();
        let t = Table::create(&mut a, "t", 300, 2);
        let mut trace = TraceSink::new();
        t.touch(0, false, &mut trace);
        assert!(
            trace.len() >= 3,
            "300-byte record spans >= 3 lines: {trace:?}"
        );
    }

    #[test]
    #[should_panic(expected = "full")]
    fn table_overflow_panics() {
        let mut a = Arena::new();
        let mut t = Table::create(&mut a, "t", 8, 1);
        let mut tr = TraceSink::new();
        t.append(&mut tr);
        t.append(&mut tr);
    }

    #[test]
    fn hash_index_round_trip() {
        let mut a = Arena::new();
        let mut idx = HashIndex::create(&mut a, 100);
        let mut trace = TraceSink::new();
        for k in 0..100u64 {
            idx.insert(k * 7, k, &mut trace);
        }
        for k in 0..100u64 {
            assert_eq!(idx.lookup(k * 7, &mut trace), Some(k));
        }
        assert_eq!(idx.lookup(999_999, &mut trace), None);
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn lookups_emit_probe_addresses_in_index_region() {
        let mut a = Arena::new();
        let before = a.used();
        let mut idx = HashIndex::create(&mut a, 16);
        let end = a.used();
        let mut trace = TraceSink::new();
        idx.insert(42, 1, &mut trace);
        trace.clear();
        idx.lookup(42, &mut trace);
        assert!(!trace.is_empty());
        for op in &trace {
            assert!(
                (before..end).contains(&op.addr),
                "probe outside index region"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_insert_panics() {
        let mut a = Arena::new();
        let mut idx = HashIndex::create(&mut a, 4);
        let mut tr = TraceSink::new();
        idx.insert(1, 0, &mut tr);
        idx.insert(1, 1, &mut tr);
    }

    #[test]
    fn collisions_resolved_by_linear_probing() {
        let mut a = Arena::new();
        let mut idx = HashIndex::create(&mut a, 2); // 4 buckets
        let mut tr = TraceSink::new();
        // Insert up to capacity; all must remain retrievable.
        for k in [3u64, 7, 11] {
            idx.insert(k, k * 10, &mut tr);
        }
        for k in [3u64, 7, 11] {
            assert_eq!(idx.lookup(k, &mut tr), Some(k * 10));
        }
    }
}
