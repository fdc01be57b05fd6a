//! A memory-bound `System::step` allocates nothing in steady state.
//!
//! Every paper figure spends its host time in the step loop, and most of
//! a memory-bound step is one ORAM access: the path read into the stash,
//! the greedy write-back, and the fills handed back to the cache fabric.
//! This binary counts heap allocations with its own `#[global_allocator]`
//! and holds the loop to the absolute: once the stash, the write-back
//! scratch and the prefetch ledger have reached their working size,
//! stepping allocates nothing, on the baseline ORAM and under the
//! dynamic scheme alike. A bucket holds every slot's payload inline, so
//! a position-map block moves through the tree, the stash and
//! the PLB as one word and allocates nowhere; a small PLB keeps those
//! moves frequent. The trace is generated before the count starts, so
//! only the simulator is counted.

use proram_cache::CacheConfig;
use proram_core::SchemeConfig;
use proram_sim::{MemoryKind, System, SystemConfig};
use proram_workloads::synthetic::LocalityMix;
use proram_workloads::{TraceOp, Workload};
use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests of one binary share the
    /// allocator, not the thread).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a
// counter in a const-initialised thread-local without a destructor, whose
// access neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `Heap.alloc` above with this `layout`.
        unsafe { Heap.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// 512 KiB touched, half of it at random, behind a 64 KiB LLC: most
/// steps that miss go to a 4096-block ORAM.
const FOOTPRINT: u64 = 512 << 10;
const LOCALITY: f64 = 0.5;
/// Steps before the count starts, in which the stash, the write-back
/// scratch and the prefetch ledger grow to their high-water marks. Under
/// the dynamic scheme the last growth lands between 100,000 and 300,000
/// steps.
const WARM_UP: usize = 500_000;
const MEASURED: usize = 200_000;

/// Allocations of `MEASURED` steps of a warmed one-core system, and how
/// many memory requests those steps made.
fn steady_state(memory: MemoryKind) -> (u64, u64) {
    let mut cfg = SystemConfig::quick_test(memory);
    let l2 = cfg.hierarchy.l2;
    cfg.hierarchy.l2 = CacheConfig::new(64 << 10, l2.ways, l2.line_bytes, l2.hit_latency);
    cfg.oram.plb_blocks = 8;
    let mut workload = LocalityMix::new(FOOTPRINT, LOCALITY, (WARM_UP + MEASURED) as u64, 3);
    let ops: Vec<TraceOp> = std::iter::from_fn(|| workload.next_op()).collect();
    let mut sys = System::build(&cfg, workload.footprint_bytes());
    for &op in &ops[..WARM_UP] {
        sys.step(op);
    }
    let requests_before = sys.memory().stats().demand_accesses;
    let before = ALLOCATIONS.with(Cell::get);
    for &op in &ops[WARM_UP..] {
        sys.step(op);
    }
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    (
        allocated,
        sys.memory().stats().demand_accesses - requests_before,
    )
}

#[test]
fn steady_state_oram_steps_allocate_nothing() {
    let (allocated, requests) = steady_state(MemoryKind::Oram(SchemeConfig::baseline()));
    assert!(requests > 50_000, "memory-bound: {requests} requests");
    assert_eq!(
        allocated, 0,
        "{MEASURED} steps ({requests} requests) allocated"
    );
}

#[test]
fn steady_state_dynamic_scheme_steps_allocate_nothing() {
    let (allocated, requests) = steady_state(MemoryKind::Oram(SchemeConfig::dynamic(2)));
    assert!(requests > 50_000, "memory-bound: {requests} requests");
    assert_eq!(
        allocated, 0,
        "{MEASURED} steps ({requests} requests) allocated"
    );
}
