//! The commit protocol and the opaque access path allocate nothing in
//! steady state.
//!
//! Sealing a checkpoint record writes into one arena the store reuses,
//! and an undo entry is an offset into another. This binary counts heap
//! allocations with its own `#[global_allocator]`: once the buffers have
//! reached their working size, the same stream costs the armed controller
//! exactly as many allocations as the disarmed one: the journal and the
//! seals add zero. The opaque controller (every paper figure) is held to
//! the absolute: a bucket is a fixed inline record, so once every bucket
//! that position-map blocks pass through has its payload side array, an
//! access allocates nothing at all.

mod common;

use proram_mem::{AccessKind, BlockAddr};
use proram_oram::{CrashConfig, KillPoint, OramConfig, PathOram};
use proram_stats::{Rng64, Xoshiro256};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests of one binary share the
    /// allocator, not the thread).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a counter in a
// const-initialised thread-local without a destructor, whose access
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCKS: u64 = 1 << 12;
const WARM_UP: usize = 2_000;
const MEASURED: usize = 1_000;

/// Allocations of `MEASURED` steady-state accesses (write / read
/// alternating, uniform addresses).
fn steady_state(crash: Option<CrashConfig>) -> u64 {
    let cfg = OramConfig {
        crash,
        ..OramConfig::small_for_tests(BLOCKS)
    };
    let mut oram = PathOram::new(cfg, 11);
    let mut rng = Xoshiro256::seed_from(5);
    let mut next = || rng.next_below(BLOCKS);
    common::drive_durable(&mut oram, WARM_UP, &mut next, |_| {});
    let before = ALLOCATIONS.with(Cell::get);
    common::drive_durable(&mut oram, MEASURED, &mut next, |_| {});
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn steady_state_commits_allocate_nothing() {
    let disarmed = steady_state(None);
    let armed = steady_state(Some(CrashConfig::at(KillPoint::MidFlip, u64::MAX)));
    assert!(disarmed > 0, "the counter counts: an access does allocate");
    assert_eq!(
        armed, disarmed,
        "journaling and sealing {MEASURED} commits (15 Full records among them) allocated"
    );
}

#[test]
fn steady_state_opaque_accesses_allocate_nothing() {
    let cfg = OramConfig {
        store_payloads: false,
        ..OramConfig::small_for_tests(BLOCKS)
    };
    let mut oram = PathOram::new(cfg, 11);
    let mut rng = Xoshiro256::seed_from(5);
    let mut drive = |oram: &mut PathOram, accesses: usize| {
        for _ in 0..accesses {
            oram.try_access_block(BlockAddr(rng.next_below(BLOCKS)), AccessKind::Read)
                .expect("no faults injected");
        }
    };
    // A bucket allocates once in its life, when the first position-map
    // block lands in it: warm up until the buckets those blocks reach
    // have all done so (the last one does before access 30 000).
    drive(&mut oram, 30 * WARM_UP);
    let before = ALLOCATIONS.with(Cell::get);
    drive(&mut oram, MEASURED);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(allocated, 0, "{MEASURED} opaque accesses allocated");
}
