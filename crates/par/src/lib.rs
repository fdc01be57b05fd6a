//! Deterministic worker pool for the PrORAM hot paths.
//!
//! A [`WorkerPool`] owns a fixed set of persistent OS threads and exposes
//! one operation: [`WorkerPool::run`], a fork/join over a `Vec` of
//! independent items. Items are claimed atomically (first-come), but the
//! result vector is **always returned in item order**, so the output of a
//! `run` call is a pure function of its inputs — independent of thread
//! count, scheduling, or claim interleaving. That ordered-merge contract
//! is what lets `ShardedOram::access_batch` step whole shard controllers
//! on worker threads while its outcomes stay identical to the serial
//! walk (DESIGN.md sections 12 and 14).
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism.** Worker closures must be pure functions of their
//!    item; the pool never injects time, randomness, or thread identity
//!    into a job. The only nondeterminism is *which* thread runs an item,
//!    which the ordered merge erases.
//! 2. **Low dispatch latency.** Workers spin briefly on a generation
//!    counter before parking on a condvar. A park/unpark costs ~µs; a
//!    spin-observed dispatch costs ~100ns. (A whole fork/join still
//!    measures ~1.8 µs — too much for per-path crypto, which is why the
//!    encrypted store no longer uses the pool.)
//! 3. **`std`-only and `forbid(unsafe_code)`.** Jobs are owned
//!    (`'static`) values published through an `Arc`; there is no lifetime
//!    erasure, no channels, no external crates.
//!
//! The caller of [`WorkerPool::run`] participates in the batch (it claims
//! items like any worker), so a pool built with [`WorkerPool::new`]`(n)`
//! applies `n` total threads: `n - 1` pool workers plus the caller.
//! `n <= 1` spawns nothing and `run` executes inline — byte-identical by
//! construction and the natural spelling of "parallelism off".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Locks a mutex, recovering from poisoning.
///
/// A poisoned pool mutex means some job panicked while holding it; the
/// data under every pool lock is a plain `Option` that is always left in
/// a valid state, so the poison flag carries no information we need.
/// Recovering (instead of unwrapping) keeps a panicked batch from
/// cascading into unrelated batches — the same convention as the obs
/// sink's shared core lock.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A batch failed because one or more jobs panicked. The pool itself
/// survives — the panic is contained to the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoolError {
    /// Number of jobs in the batch that panicked.
    panicked_jobs: usize,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} worker-pool job(s) panicked", self.panicked_jobs)
    }
}

/// Spin iterations a worker burns watching the generation counter before
/// parking. Dispatch under load is spin-observed (no syscall); an idle
/// pool parks within ~10µs.
const SPIN_LIMIT: u32 = 4_096;

/// Park timeout. Parked workers also wake on notify; the timeout only
/// bounds the cost of a lost wakeup race.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// A type-erased batch of claimable jobs. Implemented by the private
/// `BatchState`; workers only ever see this vtable.
trait Batch: Send + Sync {
    /// Claims and runs one item. Returns `false` once the batch is
    /// exhausted (nothing was claimed).
    fn run_one(&self) -> bool;
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// The batch currently being executed, if any. Written by the
    /// dispatching caller, cloned by workers.
    slot: Mutex<Option<Arc<dyn Batch>>>,
    /// Bumped once per dispatched batch; workers watch it to detect new
    /// work without taking the lock.
    generation: AtomicU64,
    /// Set once on drop; workers exit their loop.
    shutdown: AtomicBool,
    /// Wakes parked workers on dispatch and shutdown.
    wake: Condvar,
}

/// The per-batch state: the job closure, claimable items, and slots for
/// results. Claiming is `next.fetch_add`; completion is `done` reaching
/// the item count. Results land in item order regardless of who ran what.
struct BatchState<T, R, F> {
    f: F,
    items: Vec<Mutex<Option<T>>>,
    results: Vec<Mutex<Option<R>>>,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicUsize,
}

impl<T, R, F> Batch for BatchState<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Send + Sync,
{
    fn run_one(&self) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.items.len() {
            return false;
        }
        if let Some(item) = relock(&self.items[i]).take() {
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(r) => *relock(&self.results[i]) = Some(r),
                Err(_) => {
                    self.panicked.fetch_add(1, Ordering::Release);
                }
            }
        }
        // `done` counts claimed-and-finished items; the dispatcher waits
        // for it to reach `items.len()` before reading any result.
        self.done.fetch_add(1, Ordering::Release);
        true
    }
}

/// A fixed-size pool of persistent worker threads with a fork/join
/// [`run`](WorkerPool::run) API and deterministic, item-ordered results.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Builds a pool applying `threads` total threads of parallelism:
    /// `threads - 1` spawned workers plus the calling thread, which
    /// participates in every [`run`](WorkerPool::run). `threads <= 1`
    /// spawns nothing and `run` executes inline.
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(Shared {
            slot: Mutex::new(None),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            wake: Condvar::new(),
        });
        let workers = threads.saturating_sub(1);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("proram-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of spawned worker threads (total parallelism minus the
    /// caller).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Applies `f` to every item, in parallel across the pool plus the
    /// calling thread, and returns the results **in item order**.
    ///
    /// `f` must be a pure function of its item for the pool's determinism
    /// contract to hold; the pool itself adds no other nondeterminism.
    /// With no workers (or fewer than two items) the batch runs inline on
    /// the caller — same results, same order.
    ///
    /// # Panics
    ///
    /// Panics on the calling thread if any job panicked; the pool itself
    /// survives and runs the next batch.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        match self.try_run(items, f) {
            Ok(out) => out,
            Err(e) => panic!("a worker-pool job panicked ({e})"),
        }
    }

    /// [`run`](WorkerPool::run) with a job panic as an `Err`: the panic is
    /// contained to its batch — the pool's workers and locks survive
    /// (poisoned mutexes are recovered via [`PoisonError::into_inner`]).
    fn try_run<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, PoolError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        if self.handles.is_empty() || items.len() < 2 {
            // Inline path: catch per-item so a panic surfaces the same
            // way (as Err) at every thread count.
            let mut out = Vec::with_capacity(items.len());
            let mut panicked = 0usize;
            for item in items {
                match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => out.push(r),
                    Err(_) => panicked += 1,
                }
            }
            return if panicked == 0 {
                Ok(out)
            } else {
                Err(PoolError {
                    panicked_jobs: panicked,
                })
            };
        }
        let n = items.len();
        let batch = Arc::new(BatchState {
            f,
            items: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect::<Vec<_>>(),
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicUsize::new(0),
        });
        {
            let mut slot = relock(&self.shared.slot);
            *slot = Some(Arc::clone(&batch) as Arc<dyn Batch>);
            // The generation bump is what workers watch; the slot write
            // above happens-before it from their perspective because they
            // re-take the slot lock after observing the bump.
            self.shared.generation.fetch_add(1, Ordering::Release);
        }
        self.shared.wake.notify_all();
        // The caller helps: claim items until the batch is exhausted.
        while batch.run_one() {}
        // Wait for claimed-but-unfinished items on worker threads. The
        // tail is at most (workers) jobs long, so spin.
        while batch.done.load(Ordering::Acquire) < n {
            std::hint::spin_loop();
        }
        *relock(&self.shared.slot) = None;
        let panicked = batch.panicked.load(Ordering::Acquire);
        if panicked > 0 {
            return Err(PoolError {
                panicked_jobs: panicked,
            });
        }
        Ok(batch
            .results
            .iter()
            .map(|m| relock(m).take().expect("job result"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The worker body: watch the generation counter, run any published
/// batch to exhaustion, spin briefly between batches, park when idle.
fn worker_loop(shared: &Shared) {
    let mut last_seen = 0u64;
    let mut spins = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let gen = shared.generation.load(Ordering::Acquire);
        if gen != last_seen {
            last_seen = gen;
            spins = 0;
            let batch = relock(&shared.slot).clone();
            if let Some(batch) = batch {
                while batch.run_one() {}
            }
            continue;
        }
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
            continue;
        }
        // Exhausted the spin budget: park until dispatch or shutdown.
        spins = 0;
        let guard = relock(&shared.slot);
        if shared.shutdown.load(Ordering::Acquire)
            || shared.generation.load(Ordering::Acquire) != last_seen
        {
            continue;
        }
        let _ = shared.wake.wait_timeout(guard, PARK_TIMEOUT);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn inline_pool_runs_on_caller() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 0);
        let out = pool.run(vec![1u64, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn results_are_in_item_order_at_any_thread_count() {
        for threads in [1usize, 2, 3, 4, 7] {
            let pool = WorkerPool::new(threads);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.run(items, |x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let expect: Vec<u64> = (0..257u64)
                .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn repeated_batches_reuse_the_same_workers() {
        let pool = WorkerPool::new(4);
        for round in 0..100u64 {
            let out = pool.run(vec![round, round + 1], |x| x + 1);
            assert_eq!(out, vec![round + 1, round + 2]);
        }
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn single_item_batches_run_inline() {
        let pool = WorkerPool::new(4);
        let out = pool.run(vec![41u32], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Arc<Vec<AtomicU32>> = Arc::new((0..512).map(|_| AtomicU32::new(0)).collect());
        let h = Arc::clone(&hits);
        let out = pool.run((0..512usize).collect(), move |i| {
            h[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..512).collect::<Vec<_>>());
        for (i, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..64u32).collect(), |x| {
                assert!(x != 13, "boom");
                x
            })
        }));
        assert!(result.is_err());
        // The pool survives a panicked batch and runs the next one.
        let out = pool.run(vec![1u32, 2], |x| x);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn try_run_surfaces_panics_as_err_and_pool_survives() {
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads);
            let res = pool.try_run((0..64u32).collect(), |x| {
                assert!(x != 13, "boom");
                x
            });
            let err = res.expect_err("job 13 panicked");
            assert!(err.panicked_jobs >= 1, "threads={threads}");
            // Graceful degradation: the same pool still runs clean
            // batches — no abort, no poisoned-lock cascade.
            let out = pool
                .try_run((0..64u32).collect(), |x| x * 2)
                .expect("clean batch after a panicked one");
            assert_eq!(out, (0..64u32).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_run_counts_every_panicked_job() {
        let pool = WorkerPool::new(4);
        let err = pool
            .try_run((0..16u32).collect(), |x| {
                assert!(x % 2 == 0, "odd jobs explode");
                x
            })
            .expect_err("half the jobs panicked");
        assert_eq!(err.panicked_jobs, 8);
        assert!(err.to_string().contains("8"));
    }

    #[test]
    fn try_run_matches_run_on_clean_batches() {
        let pool = WorkerPool::new(3);
        let a = pool.try_run((0..100u64).collect(), |x| x * 3).unwrap();
        let b = pool.run((0..100u64).collect(), |x| x * 3);
        assert_eq!(a, b);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(8);
        pool.run((0..32u64).collect(), |x| x);
        drop(pool); // must not hang
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        // A `ShardedOram` carries its pool across experiment threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WorkerPool>();
    }
}
