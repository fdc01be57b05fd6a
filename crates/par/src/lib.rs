//! The workspace's one fork/join.
//!
//! [`WorkerPool::run`] maps a function over a `Vec` of independent items
//! on up to `threads` threads and returns the results **in item order**,
//! so its output is a pure function of its inputs — independent of
//! thread count, scheduling, or which thread claimed which item. That
//! ordered merge is what lets the experiment harness fan its independent
//! simulations out with output identical to a serial run (DESIGN.md
//! sections 10 and 14). Each simulation is one thread from start to end;
//! the pool only places whole simulations on threads.
//!
//! Each call is one [`std::thread::scope`]: `threads - 1` threads are
//! spawned, the caller claims items beside them through one atomic
//! index, and every item has one slot its result lands in. Nothing
//! persists between calls, so items may borrow (`&mut` included) from
//! the caller's stack. `threads <= 1`, or a single item, runs inline on
//! the caller — literally the serial sequence of calls. A job's panic
//! resumes on the caller with its own payload once every thread has
//! stopped.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A thread budget for [`WorkerPool::run`]: the calling thread plus
/// `threads - 1` scoped threads per call.
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A fork/join applying `threads` total threads, the caller
    /// included; `threads <= 1` runs every batch inline.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool { threads }
    }

    /// Applies `f` to every item, on the caller and up to `threads - 1`
    /// scoped threads, and returns the results **in item order**.
    ///
    /// # Panics
    ///
    /// Resumes the first observed job panic on the calling thread, with
    /// that job's payload, after every thread has stopped.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let spawned = self.threads.min(n).saturating_sub(1);
        if spawned == 0 {
            return items.into_iter().map(f).collect();
        }
        // Each slot carries its input in and its result out; threads
        // claim slots by atomically taking the next index. `Relaxed`
        // suffices: the index publishes nothing, each slot's mutex
        // orders its data, and the scope's join orders the results.
        let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
            .into_iter()
            .map(|item| Mutex::new((Some(item), None)))
            .collect();
        let next = AtomicUsize::new(0);
        let work = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = slots[i].lock().expect("slot unpoisoned").0.take();
            let result = f(item.expect("each item is claimed once"));
            slots[i].lock().expect("slot unpoisoned").1 = Some(result);
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned).map(|_| scope.spawn(work)).collect();
            // A panic here unwinds through the scope, which joins the
            // threads first and then resumes the caller's own payload.
            work();
            // Join explicitly so a thread's panic payload reaches the
            // caller intact instead of the scope's generic message.
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let (_, result) = slot.into_inner().expect("slot unpoisoned");
                result.expect("every claimed item completed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        for threads in [2usize, 3, 4, 7] {
            let out = WorkerPool::new(threads).run((0..257).collect(), |x: u64| x * 2);
            assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let f = |x: u64| {
            x.wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
        };
        assert_eq!(
            WorkerPool::new(1).run(items.clone(), f),
            WorkerPool::new(8).run(items, f)
        );
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = WorkerPool::new(4).run(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = WorkerPool::new(64).run(vec![1u64, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn zero_threads_runs_inline() {
        let caller = std::thread::current().id();
        let on_caller = |x: u64| {
            assert_eq!(std::thread::current().id(), caller);
            x
        };
        assert_eq!(WorkerPool::new(0).run(vec![5, 6], on_caller), vec![5, 6]);
        // A single item never spawns, whatever the budget.
        assert_eq!(WorkerPool::new(4).run(vec![7], on_caller), vec![7]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panic_payload_reaches_the_caller() {
        WorkerPool::new(2).run((0..64u64).collect(), |x| {
            assert!(x != 13, "boom");
            x
        });
    }

    #[test]
    fn items_may_be_exclusive_borrows() {
        // Items may borrow from the caller's stack: each job gets one
        // `&mut` into the caller's state, and every write lands.
        let mut counters = vec![0u64; 9];
        let sums = WorkerPool::new(4).run(counters.iter_mut().enumerate().collect(), |(i, c)| {
            for _ in 0..=i {
                *c += 1;
            }
            *c * 10
        });
        assert_eq!(counters, (1..=9).collect::<Vec<u64>>());
        assert_eq!(sums, (1..=9).map(|c| c * 10).collect::<Vec<u64>>());
    }
}
