//! A workload whose generator runs a chunk ahead on its own thread.
//!
//! The simulator spends a cache-bound op in two serial stages: the trace
//! generator and `System::step`. [`Pipelined`] moves the generator onto
//! one producer thread that fills fixed-size chunks of [`TraceOp`]s and
//! hands them over a bounded channel, so generation overlaps the step
//! and `next_op` is a slice read. The stream is the generator's, op for
//! op; only the thread that computes it changes.
//!
//! [`DEPTH`] buffers of [`CHUNK`] ops circulate between the two sides
//! (one being read, the rest filled or queued) and are recycled through
//! a second channel, so neither side allocates per chunk. Both sides
//! wait only in blocking channel calls, so one CPU still makes progress.

use crate::trace::{TraceOp, Workload};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// Ops per chunk: 2048 × 16 B = 32 KiB.
pub(crate) const CHUNK: usize = 2048;
/// Chunks in circulation, the one being read included.
const DEPTH: usize = 3;

/// The consumer's ends of the two channels.
struct Link {
    /// Filled chunks, in trace order. The producer returns after the
    /// first chunk shorter than [`CHUNK`].
    full: Receiver<Vec<TraceOp>>,
    /// Read chunks going back to the producer for refilling.
    empty: SyncSender<Vec<TraceOp>>,
}

/// A generator moved onto a producer thread; see the module docs.
///
/// Dropping it disconnects the channels and joins the producer. A panic
/// of the generator resumes on the caller of [`Workload::next_op`] with
/// its own payload.
pub(crate) struct Pipelined {
    name: String,
    footprint: u64,
    chunk: Vec<TraceOp>,
    pos: usize,
    link: Option<Link>,
    producer: Option<JoinHandle<()>>,
}

impl Pipelined {
    /// Starts `generator` on its producer thread.
    ///
    /// # Panics
    ///
    /// Panics if the thread cannot be spawned.
    pub(crate) fn new(mut generator: Box<dyn Workload + Send>) -> Self {
        let name = generator.name().to_owned();
        let footprint = generator.footprint_bytes();
        let (full_tx, full) = sync_channel(DEPTH);
        let (empty, empty_rx) = sync_channel::<Vec<TraceOp>>(DEPTH);
        for _ in 1..DEPTH {
            empty
                .send(Vec::with_capacity(CHUNK))
                .expect("the receiver is alive");
        }
        let producer = std::thread::Builder::new()
            .name(format!("trace:{name}"))
            .spawn(move || {
                // A send or receive fails only once the consumer is gone.
                while let Ok(mut buf) = empty_rx.recv() {
                    buf.clear();
                    // Ship the ops made before a panic, then re-raise it:
                    // the consumer panics at the op the generator did.
                    let filled = catch_unwind(AssertUnwindSafe(|| {
                        buf.extend(std::iter::from_fn(|| generator.next_op()).take(CHUNK));
                    }));
                    let last = buf.len() < CHUNK;
                    let sent = full_tx.send(buf);
                    if let Err(payload) = filled {
                        resume_unwind(payload);
                    }
                    if sent.is_err() || last {
                        return;
                    }
                }
            })
            .expect("spawn the trace producer");
        Pipelined {
            name,
            footprint,
            chunk: Vec::with_capacity(CHUNK),
            pos: 0,
            link: Some(Link { full, empty }),
            producer: Some(producer),
        }
    }

    /// Returns the read chunk to the producer and takes the next one;
    /// `None` once the producer has sent its last chunk and returned.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Option<TraceOp> {
        let link = self.link.as_ref().expect("linked until dropped");
        let read = std::mem::take(&mut self.chunk);
        // Fails once the producer has left; the chunk is not needed then.
        let _ = link.empty.send(read);
        match link.full.recv() {
            Ok(chunk) => {
                self.chunk = chunk;
                self.pos = 0;
                self.next_op()
            }
            Err(_) => {
                if let Some(Err(payload)) = self.producer.take().map(JoinHandle::join) {
                    resume_unwind(payload);
                }
                None
            }
        }
    }
}

impl Workload for Pipelined {
    fn name(&self) -> &str {
        &self.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    #[inline]
    fn next_op(&mut self) -> Option<TraceOp> {
        match self.chunk.get(self.pos) {
            Some(&op) => {
                self.pos += 1;
                Some(op)
            }
            None => self.refill(),
        }
    }
}

impl Drop for Pipelined {
    fn drop(&mut self) {
        // Disconnect first: a producer blocked on either channel wakes,
        // sees the error and returns.
        self.link = None;
        if let Some(producer) = self.producer.take() {
            // A generator panic nobody read stays unread.
            let _ = producer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{self, Scale, Suite};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn drain(w: &mut dyn Workload) -> Vec<TraceOp> {
        std::iter::from_fn(|| w.next_op()).collect()
    }

    #[test]
    fn the_pipelined_stream_is_the_inline_generator_op_for_op() {
        for ops in [0, 1, CHUNK - 1, CHUNK, 2 * CHUNK + 7] {
            let scale = Scale {
                ops: ops as u64,
                warmup_ops: 0,
                footprint_scale: 0.03,
                seed: 11,
            };
            for kind in [Suite::Splash2, Suite::Spec06, Suite::Dbms] {
                for spec in suite::specs(kind) {
                    let mut inline = suite::generator(spec, scale);
                    let mut piped = suite::build(spec, scale);
                    assert_eq!(piped.name(), inline.name());
                    assert_eq!(piped.footprint_bytes(), inline.footprint_bytes());
                    let want = drain(inline.as_mut());
                    assert_eq!(want.len(), ops, "{} inline length", spec.name);
                    assert_eq!(drain(piped.as_mut()), want, "{} at {ops} ops", spec.name);
                    assert_eq!(piped.next_op(), None, "{} stays ended", spec.name);
                }
            }
        }
    }

    /// An endless trace that raises `dropped` when it is dropped and
    /// panics at op `panic_at`.
    struct Probe {
        served: u64,
        panic_at: u64,
        dropped: Arc<AtomicBool>,
    }

    impl Workload for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn footprint_bytes(&self) -> u64 {
            1 << 20
        }
        fn next_op(&mut self) -> Option<TraceOp> {
            assert!(
                self.served != self.panic_at,
                "probe panics at op {}",
                self.served
            );
            self.served += 1;
            Some(TraceOp::read(1, self.served * 64))
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.dropped.store(true, Ordering::SeqCst);
        }
    }

    fn probe(panic_at: u64) -> (Pipelined, Arc<AtomicBool>) {
        let dropped = Arc::new(AtomicBool::new(false));
        let w = Pipelined::new(Box::new(Probe {
            served: 0,
            panic_at,
            dropped: Arc::clone(&dropped),
        }));
        (w, dropped)
    }

    #[test]
    fn dropping_an_unfinished_trace_joins_its_producer() {
        let (mut w, dropped) = probe(u64::MAX);
        for i in 1..=3 {
            assert_eq!(w.next_op(), Some(TraceOp::read(1, i * 64)));
        }
        drop(w);
        // The generator lives on the producer thread and is dropped when
        // that thread returns; drop has joined it.
        assert!(
            dropped.load(Ordering::SeqCst),
            "the producer outlived its workload"
        );
    }

    #[test]
    fn a_generator_panic_resumes_on_the_consumer_with_its_payload() {
        let k = CHUNK as u64 + 5;
        let (mut w, dropped) = probe(k);
        for _ in 0..k {
            assert!(w.next_op().is_some());
        }
        let payload = catch_unwind(AssertUnwindSafe(|| w.next_op())).expect_err("op k panics");
        let msg = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(msg, &format!("probe panics at op {k}"));
        assert!(dropped.load(Ordering::SeqCst), "the generator unwound");
    }
}
