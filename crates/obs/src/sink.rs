//! Event sinks and the shared [`Obs`] handle.
//!
//! Instrumented components hold an [`Obs`] handle and call
//! [`Obs::emit`] with a *closure* that constructs the event. A disabled
//! handle (the default) is a `None` — the closure is never evaluated, no
//! event is built, and the hot path stays byte-identical to the
//! uninstrumented code (asserted by the `hotpath_equivalence` goldens).
//! An enabled handle shares one [`ObsSink`] plus a
//! [`StageProfile`](crate::StageProfile) between every component it was
//! attached to, so one ring buffer sees the whole stack's events in
//! emission order.

use crate::event::{ObsEvent, StageKind};
use crate::profile::StageProfile;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Receives events from instrumented components.
///
/// Implementations decide retention: [`NoopSink`] drops everything,
/// [`RingSink`] keeps a bounded buffer. The default accessor methods
/// return "nothing retained", so sinks that only aggregate need not
/// implement them.
pub trait ObsSink: fmt::Debug {
    /// Records one event. Called once per emitted event, in emission
    /// order.
    fn record(&mut self, event: &ObsEvent);

    /// The retained events, oldest first (empty if the sink retains
    /// nothing).
    fn events(&self) -> &[ObsEvent] {
        &[]
    }

    /// Events offered but not retained (capacity pressure).
    fn dropped(&self) -> u64 {
        0
    }
}

/// A sink that discards every event.
///
/// This is what an enabled-but-unconfigured [`Obs`] would use; it exists
/// mostly so overhead experiments can separate "handle enabled" from
/// "events retained".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl ObsSink for NoopSink {
    fn record(&mut self, _event: &ObsEvent) {}
}

/// A fixed-capacity event buffer.
///
/// Like the adversary trace recorder, it keeps the *oldest* events and
/// counts the ones that arrive after the buffer is full — the head of a
/// run is usually what attribution wants, and never reallocating keeps
/// the record cost flat.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    events: Vec<ObsEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A sink retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingSink {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl ObsSink for RingSink {
    fn record(&mut self, event: &ObsEvent) {
        if self.events.len() < self.capacity {
            self.events.push(*event);
        } else {
            self.dropped += 1;
        }
    }

    fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[derive(Debug)]
struct ObsCore {
    sink: Box<dyn ObsSink + Send>,
    profile: StageProfile,
}

/// A cloneable handle to a shared observability core (sink + profile).
///
/// The default handle is *disabled*: [`Obs::emit`] ignores its closure
/// without evaluating it and [`Obs::profile`] is a no-op, so components
/// constructed without observability pay nothing. Cloning an enabled
/// handle shares the underlying sink — attach one handle to the
/// controller, scheduler and engine and they interleave into a single
/// trace.
///
/// Handles are `Send + Sync` (the core sits behind a `Mutex`), so a
/// controller holding one can be stepped on a `proram-par` worker thread.
/// The mutex is uncontended in practice — each shard owns its own `Obs`
/// — so the cost over the old `RefCell` is one uncontended lock per
/// emission.
///
/// # Examples
///
/// ```
/// use proram_obs::{Obs, ObsEvent};
///
/// let obs = Obs::ring(16);
/// obs.emit(|| ObsEvent::AccessIssued { addr: 7, write: false });
/// assert_eq!(obs.event_count(), 1);
///
/// let disabled = Obs::disabled();
/// disabled.emit(|| unreachable!("closures are not evaluated when disabled"));
/// assert_eq!(disabled.event_count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<ObsCore>>>,
}

/// Locks an obs core, ignoring poisoning: a panicked emitter leaves
/// counters in a sane (if partial) state, and observability must not turn
/// one panic into a cascade.
fn lock(core: &Mutex<ObsCore>) -> MutexGuard<'_, ObsCore> {
    core.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Obs {
    /// The zero-cost disabled handle (same as `Obs::default()`).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle over a [`RingSink`] of the given capacity.
    pub fn ring(capacity: usize) -> Self {
        Obs::with_sink(Box::new(RingSink::new(capacity)))
    }

    /// An enabled handle over an arbitrary sink.
    pub fn with_sink(sink: Box<dyn ObsSink + Send>) -> Self {
        Obs {
            inner: Some(Arc::new(Mutex::new(ObsCore {
                sink,
                profile: StageProfile::default(),
            }))),
        }
    }

    /// `true` when events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits the event built by `event` — or, when disabled, does nothing
    /// *without evaluating the closure*.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> ObsEvent) {
        if let Some(core) = &self.inner {
            let e = event();
            lock(core).sink.record(&e);
        }
    }

    /// Attributes `cycles` (simulated, not wall clock) to `stage` in the
    /// shared [`StageProfile`].
    #[inline]
    pub fn profile(&self, stage: StageKind, cycles: u64) {
        if let Some(core) = &self.inner {
            lock(core).profile.record(stage, cycles);
        }
    }

    /// Records the events and `(stage, cycles)` profile lanes built by
    /// `build`, in order, under one lock acquisition — how a retiring
    /// access reports itself. Like [`Obs::emit`], a disabled handle never
    /// evaluates the closure.
    #[inline]
    pub fn emit_profiled<const E: usize, const L: usize>(
        &self,
        build: impl FnOnce() -> ([ObsEvent; E], [(StageKind, u64); L]),
    ) {
        if let Some(core) = &self.inner {
            let (events, lanes) = build();
            let mut core = lock(core);
            for e in &events {
                core.sink.record(e);
            }
            for (stage, cycles) in lanes {
                core.profile.record(stage, cycles);
            }
        }
    }

    /// Opens a scoped cycle timer over simulated time; close it with
    /// [`CycleScope::finish`] to attribute the elapsed cycles to `stage`.
    pub fn scope(&self, stage: StageKind, start: u64) -> CycleScope {
        CycleScope {
            obs: self.clone(),
            stage,
            start,
        }
    }

    /// A copy of the retained events (empty when disabled or when the
    /// sink retains nothing).
    pub fn events(&self) -> Vec<ObsEvent> {
        match &self.inner {
            Some(core) => lock(core).sink.events().to_vec(),
            None => Vec::new(),
        }
    }

    /// Number of retained events.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            Some(core) => lock(core).sink.events().len(),
            None => 0,
        }
    }

    /// Events offered to the sink but not retained.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(core) => lock(core).sink.dropped(),
            None => 0,
        }
    }

    /// A copy of the accumulated per-stage profile.
    pub fn profile_snapshot(&self) -> StageProfile {
        match &self.inner {
            Some(core) => lock(core).profile.clone(),
            None => StageProfile::default(),
        }
    }
}

/// An open per-stage cycle span (see [`Obs::scope`]).
///
/// Simulated time has no ambient clock, so the scope is closed explicitly
/// with the end cycle rather than on drop; a scope that is never finished
/// records nothing.
#[derive(Debug)]
#[must_use = "finish the scope with the end cycle to record it"]
pub struct CycleScope {
    obs: Obs,
    stage: StageKind,
    start: u64,
}

impl CycleScope {
    /// Closes the span at `end`, attributing `end - start` cycles (0 if
    /// time did not advance).
    pub fn finish(self, end: u64) {
        self.obs.profile(self.stage, end.saturating_sub(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u64) -> ObsEvent {
        ObsEvent::AccessIssued { addr, write: false }
    }

    #[test]
    fn disabled_handle_never_evaluates_the_closure() {
        let obs = Obs::disabled();
        let mut evaluated = false;
        obs.emit(|| {
            evaluated = true;
            ev(0)
        });
        assert!(!evaluated);
        assert!(!obs.is_enabled());
        assert_eq!(obs.event_count(), 0);
        assert_eq!(obs.dropped(), 0);
        assert!(obs.events().is_empty());
    }

    #[test]
    fn ring_sink_bounds_retention_and_counts_drops() {
        let obs = Obs::ring(3);
        for a in 0..10 {
            obs.emit(|| ev(a));
        }
        assert_eq!(obs.event_count(), 3);
        assert_eq!(obs.dropped(), 7);
        let kept: Vec<_> = obs.events();
        assert_eq!(kept, vec![ev(0), ev(1), ev(2)], "oldest events retained");
    }

    #[test]
    fn clones_share_one_sink() {
        let a = Obs::ring(8);
        let b = a.clone();
        a.emit(|| ev(1));
        b.emit(|| ev(2));
        assert_eq!(a.event_count(), 2);
        assert_eq!(b.event_count(), 2);
    }

    #[test]
    fn scope_attributes_elapsed_cycles() {
        let obs = Obs::ring(1);
        let scope = obs.scope(StageKind::Demand, 100);
        scope.finish(175);
        let p = obs.profile_snapshot();
        assert_eq!(p.cycles(StageKind::Demand), 75);
        assert_eq!(p.entries(StageKind::Demand), 1);
        // Time moving backwards clamps to zero rather than wrapping.
        obs.scope(StageKind::Demand, 50).finish(10);
        assert_eq!(obs.profile_snapshot().cycles(StageKind::Demand), 75);
    }

    #[test]
    fn emit_profiled_records_events_and_lanes_together() {
        let obs = Obs::ring(8);
        obs.emit_profiled(|| {
            (
                [ev(1), ev(2)],
                [(StageKind::Evict, 0), (StageKind::Backoff, 9)],
            )
        });
        assert_eq!(obs.events(), vec![ev(1), ev(2)]);
        let p = obs.profile_snapshot();
        assert_eq!(p.entries(StageKind::Evict), 1);
        assert_eq!(p.cycles(StageKind::Backoff), 9);
        Obs::disabled().emit_profiled::<1, 1>(|| unreachable!("not evaluated when disabled"));
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        // A shared handle actually works across a thread boundary.
        let obs = Obs::ring(8);
        let clone = obs.clone();
        std::thread::spawn(move || clone.emit(|| ev(1)))
            .join()
            .unwrap();
        obs.emit(|| ev(2));
        assert_eq!(obs.event_count(), 2);
    }

    #[test]
    fn noop_sink_retains_nothing() {
        let obs = Obs::with_sink(Box::new(NoopSink));
        for a in 0..5 {
            obs.emit(|| ev(a));
        }
        assert!(obs.is_enabled());
        assert_eq!(obs.event_count(), 0);
        assert_eq!(obs.dropped(), 0);
    }
}
