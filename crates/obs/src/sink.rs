//! The event buffer and the shared [`Obs`] handle.
//!
//! Instrumented components hold an [`Obs`] handle and call
//! [`Obs::emit`] with a *closure* that constructs the event. A disabled
//! handle (the default) is a `None` — the closure is never evaluated, no
//! event is built, and the hot path stays byte-identical to the
//! uninstrumented code (asserted by the `hotpath_equivalence` goldens).
//! An enabled handle shares one fixed-capacity ring buffer between every
//! component it was attached to, so one buffer sees the whole stack's
//! events in emission order.

use crate::event::ObsEvent;
use std::cell::RefCell;
use std::rc::Rc;

/// A fixed-capacity event buffer.
///
/// It keeps the *oldest* events and counts the ones that arrive after the
/// buffer is full — the head of a run is usually what attribution wants,
/// and never reallocating keeps the record cost flat. A reader that folds
/// the whole run (the adversary's leaf sequence, the stage table) asserts
/// that nothing was dropped.
#[derive(Debug)]
struct RingSink {
    events: Vec<ObsEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    fn new(capacity: usize) -> Self {
        RingSink {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    fn record(&mut self, event: &ObsEvent) {
        if self.events.len() < self.capacity {
            self.events.push(*event);
        } else {
            self.dropped += 1;
        }
    }
}

/// A cloneable handle to a shared event ring.
///
/// The default handle is *disabled*: [`Obs::emit`] ignores its closure
/// without evaluating it, so components constructed without
/// observability pay nothing. Cloning an enabled handle shares the
/// underlying ring — `System::attach_obs` keeps one handle for its tiles
/// and passes clones down through the memory backend to the scheme layer
/// and the ORAM controller, and their events interleave into a single
/// trace.
///
/// A handle belongs to one thread, as the simulated machine it observes
/// does: the ring is an `Rc<RefCell>`, with no lock on the emit path.
///
/// # Examples
///
/// ```
/// use proram_obs::{Obs, ObsEvent};
///
/// let obs = Obs::ring(16);
/// obs.emit(|| ObsEvent::StashWatermark { peak: 7 });
/// assert_eq!(obs.event_count(), 1);
///
/// let disabled = Obs::disabled();
/// disabled.emit(|| unreachable!("closures are not evaluated when disabled"));
/// assert_eq!(disabled.event_count(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Rc<RefCell<RingSink>>>,
}

impl Obs {
    /// The zero-cost disabled handle (same as `Obs::default()`).
    pub fn disabled() -> Self {
        Obs { inner: None }
    }

    /// An enabled handle retaining the first `capacity` events and
    /// counting the rest as dropped (capacity 0: enabled, every event
    /// built, none retained).
    pub fn ring(capacity: usize) -> Self {
        Obs {
            inner: Some(Rc::new(RefCell::new(RingSink::new(capacity)))),
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
        if let Some(ring) = &self.inner {
            let e = event();
            ring.borrow_mut().record(&e);
        }
    }

    /// A copy of the retained events (empty when disabled).
    pub fn events(&self) -> Vec<ObsEvent> {
        match &self.inner {
            Some(ring) => ring.borrow().events.clone(),
            None => Vec::new(),
        }
    }

    /// Number of retained events.
    pub fn event_count(&self) -> usize {
        match &self.inner {
            Some(ring) => ring.borrow().events.len(),
            None => 0,
        }
    }

    /// Events offered to the sink but not retained.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(ring) => ring.borrow().dropped,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(peak: u64) -> ObsEvent {
        ObsEvent::StashWatermark { peak }
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
}
