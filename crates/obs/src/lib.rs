//! Unified observability for the PrORAM stack.
//!
//! PrORAM's evaluation lives and dies on attribution: which cycles went
//! to position-map walks versus path fetches versus background eviction,
//! and why the prefetcher fired when it did. This crate is the one layer
//! every runtime crate reports into:
//!
//! 1. **Typed event tracing** — [`ObsEvent`] covers the stack's state
//!    transitions (access retirement, stash watermarks,
//!    super-block merges/breaks, prefetch-window decisions,
//!    fault/recovery); [`Obs::ring`] retains the first `capacity` of
//!    them in one fixed-size buffer and counts the rest as dropped.
//! 2. **Profiling hooks** — [`StageProfile`] accumulates simulated
//!    cycles per [`StageKind`], fed by [`Obs::profile`].
//!
//! The [`Obs`] handle ties it together: a disabled handle (the default
//! everywhere) is a `None` whose [`Obs::emit`] never evaluates its
//! closure, so uninstrumented runs are behavior- and byte-identical to
//! the pre-observability code — the `hotpath_equivalence` goldens assert
//! exactly that.
//!
//! # Examples
//!
//! ```
//! use proram_obs::{Obs, ObsEvent, StageKind};
//!
//! let obs = Obs::ring(1024);
//! obs.emit(|| ObsEvent::AccessIssued { addr: 42, write: false });
//! obs.profile(StageKind::PathFetch, 1_640 - 1_000);
//!
//! assert_eq!(obs.event_count(), 1);
//! assert_eq!(obs.profile_snapshot().cycles(StageKind::PathFetch), 640);
//! for event in obs.events() {
//!     println!("{}", event.to_json()); // one JSONL line per event
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod profile;
mod sink;

pub use event::{rate_to_ppm, FaultKind, KillPoint, ObsEvent, StageKind};
pub use profile::StageProfile;
pub use sink::Obs;
