//! Unified observability for the PrORAM stack.
//!
//! PrORAM's evaluation lives and dies on attribution: which cycles went
//! to position-map walks versus path fetches versus background eviction,
//! and why the prefetcher fired when it did. This crate is the one layer
//! every runtime crate reports into: [`ObsEvent`] covers the stack's
//! state transitions (access retirement with its cycle split, stash
//! watermarks, super-block merges/breaks, statistics-window publications,
//! faults, crash and recovery); [`Obs::ring`] retains the first
//! `capacity` of them in one fixed-size buffer and counts the rest as
//! dropped. A per-stage cycle table is a fold of the retained
//! `access_retired` events, not a second record.
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
//! use proram_obs::{Obs, ObsEvent};
//!
//! let obs = Obs::ring(1024);
//! obs.emit(|| ObsEvent::StashWatermark { peak: 12 });
//!
//! assert_eq!(obs.event_count(), 1);
//! for event in obs.events() {
//!     println!("{}", event.to_json()); // one JSONL line per event
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod sink;

pub use event::{rate_to_ppm, FaultKind, KillPoint, ObsEvent};
pub use sink::Obs;
