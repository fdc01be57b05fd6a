//! Memory subsystem substrate for the PrORAM simulator.
//!
//! This crate defines the contract between the processor side of the
//! simulator (core + caches) and main memory, and provides the insecure
//! baseline: a DRAM timing model equivalent to the Graphite model used in
//! the paper (flat access latency plus a pin-bandwidth-limited data bus,
//! with bank-level overlap).
//!
//! The key abstraction is [`MemoryBackend`]: both the DRAM model here and
//! the ORAM controllers in `proram-oram` / `proram-core` implement it, so
//! the system simulator can swap memory technologies without changing the
//! core or cache models — exactly the comparison the paper's evaluation
//! performs.
//!
//! [`Periodic`] wraps any backend and enforces the paper's timing-channel
//! protection (Sections 2.5 and 5.6): accesses start only on multiples of
//! `O_int`, and idle slots are filled with dummy accesses. `O_int` comes
//! from a public ladder: one rung is the paper's fixed interval, several
//! rungs the adaptive scheme of Section 2.5's \[9\], whose leak
//! [`leaked_bits`] bounds from the run's [`BackendStats`].
//!
//! # Examples
//!
//! ```
//! use proram_mem::{BlockAddr, Dram, DramConfig, MemRequest, MemoryBackend, NoProbe};
//!
//! let mut dram = Dram::new(DramConfig::default());
//! let req = MemRequest::read(BlockAddr(42));
//! let outcome = dram.access(0, req, &NoProbe);
//! assert!(outcome.complete_at >= u64::from(DramConfig::default().latency_cycles));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod dram;
pub mod periodic;
pub mod request;

pub use backend::{
    AccessOutcome, BackendStats, CacheProbe, FaultStats, Fill, Fills, MemoryBackend, NoProbe,
};
pub use dram::{Dram, DramConfig};
pub use periodic::{leaked_bits, Periodic, ADAPTIVE_LADDER};
pub use request::{AccessKind, BlockAddr, Cycle, MemRequest};
