//! Path ORAM for the PrORAM reproduction.
//!
//! Implements the paper's baseline memory system (Sections 2.2-2.4):
//!
//! * the **binary-tree storage** with `Z`-slot buckets ([`tree`]),
//! * the **stash** and greedy path write-back ([`stash`], [`eviction`]),
//! * the **recursive/unified position map**: position-map blocks live in
//!   the same tree as data blocks and are cached on-chip in a position-map
//!   lookaside buffer ([`posmap`], [`plb`]), following Unified/Freecursive
//!   ORAM which the paper uses as its baseline,
//! * **background eviction** for small `Z` (Section 2.4),
//! * a **probabilistic encryption** layer and byte-level DRAM image
//!   ([`crypto`], [`storage`]), with rollback-detecting authentication,
//! * a seeded **fault injector** and typed error taxonomy for exercising
//!   the detection/recovery machinery ([`fault`], [`error`]),
//! * the **adversary-observable physical trace**: every path fetch emits
//!   one `path_access` event into the attached `proram_obs::Obs` ring,
//!   which the obliviousness test-suite reads,
//! * a first-principles **timing model** (path bytes / pin bandwidth,
//!   [`timing`]),
//! * the **access report** ([`pipeline`]): the one place an access
//!   retires, with per-stage cycle attribution at one price per path,
//! * a **Shi-et-al.-style tree ORAM** ([`shi`]) for the Section 6.1
//!   claim: [`ShiOram`] is a [`PathOram`] plus that scheme's incremental
//!   eviction step and its traffic in the path price.
//!
//! The high-level entry point is [`PathOram`]. The super-block machinery
//! of the paper itself lives in the `proram-core` crate, built on the
//! primitives exposed here ([`OramBackend`]); its `SuperBlockOram` at the
//! baseline scheme is the `oram` memory backend of the system simulator.
//!
//! # Examples
//!
//! ```
//! use proram_oram::prelude::*;
//!
//! let cfg = OramConfig::small_for_tests(1 << 10);
//! let mut oram = PathOram::new(cfg, 7);
//! let report = oram
//!     .try_access_block(proram_mem::BlockAddr(42), proram_mem::AccessKind::Read)
//!     .expect("no faults injected");
//! assert!(report.tree_accesses >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod backend_trait;
pub mod block;
pub mod bucket;
pub mod config;
pub mod controller;
pub mod crash;
pub mod crypto;
pub mod error;
pub mod eviction;
pub mod fault;
mod journal;
pub mod layout;
pub mod pipeline;
pub mod plb;
pub mod posmap;
pub mod shi;
pub mod stash;
pub mod storage;
pub mod timing;
pub mod tree;

pub use addr::{AddressSpace, Leaf};
pub use backend_trait::OramBackend;
pub use block::{Block, Payload, PayloadRef};
pub use bucket::{BlockRef, Bucket};
pub use config::{ConfigError, OramConfig, OramConfigBuilder};
pub use controller::{OramStats, PathKind, PathOram};
pub use crash::{CrashConfig, CrashStats, KillPoint, RecoveryMode, RecoveryReport};
pub use crypto::{Mac, StreamCipher};
pub use error::OramError;
pub use eviction::PathScratch;
pub use fault::{FaultClass, FaultConfig, FaultyStore};
pub use layout::StoreLayout;
pub use pipeline::AccessReport;
pub use plb::Plb;
pub use posmap::PosEntry;
pub use shi::ShiOram;
pub use stash::Stash;
pub use storage::EncryptedStore;
pub use timing::OramTiming;
pub use tree::OramTree;

/// The canonical public surface in one import.
///
/// Downstream crates should `use proram_oram::prelude::*` instead of
/// deep-importing module paths: it re-exports the controller, its
/// configuration (builder and typed error included), the Result-based
/// access API's types and the observability handle.
pub mod prelude {
    pub use crate::backend_trait::OramBackend;
    pub use crate::config::{ConfigError, OramConfig, OramConfigBuilder};
    pub use crate::controller::PathOram;
    pub use crate::crash::{CrashConfig, CrashStats, KillPoint, RecoveryMode, RecoveryReport};
    pub use crate::error::OramError;
    pub use crate::pipeline::AccessReport;
    pub use proram_obs::{Obs, ObsEvent};
}
