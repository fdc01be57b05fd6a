//! The Path ORAM controller, one module per step of an access.
//!
//! Implements the five-step access of paper Section 2.2 on top of the
//! unified recursive position map of Section 2.3 and background eviction
//! of Section 2.4. Each step of an access is a primitive in its own child
//! module:
//!
//! * `posmap` — position-map resolve and remap (PLB, top table),
//! * `fetch` — path fetch: open the path's image (authenticate, decrypt,
//!   decode), stash fill, block claim, fail-stop,
//! * `writeback` — path write-back and seal, background eviction, the
//!   on-demand image scrub,
//! * `durable` — the crash-consistent commit protocol's controller half:
//!   transaction begin / commit, checkpoint seals, kill-point gates and
//!   recovery (DESIGN.md section 15).
//!
//! Where each piece of state lives — and that, with a store, the
//! encrypted image is the only copy of every bucket below the treetop —
//! is DESIGN.md section 16.
//!
//! [`PathOram::try_access_block`] calls them in order; the super-block
//! schemes in `proram-core` compose the same primitives
//! ([`PathOram::try_resolve_posmap`],
//! [`PathOram::try_read_path_into_stash`],
//! [`PathOram::write_path_from_stash`],
//! [`PathOram::try_drain_background`], entry accessors) into grouped
//! accesses. Everything an access does besides moving blocks — crossing
//! the crash kill points — lives inside the primitives, and both callers
//! retire through [`AccessReport::retire`], so the two are the same
//! access.
//!
//! # Fault handling
//!
//! Every fallible primitive returns [`Result<_, OramError>`] — the
//! `try_` forms ([`PathOram::try_access_block`],
//! [`PathOram::try_read_block`], [`PathOram::try_write_block`]) are the
//! only access API. A bucket that fails its MAC, carries a stale version
//! or exhausts its transient retry budget has no second copy to be
//! repaired from: the access returns the typed error and the controller
//! **fail-stops** — it latches the error and every later access returns
//! it, so no payload ever comes from a bucket that did not authenticate.
//! What leaves the medium intact is survived: transient read failures
//! retry within their budget with backoff charged to access latency.
//! Counters: [`proram_mem::FaultStats`] via [`PathOram::fault_stats`].

pub(crate) mod durable;
pub(crate) mod fetch;
pub(crate) mod posmap;
pub(crate) mod writeback;

use crate::addr::{AddressSpace, Leaf};
use crate::block::{Block, Payload, PayloadRef};
use crate::bucket::{BlockRef, Bucket};
use crate::config::OramConfig;
use crate::crash::RecoveryReport;
use crate::error::OramError;
use crate::eviction::PathScratch;
use crate::journal::RecordShape;
use crate::layout::StoreLayout;
use crate::pipeline::AccessReport;
use crate::plb::Plb;
use crate::posmap::PosEntry;
use crate::stash::Stash;
use crate::storage::EncryptedStore;
use crate::tree::OramTree;
use durable::Durable;
use proram_mem::{AccessKind, BlockAddr, FaultStats};
use proram_obs::Obs;
use proram_stats::{Rng64, Xoshiro256};
use std::collections::HashMap;

/// Bound on background evictions after one access. A dense tree with a
/// tiny stash target can enter a persistent eviction storm (the regime of
/// the paper's Figure 12 at stash size 25); the controller then keeps
/// serving requests while evicting at this rate instead of livelocking.
pub(crate) const MAX_BACKGROUND_EVICTIONS_PER_ACCESS: u64 = 64;

/// A minimal FNV-1a accumulator for [`PathOram::state_digest`] —
/// deterministic across platforms, unlike the std hasher.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Statistics kept by the controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Logical block requests served.
    pub logical_accesses: u64,
    /// Path accesses for data blocks.
    pub data_path_accesses: u64,
    /// Path accesses for position-map blocks.
    pub posmap_path_accesses: u64,
    /// Background-eviction (dummy) path accesses.
    pub background_evictions: u64,
    /// Bytes moved on the memory bus (all path accesses).
    pub bytes_moved: u64,
    /// Buckets served from the on-chip treetop cache (one per cached
    /// level per path access; zero with `treetop_levels == 0`).
    pub treetop_hits: u64,
    /// DRAM bytes the treetop cache saved: what the cached levels would
    /// have moved had they round-tripped through the store.
    pub treetop_bytes_saved: u64,
}

impl OramStats {
    /// All physical path accesses.
    pub fn total_path_accesses(&self) -> u64 {
        self.data_path_accesses + self.posmap_path_accesses + self.background_evictions
    }
}

/// Ground-truth classification of a path access (for statistics; on the
/// wire every kind is identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// A data-block (or super-block) access.
    Data,
    /// A position-map block fetch.
    PosMap,
    /// A dummy access: background eviction or periodic filler.
    Dummy,
}

/// The Path ORAM controller plus its in-DRAM tree: `store`'s encrypted
/// image below the treetop, `tree` for the treetop — or, without a store,
/// `tree` for all of it.
///
/// # Examples
///
/// ```
/// use proram_oram::{OramConfig, PathOram};
/// use proram_mem::{AccessKind, BlockAddr};
///
/// let mut oram = PathOram::new(OramConfig::small_for_tests(512), 1);
/// let r1 = oram
///     .try_access_block(BlockAddr(7), AccessKind::Read)
///     .expect("no faults injected");
/// assert!(r1.tree_accesses >= 1);
/// oram.check_invariants();
/// ```
#[derive(Debug, Clone)]
pub struct PathOram {
    pub(crate) config: OramConfig,
    pub(crate) space: AddressSpace,
    pub(crate) tree: OramTree,
    pub(crate) stash: Stash,
    pub(crate) plb: Plb,
    /// On-chip entries for blocks of the highest on-tree hierarchy (or for
    /// the data blocks themselves when `on_tree_hierarchies == 0`).
    pub(crate) top: Vec<PosEntry>,
    pub(crate) rng: Xoshiro256,
    pub(crate) store: Option<EncryptedStore>,
    pub(crate) stats: OramStats,
    pub(crate) path_cycles: u64,
    pub(crate) path_bytes: u64,
    /// DRAM bytes one path access would additionally move without the
    /// treetop cache (full-path bytes minus off-chip `path_bytes`).
    pub(crate) treetop_saved_bytes: u64,
    /// Heap-index ↔ physical-index map of the off-chip store: the top
    /// [`StoreLayout::treetop_buckets`] heap buckets live on chip and
    /// have no store image.
    pub(crate) layout: StoreLayout,
    /// Reusable write-back scratch (see [`PathScratch`]).
    pub(crate) scratch: PathScratch,
    /// The fault of the medium this controller fail-stopped on: once set,
    /// every path read returns it.
    pub(crate) failed: Option<OramError>,
    /// Observability handle (the event ring); disabled by
    /// default so the hot path stays allocation- and branch-free.
    pub(crate) obs: Obs,
    /// The commit protocol's controller-side state (`durable`).
    pub(crate) durable: Durable,
}

impl PathOram {
    /// Builds and initializes an ORAM: every data and position-map block
    /// is mapped to a random leaf and placed into the tree.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`OramConfig::validate`].
    pub fn new(config: OramConfig, seed: u64) -> Self {
        config.validate();
        let space = config.address_space();
        let levels = config.tree_levels();
        let mut rng = Xoshiro256::seed_from(seed);
        // With a store the tree keeps the treetop only; see the struct.
        let resident_levels = if config.store_payloads {
            config.treetop_levels
        } else {
            levels
        };
        let mut tree = OramTree::with_resident_levels(levels, config.z, resident_levels);
        let num_leaves = tree.num_leaves();

        // Random initial leaf for every on-tree block. Data blocks may be
        // grouped (static super block scheme, Section 3.3): every aligned
        // group of `init_group_size` shares one leaf.
        let total = space.total_tree_blocks();
        let group = config.init_group_size;
        let mut leaves: Vec<Leaf> = Vec::with_capacity(total as usize);
        for addr in 0..total {
            if addr < space.num_data_blocks() && group > 1 && addr % group != 0 {
                let base = (addr / group * group) as usize;
                leaves.push(leaves[base]);
            } else {
                leaves.push(Leaf(rng.next_below(u64::from(num_leaves)) as u32));
            }
        }

        // On-chip table: entries for the highest on-tree hierarchy (or for
        // the data blocks directly when there is no on-tree posmap).
        let top_child = space.on_tree_hierarchies();
        let top_base = space.region_base(top_child);
        let top: Vec<PosEntry> = (0..space.region_len(top_child))
            .map(|i| PosEntry::new(leaves[(top_base + i) as usize]))
            .collect();

        // The configured stash size is the *physical* capacity, which
        // must also buffer one in-flight path of `levels * Z` blocks
        // (at the paper's full scale a Z=4 path is 104 blocks against the
        // 100-block stash — the regime that makes super-block schemes
        // eviction-bound). Background eviction therefore triggers when
        // resting occupancy exceeds what leaves room for one path.
        let path_blocks = levels as usize * config.z;
        let resting_limit = config.stash_limit.saturating_sub(path_blocks).max(8);
        let mut stash = Stash::new(resting_limit);
        // The store only holds the off-chip buckets: the treetop lives in
        // trusted on-chip memory and never gets a ciphertext image. With
        // `treetop_levels == 0` the map is the identity, so the image
        // (and its nonce sequence) is byte-identical to the pre-treetop
        // goldens.
        let layout = StoreLayout::new(levels, config.treetop_levels);
        let mut store = if config.store_payloads {
            let mut store = EncryptedStore::new(
                layout.num_off_chip(),
                config.z,
                config.timing.block_bytes as usize,
                rng.next_u64(),
            );
            // Install the injector before the initial bucket writes so
            // even initialization traffic is subject to faults.
            if let Some(fault_cfg) = config.fault.clone() {
                store.enable_faults(fault_cfg);
            }
            Some(store)
        } else {
            None
        };

        // Place each block as deep as possible on its own path. Placement
        // needs occupancy only: a block bound for the image is noted as
        // `(bucket, address)` and materialized when its bucket is sealed.
        let resident = tree.resident_buckets();
        let mut occupancy = vec![0; tree.num_buckets() - resident];
        let mut off_chip: Vec<(usize, u64)> = Vec::new();
        // A data block starts as one zeroed block, or opaque without a store.
        let zeros = match config.store_payloads {
            true => vec![0; config.timing.block_bytes as usize],
            false => Vec::new(),
        };
        let make =
            |addr: u64, spare| Self::make_block(&space, BlockAddr(addr), &leaves, &zeros, spare);
        for addr in 0..total {
            let free = |&idx: &usize| match idx.checked_sub(resident) {
                None => !tree.bucket(idx).is_full(),
                Some(off) => occupancy[off] < config.z,
            };
            match tree.path_indices(leaves[addr as usize]).rev().find(free) {
                Some(idx) if idx < resident => {
                    tree.bucket_mut(idx).push(make(addr, Payload::OPAQUE))
                }
                Some(idx) => {
                    occupancy[idx - resident] += 1;
                    off_chip.push((idx, addr));
                }
                None => stash.insert(make(addr, Payload::OPAQUE)),
            }
        }
        if let Some(store) = store.as_mut() {
            // Heap order, ascending addresses inside a bucket: the nonce
            // sequence and slot order the image goldens pin.
            off_chip.sort_unstable();
            let mut members = off_chip.iter().peekable();
            let mut bucket = Bucket::new(config.z);
            for idx in resident..tree.num_buckets() {
                while let Some(&(_, addr)) = members.next_if(|m| m.0 == idx) {
                    bucket.push(make(addr, store.spare_payload()));
                }
                store.write_bucket(layout.phys_of(idx), &bucket);
                store.reclaim(std::slice::from_mut(&mut bucket));
            }
            // The kill points arm after initialization: init traffic is
            // not a transaction and must never trip one.
            store.arm_crash(config.crash);
        }
        let durable = Durable::new(RecordShape::new(&config, top.len()));

        // Treetop-cached levels live in on-chip SRAM: they cost neither
        // bus cycles nor bytes. The functional tree is unchanged — the
        // cached buckets simply reside on-chip.
        let off_chip = config.off_chip_levels();
        let path_cycles = config.timing.path_cycles(off_chip, config.z);
        let path_bytes = config.timing.path_bytes(off_chip, config.z);
        let treetop_saved_bytes = config.timing.path_bytes(levels, config.z) - path_bytes;
        let mut oram = PathOram {
            plb: Plb::new(config.plb_blocks),
            config,
            space,
            tree,
            stash,
            top,
            rng,
            store,
            stats: OramStats::default(),
            path_cycles,
            path_bytes,
            treetop_saved_bytes,
            layout,
            scratch: PathScratch::new(),
            failed: None,
            obs: Obs::disabled(),
            durable,
        };
        // With the protocol armed, the chain every later delta extends
        // starts at the initial state.
        oram.seal_checkpoint(true);
        oram
    }

    /// Block `addr` as it starts out, mapped to `leaves[addr]`, its
    /// payload built in `spare`'s memory: `data` for a data block (empty
    /// when payloads are not stored: opaque), and a position-map block's
    /// entries from `leaves`.
    fn make_block(
        space: &AddressSpace,
        addr: BlockAddr,
        leaves: &[Leaf],
        data: &[u8],
        spare: Payload,
    ) -> Block {
        let payload = match space.hierarchy_of(addr) {
            0 if data.is_empty() => Payload::OPAQUE,
            0 => spare.refill_data(data),
            _ => {
                let first = space.first_child(addr).0 as usize;
                let children = &leaves[first..first + space.child_count(addr)];
                spare.refill_posmap(children.iter().map(|&leaf| PosEntry::new(leaf)))
            }
        };
        Block {
            addr,
            leaf: leaves[addr.0 as usize],
            payload,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The heap-index ↔ physical-index layout of the off-chip store.
    pub fn store_layout(&self) -> &StoreLayout {
        &self.layout
    }

    /// The configuration this ORAM was built with.
    pub fn config(&self) -> &OramConfig {
        &self.config
    }

    /// The unified address-space layout.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Cycles one path access costs: off-chip path bytes over pin
    /// bandwidth plus the fixed overhead ([`crate::OramTiming::path_cycles`]).
    pub fn path_cycles(&self) -> u64 {
        self.path_cycles
    }

    /// Statistics so far.
    pub fn oram_stats(&self) -> OramStats {
        self.stats
    }

    /// PLB `(hits, misses)`.
    pub fn plb_stats(&self) -> (u64, u64) {
        self.plb.stats()
    }

    /// Fault injection, detection and recovery counters, kept by the
    /// store's injector (all zero without a store).
    pub fn fault_stats(&self) -> FaultStats {
        self.store
            .as_ref()
            .map_or_else(FaultStats::default, EncryptedStore::fault_stats)
    }

    /// The stash (for occupancy statistics).
    pub fn stash(&self) -> &Stash {
        &self.stash
    }

    /// The encrypted DRAM image, when payload storage is enabled.
    pub fn storage(&self) -> Option<&EncryptedStore> {
        self.store.as_ref()
    }

    /// Mutable access to the encrypted image — fault-injection tests use
    /// this to tamper with ciphertexts and check detection.
    pub fn storage_mut(&mut self) -> Option<&mut EncryptedStore> {
        self.store.as_mut()
    }

    /// Draws a fresh uniformly random leaf.
    pub fn random_leaf(&mut self) -> Leaf {
        self.tracking();
        Leaf(self.rng.next_below(u64::from(self.layout.num_leaves())) as u32)
    }

    /// Whether `addr` is currently in the stash.
    pub fn stash_contains(&self, addr: BlockAddr) -> bool {
        self.stash.contains(addr)
    }

    /// Mutably borrows a stashed block.
    pub fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.tracking();
        self.stash.get_mut(addr)
    }

    // ------------------------------------------------------------------
    // High-level access (the `oram` baseline)
    // ------------------------------------------------------------------

    /// Performs one logical access to data block `addr` following the
    /// five steps of paper Section 2.2, plus recursion and background
    /// eviction.
    ///
    /// The reported latency charges every tree access at the fetch cost
    /// plus any transient-retry backoff the injected faults incurred.
    ///
    /// # Errors
    ///
    /// Returns the typed [`OramError`] of a detected fault of the medium:
    /// this access's, or the one the controller fail-stopped on.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block.
    pub fn try_access_block(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
    ) -> Result<AccessReport, OramError> {
        self.access_with(addr, kind, |_| {})
    }

    /// The one access body: straight-line calls into the stage
    /// primitives, inside one commit transaction — posmap resolve →
    /// remap → path read → claim → write-back → background drain →
    /// retire. `on_block` runs on the claimed block while it sits in the
    /// stash, between the path read and the write-back, which is where
    /// Path ORAM's `Access(op, a, data*)` reads or replaces the data: a
    /// payload it writes is sealed once, with its path, journaled, and
    /// part of checkpoint B.
    fn access_with(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        on_block: impl FnOnce(&mut Block),
    ) -> Result<AccessReport, OramError> {
        assert_eq!(
            self.space.hierarchy_of(addr),
            0,
            "access_block takes data blocks"
        );
        self.txn_begin();
        self.stats.logical_accesses += 1;
        let backoff_before = self.fault_stats().backoff_cycles;
        let posmap_accesses = self.try_resolve_posmap(addr)?;
        let (old_leaf, new_leaf) = self.remap_block(addr);
        self.try_read_path_into_stash(old_leaf, PathKind::Data)?;
        on_block(self.claim_block(addr, old_leaf, new_leaf)?);
        self.write_path_from_stash(old_leaf)?;
        let background_evictions = self.try_drain_background()?;
        let report = AccessReport::retire(
            &self.obs,
            addr,
            kind,
            posmap_accesses,
            background_evictions,
            self.path_cycles,
            self.fault_stats().backoff_cycles - backoff_before,
        );
        self.txn_commit()?;
        Ok(report)
    }

    /// Reads the data payload of `addr` (a full ORAM access).
    ///
    /// Returns `Ok(None)` if payload storage is disabled.
    ///
    /// # Errors
    ///
    /// Propagates any unrecovered [`OramError`] from the access.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a data block.
    pub fn try_read_block(&mut self, addr: BlockAddr) -> Result<Option<Vec<u8>>, OramError> {
        let mut data = None;
        self.access_with(addr, AccessKind::Read, |block| {
            if let PayloadRef::Data(bytes) = block.payload.view() {
                data = Some(bytes.to_vec());
            }
        })?;
        Ok(data)
    }

    /// Writes the data payload of `addr` (a full ORAM access).
    ///
    /// # Errors
    ///
    /// Propagates any unrecovered [`OramError`] from the access.
    ///
    /// # Panics
    ///
    /// Panics — before the access starts — if payload storage is
    /// disabled, `bytes` is not exactly one block, or `addr` is not a
    /// data block.
    pub fn try_write_block(&mut self, addr: BlockAddr, bytes: &[u8]) -> Result<(), OramError> {
        assert!(
            self.config.store_payloads,
            "payload storage disabled; enable store_payloads"
        );
        assert_eq!(
            bytes.len(),
            self.config.timing.block_bytes as usize,
            "payload must be exactly one block"
        );
        self.access_with(addr, AccessKind::Write, |block| {
            block
                .payload
                .data_mut()
                .expect("with store_payloads every data block carries one block of bytes")
                .copy_from_slice(bytes)
        })?;
        Ok(())
    }

    /// The observability handle currently attached (disabled by default).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Hands every bucket of the tree, in heap order, to `f` — for the
    /// auditors and `data_leaves`. A resident bucket is borrowed as it
    /// is; one that lives in the image is decoded by a pure read
    /// ([`EncryptedStore::peek_bucket`]), so a visit records nothing and
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// The first image bucket that fails authentication.
    fn try_for_each_bucket(&self, mut f: impl FnMut(usize, &Bucket)) -> Result<(), OramError> {
        let resident = self.tree.resident_buckets();
        for idx in 0..resident {
            f(idx, self.tree.bucket(idx));
        }
        // Without a store every bucket is resident.
        let Some(store) = self.store.as_ref() else {
            return Ok(());
        };
        let mut bucket = Bucket::new(self.config.z);
        for idx in resident..self.tree.num_buckets() {
            store.peek_bucket(self.layout.phys_of(idx), &mut bucket)?;
            f(idx, &bucket);
        }
        Ok(())
    }

    fn for_each_bucket(&self, f: impl FnMut(usize, &Bucket)) {
        self.try_for_each_bucket(f)
            .expect("auditor: image bucket failed authentication");
    }

    /// Full-state auditor: asserts block conservation — every logical
    /// block of the address space lives in exactly one place (stash, PLB,
    /// or one tree bucket) — that no plaintext of an off-chip bucket
    /// outlived its access, and then the per-block placement invariant
    /// ([`PathOram::check_invariants`]). The crash-recovery suite runs
    /// this after every recovery.
    ///
    /// # Panics
    ///
    /// Panics on the first duplicated, missing, or misplaced block.
    pub fn audit_full(&self) {
        assert!(
            self.tree.staging().iter().all(Bucket::is_empty),
            "plaintext of an off-chip bucket is resident between accesses"
        );
        let total = self.space.total_tree_blocks();
        let mut count = vec![0u32; total as usize];
        let mut tally = |addr: BlockAddr, where_: &str| {
            assert!(addr.0 < total, "{where_} holds out-of-space block {addr}");
            count[addr.0 as usize] += 1;
        };
        for b in self.stash.iter() {
            tally(b.addr, "stash");
        }
        for b in self.plb.iter() {
            tally(b.addr, "PLB");
        }
        self.for_each_bucket(|_, bucket| {
            for b in bucket.iter() {
                tally(b.addr, "tree");
            }
        });
        for (addr, &n) in count.iter().enumerate() {
            assert_eq!(n, 1, "block {addr} appears {n} times across stash/PLB/tree");
        }
        self.check_invariants();
    }

    /// A deterministic digest of the complete controller state (RNG, top
    /// table, stash, PLB, tree) — two controllers with equal digests are
    /// observationally identical. The crash-recovery suite compares
    /// post-recovery digests against crash-free runs.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for w in self.rng.state() {
            h.write_u64(w);
        }
        for e in &self.top {
            h.write_u64(u64::from(e.leaf.0));
            h.write_u64(e.merge as u64);
            h.write_u64(e.brk as u64);
        }
        let mut stash: Vec<&Block> = self.stash.iter().collect();
        stash.sort_unstable_by_key(|b| b.addr.0);
        for b in stash {
            Self::digest_block(&mut h, b);
        }
        for b in self.plb.iter() {
            Self::digest_block(&mut h, b);
        }
        self.for_each_bucket(|idx, bucket| {
            h.write_u64(idx as u64);
            for b in bucket.iter() {
                Self::digest_block(&mut h, b);
            }
        });
        h.finish()
    }

    fn digest_block<'a>(h: &mut Fnv1a, b: impl Into<BlockRef<'a>>) {
        let b = b.into();
        h.write_u64(b.addr.0);
        h.write_u64(u64::from(b.leaf.0));
        match b.payload.view() {
            PayloadRef::Opaque => h.write_u64(0),
            PayloadRef::Data(bytes) => {
                h.write_u64(1);
                h.write_bytes(bytes);
            }
            PayloadRef::PosMap(entries) => {
                h.write_u64(2);
                for e in entries.iter() {
                    h.write_u64(u64::from(e.leaf.0));
                    h.write_u64(e.merge as u64);
                    h.write_u64(e.brk as u64);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Invariant checking (tests)
    // ------------------------------------------------------------------

    /// Verifies the Path ORAM invariant for every reachable block: a block
    /// mapped to leaf `s` is in the stash, in the PLB/top (posmap blocks),
    /// or on the path to `s`.
    ///
    /// # Panics
    ///
    /// Panics on the first violation. Intended for tests; cost is
    /// `O(total blocks * levels)`.
    pub fn check_invariants(&self) {
        // One pass over the tree: the bucket holding each block, and the
        // position-map blocks themselves (the walk reads their entries).
        let total = self.space.total_tree_blocks();
        let mut on_tree = OnTree {
            bucket: vec![usize::MAX; total as usize],
            posmap: HashMap::new(),
        };
        self.for_each_bucket(|idx, bucket| {
            for b in bucket.iter() {
                if let Some(home) = on_tree.bucket.get_mut(b.addr.0 as usize) {
                    *home = idx;
                }
                if b.payload.is_posmap() {
                    on_tree.posmap.insert(b.addr, b.to_block());
                }
            }
        });
        // Walk the posmap chain top-down, gathering the authoritative leaf
        // of every block, then check placement.
        for addr in 0..total {
            let addr = BlockAddr(addr);
            if let Some(leaf) = self.authoritative_leaf(addr, &on_tree) {
                assert!(
                    self.block_is_findable(addr, leaf, &on_tree),
                    "invariant violation: block {addr} mapped to {leaf} is not on its path/stash/PLB"
                );
            }
        }
    }

    fn authoritative_leaf(&self, addr: BlockAddr, on_tree: &OnTree) -> Option<Leaf> {
        let at = self.space.parent_of(addr);
        if at.hierarchy == self.space.top_hierarchy() {
            return Some(self.top[at.offset as usize].leaf);
        }
        let pm_addr = at.block;
        if let Some(block) = self.plb.peek(pm_addr) {
            return Some(block.entries()[at.index].leaf);
        }
        // The parent itself must be findable; read its entry wherever it
        // is (stash or tree).
        let parent_leaf = self.authoritative_leaf(pm_addr, on_tree)?;
        let parent = self
            .stash
            .get(pm_addr)
            .or_else(|| on_tree.posmap.get(&pm_addr))
            .filter(|_| self.block_is_findable(pm_addr, parent_leaf, on_tree))?;
        Some(parent.entries()[at.index].leaf)
    }

    fn block_is_findable(&self, addr: BlockAddr, leaf: Leaf, on_tree: &OnTree) -> bool {
        let home = on_tree.bucket[addr.0 as usize];
        self.stash.contains(addr)
            || self.plb.peek(addr).is_some()
            || self.tree.path_indices(leaf).any(|idx| idx == home)
    }
}

/// The auditors' index of the tree.
struct OnTree {
    /// Heap index of the bucket holding each address; `usize::MAX` for
    /// one that is not on the tree.
    bucket: Vec<usize>,
    /// The position-map blocks on the tree.
    posmap: HashMap<BlockAddr, Block>,
}

impl crate::backend_trait::OramBackend for PathOram {
    fn space(&self) -> &AddressSpace {
        PathOram::space(self)
    }

    fn resolve_posmap(&mut self, child: BlockAddr) -> Result<u64, OramError> {
        PathOram::try_resolve_posmap(self, child)
    }

    fn entry(&self, child: BlockAddr) -> &PosEntry {
        PathOram::entry(self, child)
    }

    fn entry_mut(&mut self, child: BlockAddr) -> &mut PosEntry {
        PathOram::entry_mut(self, child)
    }

    /// One pass over the top table, the PLB, the stash and the tree, each
    /// position-map block read where it sits; `None` when an image
    /// bucket fails authentication.
    fn data_leaves(&self) -> Option<Vec<Leaf>> {
        let mut leaves = vec![Leaf(0); self.space.num_data_blocks() as usize];
        // Entries of posmap children (addresses past the data region)
        // fall off the end of `leaves`.
        let mut record = |first: BlockAddr, entries: &[PosEntry]| {
            for (leaf, e) in leaves.iter_mut().skip(first.0 as usize).zip(entries) {
                *leaf = e.leaf;
            }
        };
        let top_child = self.space.on_tree_hierarchies();
        record(BlockAddr(self.space.region_base(top_child)), &self.top);
        for b in self.stash.iter().chain(self.plb.iter()) {
            if let PayloadRef::PosMap(entries) = b.payload.view() {
                record(self.space.first_child(b.addr), entries);
            }
        }
        self.try_for_each_bucket(|_, bucket| {
            for b in bucket.iter() {
                if let PayloadRef::PosMap(entries) = b.payload.view() {
                    record(self.space.first_child(b.addr), entries);
                }
            }
        })
        .ok()?;
        Some(leaves)
    }

    fn read_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) -> Result<(), OramError> {
        PathOram::try_read_path_into_stash(self, leaf, kind)
    }

    fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        PathOram::write_path_from_stash(self, leaf)
    }

    fn txn_begin(&mut self) {
        PathOram::txn_begin(self);
    }

    fn txn_commit(&mut self) -> Result<(), OramError> {
        PathOram::txn_commit(self)
    }

    fn recover_crash(&mut self) -> Option<RecoveryReport> {
        Some(self.recover())
    }

    fn stash_contains(&self, addr: BlockAddr) -> bool {
        PathOram::stash_contains(self, addr)
    }

    fn stash_block_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        PathOram::stash_block_mut(self, addr)
    }

    fn random_leaf(&mut self) -> Leaf {
        PathOram::random_leaf(self)
    }

    fn background_evict(&mut self) -> Result<(), OramError> {
        PathOram::try_background_evict(self)
    }

    fn drain_background(&mut self) -> Result<u64, OramError> {
        PathOram::try_drain_background(self)
    }

    fn path_cycles(&self) -> u64 {
        PathOram::path_cycles(self)
    }

    fn oram_stats(&self) -> OramStats {
        PathOram::oram_stats(self)
    }

    fn fault_stats(&self) -> FaultStats {
        PathOram::fault_stats(self)
    }

    fn backend_name(&self) -> &'static str {
        "path"
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend_trait::OramBackend;
    use proram_obs::ObsEvent;

    fn small() -> PathOram {
        PathOram::new(OramConfig::small_for_tests(256), 42)
    }

    #[test]
    fn construction_satisfies_invariants() {
        let oram = small();
        oram.check_invariants();
    }

    #[test]
    fn every_data_block_is_accessible() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 7);
        for a in 0..64 {
            let r = oram
                .try_access_block(BlockAddr(a), AccessKind::Read)
                .unwrap();
            assert!(r.tree_accesses >= 1);
        }
        oram.check_invariants();
    }

    #[test]
    fn access_remaps_to_fresh_leaf() {
        let mut oram = small();
        let addr = BlockAddr(10);
        oram.try_resolve_posmap(addr).unwrap();
        let before = oram.entry(addr).leaf;
        // Access many times; the leaf must change (collision chance over
        // 20 draws from >=128 leaves is negligible at this seed).
        let mut changed = false;
        for _ in 0..20 {
            oram.try_access_block(addr, AccessKind::Read).unwrap();
            oram.try_resolve_posmap(addr).unwrap();
            if oram.entry(addr).leaf != before {
                changed = true;
            }
        }
        assert!(changed, "leaf never remapped");
    }

    #[test]
    fn repeated_access_is_stable_under_invariants() {
        let mut oram = small();
        let mut rng = Xoshiro256::seed_from(3);
        for _ in 0..300 {
            let a = BlockAddr(rng.next_below(256));
            oram.try_access_block(a, AccessKind::Read).unwrap();
        }
        oram.check_invariants();
        let s = oram.oram_stats();
        assert_eq!(s.logical_accesses, 300);
        assert_eq!(s.data_path_accesses, 300);
    }

    #[test]
    fn posmap_recursion_costs_extra_accesses() {
        let mut oram = small();
        // First touch of a cold region must miss the PLB.
        let r = oram
            .try_access_block(BlockAddr(100), AccessKind::Read)
            .unwrap();
        assert!(r.posmap_accesses >= 1, "cold access should walk the posmap");
        // Immediately repeated access hits the PLB.
        let r2 = oram
            .try_access_block(BlockAddr(100), AccessKind::Read)
            .unwrap();
        assert_eq!(r2.posmap_accesses, 0);
    }

    #[test]
    fn plb_locality_for_neighbors() {
        let mut oram = small();
        oram.try_access_block(BlockAddr(8), AccessKind::Read)
            .unwrap();
        // Same posmap group (entries_per_block = 8): no extra posmap walk.
        let r = oram
            .try_access_block(BlockAddr(9), AccessKind::Read)
            .unwrap();
        assert_eq!(r.posmap_accesses, 0);
    }

    #[test]
    fn every_path_fetch_emits_one_path_access() {
        let mut oram = small();
        let obs = Obs::ring(1 << 10);
        oram.attach_obs(obs.clone());
        for addr in 0..20 {
            oram.try_access_block(BlockAddr(addr), AccessKind::Read)
                .unwrap();
        }
        let paths = obs.events().iter().filter_map(ObsEvent::path_leaf).count();
        assert_eq!(obs.dropped(), 0);
        assert_eq!(paths as u64, oram.oram_stats().total_path_accesses());
    }

    #[test]
    fn payload_round_trip_via_try_api() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 5);
        let data = vec![0xAB; 128];
        oram.try_write_block(BlockAddr(3), &data).expect("write");
        let read = oram
            .try_read_block(BlockAddr(3))
            .expect("read")
            .expect("payloads enabled");
        assert_eq!(read, data);
        oram.try_access_block(BlockAddr(3), AccessKind::Read)
            .expect("access");
        oram.check_invariants();
    }

    #[test]
    fn payloads_survive_many_interleaved_accesses() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(64), 6);
        for a in 0..16u64 {
            oram.try_write_block(BlockAddr(a), &[a as u8; 128]).unwrap();
        }
        let mut rng = Xoshiro256::seed_from(9);
        for _ in 0..100 {
            oram.try_access_block(BlockAddr(rng.next_below(64)), AccessKind::Read)
                .unwrap();
        }
        for a in 0..16u64 {
            assert_eq!(
                oram.try_read_block(BlockAddr(a)).unwrap().unwrap(),
                vec![a as u8; 128],
                "payload of block {a} corrupted"
            );
        }
    }

    #[test]
    fn rejected_writes_panic_before_the_access_starts() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let opaque = OramConfig {
            store_payloads: false,
            ..OramConfig::small_for_tests(256)
        };
        for (cfg, len, why) in [
            (
                OramConfig::small_for_tests(256),
                3,
                "payload must be exactly one block",
            ),
            (opaque, 128, "payload storage disabled"),
        ] {
            let mut oram = PathOram::new(cfg, 42);
            let write = AssertUnwindSafe(|| oram.try_write_block(BlockAddr(0), &vec![1; len]));
            let panic = catch_unwind(write).expect_err("the write must be rejected");
            // `assert!` with a literal panics with `&str`, `assert_eq!`
            // with a formatted `String`.
            let message = match panic.downcast_ref::<&str>() {
                Some(literal) => literal.to_string(),
                None => panic.downcast_ref::<String>().cloned().unwrap_or_default(),
            };
            assert!(message.contains(why), "{message}");
            assert_eq!(oram.oram_stats(), OramStats::default(), "{why}");
            oram.check_invariants();
        }
    }

    #[test]
    #[should_panic(expected = "access_block takes data blocks")]
    fn posmap_address_rejected() {
        let mut oram = small();
        // First posmap block lives right after the data region.
        oram.try_access_block(BlockAddr(256), AccessKind::Read)
            .unwrap();
    }

    #[test]
    fn background_eviction_triggers_under_pressure() {
        // A small stash target and a Z=2 tree at ~90% occupancy force
        // background evictions (Z=4 at low occupancy essentially never
        // overflows, which is why the paper pairs small Z with background
        // eviction).
        let cfg = OramConfig {
            stash_limit: 4,
            z: 2,
            ..OramConfig::small_for_tests(400)
        };
        let mut oram = PathOram::new(cfg, 11);
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..200 {
            oram.try_access_block(BlockAddr(rng.next_below(400)), AccessKind::Read)
                .unwrap();
        }
        assert!(oram.oram_stats().background_evictions > 0);
        assert!(
            oram.stash().len() <= 8,
            "stash drained to the resting limit after access"
        );
        oram.check_invariants();
    }

    #[test]
    fn observed_leaves_cover_the_tree() {
        let mut oram = PathOram::new(OramConfig::small_for_tests(512), 13);
        let obs = Obs::ring(1 << 12);
        oram.attach_obs(obs.clone());
        let mut rng = Xoshiro256::seed_from(2);
        for _ in 0..400 {
            oram.try_access_block(BlockAddr(rng.next_below(512)), AccessKind::Read)
                .unwrap();
        }
        assert_eq!(obs.dropped(), 0);
        let leaves: Vec<u64> = obs
            .events()
            .iter()
            .filter_map(ObsEvent::path_leaf)
            .collect();
        assert!(leaves.len() >= 400);
        // Many distinct leaves must appear (uniform remapping).
        let mut distinct: Vec<u64> = leaves.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() > 20,
            "only {} distinct leaves",
            distinct.len()
        );
    }

    #[test]
    fn stats_accumulate_bytes() {
        let mut oram = small();
        oram.try_access_block(BlockAddr(0), AccessKind::Read)
            .unwrap();
        let s = oram.oram_stats();
        assert_eq!(s.bytes_moved, s.total_path_accesses() * oram.path_bytes);
    }

    #[test]
    fn report_latency_equals_stage_total() {
        let mut oram = small();
        oram.attach_obs(Obs::ring(1 << 12));
        let path = oram.path_cycles();
        let mut rng = Xoshiro256::seed_from(5);
        for _ in 0..50 {
            let addr = rng.next_below(256);
            let r = oram
                .try_access_block(BlockAddr(addr), AccessKind::Read)
                .unwrap();
            assert_eq!(
                r.tree_accesses,
                1 + r.posmap_accesses + r.background_evictions
            );
            assert_eq!(r.latency, r.tree_accesses * path, "no backoff here");
            let retired = oram
                .obs()
                .events()
                .into_iter()
                .rev()
                .find(|e| matches!(e, ObsEvent::AccessRetired { .. }))
                .expect("the access retired into the trace");
            assert_eq!(
                retired,
                ObsEvent::AccessRetired {
                    addr,
                    write: false,
                    latency: r.latency,
                    posmap: r.posmap_accesses * path,
                    fetch: path,
                    evict: r.background_evictions * path,
                    backoff: 0,
                },
                "stage attribution broken"
            );
        }
    }

    #[test]
    fn every_path_costs_the_lump_sum() {
        // One price per path: off-chip bytes over pin bandwidth, with or
        // without a treetop, and an access is its paths times that price.
        for treetop_levels in [0, 2] {
            let cfg = OramConfig {
                treetop_levels,
                ..OramConfig::small_for_tests(256)
            };
            let lump = cfg.timing.path_cycles(cfg.off_chip_levels(), cfg.z);
            let mut oram = PathOram::new(cfg, 42);
            assert_eq!(oram.path_cycles(), lump);
            let mut rng = Xoshiro256::seed_from(3);
            for _ in 0..100 {
                let backoff0 = oram.fault_stats().backoff_cycles;
                let r = oram
                    .try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                    .unwrap();
                let backoff = oram.fault_stats().backoff_cycles - backoff0;
                assert_eq!(r.latency, r.tree_accesses * oram.path_cycles() + backoff);
            }
        }
    }

    #[test]
    fn small_flat_posmap_config_works() {
        // on_tree_hierarchies = 0: the whole position map is on-chip.
        let cfg = OramConfig {
            on_tree_hierarchies: 0,
            ..OramConfig::small_for_tests(128)
        };
        let mut oram = PathOram::new(cfg, 3);
        for a in 0..128 {
            let r = oram
                .try_access_block(BlockAddr(a), AccessKind::Read)
                .unwrap();
            assert_eq!(r.posmap_accesses, 0);
        }
        oram.check_invariants();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::backend_trait::OramBackend;
    use crate::fault::{FaultClass, FaultConfig};

    fn faulty_cfg(fault: FaultConfig) -> OramConfig {
        OramConfig {
            fault: Some(fault),
            ..OramConfig::small_for_tests(256)
        }
    }

    #[test]
    fn silent_injector_matches_fault_free_run() {
        // A configured injector with all rates zero must be
        // observationally silent: same stats, same trace, same stash.
        let run = |fault: Option<FaultConfig>| {
            let cfg = OramConfig {
                fault,
                ..OramConfig::small_for_tests(256)
            };
            let mut oram = PathOram::new(cfg, 42);
            let obs = Obs::ring(1 << 12);
            oram.attach_obs(obs.clone());
            let mut rng = Xoshiro256::seed_from(3);
            for _ in 0..200 {
                oram.try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                    .unwrap();
            }
            assert_eq!(obs.dropped(), 0);
            (oram.oram_stats(), obs.events(), oram.stash().peak())
        };
        assert_eq!(run(None), run(Some(FaultConfig::silent(99))));
    }

    #[test]
    fn a_corrupted_bucket_fail_stops_typed_and_transients_retry() {
        for class in FaultClass::ALL {
            let rate = match class {
                FaultClass::Transient => 0.05,
                _ => 0.02,
            };
            let mut oram = PathOram::new(faulty_cfg(FaultConfig::single(class, rate, 17)), 21);
            let mut rng = Xoshiro256::seed_from(8);
            let mut stopped = None;
            for _ in 0..150 {
                let addr = BlockAddr(rng.next_below(256));
                if let Err(err) = oram.try_access_block(addr, AccessKind::Read) {
                    stopped = Some(err);
                    break;
                }
            }
            let stats = oram.fault_stats();
            assert!(
                stats.total_injected() > 0,
                "{}: nothing injected at rate {rate}",
                class.name()
            );
            assert_eq!(stats.undetected, 0, "{}: false negatives", class.name());
            match (class, stopped) {
                // The medium is intact: every read succeeds on a retry.
                (FaultClass::Transient, None) => assert!(stats.recovered > 0),
                (FaultClass::BitFlip | FaultClass::TornWrite, Some(err)) => {
                    assert!(matches!(err, OramError::Integrity { .. }), "{err}");
                }
                (FaultClass::Rollback, Some(err)) => {
                    assert!(matches!(err, OramError::Rollback { .. }), "{err}");
                }
                (_, stopped) => panic!("{}: ended with {stopped:?}", class.name()),
            }
            // Once stopped, every access returns the latched error.
            if let Some(err) = stopped {
                for a in 0..3 {
                    assert_eq!(oram.try_read_block(BlockAddr(a)), Err(err));
                }
                assert_eq!(oram.scrub(), Err(err));
            }
        }
    }

    #[test]
    fn payloads_survive_transient_retries() {
        let fault = FaultConfig::single(FaultClass::Transient, 0.05, 33);
        let mut oram = PathOram::new(faulty_cfg(fault), 5);
        for a in 0..16u64 {
            oram.try_write_block(BlockAddr(a), &[a as u8; 128]).unwrap();
        }
        let mut rng = Xoshiro256::seed_from(9);
        for _ in 0..100 {
            oram.try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                .unwrap();
        }
        for a in 0..16u64 {
            assert_eq!(
                oram.try_read_block(BlockAddr(a)).unwrap().unwrap(),
                vec![a as u8; 128],
                "payload of block {a} lost through a retried read"
            );
        }
        assert!(oram.fault_stats().recovered > 0);
        oram.audit_full();
    }

    #[test]
    fn transient_backoff_charges_latency() {
        let fault = FaultConfig {
            retry_backoff_cycles: 100,
            ..FaultConfig::single(FaultClass::Transient, 0.2, 7)
        };
        let mut oram = PathOram::new(faulty_cfg(fault), 4);
        let mut total_latency = 0;
        let mut tree_accesses = 0;
        let mut rng = Xoshiro256::seed_from(2);
        for _ in 0..50 {
            let r = oram
                .try_access_block(BlockAddr(rng.next_below(256)), AccessKind::Read)
                .expect("transients under budget recover");
            total_latency += r.latency;
            tree_accesses += r.tree_accesses;
        }
        let stats = oram.fault_stats();
        assert!(stats.backoff_cycles > 0, "no backoff charged");
        assert_eq!(
            total_latency,
            tree_accesses * oram.path_cycles() + stats.backoff_cycles,
            "latency must include retry backoff"
        );
    }

    #[test]
    fn the_drain_stops_at_its_per_access_bound() {
        // More foreign blocks than the whole tree can place: the drain
        // evicts its bound's worth of paths and returns, leaving the
        // stash over its limit for the next access.
        let cfg = OramConfig {
            stash_limit: 4,
            ..OramConfig::small_for_tests(64)
        };
        let mut oram = PathOram::new(cfg, 23);
        let slots = oram.tree.num_buckets() * oram.config.z;
        for i in 0..(slots as u64 + 200) {
            let leaf = oram.random_leaf();
            oram.stash
                .insert(Block::opaque(BlockAddr(1_000_000 + i), leaf));
        }
        assert_eq!(
            oram.try_drain_background(),
            Ok(MAX_BACKGROUND_EVICTIONS_PER_ACCESS)
        );
        assert!(oram.stash().over_limit());
    }
}

#[cfg(test)]
mod init_group_tests {
    use super::*;

    #[test]
    fn grouped_init_maps_groups_to_common_leaves() {
        let cfg = OramConfig {
            init_group_size: 4,
            ..OramConfig::small_for_tests(64)
        };
        let mut oram = PathOram::new(cfg, 17);
        for base in (0..64u64).step_by(4) {
            oram.try_resolve_posmap(BlockAddr(base)).unwrap();
            let leaf = oram.entry(BlockAddr(base)).leaf;
            for off in 1..4 {
                assert_eq!(
                    oram.entry(BlockAddr(base + off)).leaf,
                    leaf,
                    "group at {base} not co-located"
                );
            }
        }
        oram.check_invariants();
    }

    #[test]
    fn grouped_init_still_serves_accesses() {
        let cfg = OramConfig {
            init_group_size: 2,
            ..OramConfig::small_for_tests(64)
        };
        let mut oram = PathOram::new(cfg, 18);
        for a in 0..64 {
            oram.try_access_block(BlockAddr(a), AccessKind::Read)
                .unwrap();
        }
        oram.check_invariants();
    }
}
