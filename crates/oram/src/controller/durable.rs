//! The crash-consistent commit protocol, controller half (DESIGN.md
//! section 15): begin, commit, checkpoint seals, kill-point gates and
//! recovery. The store holds the durable half — the undo journal and its
//! open flag, the checkpoint chain, the kill-point arm and which point
//! fired; [`Durable`] holds what the controller adds, once.

use super::PathOram;
use crate::addr::Leaf;
use crate::config::OramConfig;
use crate::crash::{CrashStats, KillPoint, RecoveryMode, RecoveryReport};
use crate::error::OramError;
use crate::journal::{self, Checkpoint, DeltaParts, RecordShape, FULL_SEAL_EVERY};
use crate::layout::StoreLayout;
use crate::plb::Plb;
use crate::posmap::PosEntry;
use crate::stash::Stash;
use crate::storage::EncryptedStore;
use crate::tree::OramTree;
use proram_obs::ObsEvent;
use proram_stats::Xoshiro256;

/// The controller's share of the protocol state: the dirty logs of the
/// open transaction and the counters. Present on every controller, armed
/// or not — a disarmed one still counts a clean [`PathOram::recover`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Durable {
    /// Leaves of the paths this transaction fetched. A fetched path's
    /// buckets lose blocks to the stash before the write-back journals
    /// them, so recovery re-reads their off-chip buckets (with the
    /// journal's) from the store image.
    txn_leaves: Vec<Leaf>,
    /// Top-table indices written in the open transaction
    /// ([`PathOram::entry_mut`] is the one writer).
    top_dirty: Vec<u32>,
    /// Scratch of the commit: the treetop buckets on `txn_leaves`' paths.
    treetop_dirty: Vec<usize>,
    /// Set when volatile state moves outside a transaction (a primitive
    /// driven directly, e.g. a dummy access): the committed checkpoint
    /// records no longer describe it, so the next transaction opens with
    /// a `Full` seal. Meaningless while the protocol does not run.
    unsealed: bool,
    /// Sizes of the two checkpoint record kinds under this configuration.
    shape: RecordShape,
    /// `true` once the crash of the open transaction was counted and
    /// emitted (a dead store surfaces through several callers).
    surfaced: bool,
    /// Cumulative crash-injection and recovery counters.
    stats: CrashStats,
}

impl Durable {
    pub(crate) fn new(shape: RecordShape) -> Durable {
        Durable {
            shape,
            ..Durable::default()
        }
    }

    /// The nothing-pending recovery result: counts it, clears the
    /// transaction bookkeeping and reports [`RecoveryMode::Clean`].
    fn clean_recovery(&mut self) -> RecoveryReport {
        self.stats.clean_recoveries += 1;
        self.surfaced = false;
        RecoveryReport::default()
    }
}

/// The store the commit protocol runs on, or `None` when it does not run.
/// [`OramConfig::crash`] is the one switch and [`OramConfig::check`]
/// guarantees a store under it: every entry point of the protocol decides
/// whether it runs here, in the `let … else` that also hands it the
/// store. Generic over `&` and `&mut`, and borrowing the two fields alone.
pub(super) fn durable_store<S>(config: &OramConfig, store: Option<S>) -> Option<S> {
    store.filter(|_| config.crash.is_some())
}

impl PathOram {
    /// Cumulative crash-injection and recovery counters.
    pub fn crash_stats(&self) -> CrashStats {
        self.durable.stats
    }

    /// Whether a commit transaction is open: the store's journal flag is
    /// the one record of it (never set without a store).
    fn txn_open(&self) -> bool {
        self.store.as_ref().is_some_and(EncryptedStore::txn_open)
    }

    /// Whether a transaction is open, i.e. whether the funnels that
    /// mutate volatile state (this, [`PathOram::entry_mut`], the PLB and
    /// stash logs, the fetched leaves) are logging for the commit's
    /// delta. Every such funnel asks here first, so a mutation outside a
    /// transaction leaves its mark instead.
    pub(crate) fn tracking(&mut self) -> bool {
        let open = self.txn_open();
        if !open {
            self.durable.unsealed = true;
        }
        open
    }

    /// The fetch's log: the leaf of a path read into the stash.
    pub(crate) fn log_fetched_leaf(&mut self, leaf: Leaf) {
        if self.tracking() {
            self.durable.txn_leaves.push(leaf);
        }
    }

    /// The position map's log: a top-table entry handed out for writing.
    pub(crate) fn log_top_write(&mut self, index: usize) {
        if self.tracking() {
            self.durable.top_dirty.push(index as u32);
        }
    }

    /// Opens the commit transaction of one logical access: starts
    /// first-touch undo journaling and the dirty logs. Nothing is sealed —
    /// the pre-access volatile state is what the committed checkpoint
    /// records describe — unless it moved outside a transaction since the
    /// last seal, in which case one `Full` brings the records up to date.
    /// No-op when the protocol does not run — it costs nothing disarmed —
    /// and after a fail-stop, whose half-done transaction stays as it is.
    pub(crate) fn txn_begin(&mut self) {
        if self.failed.is_some() {
            return;
        }
        if self.txn_open() {
            // The previous access unwound mid-transaction without
            // latching a fail-stop (a `BlockMissing`, or a crash the
            // caller never recovered): roll it back so the new transaction
            // opens on consistent state instead of tripping the store's
            // open-journal assertion.
            self.recover();
        }
        if self.durable.unsealed {
            self.seal_checkpoint(true);
        }
        let Some(store) = durable_store(&self.config, self.store.as_mut()) else {
            return;
        };
        store.begin_txn();
        self.durable.txn_leaves.clear();
        self.durable.top_dirty.clear();
        self.durable.surfaced = false;
        self.plb.start_log();
        self.stash.start_log();
    }

    /// Commits the open transaction: seals checkpoint B and asks the
    /// store to flip the epoch and discard the journal.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when the `MidFlip` kill point fires inside
    /// the flip; the transaction is then durable and recovery replays it.
    pub(crate) fn txn_commit(&mut self) -> Result<(), OramError> {
        if !self.txn_open() {
            return Ok(());
        }
        self.seal_checkpoint(false);
        let Some(store) = durable_store(&self.config, self.store.as_mut()) else {
            return Ok(());
        };
        match store.commit_txn() {
            Ok(entries) => {
                let epoch = store.epoch();
                self.obs.emit(|| ObsEvent::JournalCommit { entries, epoch });
                Ok(())
            }
            Err(_) => Err(self.surface_crash()),
        }
    }

    /// Seals the controller's volatile state (RNG, top table, stash, PLB,
    /// treetop buckets) as of now into the store's checkpoint chain, and
    /// ends the dirty logs: the sealed state is what the next log is
    /// relative to. No-op when the protocol does not run.
    ///
    /// The record is a `Delta` — what the funnels logged since
    /// [`PathOram::txn_begin`] — unless `full` is asked for, the chain
    /// reached [`FULL_SEAL_EVERY`] records, or the delta does not fit its
    /// fixed size (an *early* `Full`). Either kind is written from the
    /// live structures into the store's reusable arena: nothing is
    /// cloned, nothing allocated.
    ///
    /// The treetop is volatile on-chip SRAM with no ciphertext image, so
    /// its buckets ride in the records: the on-chip prefix of every
    /// fetched path in a `Delta`, all of it in a `Full`.
    pub(crate) fn seal_checkpoint(&mut self, full: bool) {
        let PathOram {
            config,
            store,
            rng,
            top,
            plb,
            stash,
            tree,
            layout,
            durable: d,
            ..
        } = self;
        let Some(store) = durable_store(config, store.as_mut()) else {
            return;
        };
        let mut sealed = None;
        if !full && store.checkpoint_chain_len() < FULL_SEAL_EVERY {
            d.top_dirty.sort_unstable();
            d.top_dirty.dedup();
            d.treetop_dirty.clear();
            for &leaf in &d.txn_leaves {
                let prefix = 0..layout.treetop_levels();
                d.treetop_dirty
                    .extend(prefix.map(|level| tree.bucket_index(leaf, level)));
            }
            d.treetop_dirty.sort_unstable();
            d.treetop_dirty.dedup();
            sealed = store.seal_checkpoint(false, d.shape.delta_bytes, |out| {
                let parts = DeltaParts {
                    rng: rng.state(),
                    top,
                    top_dirty: &d.top_dirty,
                    plb_ops: plb.logged_ops(),
                    plb_dirty: plb.logged_dirty(),
                    stash_removed: stash.logged_removed(),
                    stash_dirty: stash.logged_dirty(),
                    treetop: d.treetop_dirty.iter().map(|&idx| (idx, tree.bucket(idx))),
                };
                journal::write_delta(out, parts);
            });
            match sealed {
                Some(_) => d.stats.delta_seals += 1,
                None => d.stats.early_full_seals += 1,
            }
        }
        let bytes = sealed.unwrap_or_else(|| {
            d.stats.full_seals += 1;
            let fill =
                |out: &mut Vec<u8>| Self::write_volatile(out, rng, top, stash, plb, tree, layout);
            store
                .seal_checkpoint(true, d.shape.full_bytes, fill)
                .expect("a Full record is never refused")
        });
        d.stats.checkpoint_bytes += bytes as u64;
        d.unsealed = false;
        plb.stop_log();
        stash.stop_log();
    }

    /// The plaintext of a `Full` record: the whole volatile state.
    fn write_volatile(
        out: &mut Vec<u8>,
        rng: &Xoshiro256,
        top: &[PosEntry],
        stash: &Stash,
        plb: &Plb,
        tree: &OramTree,
        layout: &StoreLayout,
    ) {
        let treetop = (0..layout.treetop_buckets()).map(|idx| tree.bucket(idx));
        journal::write_full(out, rng.state(), top, stash.iter(), plb.iter(), treetop);
    }

    /// Checkpoint auditor: asserts that the committed checkpoint records,
    /// decoded from their sealed bytes — the `Full` with every `Delta`
    /// since applied — describe exactly the live volatile state (RNG, top
    /// table, stash, PLB in recency order, treetop). A mutation the dirty
    /// logs missed fails here. Vacuous without [`OramConfig::crash`].
    ///
    /// # Panics
    ///
    /// Panics if the chain fails its seal or differs from the live state,
    /// or if called inside an open transaction.
    pub fn audit_checkpoints(&self) {
        let Some(store) = durable_store(&self.config, self.store.as_ref()) else {
            return;
        };
        assert!(!self.txn_open(), "checkpoints describe committed state");
        let sealed = store
            .fold_checkpoints()
            .expect("checkpoint chain failed its seal");
        let live = Checkpoint::capture(store.epoch(), |out| {
            Self::write_volatile(
                out,
                &self.rng,
                &self.top,
                &self.stash,
                &self.plb,
                &self.tree,
                &self.layout,
            );
        });
        // Field by field, so a failure names what diverged.
        assert_eq!(sealed.epoch, live.epoch, "sealed epoch");
        assert_eq!(sealed.rng, live.rng, "sealed RNG state");
        assert_eq!(sealed.top, live.top, "sealed top table");
        assert_eq!(sealed.stash, live.stash, "sealed stash");
        assert_eq!(sealed.plb, live.plb, "sealed PLB (MRU first)");
        assert_eq!(sealed.treetop, live.treetop, "sealed treetop");
    }

    /// Crosses a stage kill point on the store's arm; the path
    /// primitives call this at their entry. Fires only inside an open
    /// transaction, so primitives driven without the commit protocol (no
    /// [`OramConfig::crash`], or outside an access) never unwind here.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] when the armed crossing is reached; the
    /// store is dead from then until [`PathOram::recover`].
    pub(crate) fn crash_gate(&mut self, point: KillPoint) -> Result<(), OramError> {
        if self.txn_open() && self.store.as_mut().is_some_and(|s| s.cross(point)) {
            return Err(self.surface_crash());
        }
        Ok(())
    }

    /// Surfaces a kill that fired during a write the store silently
    /// dropped (the "dead store" contract): `Ok` when the store is alive,
    /// the typed crash otherwise.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] naming the kill point that fired.
    pub(crate) fn store_crash_check(&mut self) -> Result<(), OramError> {
        match self.store.as_ref().and_then(EncryptedStore::crash_fired) {
            None => Ok(()),
            Some(_) => Err(self.surface_crash()),
        }
    }

    /// Counts and emits the fired kill exactly once per transaction,
    /// returning the typed error for the caller to propagate.
    fn surface_crash(&mut self) -> OramError {
        let point = self
            .store
            .as_ref()
            .and_then(EncryptedStore::crash_fired)
            .expect("a fired kill to surface");
        if !self.durable.surfaced {
            self.durable.surfaced = true;
            self.durable.stats.crashes_injected += 1;
            let crossing = self.config.crash.map_or(0, |c| c.crossing);
            self.obs.emit(|| ObsEvent::CrashInject { point, crossing });
        }
        OramError::Crashed { point }
    }

    /// Recovers from a crashed access: closes the store journal (rollback
    /// or replay), adopts the matching sealed checkpoint, re-authenticates
    /// the image of every bucket the transaction touched, and clears the
    /// transaction state.
    ///
    /// Safe to call when nothing crashed — it reports
    /// [`RecoveryMode::Clean`] and changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the epoch header or the adopted checkpoint fails its MAC,
    /// or if a touched bucket fails re-authentication — recovery must
    /// never adopt forged state.
    pub fn recover(&mut self) -> RecoveryReport {
        let Some(store) = durable_store(&self.config, self.store.as_mut()) else {
            return self.durable.clean_recovery();
        };
        let Some(rec) = store.recover_txn() else {
            // No transaction was open: volatile state and image are what
            // they were. Only the bookkeeping needs clearing.
            return self.durable.clean_recovery();
        };
        // The committed records are the pre-access state after a
        // rollback; after a replay the store committed the pending
        // checkpoint B on top, which makes them the post-access state.
        // Either way they end at the store's epoch. Nothing live is
        // consulted: everything volatile comes back from sealed bytes.
        let checkpoint = store
            .fold_checkpoints()
            .expect("checkpoint failed its seal");
        assert_eq!(
            checkpoint.epoch,
            store.epoch(),
            "adopted checkpoint is from another epoch"
        );
        // Adopt the checkpointed volatile state: RNG (so a rolled-back
        // access retries with identical randomness), top table, stash and
        // PLB (re-inserted oldest-first so the MRU order is restored).
        self.rng = Xoshiro256::from_state(checkpoint.rng);
        self.top = checkpoint.top;
        let mut stash = Stash::new(self.stash.limit());
        for block in checkpoint.stash {
            stash.insert(block);
        }
        // The adopted stash is the sealed state the next log is
        // relative to.
        stash.stop_log();
        self.stash = stash;
        let mut plb = Plb::new(self.plb.capacity());
        for block in checkpoint.plb.into_iter().rev() {
            plb.insert(block);
        }
        self.plb = plb;
        self.durable.unsealed = false;
        // The treetop is volatile SRAM with no store image: adopt the
        // checkpointed buckets wholesale.
        let treetop = self.layout.treetop_buckets();
        assert_eq!(
            checkpoint.treetop.len(),
            treetop,
            "adopted checkpoint has the wrong treetop geometry"
        );
        for (idx, blocks) in checkpoint.treetop.into_iter().enumerate() {
            let bucket = self.tree.bucket_mut(idx);
            bucket.drain();
            for block in blocks {
                bucket.push(block);
            }
        }
        // Plaintext of a fetched path the crash left staged is void: its
        // blocks are in the image or came back with the checkpoint.
        self.tree.clear_staging();
        // Re-authenticate the (rolled-back or replayed) image of every
        // off-chip bucket the transaction touched. Written buckets are in
        // the journal; a bucket only fetched so far is on the path of a
        // fetched leaf (the treetop prefix of those paths came back with
        // the checkpoint above).
        let journal_entries = rec.touched.len();
        let mut touched = rec.touched;
        for &leaf in &self.durable.txn_leaves {
            touched.extend(self.layout.off_chip_path(leaf).map(|(_, phys)| phys));
        }
        touched.sort_unstable();
        touched.dedup();
        for &phys in &touched {
            store
                .verify_bucket(phys)
                .expect("recovered bucket failed authentication");
        }
        let reverified = touched.len();
        let mode = if rec.replay {
            self.durable.stats.replays += 1;
            RecoveryMode::Replayed
        } else {
            self.durable.stats.rollbacks += 1;
            RecoveryMode::RolledBack
        };
        self.durable.surfaced = false;
        let replay = rec.replay;
        // A rollback restored every journaled image; a replay none.
        let restored = if replay { 0 } else { journal_entries as u64 };
        self.obs.emit(|| ObsEvent::RecoverReplay {
            replay,
            restored,
            reverified: reverified as u64,
        });
        // Modeled recovery latency: every restored image write and every
        // re-verification read costs one off-chip bucket's share of a
        // path fetch (restored/reverified buckets are all off-chip).
        let levels = u64::from(self.config.off_chip_levels()).max(1);
        let per_bucket = (self.path_cycles / levels).max(1);
        let cycles = (restored + reverified as u64) * per_bucket;
        RecoveryReport {
            mode,
            journal_entries,
            buckets_restored: restored as usize,
            buckets_reverified: reverified,
            cycles,
        }
    }
}
