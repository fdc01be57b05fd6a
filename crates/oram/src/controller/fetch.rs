//! Stage 2: path fetch.
//!
//! Brings every bucket on a path into the stash, records the
//! adversary-visible event and byte movement, and claims the requested
//! block for remapping. A path fetch is a *batch* of bucket reads —
//! [`PathOram::bucket_read_batch`] renders one explicitly for the
//! bank-aware scheduler in `proram-mem`; the per-access timing model
//! charges the same batch analytically via
//! [`proram_mem::BankScheduler::path_fetch_cycles`] so the hot path stays
//! allocation-free.

use super::{PathKind, PathOram};
use crate::addr::Leaf;
use crate::block::Block;
use crate::crash::KillPoint;
use crate::error::OramError;
use crate::eviction::read_path;
use crate::trace::PhysEvent;
use proram_mem::BucketRead;
use proram_obs::ObsEvent;

impl PathOram {
    /// Reads every bucket on the path to `leaf` into the stash, recording
    /// the adversary-visible event, statistics and byte movement. Callers
    /// must pair this with [`PathOram::write_path_from_stash`] on the same
    /// leaf.
    ///
    /// When the encrypted image is kept and verification is on (explicit
    /// `verify_image`, or implied by fault injection), every bucket on the
    /// path is decrypted and authenticated first. With fault injection the
    /// controller *recovers*: corrupted or rolled-back buckets are
    /// re-encrypted from the trusted logical tree; exhausted transient
    /// reads are counted and skipped. Without it, faults propagate.
    ///
    /// Crosses the `PathFetch`, `DecryptVerify` and `StashUpdate` kill
    /// points on the way, whatever kind of path this is.
    ///
    /// # Errors
    ///
    /// Returns the detected [`OramError`] when recovery is disabled, or
    /// [`OramError::Crashed`] when an armed crossing is reached.
    pub fn try_read_path_into_stash(
        &mut self,
        leaf: Leaf,
        kind: PathKind,
    ) -> Result<(), OramError> {
        self.crash_gate(KillPoint::PathFetch)?;
        self.crash_gate(KillPoint::DecryptVerify)?;
        if self.config.verify_image || self.recovery_enabled() {
            self.verify_path(leaf)?;
        }
        self.crash_gate(KillPoint::StashUpdate)?;
        self.fill_path_into_stash(leaf, kind);
        Ok(())
    }

    /// The stash-update half of a path fetch: moves the (verified) path's
    /// blocks into the stash and records stats, trace and occupancy.
    fn fill_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) {
        if self.tracking() {
            self.txn_leaves.push(leaf);
        }
        let peak_before = self.stash.peak();
        read_path(&mut self.tree, &mut self.stash, leaf);
        match kind {
            PathKind::Data => {
                self.stats.data_path_accesses += 1;
                self.trace.record(PhysEvent::PathAccess(leaf));
            }
            PathKind::PosMap => {
                self.stats.posmap_path_accesses += 1;
                self.trace.record(PhysEvent::PathAccess(leaf));
            }
            PathKind::Dummy => {
                self.stats.background_evictions += 1;
                self.trace.record(PhysEvent::DummyAccess(leaf));
            }
        }
        self.stats.bytes_moved += self.path_bytes;
        if self.config.treetop_levels > 0 {
            self.stats.treetop_hits += u64::from(self.config.treetop_levels);
            self.stats.treetop_bytes_saved += self.treetop_saved_bytes;
        }
        self.stash.sample_occupancy();
        // Watermark events fire only when the all-time peak moves, so an
        // attached sink sees the (rare) growth edges, not every access.
        let peak = self.stash.peak();
        if peak > peak_before {
            let occupancy = self.stash.len() as u64;
            self.obs.emit(|| ObsEvent::StashWatermark {
                occupancy,
                peak: peak as u64,
            });
        }
    }

    /// Claims a just-fetched block for the access: finds `addr` in the
    /// stash, points it at its fresh leaf and hands it to the caller.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::BlockMissing`] if the block is on neither the
    /// fetched path nor in the stash — the placement invariant is broken.
    pub(crate) fn claim_block(
        &mut self,
        addr: proram_mem::BlockAddr,
        old_leaf: Leaf,
        new_leaf: Leaf,
    ) -> Result<&mut Block, OramError> {
        let block = self.stash.get_mut(addr).ok_or(OramError::BlockMissing {
            addr: addr.0,
            leaf: old_leaf.0,
        })?;
        block.leaf = new_leaf;
        Ok(block)
    }

    /// Renders the path to `leaf` as an explicit bucket-read batch for the
    /// bank-aware scheduler: one [`BucketRead`] per off-chip bucket,
    /// addressed by its *physical* store index
    /// ([`crate::StoreLayout::phys_of`]), each
    /// moving the derate-adjusted wire bytes of one bucket
    /// ([`crate::OramTiming::bucket_wire_bytes`]). Treetop-cached levels
    /// are on-chip and never appear in the batch. A super-block merged
    /// fetch is simply one larger batch (several paths concatenated).
    ///
    /// Allocates the returned vector; the per-access hot path instead
    /// charges the identical batch analytically, so this is for explicit
    /// scheduler callers (experiments and tests).
    pub fn bucket_read_batch(&self, leaf: Leaf) -> Vec<BucketRead> {
        let bucket_bytes = self.config.timing.bucket_wire_bytes(self.config.z);
        self.layout
            .off_chip_path(leaf)
            .map(|(_, phys)| BucketRead::new(phys as u64, bucket_bytes))
            .collect()
    }
}
