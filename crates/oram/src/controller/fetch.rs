//! Stage 2: path fetch.
//!
//! Brings every bucket on a path into the stash, records the
//! adversary-visible event and byte movement, and claims the requested
//! block for remapping; with an encrypted image the off-chip part of the
//! path comes out of it here, opened as one batch.

use super::{PathKind, PathOram};
use crate::addr::Leaf;
use crate::block::Block;
use crate::crash::KillPoint;
use crate::error::OramError;
use crate::eviction::read_path;
use proram_obs::{FaultKind, ObsEvent};

/// More levels than any tree has ([`crate::OramTree::new`] caps them at
/// 31): the size of a path's on-stack index buffer.
const MAX_LEVELS: usize = 32;

impl PathOram {
    /// Reads every bucket on the path to `leaf` into the stash, recording
    /// the adversary-visible event, statistics and byte movement. Callers
    /// must pair this with [`PathOram::write_path_from_stash`] on the same
    /// leaf.
    ///
    /// With an encrypted image, the off-chip buckets of the path are
    /// opened from it as one batch — MAC-verified, decrypted — and their
    /// real blocks decoded, in slot order, into the tree's staging row,
    /// from where they reach the stash with the treetop's. A bucket that
    /// fails has no second copy to be repaired from: the controller
    /// fail-stops — this and every later path read return the error —
    /// and no block of that path reaches the stash.
    ///
    /// Crosses the `PathFetch` and `StashUpdate` kill points on the way,
    /// whatever kind of path this is.
    ///
    /// # Errors
    ///
    /// Returns the [`OramError`] the controller fail-stopped on, or
    /// [`OramError::Crashed`] when an armed crossing is reached.
    pub fn try_read_path_into_stash(
        &mut self,
        leaf: Leaf,
        kind: PathKind,
    ) -> Result<(), OramError> {
        if let Some(err) = self.failed {
            return Err(err);
        }
        self.crash_gate(KillPoint::PathFetch)?;
        if let Some(store) = self.store.as_mut() {
            let mut path = [0; MAX_LEVELS];
            let mut len = 0;
            for (_, phys) in self.layout.off_chip_path(leaf) {
                path[len] = phys;
                len += 1;
            }
            if let Err(err) = store.read_path(&path[..len], self.tree.staging_mut()) {
                return Err(self.fail_stop(err));
            }
        }
        self.crash_gate(KillPoint::StashUpdate)?;
        self.fill_path_into_stash(leaf, kind);
        Ok(())
    }

    /// The one answer to a fault of the medium (a forged or stale image,
    /// a transient failure past its retry budget): latches `err` unless a
    /// fault is latched already, voids the staged plaintext of the failed
    /// path and returns what is latched, as every later path read will —
    /// the half-done access has already remapped position-map entries, so
    /// going on is not safe.
    pub(crate) fn fail_stop(&mut self, err: OramError) -> OramError {
        self.tree.clear_staging();
        let kind = match err {
            OramError::Rollback { .. } => FaultKind::Rollback,
            OramError::Transient { .. } => FaultKind::Transient,
            _ => FaultKind::Integrity,
        };
        let bucket = err
            .bucket()
            .map_or(0, |phys| self.layout.heap_of(phys) as u64);
        self.obs.emit(|| ObsEvent::FaultDetected { kind, bucket });
        *self.failed.get_or_insert(err)
    }

    /// The stash-update half of a path fetch: moves the fetched path's
    /// blocks into the stash and records stats, the adversary-visible
    /// `path_access` event and occupancy.
    fn fill_path_into_stash(&mut self, leaf: Leaf, kind: PathKind) {
        self.log_fetched_leaf(leaf);
        let peak_before = self.stash.peak();
        read_path(&mut self.tree, &mut self.stash, leaf);
        match kind {
            PathKind::Data => self.stats.data_path_accesses += 1,
            PathKind::PosMap => self.stats.posmap_path_accesses += 1,
            PathKind::Dummy => self.stats.background_evictions += 1,
        }
        self.obs.emit(|| ObsEvent::PathAccess {
            leaf: u64::from(leaf.0),
            dummy: kind == PathKind::Dummy,
        });
        self.stats.bytes_moved += self.path_bytes;
        if self.config.treetop_levels > 0 {
            self.stats.treetop_hits += u64::from(self.config.treetop_levels);
            self.stats.treetop_bytes_saved += self.treetop_saved_bytes;
        }
        self.stash.sample_occupancy();
        // Watermark events fire only when the all-time peak moves, so an
        // attached sink sees the (rare) growth edges, not every access.
        // The fetch only inserts, so a moved peak is the current length.
        let peak = self.stash.peak();
        if peak > peak_before {
            self.obs
                .emit(|| ObsEvent::StashWatermark { peak: peak as u64 });
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
}
