//! Stages 4 & 5: path write-back and background eviction.
//!
//! Greedily writes stash blocks back onto the just-read path, seals its
//! off-chip buckets into the encrypted image (where, and only where,
//! they then live), and drains the stash with background
//! (dummy) evictions — paper Section 2.4 — bounded per access so an
//! eviction storm degrades throughput instead of livelocking. The bound
//! is all the overflow handling there is: Path ORAM makes stash
//! occupancy independent of the access sequence, so no access pattern
//! can push it. [`PathOram::scrub`] re-authenticates the whole image on
//! demand.

use super::{PathOram, MAX_BACKGROUND_EVICTIONS_PER_ACCESS};
use crate::addr::Leaf;
use crate::crash::KillPoint;
use crate::error::OramError;
use crate::eviction::write_path_with;

impl PathOram {
    /// Greedily writes stash blocks back to the path to `leaf`; with an
    /// encrypted image, seals the off-chip buckets into it straight from
    /// the staging row and hands their plaintext back to the store.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::Crashed`] when the armed `WriteBack` crossing
    /// is reached on entry, or the `MidJournal` kill point fired during
    /// the write-back; the encrypted image keeps its pre-crash bytes and
    /// [`PathOram::recover`] must run before the next access.
    pub fn write_path_from_stash(&mut self, leaf: Leaf) -> Result<(), OramError> {
        self.crash_gate(KillPoint::WriteBack)?;
        write_path_with(&mut self.tree, &mut self.stash, leaf, &mut self.scratch);
        if let Some(store) = self.store.as_mut() {
            let indices = self.layout.off_chip_path(leaf).map(|(_, phys)| phys);
            store.write_buckets(indices.zip(self.tree.staging()));
            store.reclaim(self.tree.staging_mut());
        }
        self.store_crash_check()
    }

    /// Performs one background eviction (paper Section 2.4): read and
    /// write a random path, remapping nothing.
    ///
    /// # Errors
    ///
    /// Propagates the path read's fail-stop and crash errors.
    pub fn try_background_evict(&mut self) -> Result<(), OramError> {
        let leaf = self.random_leaf();
        self.try_read_path_into_stash(leaf, super::PathKind::Dummy)?;
        self.write_path_from_stash(leaf)
    }

    /// The closing step of one access: issues background evictions until
    /// the stash is under its limit, bounded per call so a persistent
    /// eviction storm degrades throughput instead of livelocking the
    /// simulator. Returns how many evictions ran.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::Crashed`] when the armed `Evict` crossing is
    /// reached on entry, or propagates the fail-stop of a path read.
    pub fn try_drain_background(&mut self) -> Result<u64, OramError> {
        self.crash_gate(KillPoint::Evict)?;
        let mut n = 0;
        while self.stash.over_limit() && n < MAX_BACKGROUND_EVICTIONS_PER_ACCESS {
            self.try_background_evict()?;
            n += 1;
        }
        Ok(n)
    }

    /// Verifies the whole encrypted image
    /// ([`crate::EncryptedStore::verify_all`]) on demand. It finds
    /// corruption no access has walked into yet but cannot undo it — the
    /// image is the only copy — so a bucket it flags fail-stops the
    /// controller as a failed path read does.
    ///
    /// # Errors
    ///
    /// Returns the [`OramError`] the controller fail-stopped on: the first
    /// bucket that fails, unless an earlier fault is latched already.
    pub fn scrub(&mut self) -> Result<(), OramError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        store.verify_all().map_err(|err| self.fail_stop(err))
    }
}
