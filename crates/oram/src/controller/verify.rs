//! Stage 3: decrypt, authenticate, repair.
//!
//! Cross-checks the encrypted DRAM image against the trusted logical tree
//! — per-path inside every path read and image-wide in the periodic
//! scrub. With fault injection configured the stage *recovers* — both
//! callers hand a flagged bucket to the one `repair_bucket`, which
//! re-encrypts it from the logical tree; without it, detected faults
//! propagate as typed [`OramError`]s.

use super::PathOram;
use crate::addr::Leaf;
use crate::error::OramError;
use proram_obs::{FaultKind, ObsEvent};

/// The event-taxonomy class of a detected fault (for observability; the
/// typed error itself keeps the full payload).
fn fault_kind(err: &OramError) -> FaultKind {
    match err {
        OramError::Integrity { .. } => FaultKind::Integrity,
        OramError::Rollback { .. } => FaultKind::Rollback,
        OramError::Transient { .. } => FaultKind::Transient,
        OramError::StashOverflow { .. } => FaultKind::StashPressure,
        OramError::BlockMissing { .. } => FaultKind::BlockMissing,
        // Crash unwinds are propagated (never repaired here) and crash
        // injection excludes fault injection by config validation, so this
        // classification is only a defensive nearest-neighbor.
        OramError::Crashed { .. } => FaultKind::Transient,
    }
}

impl PathOram {
    /// Decrypts, authenticates and cross-checks every *off-chip* bucket
    /// on the path to `leaf` against the logical tree, repairing detected
    /// faults in place when recovery is enabled. Treetop-cached levels
    /// are trusted plaintext and skipped. The path goes through the
    /// store's open kernel as one batch, into reusable buffers — no
    /// payload reconstruction, no allocation; after a repaired bucket the
    /// rest of the path resumes as the next batch.
    pub(crate) fn verify_path(&mut self, leaf: Leaf) -> Result<(), OramError> {
        if self.store.is_none() {
            return Ok(());
        }
        self.verify_indices.clear();
        self.verify_indices
            .extend(self.layout.off_chip_path(leaf).map(|(_, phys)| phys));
        let mut done = 0;
        while done < self.verify_indices.len() {
            let rest = &self.verify_indices[done..];
            let opened = self
                .store
                .as_mut()
                .expect("checked above")
                .bucket_addrs_batch(rest, &mut self.verify_store_addrs, &mut self.verify_ends);
            let mut start = 0;
            for (&phys, &end) in rest.iter().zip(&self.verify_ends) {
                let heap = self.layout.heap_of(phys);
                self.verify_tree_addrs.clear();
                self.verify_tree_addrs
                    .extend(self.tree.bucket(heap).iter().map(|b| b.addr.0));
                self.verify_tree_addrs.sort_unstable();
                let store_addrs = &mut self.verify_store_addrs[start..end];
                store_addrs.sort_unstable();
                assert_eq!(
                    *store_addrs, self.verify_tree_addrs,
                    "encrypted image diverged at bucket {heap}"
                );
                start = end;
            }
            let Err(err) = opened else {
                break;
            };
            let clean = self.verify_ends.len();
            self.repair_bucket(rest[clean], err)?;
            done += clean + 1;
        }
        Ok(())
    }

    /// The one answer to a store read that failed on bucket `phys`:
    /// without recovery the error propagates; with it, a corrupted or
    /// rolled-back image is re-encrypted from the logical tree and an
    /// exhausted transient read is counted and skipped.
    ///
    /// # Errors
    ///
    /// Returns `err` itself when recovery is disabled or `err` is not a
    /// fault of the medium.
    fn repair_bucket(&mut self, phys: usize, err: OramError) -> Result<(), OramError> {
        if !self.recovery_enabled() {
            return Err(err);
        }
        let heap = self.layout.heap_of(phys);
        let kind = fault_kind(&err);
        self.obs.emit(|| ObsEvent::FaultDetected {
            kind,
            bucket: heap as u64,
        });
        match err {
            OramError::Integrity { .. } | OramError::Rollback { .. } => {
                // The logical tree is trusted on-chip state: restore the
                // bucket by re-encrypting it under a fresh nonce and
                // version.
                self.store
                    .as_mut()
                    .expect("a store reported the fault")
                    .write_bucket(phys, self.tree.bucket(heap));
                self.ctrl_faults.recovered += 1;
                self.obs.emit(|| ObsEvent::FaultRecovered {
                    kind,
                    bucket: heap as u64,
                });
                Ok(())
            }
            OramError::Transient { .. } => {
                // Retries exhausted; the logical copy still serves the
                // access, but the bucket went unread.
                self.ctrl_faults.unrecovered += 1;
                Ok(())
            }
            OramError::StashOverflow { .. }
            | OramError::BlockMissing { .. }
            | OramError::Crashed { .. } => Err(err),
        }
    }

    /// Verifies the whole encrypted image ([`crate::EncryptedStore::verify_all`])
    /// and, when recovery is enabled, repairs every bucket it flags from
    /// the trusted logical tree. This is the periodic scrub pass driven by
    /// [`crate::OramConfig::scrub_interval`]; it can also be called
    /// directly.
    ///
    /// # Errors
    ///
    /// Returns the first detected [`OramError`] when recovery is disabled.
    pub fn scrub(&mut self) -> Result<(), OramError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let num_buckets = store.num_buckets();
        self.ctrl_faults.scrub_runs += 1;
        self.ctrl_faults.scrub_buckets += num_buckets as u64;
        // Fast path: one clean sweep of the whole image.
        let Err(err) = store.verify_all() else {
            return Ok(());
        };
        if !self.recovery_enabled() {
            return Err(err);
        }
        // Something is wrong: re-verify bucket by bucket and repair.
        for phys in 0..num_buckets {
            let store = self.store.as_mut().expect("checked above");
            if let Err(err) = store.verify_bucket(phys) {
                self.repair_bucket(phys, err)?;
            }
        }
        Ok(())
    }
}
