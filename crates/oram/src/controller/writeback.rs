//! Stages 4 & 5: path write-back and background eviction.
//!
//! Greedily writes stash blocks back onto the just-read path, seals its
//! off-chip buckets into the encrypted image (where, and only where,
//! they then live), and drains the stash with background
//! (dummy) evictions — paper Section 2.4 — bounded per access so an
//! eviction storm degrades throughput instead of livelocking. The drain
//! closes every access, so it also carries the periodic image scrub.

use super::{PathOram, MAX_BACKGROUND_EVICTIONS_PER_ACCESS, MAX_EMERGENCY_EVICTIONS};
use crate::addr::Leaf;
use crate::crash::KillPoint;
use crate::error::OramError;
use crate::eviction::write_path_with;
use proram_obs::{FaultKind, ObsEvent};

impl PathOram {
    /// Greedily writes stash blocks back to the path to `leaf`; with an
    /// encrypted image, seals the off-chip buckets into it straight from
    /// the staging row and drops their plaintext.
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
            self.tree.clear_staging();
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
    /// simulator, then ticks the periodic image scrub
    /// ([`crate::OramConfig::scrub_interval`], counted in calls — one per
    /// access). Returns how many evictions ran.
    ///
    /// With [`crate::OramConfig::stash_hard_capacity`] set, a stash still
    /// above the hard capacity after the bounded drain enters **emergency
    /// eviction**: a degraded mode (counted in
    /// [`proram_mem::FaultStats::emergency_evictions`]) that keeps
    /// evicting up to `MAX_EMERGENCY_EVICTIONS` more paths. Only if the
    /// stash *still* exceeds capacity does the controller fail-stop.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] when emergency eviction cannot
    /// bring occupancy under the hard capacity, [`OramError::Crashed`]
    /// when the armed `Evict` crossing is reached on entry, or propagates
    /// the fail-stop of a path read or of the scrub.
    pub fn try_drain_background(&mut self) -> Result<u64, OramError> {
        self.crash_gate(KillPoint::Evict)?;
        let mut n = 0;
        while self.stash.over_limit() && n < MAX_BACKGROUND_EVICTIONS_PER_ACCESS {
            self.try_background_evict()?;
            n += 1;
        }
        if let Some(cap) = self.config.stash_hard_capacity {
            let mut emergencies = 0;
            if self.stash.len() > cap {
                let occupancy = self.stash.len() as u64;
                self.obs.emit(|| ObsEvent::FaultDetected {
                    kind: FaultKind::StashPressure,
                    bucket: occupancy,
                });
            }
            while self.stash.len() > cap && emergencies < MAX_EMERGENCY_EVICTIONS {
                self.try_background_evict()?;
                self.ctrl_faults.emergency_evictions += 1;
                emergencies += 1;
                n += 1;
            }
            if self.stash.len() > cap {
                return Err(OramError::StashOverflow {
                    occupancy: self.stash.len(),
                    capacity: cap,
                });
            }
            if emergencies > 0 {
                let occupancy = self.stash.len() as u64;
                self.obs.emit(|| ObsEvent::FaultRecovered {
                    kind: FaultKind::StashPressure,
                    bucket: occupancy,
                });
            }
        }
        if self.config.scrub_interval > 0 {
            self.reads_since_scrub += 1;
            if self.reads_since_scrub >= self.config.scrub_interval {
                self.reads_since_scrub = 0;
                self.scrub()?;
            }
        }
        Ok(n)
    }

    /// Verifies the whole encrypted image
    /// ([`crate::EncryptedStore::verify_all`]): the periodic scrub pass
    /// driven by [`crate::OramConfig::scrub_interval`]; it can also be
    /// called directly. It catches corruption no access has walked into
    /// yet but cannot undo it: a bucket it flags fail-stops the
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
        self.ctrl_faults.scrub_runs += 1;
        self.ctrl_faults.scrub_buckets += store.num_buckets() as u64;
        store.verify_all().map_err(|err| self.fail_stop(err))
    }
}
