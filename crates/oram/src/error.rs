//! Typed failures of the untrusted storage path.
//!
//! Every way the encrypted DRAM image can betray the controller is one
//! variant of [`OramError`]: corruption (a MAC mismatch), rollback (an
//! authentic but stale bucket replayed by the adversary — distinguishable
//! from corruption because per-bucket version counters are folded into the
//! MACs) and a transient read failure that exhausted its retry budget.
//! Two more variants are not faults of the medium: a broken placement
//! invariant and a simulated crash. Errors propagate as values through
//! [`crate::backend_trait::OramBackend`] and the `MemoryBackend` access
//! path; nothing in the storage stack panics on adversarial input.

use std::fmt;

/// A detected failure of the ORAM's untrusted storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OramError {
    /// Authentication failure: the stored image was modified outside the
    /// controller (PMMAC-style verification, after Freecursive ORAM
    /// \[8\]). `slot` is `None` when the bucket header itself (nonce /
    /// version / header tag) failed to authenticate.
    Integrity {
        /// Bucket whose contents failed verification.
        bucket: usize,
        /// Slot within the bucket, if the failure was slot-local.
        slot: Option<usize>,
    },
    /// Rollback: the bucket authenticates, but carries a version counter
    /// older than the trusted on-chip counter — a replay of a previously
    /// valid ciphertext (or a dropped write).
    Rollback {
        /// Bucket that was rolled back.
        bucket: usize,
        /// Version found in the (authentic) stored header.
        stored_version: u64,
        /// Version the trusted on-chip counter expected.
        expected_version: u64,
    },
    /// A transient read failure persisted through the whole retry budget.
    Transient {
        /// Bucket whose read kept failing.
        bucket: usize,
        /// Read attempts performed (initial try + retries).
        attempts: u32,
    },
    /// A block the position map maps to a path was found on neither that
    /// path nor in the stash — the Path ORAM placement invariant is
    /// broken. Unlike the storage faults above this is an internal
    /// controller failure, but it is reported as a value so a simulation
    /// harness can degrade instead of unwinding.
    BlockMissing {
        /// Address of the missing block.
        addr: u64,
        /// Leaf label of the path that was searched.
        leaf: u32,
    },
    /// A deterministic crash injection fired mid-access: the process is
    /// simulated as dead at the given kill point, leaving the store's
    /// undo journal (and possibly a torn path) behind. The access
    /// unwinds as a value so the harness can run
    /// [`crate::PathOram::recover`] and retry — the crash-consistency
    /// analogue of a power failure.
    Crashed {
        /// The kill point where the simulated death struck.
        point: crate::crash::KillPoint,
    },
}

impl fmt::Display for OramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OramError::Integrity {
                bucket,
                slot: Some(slot),
            } => write!(f, "integrity violation in bucket {bucket} slot {slot}"),
            OramError::Integrity { bucket, slot: None } => {
                write!(f, "integrity violation in bucket {bucket} header")
            }
            OramError::Rollback {
                bucket,
                stored_version,
                expected_version,
            } => write!(
                f,
                "rollback detected in bucket {bucket}: stored version {stored_version}, expected {expected_version}"
            ),
            OramError::Transient {
                bucket, attempts, ..
            } => write!(
                f,
                "transient read failure on bucket {bucket} persisted through {attempts} attempts"
            ),
            OramError::BlockMissing { addr, leaf } => write!(
                f,
                "placement invariant broken: block {addr} is on neither the path to leaf {leaf} nor in the stash"
            ),
            OramError::Crashed { point } => {
                write!(f, "simulated crash at kill point {}", point.name())
            }
        }
    }
}

impl std::error::Error for OramError {}

impl OramError {
    /// The bucket the error concerns, if it is bucket-local.
    pub fn bucket(&self) -> Option<usize> {
        match self {
            OramError::Integrity { bucket, .. }
            | OramError::Rollback { bucket, .. }
            | OramError::Transient { bucket, .. } => Some(*bucket),
            OramError::BlockMissing { .. } | OramError::Crashed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrity_display_names_bucket_and_slot() {
        let e = OramError::Integrity {
            bucket: 3,
            slot: Some(1),
        };
        assert_eq!(e.to_string(), "integrity violation in bucket 3 slot 1");
        let h = OramError::Integrity {
            bucket: 3,
            slot: None,
        };
        assert!(h.to_string().contains("integrity violation in bucket 3"));
    }

    #[test]
    fn rollback_display_names_versions() {
        let e = OramError::Rollback {
            bucket: 9,
            stored_version: 4,
            expected_version: 7,
        };
        let s = e.to_string();
        assert!(s.contains("rollback"), "{s}");
        assert!(s.contains('4') && s.contains('7'), "{s}");
    }

    #[test]
    fn bucket_accessor() {
        assert_eq!(
            OramError::Transient {
                bucket: 5,
                attempts: 3
            }
            .bucket(),
            Some(5)
        );
    }

    #[test]
    fn block_missing_names_block_and_leaf() {
        let e = OramError::BlockMissing { addr: 42, leaf: 7 };
        let s = e.to_string();
        assert!(s.contains("block 42"), "{s}");
        assert!(s.contains("leaf 7"), "{s}");
        assert_eq!(e.bucket(), None);
    }
}
