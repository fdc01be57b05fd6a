//! The encrypted DRAM image.
//!
//! When [`crate::OramConfig::store_payloads`] is enabled, every bucket the
//! controller writes is serialized — dummies and all, so every bucket's
//! ciphertext has the same size and shape — encrypted under a fresh nonce,
//! and stored in a flat byte array standing in for the untrusted DRAM.
//! Reads decrypt and deserialize. This is the data path a real ORAM
//! controller's crypto unit performs; the tests check round-tripping and
//! that rewriting a bucket always changes its ciphertext (probabilistic
//! encryption).
//!
//! # Authentication and rollback protection
//!
//! Each bucket carries a cleartext header — nonce, a **monotonic version
//! counter**, and a header MAC binding both to the bucket index — and each
//! slot carries a PMMAC-style tag (after Freecursive ORAM \[8\]) over the
//! slot's *entire raw bytes* (header fields and the full payload area,
//! used or not) keyed by `(bucket index, version)`. The controller keeps
//! the authoritative version of every bucket in trusted on-chip state
//! ([`EncryptedStore`] itself models the trusted controller); a stored
//! bucket that authenticates but carries an old version is a **rollback**
//! ([`OramError::Rollback`]) — the replay of a previously valid ciphertext
//! — which plain MACs cannot distinguish from fresh data. Anything that
//! fails a MAC is **corruption** ([`OramError::Integrity`]).
//!
//! The byte backing is either plain memory or a [`FaultyStore`] that
//! injects seeded faults (bit flips, torn writes, rollbacks, transient
//! read failures); see [`crate::fault`]. All read paths report failures as
//! typed [`OramError`] values — nothing here panics on adversarial input.

use crate::addr::Leaf;
use crate::block::{Block, Payload, PayloadRef};
use crate::bucket::{BlockRef, Bucket};
use crate::crash::{CrashArm, CrashConfig, KillPoint};
use crate::crypto::{Mac, MacLane, StreamCipher, MAC_LANES};
use crate::error::OramError;
use crate::fault::{FaultConfig, FaultyStore};
use crate::journal::{Checkpoint, CheckpointChain, TxnJournal, EPOCH_DOMAIN};
use crate::posmap::PosEntry;
use proram_mem::{BlockAddr, FaultStats};
use std::borrow::Borrow;

/// Serialized size of one position-map entry.
pub const ENTRY_BYTES: usize = 8;

/// Offsets of the per-slot header fields within a slot: the valid flag
/// (1 byte), address (8), leaf (4), payload kind (1), payload length (2)
/// and MAC tag (8). The payload area follows the header.
const SLOT_VALID_OFFSET: usize = 0;
const SLOT_ADDR_OFFSET: usize = SLOT_VALID_OFFSET + 1;
const SLOT_LEAF_OFFSET: usize = SLOT_ADDR_OFFSET + 8;
const SLOT_KIND_OFFSET: usize = SLOT_LEAF_OFFSET + 4;
const SLOT_LEN_OFFSET: usize = SLOT_KIND_OFFSET + 1;
/// The tag covers every other slot byte (`[0, TAG)` and
/// `[SLOT_HEADER_BYTES, end)`).
const SLOT_TAG_OFFSET: usize = SLOT_LEN_OFFSET + 2;
const SLOT_HEADER_BYTES: usize = SLOT_TAG_OFFSET + 8;

/// Per-bucket header, stored in the clear as a real system stores its
/// IV/counter: encryption nonce, monotonic version counter, and a MAC over
/// both (bound to the bucket index).
const BUCKET_HEADER_BYTES: usize = 8 + 8 + 8;

/// Stride of the open kernel's early loads: one per cache line.
const CACHE_LINE: usize = 64;

/// The byte backing of the image: plain memory, or the fault injector.
#[derive(Debug, Clone)]
enum Backing {
    Plain(Vec<u8>),
    Faulty(Box<FaultyStore>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Plain(d) => d,
            Backing::Faulty(f) => f.bytes(),
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Backing::Plain(d) => d,
            Backing::Faulty(f) => f.bytes_mut(),
        }
    }

    fn begin_write(&mut self, index: usize, bucket_bytes: usize) -> &mut [u8] {
        match self {
            Backing::Plain(d) => &mut d[index * bucket_bytes..(index + 1) * bucket_bytes],
            Backing::Faulty(f) => f.begin_write(index),
        }
    }

    fn commit_write(&mut self, index: usize) {
        if let Backing::Faulty(f) = self {
            f.commit_write(index);
        }
    }
}

/// The encrypted bucket store.
#[derive(Debug, Clone)]
pub struct EncryptedStore {
    backing: Backing,
    cipher: StreamCipher,
    mac: Mac,
    next_nonce: u64,
    /// Trusted on-chip version counters, one per bucket. The stored image
    /// must match exactly; an authentic-but-older version is a rollback.
    versions: Vec<u64>,
    z: usize,
    payload_bytes: usize,
    num_buckets: usize,
    /// Scratch of the path kernels (DESIGN.md section 14), reused across
    /// calls.
    kernel: KernelScratch,
    /// Trusted epoch counter; the commit flip advances it after all home
    /// writes of a transaction landed.
    epoch: u64,
    /// The durable epoch header's MAC, binding [`Self::epoch`].
    epoch_tag: u64,
    /// Undo journal; while no transaction is open, writes go straight
    /// home.
    journal: TxnJournal,
    /// The sealed checkpoint records: the controller's volatile state as
    /// of the last commit, plus the pending record of a commit in flight.
    checkpoints: CheckpointChain,
    /// Countdown arm for the kill points: the store crosses `MidJournal`
    /// and `MidFlip` itself, the controller's path primitives cross the
    /// five stage points through [`Self::cross`]. Taken when it fires.
    crash: Option<CrashArm>,
    /// Once a kill point fired the store is "dead": every subsequent
    /// write is dropped until [`Self::recover_txn`] clears the state,
    /// exactly as if the process had exited mid-access. The one record
    /// that the kill fired.
    fired: Option<KillPoint>,
}

/// Scratch of one kernel call. The open kernel takes it by reference
/// rather than from the store, so a pure read can bring its own.
#[derive(Debug, Clone, Default)]
struct KernelScratch {
    /// The batch's plaintext bodies back to back. About 7 KiB for a
    /// reference path, so it stays in L1.
    plain: Vec<u8>,
    /// `[index, nonce, version]` — the words the header MAC covers — of
    /// each bucket of the batch, in batch order.
    heads: Vec<[u64; 3]>,
    /// The real slots of the batch, as `(batch position, slot)` in batch
    /// order. The seal kernel computes their tags, the open kernel
    /// verifies them and leaves the queue for its callers.
    queue: Vec<(usize, usize)>,
    /// Payloads of sealed plaintext, at most a path's worth, for the
    /// decoder to rebuild blocks in ([`EncryptedStore::reclaim`]).
    spare: Vec<Payload>,
}

/// What [`EncryptedStore::recover_txn`] did with the open journal; the
/// controller finishes recovery from this (checkpoint adoption,
/// re-verification).
#[derive(Debug)]
pub(crate) struct StoreRecovery {
    /// `true` = the epoch had already flipped: home images are
    /// authoritative and the pending checkpoint record was committed.
    /// `false` = rollback: journaled images were restored and the pending
    /// record, if any, dropped.
    pub replay: bool,
    /// Bucket indices touched by the transaction's journal, in first-write
    /// order — re-verified by the controller, and on a rollback the
    /// images that were restored.
    pub touched: Vec<usize>,
}

impl EncryptedStore {
    /// Creates a zeroed store for `num_buckets` buckets of `z` slots whose
    /// payload area holds `payload_bytes` bytes. Every bucket starts at
    /// version 0 with an authentic all-dummy image.
    ///
    /// # Panics
    ///
    /// Panics if `z` is zero.
    pub fn new(num_buckets: usize, z: usize, payload_bytes: usize, key: u64) -> Self {
        assert!(z > 0, "a bucket needs at least one slot");
        let bucket_bytes = Self::bucket_bytes_for(z, payload_bytes);
        let mac = Mac::new(key.rotate_left(32) ^ 0x5A5A_5A5A_5A5A_5A5A);
        let mut data = vec![0; num_buckets * bucket_bytes];
        // Authentic initial headers: nonce 0 (body not yet encrypted),
        // version 0. Without them an unwritten bucket would read as a
        // header forgery.
        for idx in 0..num_buckets {
            let header = &mut data[idx * bucket_bytes..idx * bucket_bytes + BUCKET_HEADER_BYTES];
            Self::write_header(header, &mac, idx as u64, 0, 0);
        }
        EncryptedStore {
            backing: Backing::Plain(data),
            cipher: StreamCipher::new(key),
            mac,
            next_nonce: 1,
            versions: vec![0; num_buckets],
            z,
            payload_bytes,
            num_buckets,
            kernel: KernelScratch::default(),
            epoch: 0,
            epoch_tag: mac.tag(&[EPOCH_DOMAIN, 0], &[]),
            journal: TxnJournal::default(),
            checkpoints: CheckpointChain::default(),
            crash: None,
            fired: None,
        }
    }

    /// Swaps the plain byte backing for a seeded fault injector.
    ///
    /// The injector draws from its own RNG, so a zero-rate configuration
    /// leaves every observable behavior identical.
    ///
    /// # Panics
    ///
    /// Panics if fault injection is already enabled or the configuration
    /// is invalid.
    pub fn enable_faults(&mut self, cfg: FaultConfig) {
        let bucket_bytes = self.bucket_bytes();
        match std::mem::replace(&mut self.backing, Backing::Plain(Vec::new())) {
            Backing::Plain(data) => {
                self.backing = Backing::Faulty(Box::new(FaultyStore::new(data, bucket_bytes, cfg)));
            }
            Backing::Faulty(_) => panic!("fault injection already enabled"),
        }
    }

    /// Fault injection / detection counters (all-zero without injection).
    pub fn fault_stats(&self) -> FaultStats {
        match &self.backing {
            Backing::Plain(_) => FaultStats::default(),
            Backing::Faulty(f) => f.stats(),
        }
    }

    /// Whether a fault injector backs this store.
    fn faults_enabled(&self) -> bool {
        matches!(self.backing, Backing::Faulty(_))
    }

    fn bucket_bytes_for(z: usize, payload_bytes: usize) -> usize {
        BUCKET_HEADER_BYTES + z * (SLOT_HEADER_BYTES + payload_bytes)
    }

    /// Serialized size of one bucket.
    pub fn bucket_bytes(&self) -> usize {
        Self::bucket_bytes_for(self.z, self.payload_bytes)
    }

    /// Serialized size of one slot: header plus payload area.
    fn slot_bytes(&self) -> usize {
        SLOT_HEADER_BYTES + self.payload_bytes
    }

    /// Size of one bucket's encrypted body: its `z` slots.
    fn body_bytes(&self) -> usize {
        self.z * self.slot_bytes()
    }

    /// Number of buckets in the image.
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// Raw ciphertext of bucket `index` (for tests).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn ciphertext(&self, index: usize) -> &[u8] {
        let bb = self.bucket_bytes();
        &self.backing.bytes()[index * bb..(index + 1) * bb]
    }

    fn write_header(header: &mut [u8], mac: &Mac, bucket_index: u64, nonce: u64, version: u64) {
        header[0..8].copy_from_slice(&nonce.to_le_bytes());
        header[8..16].copy_from_slice(&version.to_le_bytes());
        let tag = mac.tag(&[bucket_index, nonce, version], &[]);
        header[16..24].copy_from_slice(&tag.to_le_bytes());
    }

    // ----- crash-consistent commit protocol (DESIGN.md section 15) -----

    /// Arms (or disarms) crash injection. The store holds the one arm so
    /// that a kill at any point leaves it dead, whoever crossed the point.
    pub(crate) fn arm_crash(&mut self, crash: Option<CrashConfig>) {
        self.crash = crash.map(CrashArm::new);
    }

    /// Whether a transaction is open (between [`Self::begin_txn`] and
    /// the commit or recovery that closes it) — the one record of it.
    pub(crate) fn txn_open(&self) -> bool {
        self.journal.open
    }

    /// The kill point that killed this store, if one fired. The store
    /// stays dead (writes dropped) until `recover_txn`.
    pub fn crash_fired(&self) -> Option<KillPoint> {
        self.fired
    }

    /// Trusted epoch counter (advanced by each commit flip).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Verifies the durable epoch header's MAC against the trusted epoch.
    fn epoch_header_ok(&self) -> bool {
        self.epoch_tag == self.mac.tag(&[EPOCH_DOMAIN, self.epoch], &[])
    }

    /// Opens a transaction: subsequent bucket writes journal a first-touch
    /// undo entry (old image + old version) before touching home. Nothing
    /// is sealed: the pre-access volatile state is what the committed
    /// checkpoint records already describe.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open — the controller must
    /// commit or recover first.
    pub(crate) fn begin_txn(&mut self) {
        assert!(!self.journal.open, "transaction already open");
        self.journal.begin(self.epoch, self.num_buckets);
    }

    /// Seals one checkpoint record into the journal area — encrypted
    /// under the store's cipher, tagged under its MAC — as `size` bytes:
    /// `fill` appends the plaintext. Inside a transaction the record is
    /// checkpoint B: labelled with the epoch the commit flips to and
    /// pending until [`Self::commit_txn`] or recovery settles it. Outside
    /// one it describes the current epoch and is committed at once.
    ///
    /// Returns the sealed length, or `None` for a `Delta` (`full ==
    /// false`) that does not fit `size`; nothing is written then.
    pub(crate) fn seal_checkpoint(
        &mut self,
        full: bool,
        size: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Option<usize> {
        let epoch = self.epoch + u64::from(self.journal.open);
        let keys = (self.cipher, self.mac);
        let sealed = self.checkpoints.seal(keys, epoch, full, size, fill)?;
        if !self.journal.open {
            self.checkpoints.commit();
        }
        Some(sealed)
    }

    /// Number of committed checkpoint records (one `Full`, then `Delta`s).
    pub(crate) fn checkpoint_chain_len(&self) -> usize {
        self.checkpoints.len()
    }

    /// The sealed bytes of the committed checkpoint records in the
    /// journal area, oldest first — what an adversary reading untrusted
    /// storage sees of the controller's volatile state (for tests).
    pub fn checkpoint_records(&self) -> impl Iterator<Item = &[u8]> {
        self.checkpoints.sealed()
    }

    /// Rebuilds the volatile state the committed checkpoint records
    /// describe from their sealed bytes; `None` if any record fails
    /// authentication or does not decode.
    pub(crate) fn fold_checkpoints(&self) -> Option<Checkpoint> {
        self.checkpoints.fold((self.cipher, self.mac))
    }

    /// Commits the open transaction, whose checkpoint B is sealed: flips
    /// the MAC-bound epoch header, then discards the journal and commits
    /// B. After the flip the transaction is durable — a crash between
    /// flip and discard is replayed forward by recovery, not rolled back.
    ///
    /// Returns the journal's entry count (for observability).
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] if the `MidFlip` kill point fires between
    /// the flip and the journal discard.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open or checkpoint B is missing.
    pub(crate) fn commit_txn(&mut self) -> Result<u64, OramError> {
        assert!(self.journal.open, "commit without begin_txn");
        assert!(
            self.checkpoints.has_pending(),
            "commit without checkpoint B"
        );
        self.epoch += 1;
        self.epoch_tag = self.mac.tag(&[EPOCH_DOMAIN, self.epoch], &[]);
        if self.cross(KillPoint::MidFlip) {
            return Err(OramError::Crashed {
                point: KillPoint::MidFlip,
            });
        }
        self.journal.open = false;
        self.checkpoints.commit();
        Ok(self.journal.entries.len() as u64)
    }

    /// Store-level recovery: compares the epoch header against the open
    /// journal's begin epoch. Not yet flipped → roll every journaled
    /// image and version counter back and drop a pending checkpoint
    /// record; flipped → home is authoritative, discard the undo images
    /// and commit the pending record. Either way the journal closes and
    /// the crash state clears; the controller then adopts
    /// [`Self::fold_checkpoints`].
    ///
    /// Returns `None` when no transaction was open.
    ///
    /// # Panics
    ///
    /// Panics if the durable epoch header fails its MAC — recovery must
    /// never trust a forged epoch.
    pub(crate) fn recover_txn(&mut self) -> Option<StoreRecovery> {
        assert!(self.epoch_header_ok(), "epoch header failed authentication");
        self.fired = None;
        if !self.journal.open {
            return None;
        }
        self.journal.open = false;
        let entries = &self.journal.entries;
        let touched: Vec<usize> = entries.iter().map(|&(index, _)| index).collect();
        let replay = self.epoch != self.journal.begin_epoch;
        if !replay {
            // Rollback: restore the pre-transaction image and trusted
            // version of every touched bucket (each was journaled once).
            let bb = self.bucket_bytes();
            let images = self.journal.arena.chunks_exact(bb);
            for (&(index, version), image) in entries.iter().zip(images) {
                self.backing.bytes_mut()[index * bb..(index + 1) * bb].copy_from_slice(image);
                self.versions[index] = version;
            }
            self.checkpoints.abort();
        } else {
            self.checkpoints.commit();
        }
        Some(StoreRecovery { replay, touched })
    }

    /// Records a first-touch undo entry for `index` if a transaction is
    /// open. Returns `false` when the `MidJournal` kill point fired on
    /// this crossing — the caller must drop the write (the undo entry
    /// itself is durable; the home write never happens).
    fn journal_record(&mut self, index: usize) -> bool {
        if !self.journal.open {
            return true;
        }
        let bb = self.bucket_bytes();
        let image = &self.backing.bytes()[index * bb..(index + 1) * bb];
        !self.journal.record(index, self.versions[index], image)
            || !self.cross(KillPoint::MidJournal)
    }

    /// Crosses a kill point; `true` means it fired and the store is now
    /// dead. Firing consumes the arm, so it fires at most once.
    pub(crate) fn cross(&mut self, point: KillPoint) -> bool {
        if !self.crash.as_mut().is_some_and(|arm| arm.cross(point)) {
            return false;
        }
        self.crash = None;
        self.fired = Some(point);
        true
    }

    /// Serializes, encrypts and stores `bucket` at `index` under a fresh
    /// nonce, advancing the bucket's trusted version counter: a batch of
    /// one through [`EncryptedStore::write_buckets`].
    ///
    /// # Panics
    ///
    /// Panics if the bucket exceeds `z` blocks or a payload exceeds the
    /// payload area.
    pub fn write_bucket(&mut self, index: usize, bucket: &Bucket) {
        self.write_buckets([(index, bucket)]);
    }

    /// Serializes, encrypts and stores a whole path's buckets in the
    /// order given: bucket `k` gets the `k`-th fresh nonce and its next
    /// version, and a store-level kill at bucket `k` leaves the buckets
    /// before it written, `k` journaled only and the rest untouched.
    /// `buckets` is any re-iterable sequence of `(index, bucket)`, by
    /// value or by reference: a slice of pairs, or indices zipped with
    /// the buckets where they lie (the controller seals a path straight
    /// from the tree's staging row).
    ///
    /// A fault injector draws once per bucket write, so a faulty backing
    /// is driven through the kernel one bucket at a time.
    ///
    /// # Panics
    ///
    /// Panics if any bucket exceeds `z` blocks or a payload exceeds the
    /// payload area.
    pub fn write_buckets<'a, I>(&mut self, buckets: I)
    where
        I: IntoIterator<IntoIter: Clone>,
        I::Item: Borrow<(usize, &'a Bucket)>,
    {
        let buckets = buckets.into_iter().map(|pair| *pair.borrow());
        if self.faults_enabled() {
            for one in buckets {
                self.seal_kernel(std::iter::once(one));
            }
        } else {
            self.seal_kernel(buckets);
        }
    }

    /// The seal kernel (DESIGN.md section 14): works in phases over the
    /// whole batch so the slot MACs of different buckets run in lockstep
    /// and every image line is written exactly once.
    fn seal_kernel<'a>(&mut self, buckets: impl Iterator<Item = (usize, &'a Bucket)> + Clone) {
        let (bb, body, slot_bytes) = (self.bucket_bytes(), self.body_bytes(), self.slot_bytes());
        // Phase 1: first-touch journaling, nonces and versions, in path
        // order. A kill (now, or earlier in this access) ends the batch
        // here: the "process" died, nothing further reaches DRAM.
        self.kernel.heads.clear();
        for (index, bucket) in buckets.clone() {
            if self.fired.is_some() || !self.journal_record(index) {
                break;
            }
            assert!(bucket.len() <= self.z, "bucket exceeds Z");
            let nonce = self.next_nonce;
            self.next_nonce += 1;
            self.versions[index] += 1;
            let head = [index as u64, nonce, self.versions[index]];
            self.kernel.heads.push(head);
        }
        let k = &mut self.kernel;
        let live = k.heads.len();
        // Phase 2: serialize the batch into the scratch. Zeroed first so
        // unfilled slots are dummy blocks, indistinguishable after
        // encryption.
        if k.plain.len() < live * body {
            k.plain.resize(live * body, 0);
        }
        k.plain[..live * body].fill(0);
        k.queue.clear();
        for (pos, (_, bucket)) in buckets.take(live).enumerate() {
            for (i, block) in bucket.iter().enumerate() {
                let slot = &mut k.plain[pos * body + i * slot_bytes..][..slot_bytes];
                Self::serialize_fields(block, slot, self.payload_bytes);
                k.queue.push((pos, i));
            }
        }
        // Phase 3: seal the queued slots, MAC_LANES chains in lockstep.
        for group in k.queue.chunks(MAC_LANES) {
            let tags = Self::slot_tags(&self.mac, group, &k.heads, &k.plain, body, slot_bytes);
            for (&(pos, i), tag) in group.iter().zip(tags) {
                let at = pos * body + i * slot_bytes;
                k.plain[at + SLOT_TAG_OFFSET..at + SLOT_HEADER_BYTES]
                    .copy_from_slice(&tag.to_le_bytes());
            }
        }
        // Phase 4: header, then encrypt-while-copy into the image. (A
        // header MAC is four rounds: too short for lanes to beat the
        // overlap the core finds between consecutive buckets by itself.)
        for (&[index, nonce, version], plain) in k.heads.iter().zip(k.plain.chunks_exact(body)) {
            let out = self.backing.begin_write(index as usize, bb);
            let (header, stored) = out.split_at_mut(BUCKET_HEADER_BYTES);
            Self::write_header(header, &self.mac, index, nonce, version);
            self.cipher.apply_to(nonce, plain, stored);
            self.backing.commit_write(index as usize);
        }
    }

    /// Slot tags of up to [`MAC_LANES`] queued `(batch position, slot)`
    /// entries in lockstep; lanes past `group.len()` are unused. A tag
    /// binds the slot's raw bytes — header fields and the whole payload
    /// area, used or not (zeroed padding included, so a flip past `len`
    /// is still caught), the tag field itself excluded — plus the bucket
    /// index and version, so replaying an authentic slot at a different
    /// tree position or from an older version fails verification.
    fn slot_tags(
        mac: &Mac,
        group: &[(usize, usize)],
        heads: &[[u64; 3]],
        plain: &[u8],
        body: usize,
        slot_bytes: usize,
    ) -> [u64; MAC_LANES] {
        let mut keyed = [[0u64; 2]; MAC_LANES];
        let mut parts: [[&[u8]; 2]; MAC_LANES] = [[&[]; 2]; MAC_LANES];
        for ((keyed, parts), &(pos, i)) in keyed.iter_mut().zip(&mut parts).zip(group) {
            let [index, _, version] = heads[pos];
            *keyed = [index, version];
            let slot = &plain[pos * body + i * slot_bytes..][..slot_bytes];
            *parts = [&slot[..SLOT_TAG_OFFSET], &slot[SLOT_HEADER_BYTES..]];
        }
        let lanes: [MacLane<'_>; MAC_LANES] =
            std::array::from_fn(|l| (&keyed[l][..], &parts[l][..]));
        let mut tags = [0; MAC_LANES];
        mac.tag_lanes(&lanes[..group.len()], &mut tags[..group.len()]);
        tags
    }

    /// Reads, decrypts, authenticates and deserializes bucket `index`: a
    /// path of one through [`EncryptedStore::read_path`].
    ///
    /// # Errors
    ///
    /// Reports tampering as [`OramError::Integrity`], an authentic stale
    /// image as [`OramError::Rollback`], and a transient read failure that
    /// exhausted its retry budget as [`OramError::Transient`].
    pub fn try_read_bucket(&mut self, index: usize) -> Result<Vec<Block>, OramError> {
        let mut row = [Bucket::new(self.z)];
        self.read_path(&[index], &mut row)?;
        Ok(row[0].drain().collect())
    }

    /// The path decoder — the fetch half of an access: authenticates and
    /// decrypts the buckets of `indices` as one batch, then rebuilds the
    /// real blocks of bucket `k`, in slot order, into `row[k]`.
    ///
    /// # Errors
    ///
    /// Same classification as [`EncryptedStore::try_read_bucket`], and
    /// the error is the first in path order. Nothing is decoded then.
    pub fn read_path(&mut self, indices: &[usize], row: &mut [Bucket]) -> Result<(), OramError> {
        let mut k = std::mem::take(&mut self.kernel);
        let opened = self.open_batch(indices, &mut k).map_err(|(_, err)| err);
        let read = opened.and_then(|()| self.decode_queue(&mut k, indices, row));
        self.kernel = k;
        read
    }

    /// Empties a row of plaintext buckets that has been sealed, keeping
    /// up to a path's worth of their payloads for the next decode to
    /// rebuild blocks in, so that a path of stored data does not allocate
    /// a payload per block on every read.
    pub(crate) fn reclaim(&mut self, row: &mut [Bucket]) {
        let spare = &mut self.kernel.spare;
        let keep = row.len() * self.z;
        for block in row.iter_mut().flat_map(Bucket::drain) {
            if !block.payload.is_opaque() && spare.len() < keep {
                spare.push(block.payload);
            }
        }
    }

    /// A payload [`EncryptedStore::reclaim`] kept, or an opaque one.
    pub(crate) fn spare_payload(&mut self) -> Payload {
        self.kernel.spare.pop().unwrap_or_default()
    }

    /// Reads bucket `index` into `out` (emptied first) without side
    /// effects — the injector is not consulted, the store's scratch not
    /// used — so an auditor holding `&self` can walk the image.
    ///
    /// # Errors
    ///
    /// As [`EncryptedStore::try_read_bucket`], transients excepted.
    pub fn peek_bucket(&self, index: usize, out: &mut Bucket) -> Result<(), OramError> {
        out.drain();
        let mut k = KernelScratch::default();
        k.plain.resize(self.body_bytes(), 0);
        self.open_kernel(&[index], 0, &mut k)?;
        self.decode_queue(&mut k, &[index], std::slice::from_mut(out))
    }

    /// Rebuilds the blocks of the slots an open left queued in `k`, from
    /// its plaintext bodies, into the row.
    fn decode_queue(
        &self,
        k: &mut KernelScratch,
        indices: &[usize],
        row: &mut [Bucket],
    ) -> Result<(), OramError> {
        let (body, slot_bytes) = (self.body_bytes(), self.slot_bytes());
        for &(pos, i) in &k.queue {
            let slot = &k.plain[pos * body + i * slot_bytes..][..slot_bytes];
            let spare = k.spare.pop().unwrap_or_default();
            let block = Self::decode_block(slot, spare).ok_or(OramError::Integrity {
                bucket: indices[pos],
                slot: Some(i),
            })?;
            row[pos].push(block);
        }
        Ok(())
    }

    /// Authenticates bucket `index` and appends the address of every real
    /// block it holds to `addrs`, without reconstructing payloads.
    ///
    /// `plain` is a caller-owned scratch buffer reused across calls (it
    /// receives the bucket's plaintext), so nothing is allocated.
    ///
    /// # Errors
    ///
    /// Same classification as [`EncryptedStore::try_read_bucket`].
    pub fn bucket_addrs_into(
        &mut self,
        index: usize,
        plain: &mut Vec<u8>,
        addrs: &mut Vec<u64>,
    ) -> Result<(), OramError> {
        let mut k = std::mem::take(&mut self.kernel);
        std::mem::swap(&mut k.plain, plain);
        let opened = self.open_batch(&[index], &mut k);
        std::mem::swap(&mut k.plain, plain);
        if opened.is_ok() {
            let slot_bytes = self.slot_bytes();
            addrs.extend(
                k.queue
                    .iter()
                    .map(|&(_, i)| word(plain, i * slot_bytes + SLOT_ADDR_OFFSET)),
            );
        }
        self.kernel = k;
        opened.map_err(|(_, err)| err)
    }

    /// Verifies one bucket's header and slot authentication tags.
    ///
    /// # Errors
    ///
    /// Same classification as [`EncryptedStore::try_read_bucket`].
    pub fn verify_bucket(&mut self, index: usize) -> Result<(), OramError> {
        let mut k = std::mem::take(&mut self.kernel);
        let opened = self.open_batch(&[index], &mut k);
        self.kernel = k;
        opened.map_err(|(_, err)| err)
    }

    /// Verifies every bucket's authentication tags (the scrub pass).
    ///
    /// # Errors
    ///
    /// Returns the first [`OramError`] encountered.
    pub fn verify_all(&mut self) -> Result<(), OramError> {
        for idx in 0..self.num_buckets {
            self.verify_bucket(idx)?;
        }
        Ok(())
    }

    /// Opens the buckets of `indices` into the scratch — body `n` at
    /// `n * body_bytes` of its plaintext, their real slots in its queue.
    /// The whole batch goes through the open kernel at once; a fault
    /// injector draws once per bucket read, and a failure must surface
    /// as the first one in path order, so a faulty backing and a failed
    /// batch go through it bucket by bucket instead.
    ///
    /// On error, the position of the failing bucket comes with it; the
    /// plaintext and queue entries of the buckets before it are valid.
    fn open_batch(
        &mut self,
        indices: &[usize],
        kernel: &mut KernelScratch,
    ) -> Result<(), (usize, OramError)> {
        let need = indices.len() * self.body_bytes();
        if kernel.plain.len() < need {
            kernel.plain.resize(need, 0);
        }
        kernel.queue.clear();
        if !self.faults_enabled() && self.open_kernel(indices, 0, kernel).is_ok() {
            return Ok(());
        }
        kernel.queue.clear();
        for (pos, &index) in indices.iter().enumerate() {
            let queued = kernel.queue.len();
            if let Backing::Faulty(f) = &mut self.backing {
                if let Err(attempts) = f.read_gate() {
                    let exhausted = OramError::Transient {
                        bucket: index,
                        attempts,
                    };
                    return Err((pos, exhausted));
                }
            }
            let opened = self.open_kernel(&[index], pos, kernel);
            if let Backing::Faulty(f) = &mut self.backing {
                match &opened {
                    Ok(()) => f.note_clean_read(index),
                    Err(err) => f.note_detected(index, err),
                }
            }
            if let Err(err) = opened {
                kernel.queue.truncate(queued);
                return Err((pos, err));
            }
        }
        Ok(())
    }

    /// The open kernel (DESIGN.md section 14): authenticates and decrypts
    /// `indices` into the scratch's plaintext from batch position `first`
    /// on, in phases over the whole batch, appending their real slots to
    /// its queue. Pure — the image, the injector and the store's own
    /// scratch are untouched; a failure is *a* failure of the batch, not
    /// necessarily the first in path order.
    fn open_kernel(
        &self,
        indices: &[usize],
        first: usize,
        kernel: &mut KernelScratch,
    ) -> Result<(), OramError> {
        let (bb, body, slot_bytes) = (self.bucket_bytes(), self.body_bytes(), self.slot_bytes());
        let (heads, queue) = (&mut kernel.heads, &mut kernel.queue);
        let image = self.backing.bytes();
        // Phase 1: authenticate every header against the trusted version
        // counters. The loads come first: the header words, and one byte
        // of every cache line the bucket reaches into. Nothing waits on
        // them, so the misses of the deep (cold) levels overlap instead
        // of surfacing one by one under the decrypt loop (`black_box`
        // keeps the loads whose value nobody needs).
        heads.clear();
        let mut touched = 0;
        for &index in indices {
            let stored = &image[index * bb..(index + 1) * bb];
            heads.push([index as u64, word(stored, 0), word(stored, 8)]);
            let lines = stored.iter().step_by(CACHE_LINE).chain(stored.last());
            touched ^= lines.fold(0, |acc, b| acc ^ b);
        }
        std::hint::black_box(touched);
        for &[index, nonce, version] in heads.iter() {
            let bucket = index as usize;
            if self.mac.tag(&[index, nonce, version], &[]) != word(image, bucket * bb + 16) {
                return Err(OramError::Integrity { bucket, slot: None });
            }
            let expected = self.versions[bucket];
            if version < expected {
                // The header authenticates, so (nonce, version) was once
                // valid for this bucket: a replayed stale image.
                return Err(OramError::Rollback {
                    bucket,
                    stored_version: version,
                    expected_version: expected,
                });
            }
            if version > expected {
                // Ahead of the trusted counter: replay cannot produce it;
                // classify as corruption defensively.
                return Err(OramError::Integrity { bucket, slot: None });
            }
        }
        // Phase 2: decrypt-while-copy each body into the scratch. Nonce 0
        // marks a never-written bucket, whose body is stored in the clear.
        let plain = &mut kernel.plain[first * body..(first + indices.len()) * body];
        for ((&index, &[_, nonce, _]), out) in indices
            .iter()
            .zip(heads.iter())
            .zip(plain.chunks_exact_mut(body))
        {
            let stored = &image[index * bb + BUCKET_HEADER_BYTES..(index + 1) * bb];
            if nonce == 0 {
                out.copy_from_slice(stored);
            } else {
                self.cipher.apply_to(nonce, stored, out);
            }
        }
        // Phase 3: classify the slots up to the first bad one. A dummy is
        // all-zero after decryption (any other value in the valid flag is
        // tampering); a real slot's length field must fit the payload
        // area, and its tag is queued for phase 4.
        let queued = queue.len();
        let mut bad = None;
        'classify: for (k, bucket) in plain.chunks_exact(body).enumerate() {
            for (i, slot) in bucket.chunks_exact(slot_bytes).enumerate() {
                let real = slot[SLOT_VALID_OFFSET] == 1;
                if real && usize::from(half(slot, SLOT_LEN_OFFSET)) <= self.payload_bytes {
                    queue.push((k, i));
                } else if real || !all_zero(slot) {
                    bad = Some((k, i));
                    break 'classify;
                }
            }
        }
        // Phase 4: verify the queued tags, MAC_LANES chains in lockstep.
        // Every queued slot precedes the one phase 3 stopped at, so a
        // forged tag is the earlier failure of the two.
        let forged = queue[queued..].chunks(MAC_LANES).find_map(|group| {
            let tags = Self::slot_tags(&self.mac, group, heads, plain, body, slot_bytes);
            let stored =
                |&(k, i): &(usize, usize)| word(plain, k * body + i * slot_bytes + SLOT_TAG_OFFSET);
            let mut checked = group.iter().zip(tags);
            checked.find_map(|(at, tag)| (tag != stored(at)).then_some(*at))
        });
        if let Some((k, i)) = forged.or(bad) {
            return Err(OramError::Integrity {
                bucket: indices[k],
                slot: Some(i),
            });
        }
        // Queue positions are batch positions from here on.
        for entry in &mut queue[queued..] {
            entry.0 += first;
        }
        Ok(())
    }

    /// Fault injection for tests: XORs `mask` into one ciphertext byte of
    /// bucket `index`.
    ///
    /// # Panics
    ///
    /// Panics if the offset is outside the bucket or the mask is zero (a
    /// zero mask would not corrupt anything).
    pub fn corrupt_byte(&mut self, index: usize, offset: usize, mask: u8) {
        assert!(mask != 0, "a zero mask does not corrupt");
        let bb = self.bucket_bytes();
        assert!(offset < bb, "offset {offset} outside bucket of {bb} bytes");
        self.backing.bytes_mut()[index * bb + offset] ^= mask;
    }

    /// Writes a block's slot fields — valid flag, address, leaf, payload
    /// kind/length and the payload bytes — into a zeroed slot,
    /// leaving the tag field zero for [`Self::slot_tags`] to fill.
    fn serialize_fields(block: BlockRef<'_>, slot: &mut [u8], payload_bytes: usize) {
        let (head, body_area) = slot.split_at_mut(SLOT_HEADER_BYTES);
        head[SLOT_VALID_OFFSET] = 1;
        head[SLOT_ADDR_OFFSET..SLOT_LEAF_OFFSET].copy_from_slice(&block.addr.0.to_le_bytes());
        head[SLOT_LEAF_OFFSET..SLOT_KIND_OFFSET].copy_from_slice(&block.leaf.0.to_le_bytes());
        // Serialize the payload straight into the slot's body area — no
        // staging Vec; the MAC is computed over the written bytes.
        let (kind, len): (u8, usize) = match block.payload.view() {
            PayloadRef::Opaque => (0, 0),
            PayloadRef::Data(bytes) => {
                assert!(
                    bytes.len() <= payload_bytes,
                    "payload {} exceeds slot {payload_bytes}",
                    bytes.len()
                );
                body_area[..bytes.len()].copy_from_slice(bytes);
                (1, bytes.len())
            }
            PayloadRef::PosMap(entries) => {
                let len = entries.len() * ENTRY_BYTES;
                assert!(
                    len <= payload_bytes,
                    "payload {len} exceeds slot {payload_bytes}"
                );
                for (e, out) in entries.iter().zip(body_area.chunks_exact_mut(ENTRY_BYTES)) {
                    out[0..4].copy_from_slice(&e.leaf.0.to_le_bytes());
                    out[4..6].copy_from_slice(&e.merge.to_le_bytes());
                    out[6..8].copy_from_slice(&e.brk.to_le_bytes());
                }
                (2, len)
            }
        };
        head[SLOT_KIND_OFFSET] = kind;
        head[SLOT_LEN_OFFSET..SLOT_TAG_OFFSET].copy_from_slice(&(len as u16).to_le_bytes());
    }

    /// Rebuilds the block of an authenticated real slot, its payload in
    /// `spare`'s memory; `None` if the payload kind or the address is not
    /// one this store writes.
    fn decode_block(slot: &[u8], spare: Payload) -> Option<Block> {
        let addr = word(slot, SLOT_ADDR_OFFSET);
        if addr >= Bucket::ADDR_LIMIT {
            return None;
        }
        let len = usize::from(half(slot, SLOT_LEN_OFFSET));
        let body = &slot[SLOT_HEADER_BYTES..SLOT_HEADER_BYTES + len];
        let payload = match slot[SLOT_KIND_OFFSET] {
            0 => Payload::OPAQUE,
            1 => spare.refill_data(body),
            2 => spare.refill_posmap(body.chunks_exact(ENTRY_BYTES).map(|chunk| PosEntry {
                leaf: Leaf(u32::from_le_bytes(chunk[0..4].try_into().expect("eleaf"))),
                merge: i16::from_le_bytes(chunk[4..6].try_into().expect("merge")),
                brk: i16::from_le_bytes(chunk[6..8].try_into().expect("brk")),
            })),
            _ => return None,
        };
        Some(Block {
            addr: BlockAddr(addr),
            leaf: Leaf(u32::from_le_bytes(
                slot[SLOT_LEAF_OFFSET..SLOT_KIND_OFFSET]
                    .try_into()
                    .expect("leaf"),
            )),
            payload,
        })
    }
}

/// The little-endian `u64` at `bytes[at..at + 8]`.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// The little-endian `u16` at `bytes[at..at + 2]`.
fn half(bytes: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(bytes[at..at + 2].try_into().expect("2 bytes"))
}

/// Whether every byte is zero, tested a word at a time.
fn all_zero(bytes: &[u8]) -> bool {
    let words = bytes.chunks_exact(8);
    let tail = words.remainder().iter().fold(0, |acc, &b| acc | b);
    words.fold(u64::from(tail), |acc, w| acc | word(w, 0)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultClass;

    fn store() -> EncryptedStore {
        EncryptedStore::new(8, 3, 128, 0x5EED)
    }

    fn data_block(addr: u64, fill: u8) -> Block {
        Block::with_data(BlockAddr(addr), Leaf(3), vec![fill; 128].into())
    }

    #[test]
    fn round_trip_data_bucket() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0xAA));
        b.push(data_block(2, 0xBB));
        s.write_bucket(4, &b);
        let blocks = s.try_read_bucket(4).expect("authentic bucket");
        assert_eq!(blocks.len(), 2);
        let b1 = blocks.iter().find(|b| b.addr == BlockAddr(1)).unwrap();
        assert_eq!(b1.leaf, Leaf(3));
        match b1.payload.view() {
            PayloadRef::Data(bytes) => assert!(bytes.iter().all(|&x| x == 0xAA)),
            other => panic!("wrong payload: {other:?}"),
        }
    }

    #[test]
    fn round_trip_posmap_bucket() {
        let mut s = store();
        let entries = vec![
            PosEntry {
                leaf: Leaf(7),
                merge: -2,
                brk: 3,
            },
            PosEntry::new(Leaf(9)),
        ];
        let mut b = Bucket::new(3);
        b.push(Block::posmap(
            BlockAddr(100),
            Leaf(1),
            entries.clone().into(),
        ));
        s.write_bucket(0, &b);
        let blocks = s.try_read_bucket(0).expect("authentic bucket");
        assert_eq!(blocks[0].entries(), entries.as_slice());
    }

    #[test]
    fn empty_bucket_round_trips() {
        let mut s = store();
        s.write_bucket(2, &Bucket::new(3));
        assert!(s.try_read_bucket(2).expect("authentic bucket").is_empty());
    }

    #[test]
    fn a_refilled_bucket_seals_no_stale_payload() {
        // A slot that held a payload and then takes an opaque block seals
        // to the bytes a bucket that never held one seals to.
        let mut reused = Bucket::new(3);
        reused.push(data_block(1, 0xAA));
        reused.drain();
        let mut fresh = Bucket::new(3);
        for bucket in [&mut reused, &mut fresh] {
            bucket.push(Block::opaque(BlockAddr(2), Leaf(5)));
        }
        let (mut a, mut b) = (store(), store());
        a.write_bucket(2, &reused);
        b.write_bucket(2, &fresh);
        assert_eq!(a.ciphertext(2), b.ciphertext(2));
        let blocks = a.try_read_bucket(2).expect("authentic bucket");
        assert_eq!(blocks, [Block::opaque(BlockAddr(2), Leaf(5))]);
    }

    #[test]
    fn unwritten_bucket_reads_empty() {
        let mut s = store();
        assert!(s.try_read_bucket(5).expect("initial image").is_empty());
    }

    #[test]
    fn rewriting_changes_ciphertext() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0xCC));
        s.write_bucket(3, &b);
        let before = s.ciphertext(3).to_vec();
        s.write_bucket(3, &b); // identical plaintext
        let after = s.ciphertext(3).to_vec();
        assert_ne!(
            before, after,
            "probabilistic encryption must refresh ciphertexts"
        );
        // But the logical content is unchanged.
        assert_eq!(
            s.try_read_bucket(3).expect("authentic bucket")[0].addr,
            BlockAddr(1)
        );
    }

    #[test]
    fn dummy_slots_indistinguishable_from_real() {
        // Every bucket ciphertext has the same length regardless of how
        // many real blocks it holds.
        let mut s = store();
        let mut full = Bucket::new(3);
        for i in 0..3 {
            full.push(data_block(i, i as u8));
        }
        s.write_bucket(0, &full);
        s.write_bucket(1, &Bucket::new(3));
        assert_eq!(s.ciphertext(0).len(), s.ciphertext(1).len());
    }

    #[test]
    fn tampering_with_ciphertext_is_detected() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x5A));
        s.write_bucket(2, &b);
        assert!(s.verify_all().is_ok());
        // Flip one ciphertext byte in the slot area.
        s.corrupt_byte(2, 40, 0x80);
        let err = s
            .try_read_bucket(2)
            .expect_err("tampering must be detected");
        assert_eq!(err.bucket(), Some(2));
        assert!(matches!(err, OramError::Integrity { .. }));
        assert!(s.verify_all().is_err());
    }

    #[test]
    fn tampering_with_nonce_is_detected() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x5A));
        s.write_bucket(0, &b);
        s.corrupt_byte(0, 0, 0x01); // nonce byte
        assert!(matches!(
            s.try_read_bucket(0),
            Err(OramError::Integrity {
                bucket: 0,
                slot: None
            })
        ));
    }

    #[test]
    fn every_header_field_flip_reports_exact_bucket_and_slot() {
        // Flip one byte in each authenticated field — bucket header
        // (nonce, version, header tag) and slot 0's header (valid, addr,
        // leaf, kind, len, tag) — and check the error names the exact
        // bucket, and the exact slot for slot-local corruption.
        let bucket_fields: [(&str, usize); 3] = [("nonce", 0), ("version", 8), ("header-tag", 16)];
        for (name, offset) in bucket_fields {
            let mut s = store();
            let mut b = Bucket::new(3);
            b.push(data_block(1, 0x5A));
            s.write_bucket(2, &b);
            s.corrupt_byte(2, offset, 0x01);
            assert_eq!(
                s.try_read_bucket(2),
                Err(OramError::Integrity {
                    bucket: 2,
                    slot: None
                }),
                "{name} flip misclassified"
            );
        }
        // Slot 0 begins after the bucket header.
        let slot0 = BUCKET_HEADER_BYTES;
        let slot_fields: [(&str, usize); 6] = [
            ("valid", slot0 + SLOT_VALID_OFFSET),
            ("addr", slot0 + SLOT_ADDR_OFFSET),
            ("leaf", slot0 + SLOT_LEAF_OFFSET),
            ("kind", slot0 + SLOT_KIND_OFFSET),
            ("len", slot0 + SLOT_LEN_OFFSET),
            ("tag", slot0 + SLOT_TAG_OFFSET),
        ];
        for (name, offset) in slot_fields {
            let mut s = store();
            let mut b = Bucket::new(3);
            b.push(data_block(1, 0x5A));
            s.write_bucket(2, &b);
            s.corrupt_byte(2, offset, 0x01);
            assert_eq!(
                s.try_read_bucket(2),
                Err(OramError::Integrity {
                    bucket: 2,
                    slot: Some(0)
                }),
                "{name} flip misclassified"
            );
        }
    }

    #[test]
    fn payload_bytes_past_len_are_authenticated() {
        // A posmap payload uses only part of the payload area; the MAC
        // must cover the zeroed remainder too.
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(Block::posmap(
            BlockAddr(9),
            Leaf(2),
            vec![PosEntry::new(Leaf(1)); 4].into(),
        ));
        s.write_bucket(1, &b);
        // 4 entries * 8 bytes = 32 used of 128; flip a byte well past len.
        let offset = BUCKET_HEADER_BYTES + SLOT_HEADER_BYTES + 100;
        s.corrupt_byte(1, offset, 0x40);
        assert_eq!(
            s.try_read_bucket(1),
            Err(OramError::Integrity {
                bucket: 1,
                slot: Some(0)
            })
        );
    }

    #[test]
    fn rollback_replay_is_detected_as_rollback() {
        // Capture an authentic version-1 image, let the store advance to
        // version 2, then replay the stale image. Every MAC in the stale
        // image verifies — without version counters this replay would be
        // accepted (the error would have to be `Integrity`, and there is
        // none). The trusted version counter is what catches it.
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x77));
        s.write_bucket(4, &b);
        let stale = s.ciphertext(4).to_vec();
        let mut b2 = Bucket::new(3);
        b2.push(data_block(2, 0x88));
        s.write_bucket(4, &b2);

        // Adversary restores the old bytes wholesale.
        for (i, byte) in stale.iter().enumerate() {
            let cur = s.ciphertext(4)[i];
            if cur != *byte {
                s.corrupt_byte(4, i, cur ^ *byte);
            }
        }
        assert_eq!(
            s.try_read_bucket(4),
            Err(OramError::Rollback {
                bucket: 4,
                stored_version: 1,
                expected_version: 2
            }),
            "authentic stale image must be classified as rollback, not corruption"
        );

        // Control: the same stale image under a store whose trusted
        // counter still expects version 1 authenticates perfectly — i.e.
        // the MACs alone cannot reject it; only the version counter does.
        let mut fresh = store();
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x77));
        fresh.write_bucket(4, &b);
        assert!(fresh.try_read_bucket(4).is_ok());
    }

    #[test]
    fn replaying_another_buckets_ciphertext_is_detected() {
        // Copy bucket 0's authentic ciphertext over bucket 1: the nonce
        // decrypts and the tags are valid MACs — but they bind the
        // *source* bucket index, so the replay fails verification at the
        // destination.
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(7, 0x22));
        s.write_bucket(0, &b);
        s.write_bucket(1, &Bucket::new(3));
        let src: Vec<u8> = s.ciphertext(0).to_vec();
        for (i, byte) in src.iter().enumerate() {
            let cur = s.ciphertext(1)[i];
            if cur != *byte {
                s.corrupt_byte(1, i, cur ^ *byte);
            }
        }
        assert!(
            s.try_read_bucket(1).is_err(),
            "bucket replay must not authenticate"
        );
        // The source bucket itself still verifies.
        assert!(s.try_read_bucket(0).is_ok());
    }

    #[test]
    fn addr_only_reads_match_full_reads() {
        let mut s = store();
        let mut b = Bucket::new(3);
        b.push(data_block(5, 0x01));
        b.push(data_block(9, 0x02));
        s.write_bucket(6, &b);
        let mut plain = Vec::new();
        let mut addrs = Vec::new();
        s.bucket_addrs_into(6, &mut plain, &mut addrs).unwrap();
        let mut full: Vec<u64> = s
            .try_read_bucket(6)
            .expect("authentic bucket")
            .iter()
            .map(|b| b.addr.0)
            .collect();
        addrs.sort_unstable();
        full.sort_unstable();
        assert_eq!(addrs, full);
        // Tampering is detected on the addr-only path too.
        s.corrupt_byte(6, 40, 0x10);
        addrs.clear();
        assert!(s.bucket_addrs_into(6, &mut plain, &mut addrs).is_err());
    }

    #[test]
    fn transient_failures_exhaust_into_typed_error() {
        let mut s = store();
        s.enable_faults(FaultConfig {
            retry_budget: 2,
            ..FaultConfig::single(FaultClass::Transient, 1.0, 5)
        });
        let mut b = Bucket::new(3);
        b.push(data_block(1, 0x11));
        s.write_bucket(0, &b);
        assert_eq!(
            s.try_read_bucket(0),
            Err(OramError::Transient {
                bucket: 0,
                attempts: 3
            })
        );
        assert_eq!(s.fault_stats().injected_transients, 3);
    }

    #[test]
    fn injected_write_faults_are_always_detected() {
        // Drive every write-fault class at a high rate and read each
        // bucket back after every write: zero false negatives.
        for class in [
            FaultClass::BitFlip,
            FaultClass::TornWrite,
            FaultClass::Rollback,
        ] {
            let mut s = store();
            s.enable_faults(FaultConfig::single(class, 0.5, 42));
            let mut injected_before = 0;
            for round in 0..50u64 {
                let idx = (round % 8) as usize;
                let mut b = Bucket::new(3);
                b.push(data_block(round, round as u8));
                s.write_bucket(idx, &b);
                let stats = s.fault_stats();
                let injected = stats.total_injected();
                let read = s.try_read_bucket(idx);
                if injected > injected_before {
                    assert!(read.is_err(), "{} fault escaped detection", class.name());
                    // Repair so the next round starts authentic.
                    s.write_bucket(idx, &b);
                } else {
                    assert!(read.is_ok());
                }
                injected_before = s.fault_stats().total_injected();
            }
            let stats = s.fault_stats();
            assert_eq!(stats.undetected, 0, "{}", class.name());
            assert!(stats.total_injected() > 0, "{}", class.name());
        }
    }

    #[test]
    fn silent_injector_is_observationally_identical() {
        let run = |faulty: bool| {
            let mut s = store();
            if faulty {
                s.enable_faults(FaultConfig::silent(123));
            }
            let mut images = Vec::new();
            for round in 0..20u64 {
                let idx = (round % 8) as usize;
                let mut b = Bucket::new(3);
                b.push(data_block(round, round as u8));
                s.write_bucket(idx, &b);
                assert!(s.try_read_bucket(idx).is_ok());
                images.push(s.ciphertext(idx).to_vec());
            }
            images
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "exceeds slot")]
    fn oversized_payload_panics() {
        let mut s = EncryptedStore::new(1, 1, 16, 1);
        let mut b = Bucket::new(1);
        b.push(data_block(0, 1)); // 128-byte payload into 16-byte slot
        s.write_bucket(0, &b);
    }

    fn one_block_bucket(addr: u64, fill: u8) -> Bucket {
        let mut b = Bucket::new(3);
        b.push(data_block(addr, fill));
        b
    }

    /// Seals a checkpoint record whose plaintext is `marker`: the store
    /// does not look inside.
    fn seal_marker(s: &mut EncryptedStore, full: bool, marker: u8) {
        let fill = |out: &mut Vec<u8>| out.push(marker);
        assert_eq!(s.seal_checkpoint(full, 64, fill), Some(64));
    }

    fn committed_records(s: &EncryptedStore) -> Vec<Vec<u8>> {
        s.checkpoint_records().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn txn_rollback_restores_images_and_versions() {
        let mut s = store();
        s.write_bucket(2, &one_block_bucket(10, 0xAA));
        s.write_bucket(3, &one_block_bucket(11, 0xBB));
        let before: Vec<Vec<u8>> = (0..8).map(|i| s.ciphertext(i).to_vec()).collect();
        seal_marker(&mut s, true, 0xCA);
        let chain = committed_records(&s);
        s.begin_txn();
        s.write_bucket(2, &one_block_bucket(12, 0xCC));
        s.write_bucket(2, &one_block_bucket(13, 0xDD)); // second touch: one undo entry
        s.write_bucket(5, &one_block_bucket(14, 0xEE));
        assert_ne!(s.ciphertext(2), &before[2][..]);
        seal_marker(&mut s, false, 0xCB);
        let rec = s.recover_txn().expect("open transaction");
        assert!(!rec.replay);
        assert_eq!(rec.touched, vec![2, 5], "first-touch journaling");
        assert_eq!(
            committed_records(&s),
            chain,
            "a rollback drops the pending checkpoint record"
        );
        for (i, img) in before.iter().enumerate() {
            assert_eq!(s.ciphertext(i), &img[..], "bucket {i} rolled back");
        }
        // Versions rolled back too: the whole image re-authenticates and
        // the pre-transaction content is served.
        s.verify_all().expect("rolled-back image authenticates");
        assert_eq!(s.try_read_bucket(2).unwrap()[0].addr, BlockAddr(10));
        // The store works normally after recovery.
        s.write_bucket(2, &one_block_bucket(20, 0x11));
        assert_eq!(s.try_read_bucket(2).unwrap()[0].addr, BlockAddr(20));
    }

    #[test]
    fn txn_commit_discards_journal_and_flips_epoch() {
        let mut s = store();
        assert_eq!(s.epoch(), 0);
        seal_marker(&mut s, true, 1);
        let chain = committed_records(&s);
        s.begin_txn();
        s.write_bucket(1, &one_block_bucket(5, 0x55));
        seal_marker(&mut s, false, 2);
        assert_eq!(committed_records(&s), chain, "B is pending");
        let entries = s.commit_txn().expect("no crash armed");
        assert_eq!(entries, 1);
        assert_eq!(committed_records(&s).len(), 2);
        assert_eq!(committed_records(&s)[0], chain[0]);
        assert_eq!(s.epoch(), 1);
        assert!(s.epoch_header_ok());
        assert!(s.recover_txn().is_none(), "journal discarded at commit");
        assert_eq!(s.try_read_bucket(1).unwrap()[0].addr, BlockAddr(5));
    }

    #[test]
    fn mid_flip_crash_replays_forward() {
        let mut s = store();
        s.write_bucket(4, &one_block_bucket(30, 0x30));
        seal_marker(&mut s, true, 0xA);
        s.begin_txn();
        s.write_bucket(4, &one_block_bucket(31, 0x31));
        s.arm_crash(Some(CrashConfig::first(KillPoint::MidFlip)));
        // The `Full` due every `FULL_SEAL_EVERY` commits, as checkpoint B.
        let before = committed_records(&s);
        seal_marker(&mut s, true, 0xB);
        let err = s.commit_txn().expect_err("MidFlip fires");
        assert!(matches!(
            err,
            OramError::Crashed {
                point: KillPoint::MidFlip
            }
        ));
        assert_eq!(s.crash_fired(), Some(KillPoint::MidFlip));
        assert_eq!(s.epoch(), 1, "the flip itself landed");
        let rec = s.recover_txn().expect("journal still open");
        assert!(rec.replay, "flipped epoch means roll forward");
        let after = committed_records(&s);
        assert_eq!(after.len(), 1, "B, a Full, replaces the chain");
        assert_ne!(after, before, "checkpoint B is committed");
        assert!(s.crash_fired().is_none());
        s.verify_all().expect("committed image authenticates");
        assert_eq!(s.try_read_bucket(4).unwrap()[0].addr, BlockAddr(31));
    }

    #[test]
    fn mid_journal_crash_drops_the_home_write() {
        let mut s = store();
        s.write_bucket(6, &one_block_bucket(40, 0x40));
        let before = s.ciphertext(6).to_vec();
        s.begin_txn();
        s.arm_crash(Some(CrashConfig::first(KillPoint::MidJournal)));
        s.write_bucket(6, &one_block_bucket(41, 0x41));
        assert_eq!(s.crash_fired(), Some(KillPoint::MidJournal));
        assert_eq!(s.ciphertext(6), &before[..], "home write dropped");
        // The dead store drops every later write of the doomed run.
        s.write_bucket(7, &one_block_bucket(42, 0x42));
        assert!(s.try_read_bucket(7).unwrap().is_empty());
        let rec = s.recover_txn().expect("open transaction");
        assert!(!rec.replay);
        assert_eq!(rec.touched, [6], "the undo entry itself is durable");
        s.verify_all().expect("rolled-back image authenticates");
        assert_eq!(s.try_read_bucket(6).unwrap()[0].addr, BlockAddr(40));
    }

    #[test]
    fn arm_fires_on_the_nth_crossing_exactly_once() {
        let mut s = store();
        s.arm_crash(Some(CrashConfig::at(KillPoint::WriteBack, 3)));
        assert!(!s.cross(KillPoint::WriteBack));
        assert!(!s.cross(KillPoint::PathFetch));
        assert!(!s.cross(KillPoint::WriteBack));
        assert_eq!(s.crash_fired(), None);
        assert!(s.cross(KillPoint::WriteBack));
        assert_eq!(s.crash_fired(), Some(KillPoint::WriteBack));
        // Firing consumed the arm: recovery revives the store, and the
        // point never fires again.
        assert!(s.recover_txn().is_none());
        assert_eq!(s.crash_fired(), None);
        assert!(!(0..10).any(|_| s.cross(KillPoint::WriteBack)));
    }

    /// The path kernels against the per-bucket loop (batches of one) and
    /// against a bucket image assembled from the single-message
    /// primitives, which the kernels do not use.
    mod kernels {
        use super::*;

        /// One "path": nine buckets of a 32-bucket store, out of index
        /// order, so slot queues span several lane groups and a remainder.
        const PATH: [usize; 9] = [0, 2, 5, 11, 23, 24, 17, 30, 31];

        fn store() -> EncryptedStore {
            EncryptedStore::new(32, 3, 128, 0x5EED)
        }

        /// `len` buckets of the path holding `(position + round) % 4`
        /// blocks each, data and position-map blocks mixed.
        fn batch(round: u64, len: usize) -> Vec<(usize, Bucket)> {
            let bucket = |k: usize| {
                let mut b = Bucket::new(3);
                for j in 0..(k + round as usize) % 4 {
                    let addr = round * 100 + k as u64 * 4 + j as u64;
                    b.push(if j == 1 {
                        let entries = vec![PosEntry::new(Leaf(k as u32)); 5];
                        Block::posmap(BlockAddr(addr), Leaf(2), entries.into())
                    } else {
                        data_block(addr, addr as u8)
                    });
                }
                b
            };
            PATH[..len]
                .iter()
                .enumerate()
                .map(|(k, &index)| (index, bucket(k)))
                .collect()
        }

        fn refs(batch: &[(usize, Bucket)]) -> Vec<(usize, &Bucket)> {
            batch.iter().map(|(index, b)| (*index, b)).collect()
        }

        /// Everything a write can leave behind: image, trusted versions,
        /// nonce counter, undo entries, kill state.
        type Left = (
            Vec<u8>,
            Vec<u64>,
            u64,
            (Vec<(usize, u64)>, Vec<u8>),
            Option<KillPoint>,
        );

        fn left(s: &EncryptedStore) -> Left {
            (
                s.backing.bytes().to_vec(),
                s.versions.clone(),
                s.next_nonce,
                (s.journal.entries.clone(), s.journal.arena.clone()),
                s.fired,
            )
        }

        /// One bucket image, one slot at a time, from `Mac::tag`,
        /// `Mac::tag_parts` and `StreamCipher::apply`.
        fn reference_image(
            s: &EncryptedStore,
            index: usize,
            bucket: &Bucket,
            nonce: u64,
            version: u64,
        ) -> Vec<u8> {
            let mut image = vec![0; s.bucket_bytes()];
            let (header, body) = image.split_at_mut(BUCKET_HEADER_BYTES);
            for (block, slot) in bucket.iter().zip(body.chunks_exact_mut(s.slot_bytes())) {
                EncryptedStore::serialize_fields(block, slot, s.payload_bytes);
                let tag = s.mac.tag_parts(
                    &[index as u64, version],
                    &[&slot[..SLOT_TAG_OFFSET], &slot[SLOT_HEADER_BYTES..]],
                );
                slot[SLOT_TAG_OFFSET..SLOT_HEADER_BYTES].copy_from_slice(&tag.to_le_bytes());
            }
            s.cipher.apply(nonce, body);
            EncryptedStore::write_header(header, &s.mac, index as u64, nonce, version);
            image
        }

        #[test]
        fn write_buckets_equals_the_write_bucket_loop_and_the_reference_image() {
            for txn in [false, true] {
                for len in [0, 1, 2, PATH.len()] {
                    let (mut looped, mut batched) = (store(), store());
                    for round in 0..3 {
                        let batch = batch(round, len);
                        let first_nonce = batched.next_nonce;
                        if txn {
                            looped.begin_txn();
                            batched.begin_txn();
                        }
                        for (index, bucket) in &batch {
                            looped.write_bucket(*index, bucket);
                        }
                        batched.write_buckets(&refs(&batch));
                        assert_eq!(
                            left(&looped),
                            left(&batched),
                            "txn={txn} len={len} round={round}"
                        );
                        for (k, (index, bucket)) in batch.iter().enumerate() {
                            let (nonce, version) =
                                (first_nonce + k as u64, batched.versions[*index]);
                            assert_eq!(
                                batched.ciphertext(*index),
                                reference_image(&batched, *index, bucket, nonce, version),
                                "txn={txn} len={len} round={round} position={k}"
                            );
                        }
                        if txn {
                            for s in [&mut looped, &mut batched] {
                                s.seal_checkpoint(true, 64, |_| {});
                            }
                            assert_eq!(looped.commit_txn(), batched.commit_txn());
                        }
                    }
                }
            }
        }

        #[test]
        fn mid_journal_kill_at_every_batch_position_leaves_what_the_loop_leaves() {
            let mut warm = store();
            warm.write_buckets(&refs(&batch(0, PATH.len())));
            let doomed = batch(1, PATH.len());
            for k in 0..PATH.len() {
                let run = |batched: bool| {
                    let mut s = warm.clone();
                    s.begin_txn();
                    let kill = CrashConfig::at(KillPoint::MidJournal, k as u64 + 1);
                    s.arm_crash(Some(kill));
                    if batched {
                        s.write_buckets(&refs(&doomed));
                    } else {
                        for (index, bucket) in &doomed {
                            s.write_bucket(*index, bucket);
                        }
                    }
                    s
                };
                let (looped, batched) = (run(false), run(true));
                assert_eq!(left(&looped), left(&batched), "kill at position {k}");
                assert_eq!(batched.crash_fired(), Some(KillPoint::MidJournal));
                // Buckets before k landed, k is journaled only, the rest
                // are neither written nor journaled.
                let journaled: Vec<usize> = batched.journal.entries.iter().map(|e| e.0).collect();
                assert_eq!(journaled, PATH[..=k]);
                for (pos, &index) in PATH.iter().enumerate() {
                    let landed = batched.ciphertext(index) != warm.ciphertext(index);
                    assert_eq!(landed, pos < k, "kill at {k}, position {pos}");
                }
            }
        }

        /// What opening [`PATH`] gives: the result, and the blocks of each
        /// bucket (none if it failed).
        type Opened = (Result<(), OramError>, Vec<Vec<Block>>);

        /// The `try_read_bucket` loop — the reference — and the path
        /// decoder on the same store.
        fn open_both_ways(s: &mut EncryptedStore) -> (Opened, Opened) {
            let mut looped = (Ok(()), vec![Vec::new(); PATH.len()]);
            for (&index, blocks) in PATH.iter().zip(&mut looped.1) {
                match s.try_read_bucket(index) {
                    Ok(read) => *blocks = read,
                    Err(err) => {
                        looped = (Err(err), vec![Vec::new(); PATH.len()]);
                        break;
                    }
                }
            }
            let mut row = vec![Bucket::new(3); PATH.len()];
            let batched = s.read_path(&PATH, &mut row);
            let rows = row
                .iter()
                .map(|b| b.iter().map(|b| b.to_block()).collect())
                .collect();
            (looped, (batched, rows))
        }

        #[test]
        fn read_path_equals_the_try_read_bucket_loop() {
            let mut s = store();
            for round in 0..4 {
                let batch = batch(round, PATH.len());
                s.write_buckets(&refs(&batch));
                let (looped, batched) = open_both_ways(&mut s);
                assert_eq!(looped, batched);
                assert_eq!(batched.0, Ok(()));
                // Every block, payload included, in slot order.
                for ((_, bucket), read) in batch.iter().zip(batched.1) {
                    let want: Vec<Block> = bucket.iter().map(|b| b.to_block()).collect();
                    assert_eq!(read, want);
                }
            }
        }

        #[test]
        fn peek_bucket_reads_what_try_read_bucket_reads_and_leaves_no_trace() {
            let mut s = store();
            // Every read attempt of the injector fails: a peek must not ask.
            s.enable_faults(FaultConfig {
                retry_budget: 0,
                ..FaultConfig::single(FaultClass::Transient, 1.0, 5)
            });
            let batch = batch(2, PATH.len());
            s.write_buckets(&refs(&batch));
            let before = (left(&s), s.fault_stats(), s.kernel.queue.clone());
            let mut out = Bucket::new(3);
            out.push(data_block(999, 9)); // emptied first
            for (index, bucket) in &batch {
                s.peek_bucket(*index, &mut out).expect("authentic bucket");
                assert_eq!(&out, bucket);
            }
            assert_eq!(before, (left(&s), s.fault_stats(), s.kernel.queue.clone()));
            assert!(matches!(
                s.try_read_bucket(PATH[0]),
                Err(OramError::Transient { .. })
            ));
            s.corrupt_byte(PATH[3], 40, 0x10);
            let tampered = s.peek_bucket(PATH[3], &mut out);
            assert_eq!(tampered.unwrap_err().bucket(), Some(PATH[3]));
        }

        #[test]
        fn a_flipped_byte_anywhere_on_the_path_reports_what_the_loop_reports() {
            let mut clean = store();
            // Fill (position + 2) % 4: every bucket position sees real
            // data, real posmap and dummy slots somewhere on the path.
            clean.write_buckets(&refs(&batch(2, PATH.len())));
            let slot_bytes = clean.slot_bytes();
            // Bucket header: nonce, version, tag. Per slot: valid flag,
            // address, length field, tag, a payload byte past any `len`.
            let mut flips: Vec<(usize, Option<usize>)> = vec![(0, None), (8, None), (16, None)];
            for slot in 0..3 {
                for field in [
                    SLOT_VALID_OFFSET,
                    SLOT_ADDR_OFFSET,
                    SLOT_LEN_OFFSET,
                    SLOT_TAG_OFFSET,
                    SLOT_HEADER_BYTES + 100,
                ] {
                    flips.push((BUCKET_HEADER_BYTES + slot * slot_bytes + field, Some(slot)));
                }
            }
            for (pos, &bucket) in PATH.iter().enumerate() {
                for &(offset, slot) in &flips {
                    let mut s = clean.clone();
                    s.corrupt_byte(bucket, offset, 0x04);
                    let (looped, batched) = open_both_ways(&mut s);
                    assert_eq!(looped, batched, "position {pos} offset {offset}");
                    assert_eq!(batched.0, Err(OramError::Integrity { bucket, slot }));
                    assert_eq!(s.verify_bucket(bucket), batched.0);
                    assert_eq!(s.try_read_bucket(bucket).map(|_| ()), batched.0);
                }
            }
        }

        #[test]
        fn the_first_of_several_failures_in_path_order_is_reported() {
            let mut s = store();
            s.write_buckets(&refs(&batch(2, PATH.len())));
            let slot_bytes = s.slot_bytes();
            // A dummy slot late on the path, a header before it, and in
            // one bucket a bad tag in slot 1 ahead of a bad dummy in slot 2.
            s.corrupt_byte(PATH[6], BUCKET_HEADER_BYTES + SLOT_LEAF_OFFSET, 0x01);
            s.corrupt_byte(PATH[5], 16, 0x01);
            s.corrupt_byte(PATH[4], BUCKET_HEADER_BYTES + 2 * slot_bytes + 50, 0x01);
            s.corrupt_byte(
                PATH[4],
                BUCKET_HEADER_BYTES + slot_bytes + SLOT_TAG_OFFSET,
                0x01,
            );
            let (looped, batched) = open_both_ways(&mut s);
            assert_eq!(looped, batched);
            let (bucket, slot) = (PATH[4], Some(1));
            assert_eq!(batched.0, Err(OramError::Integrity { bucket, slot }));
            assert!(batched.1.iter().all(Vec::is_empty), "nothing is decoded");
        }

        #[test]
        fn zero_rate_injector_is_observationally_identical_on_batches() {
            let run = |faulty: bool| {
                let mut s = store();
                if faulty {
                    s.enable_faults(FaultConfig::silent(123));
                }
                let mut opened = Vec::new();
                for round in 0..4 {
                    s.write_buckets(&refs(&batch(round, PATH.len())));
                    opened.push(open_both_ways(&mut s));
                    s.verify_all().expect("authentic image");
                }
                (opened, left(&s), s.fault_stats())
            };
            assert_eq!(run(false), run(true));
        }
    }
}
