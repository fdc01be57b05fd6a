//! The commit journal and the sealed checkpoint chain.
//!
//! The crash-consistency protocol (DESIGN.md section 15) makes every
//! ORAM access all-or-nothing with three durable artifacts, all held in
//! the untrusted store's journal area:
//!
//! * **Undo entries** ([`TxnJournal`]): before a bucket's home location
//!   is overwritten for the first time in a transaction, its old raw
//!   image and trusted version counter are journaled. Rolling the
//!   journal back restores the exact pre-transaction byte image.
//! * **The checkpoint chain** ([`CheckpointChain`]): the controller's
//!   volatile state — stash, PLB, on-chip position-map top table,
//!   treetop-cached buckets and RNG state — as one `Full` record followed
//!   by the `Delta` record of every commit since. A transaction seals
//!   nothing at begin: the pre-access state *is* the chain's committed
//!   records. At commit it seals one record describing what the access
//!   changed; recovery folds the committed records after a rollback and
//!   the pending one on top after a replay.
//! * **The epoch header**: a trusted monotonic counter bound by a MAC.
//!   The commit "flips" it after all home writes land; recovery compares
//!   it against the journal's begin epoch to decide rollback (not yet
//!   flipped) versus replay (flipped, journal not yet discarded).
//!
//! A record is encrypt-then-MAC: `seq | epoch | ciphertext | tag`. The
//! keystream nonce is `CHECKPOINT_DOMAIN ^ seq` — `seq` counts the
//! records this store ever sealed, so no two records share a nonce and
//! none is drawn from the bucket nonce sequence. The tag binds the
//! domain, the record's epoch and its predecessor's tag, so a dropped,
//! reordered or replayed record breaks the chain. Both kinds are
//! zero-padded to a size that depends only on the configuration
//! ([`RecordShape`]), so the length of a record says nothing about the
//! access that produced it.
//!
//! Everything here is serialization, one cipher pass and one MAC; the
//! protocol logic lives in [`crate::storage`] (journaling, flip) and
//! `controller/durable.rs` (begin, commit, seals, kill-point gates,
//! `PathOram::recover`).

use crate::addr::Leaf;
use crate::block::{Block, Payload, PayloadRef};
use crate::bucket::{BlockRef, Bucket};
use crate::config::OramConfig;
use crate::crypto::{Mac, StreamCipher};
use crate::posmap::PosEntry;
use crate::storage::ENTRY_BYTES;
use proram_mem::BlockAddr;

/// Domain-separation constant folded into checkpoint MACs and nonces so
/// a sealed record can never be confused with a sealed slot or epoch
/// header.
const CHECKPOINT_DOMAIN: u64 = 0x4350_4B54_5052_4F52; // "CPKTPROR"

/// Domain-separation constant for the epoch header MAC.
pub(crate) const EPOCH_DOMAIN: u64 = 0x4550_4F43_5052_4F52; // "EPOCPROR"

/// Length of the chain at which the next commit seals a `Full` in place
/// of a `Delta`: recovery folds at most this many records.
pub(crate) const FULL_SEAL_EVERY: usize = 64;

/// Top-table entries a `Delta` has room for.
const DELTA_TOP_SLOTS: usize = 8;
/// PLB recency moves and inserts a `Delta` has room for.
const DELTA_PLB_OPS: usize = 8;
/// Rewritten PLB blocks a `Delta` has room for.
const DELTA_PLB_SLOTS: usize = 4;
/// Stash blocks (each with a removed address) a `Delta` has room for.
/// At Z = 3 a uniform stream leaves up to ten new blocks in the stash at
/// one commit in 10^5; ten slots keep that inside the fixed size.
const DELTA_STASH_SLOTS: usize = 10;
/// Fetched paths whose on-chip prefix a `Delta` has room for.
const DELTA_TREETOP_PATHS: usize = 4;

/// Clear-text record header (`seq`, `epoch`) and trailing tag.
const RECORD_HEAD: usize = 16;
const RECORD_TAG: usize = 8;

/// Serialized block header: address, leaf, payload kind and payload
/// length.
const BLOCK_HEAD: usize = 8 + 4 + 1 + 4;

const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// [`crate::plb::Plb`] log codes above every resident position: a block
/// pushed as MRU, without and with the LRU victim leaving.
pub(crate) const PLB_OP_INSERT: u32 = u32::MAX - 1;
pub(crate) const PLB_OP_INSERT_EVICT: u32 = u32::MAX;

/// The live undo journal. One instance serves every transaction of a
/// store: `entries` and `arena` are cleared, not dropped, so journaling
/// allocates nothing once they reached a path's worth of capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct TxnJournal {
    /// Whether a transaction is open.
    pub open: bool,
    /// Epoch at transaction begin; recovery compares the store's epoch
    /// against this to pick rollback vs replay.
    pub begin_epoch: u64,
    /// `(physical bucket index, trusted version before the transaction)`
    /// of every first-touched bucket, in write order. Treetop buckets are
    /// on-chip and never journaled — they ride in the checkpoint chain.
    pub entries: Vec<(usize, u64)>,
    /// The pre-transaction ciphertext image (header + body) of entry `k`
    /// at `k * bucket_bytes`.
    pub arena: Vec<u8>,
    /// `stamps[b] == serial` iff bucket `b` has an undo entry in the open
    /// transaction; sized on the first `begin`, so a store that never
    /// opens a transaction carries nothing.
    stamps: Vec<u64>,
    serial: u64,
}

impl TxnJournal {
    /// Opens a transaction at `epoch` over a store of `num_buckets`.
    pub fn begin(&mut self, epoch: u64, num_buckets: usize) {
        self.open = true;
        self.begin_epoch = epoch;
        self.entries.clear();
        self.arena.clear();
        self.stamps.resize(num_buckets, 0);
        self.serial += 1;
    }

    /// Journals `image` as the undo entry of `index` unless the open
    /// transaction already holds one; `true` if it was recorded now.
    pub fn record(&mut self, index: usize, version: u64, image: &[u8]) -> bool {
        if self.stamps[index] == self.serial {
            return false;
        }
        self.stamps[index] = self.serial;
        self.entries.push((index, version));
        self.arena.extend_from_slice(image);
        true
    }
}

/// Sizes of the two record kinds. Public by construction: they follow
/// from the configuration alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RecordShape {
    /// A `Full`: top table, a stash of `stash_limit` blocks, a full PLB
    /// and every treetop bucket at Z blocks.
    pub full_bytes: usize,
    /// A `Delta`: the `DELTA_*` slot counts above.
    pub delta_bytes: usize,
}

impl RecordShape {
    /// The shape for a controller whose top table holds `top_len` entries
    /// and whose treetop caches `treetop_levels` levels.
    pub fn new(config: &OramConfig, top_len: usize) -> Self {
        let posmap_block = BLOCK_HEAD + config.entries_per_posmap_block as usize * ENTRY_BYTES;
        let block = posmap_block.max(BLOCK_HEAD + config.timing.block_bytes as usize);
        let bucket = 8 + config.z * block;
        let levels = config.treetop_levels as usize;
        let treetop_buckets = (1usize << levels) - 1;
        let sealed = RECORD_HEAD + 1 + 32 + RECORD_TAG;
        RecordShape {
            full_bytes: sealed
                + 4 * 4
                + top_len * ENTRY_BYTES
                + config.stash_limit * block
                + config.plb_blocks * posmap_block
                + treetop_buckets * bucket,
            delta_bytes: sealed
                + 6 * 4
                + DELTA_TOP_SLOTS * (4 + ENTRY_BYTES)
                + DELTA_PLB_OPS * 4
                + DELTA_PLB_SLOTS * (4 + posmap_block)
                + DELTA_STASH_SLOTS * (8 + block)
                + treetop_buckets.min(DELTA_TREETOP_PATHS * levels) * bucket,
        }
    }
}

/// The sealed checkpoint records of one store, in its journal area: the
/// committed chain (one `Full`, then `Delta`s) and, between the seal of
/// checkpoint B and the end of the commit, one pending record.
///
/// `bytes` is one arena reused for the life of the store: a committed
/// `Full` moves to its front and everything older is dropped, so its
/// capacity stops growing after the first [`FULL_SEAL_EVERY`] commits
/// and sealing allocates nothing from then on.
#[derive(Debug, Clone, Default)]
pub(crate) struct CheckpointChain {
    bytes: Vec<u8>,
    /// End offset in `bytes` of every record, and whether it is a `Full`.
    records: Vec<(usize, bool)>,
    /// How many of `records` are committed.
    committed: usize,
    /// Tag of the last committed record — trusted on-chip state like the
    /// epoch: what the next `Delta` binds and what a fold must end in.
    head: u64,
    /// Records sealed so far.
    seq: u64,
}

impl CheckpointChain {
    /// Number of committed records.
    pub fn len(&self) -> usize {
        self.committed
    }

    fn start_of(&self, record: usize) -> usize {
        record.checked_sub(1).map_or(0, |prev| self.records[prev].0)
    }

    fn record(&self, record: usize) -> &[u8] {
        &self.bytes[self.start_of(record)..self.records[record].0]
    }

    /// The sealed bytes of every committed record, oldest first.
    pub fn sealed(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.committed).map(|r| self.record(r))
    }

    /// Seals one pending record labelled `epoch`: `fill` appends the
    /// plaintext, which is zero-padded to `size` sealed bytes, encrypted
    /// and tagged in place. A `Delta` that does not fit `size` is not
    /// written and `None` comes back; a `Full` that does not fit stays
    /// longer (the one case where a length depends on the state).
    /// Returns the record's sealed length.
    pub fn seal(
        &mut self,
        (cipher, mac): (StreamCipher, Mac),
        epoch: u64,
        full: bool,
        size: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Option<usize> {
        debug_assert_eq!(self.records.len(), self.committed, "one pending record");
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&self.seq.to_le_bytes());
        self.bytes.extend_from_slice(&epoch.to_le_bytes());
        self.bytes.push(if full { KIND_FULL } else { KIND_DELTA });
        fill(&mut self.bytes);
        let padded = start + size - RECORD_TAG;
        if self.bytes.len() > padded && !full {
            self.bytes.truncate(start);
            return None;
        }
        self.bytes.resize(padded.max(self.bytes.len()), 0);
        cipher.apply(
            CHECKPOINT_DOMAIN ^ self.seq,
            &mut self.bytes[start + RECORD_HEAD..],
        );
        self.seq += 1;
        // A `Full` starts a chain; a `Delta` continues the committed one.
        let prev = if full { 0 } else { self.head };
        let tag = mac.tag(&[CHECKPOINT_DOMAIN, epoch, prev], &self.bytes[start..]);
        self.bytes.extend_from_slice(&tag.to_le_bytes());
        self.records.push((self.bytes.len(), full));
        Some(self.bytes.len() - start)
    }

    /// Makes the pending record the newest committed one. A `Full`
    /// replaces everything before it.
    pub fn commit(&mut self) {
        let pending = self.committed;
        let (end, full) = self.records[pending];
        self.head = u64::from_le_bytes(
            self.bytes[end - RECORD_TAG..end]
                .try_into()
                .expect("8-byte tag"),
        );
        if full {
            let start = self.start_of(pending);
            self.bytes.copy_within(start..end, 0);
            self.bytes.truncate(end - start);
            self.records.clear();
            self.records.push((end - start, true));
            self.committed = 1;
        } else {
            self.committed += 1;
        }
    }

    /// Drops the pending record, if any (rollback).
    pub fn abort(&mut self) {
        self.records.truncate(self.committed);
        self.bytes.truncate(self.start_of(self.committed));
    }

    /// Whether a sealed record awaits the end of its commit.
    pub fn has_pending(&self) -> bool {
        self.records.len() > self.committed
    }

    /// Rebuilds the volatile state the committed chain describes, from
    /// its sealed bytes alone: authenticates and decrypts every record,
    /// decodes the `Full` and applies each `Delta` in order.
    ///
    /// Returns `None` — a torn or tampered chain must never be adopted —
    /// if any record is truncated or fails its MAC (which a flipped byte,
    /// a wrong key, a dropped, swapped or foreign record all do), if the
    /// chain does not end in the trusted head tag, or if an authentic
    /// record does not decode.
    pub fn fold(&self, keys: (StreamCipher, Mac)) -> Option<Checkpoint> {
        let mut sealed = self.sealed();
        let (mut state, mut tag) = open_record(sealed.next()?, 0, keys)
            .and_then(|(epoch, plain, tag)| Some((Checkpoint::decode_full(epoch, &plain)?, tag)))?;
        for record in sealed {
            let (epoch, plain, next) = open_record(record, tag, keys)?;
            state.apply_delta(epoch, &plain)?;
            tag = next;
        }
        (tag == self.head).then_some(state)
    }
}

/// Authenticates `record` as the successor of the record tagged `prev`
/// and decrypts it; yields its epoch, plaintext and tag.
fn open_record(
    record: &[u8],
    prev: u64,
    (cipher, mac): (StreamCipher, Mac),
) -> Option<(u64, Vec<u8>, u64)> {
    if record.len() < RECORD_HEAD + 1 + RECORD_TAG {
        return None;
    }
    let (sealed, tag_bytes) = record.split_at(record.len() - RECORD_TAG);
    let tag = u64::from_le_bytes(tag_bytes.try_into().ok()?);
    let seq = u64::from_le_bytes(sealed[..8].try_into().ok()?);
    let epoch = u64::from_le_bytes(sealed[8..RECORD_HEAD].try_into().ok()?);
    if mac.tag(&[CHECKPOINT_DOMAIN, epoch, prev], sealed) != tag {
        return None;
    }
    let mut plain = sealed[RECORD_HEAD..].to_vec();
    cipher.apply(CHECKPOINT_DOMAIN ^ seq, &mut plain);
    Some((epoch, plain, tag))
}

/// A decoded controller checkpoint: everything volatile the recovery
/// path must restore. The *off-chip* tree buckets are deliberately
/// absent — they are rebuilt by decrypting and re-authenticating the
/// (rolled-back or replayed) store image, which is what makes recovery
/// honest about what survives a crash. The on-chip treetop buckets have
/// no encrypted image at all, so their plaintext contents ride inside
/// the sealed records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Checkpoint {
    /// Store epoch the state is valid at.
    pub epoch: u64,
    /// Controller RNG state (leaf remaps and eviction choices replay
    /// identically after a rollback).
    pub rng: [u64; 4],
    /// The on-chip position-map top table.
    pub top: Vec<PosEntry>,
    /// Stash contents, in address order.
    pub stash: Vec<Block>,
    /// PLB contents, MRU first.
    pub plb: Vec<Block>,
    /// On-chip treetop bucket contents, heap order `0..treetop_buckets`.
    pub treetop: Vec<Vec<Block>>,
}

/// Appends the plaintext of a `Full` record: the whole volatile state,
/// straight from the live structures.
pub(crate) fn write_full<'a>(
    out: &mut Vec<u8>,
    rng: [u64; 4],
    top: &[PosEntry],
    stash: impl Iterator<Item = &'a Block>,
    plb: impl Iterator<Item = &'a Block>,
    treetop: impl Iterator<Item = &'a Bucket>,
) {
    push_rng(out, rng);
    push_counted(out, top.iter(), encode_entry);
    push_counted(out, stash, encode_block);
    push_counted(out, plb, encode_block);
    push_counted(out, treetop, |out, bucket| {
        push_counted(out, bucket.iter(), encode_block);
    });
}

/// What one transaction changed, as the funnels logged it; every field
/// borrows the live structures or their logs.
pub(crate) struct DeltaParts<'a, P, R, S, T> {
    /// RNG state after the access.
    pub rng: [u64; 4],
    /// The top table and the (deduplicated) indices written.
    pub top: &'a [PosEntry],
    pub top_dirty: &'a [u32],
    /// PLB recency moves and inserts, in order
    /// ([`crate::plb::Plb::logged_ops`]).
    pub plb_ops: &'a [u32],
    /// `(position, block)` of every PLB block inserted or borrowed
    /// mutably, at its position after the access.
    pub plb_dirty: P,
    /// Addresses in the stash at the last seal and gone now.
    pub stash_removed: R,
    /// Stash blocks inserted or borrowed mutably and still resident.
    pub stash_dirty: S,
    /// `(heap index, bucket)` of the treetop buckets on the fetched
    /// paths.
    pub treetop: T,
}

/// Appends the plaintext of a `Delta` record.
pub(crate) fn write_delta<'a, P, R, S, T>(out: &mut Vec<u8>, parts: DeltaParts<'a, P, R, S, T>)
where
    P: Iterator<Item = (usize, &'a Block)>,
    R: Iterator<Item = u64>,
    S: Iterator<Item = &'a Block>,
    T: Iterator<Item = (usize, &'a Bucket)>,
{
    push_rng(out, parts.rng);
    push_counted(out, parts.top_dirty.iter(), |out, &index| {
        out.extend_from_slice(&index.to_le_bytes());
        encode_entry(out, &parts.top[index as usize]);
    });
    push_counted(out, parts.plb_ops.iter(), |out, op| {
        out.extend_from_slice(&op.to_le_bytes());
    });
    push_counted(out, parts.plb_dirty, |out, (pos, block)| {
        push_len(out, pos);
        encode_block(out, block);
    });
    push_counted(out, parts.stash_removed, |out, addr| {
        out.extend_from_slice(&addr.to_le_bytes());
    });
    push_counted(out, parts.stash_dirty, encode_block);
    push_counted(out, parts.treetop, |out, (index, bucket)| {
        push_len(out, index);
        push_counted(out, bucket.iter(), encode_block);
    });
}

impl Checkpoint {
    /// The checkpoint of a live state: what folding a chain that ends in
    /// a `Full` written by `write` (see [`write_full`]) at `epoch` yields.
    pub fn capture(epoch: u64, write: impl FnOnce(&mut Vec<u8>)) -> Checkpoint {
        let mut plain = vec![KIND_FULL];
        write(&mut plain);
        Checkpoint::decode_full(epoch, &plain).expect("a Full record decodes")
    }

    fn decode_full(epoch: u64, plain: &[u8]) -> Option<Checkpoint> {
        let mut r = Reader { buf: plain, pos: 0 };
        if r.u8()? != KIND_FULL {
            return None;
        }
        let rng = r.rng()?;
        let top = r.counted(decode_entry)?;
        let mut stash = r.counted(decode_block)?;
        stash.sort_unstable_by_key(|b| b.addr.0);
        let plb = r.counted(decode_block)?;
        let treetop = r.counted(|r| r.counted(decode_block))?;
        r.only_padding_left().then_some(Checkpoint {
            epoch,
            rng,
            top,
            stash,
            plb,
            treetop,
        })
    }

    fn apply_delta(&mut self, epoch: u64, plain: &[u8]) -> Option<()> {
        let mut r = Reader { buf: plain, pos: 0 };
        if r.u8()? != KIND_DELTA {
            return None;
        }
        self.epoch = epoch;
        self.rng = r.rng()?;
        for (index, entry) in r.counted(|r| Some((r.len()?, decode_entry(r)?)))? {
            *self.top.get_mut(index)? = entry;
        }
        // Replay the recency log with the inserted blocks as holes, then
        // fill every rewritten position; a hole left over is a record
        // that does not describe a PLB.
        let mut plb: Vec<Option<Block>> = std::mem::take(&mut self.plb)
            .into_iter()
            .map(Some)
            .collect();
        for op in r.counted(Reader::u32)? {
            match op {
                PLB_OP_INSERT => plb.insert(0, None),
                PLB_OP_INSERT_EVICT => {
                    plb.pop()?;
                    plb.insert(0, None);
                }
                pos if (pos as usize) < plb.len() => {
                    let block = plb.remove(pos as usize);
                    plb.insert(0, block);
                }
                _ => return None,
            }
        }
        for (pos, block) in r.counted(|r| Some((r.len()?, decode_block(r)?)))? {
            *plb.get_mut(pos)? = Some(block);
        }
        self.plb = plb.into_iter().collect::<Option<_>>()?;
        let removed = r.counted(Reader::u64)?;
        self.stash.retain(|b| !removed.contains(&b.addr.0));
        for block in r.counted(decode_block)? {
            match self.stash.iter_mut().find(|b| b.addr == block.addr) {
                Some(slot) => *slot = block,
                None => self.stash.push(block),
            }
        }
        self.stash.sort_unstable_by_key(|b| b.addr.0);
        for (index, blocks) in r.counted(|r| Some((r.len()?, r.counted(decode_block)?)))? {
            *self.treetop.get_mut(index)? = blocks;
        }
        r.only_padding_left().then_some(())
    }
}

fn push_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(
        &u32::try_from(len)
            .expect("checkpoint section length")
            .to_le_bytes(),
    );
}

fn push_rng(out: &mut Vec<u8>, rng: [u64; 4]) {
    for w in rng {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A section whose length is only known once `items` ran out: the count
/// is patched in afterwards.
fn push_counted<I: Iterator>(
    out: &mut Vec<u8>,
    items: I,
    mut encode: impl FnMut(&mut Vec<u8>, I::Item),
) {
    let at = out.len();
    push_len(out, 0);
    let mut n = 0u32;
    for item in items {
        encode(out, item);
        n += 1;
    }
    out[at..at + 4].copy_from_slice(&n.to_le_bytes());
}

fn encode_entry(out: &mut Vec<u8>, e: &PosEntry) {
    out.extend_from_slice(&e.leaf.0.to_le_bytes());
    out.extend_from_slice(&e.merge.to_le_bytes());
    out.extend_from_slice(&e.brk.to_le_bytes());
}

fn decode_entry(r: &mut Reader<'_>) -> Option<PosEntry> {
    Some(PosEntry {
        leaf: Leaf(r.u32()?),
        merge: r.i16()?,
        brk: r.i16()?,
    })
}

fn encode_block<'a>(out: &mut Vec<u8>, b: impl Into<BlockRef<'a>>) {
    let b = b.into();
    out.extend_from_slice(&b.addr.0.to_le_bytes());
    out.extend_from_slice(&b.leaf.0.to_le_bytes());
    match b.payload.view() {
        PayloadRef::Opaque => out.push(0),
        PayloadRef::Data(data) => {
            out.push(1);
            push_len(out, data.len());
            out.extend_from_slice(data);
        }
        PayloadRef::PosMap(entries) => {
            out.push(2);
            push_counted(out, entries.iter(), encode_entry);
        }
    }
}

fn decode_block(r: &mut Reader<'_>) -> Option<Block> {
    let addr = BlockAddr(r.u64()?);
    let leaf = Leaf(r.u32()?);
    let payload = match r.u8()? {
        0 => Payload::OPAQUE,
        1 => {
            let len = r.len()?;
            Payload::data(r.bytes(len)?.into())
        }
        2 => Payload::posmap(r.counted(decode_entry)?.into_boxed_slice()),
        _ => return None,
    };
    Some(Block {
        addr,
        leaf,
        payload,
    })
}

/// A bounds-checked little-endian cursor.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    fn i16(&mut self) -> Option<i16> {
        Some(i16::from_le_bytes(self.bytes(2)?.try_into().ok()?))
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    fn len(&mut self) -> Option<usize> {
        Some(self.u32()? as usize)
    }

    fn rng(&mut self) -> Option<[u64; 4]> {
        let mut rng = [0; 4];
        for w in &mut rng {
            *w = self.u64()?;
        }
        Some(rng)
    }

    /// A counted section. The count is bounded by what is left to read
    /// before anything is allocated for it.
    fn counted<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.len()?;
        if n > self.buf.len() - self.pos {
            return None;
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Some(items)
    }

    fn only_padding_left(&self) -> bool {
        self.buf[self.pos..].iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> (StreamCipher, Mac) {
        (StreamCipher::new(0x5EED), Mac::new(0xDEAD_BEEF))
    }

    /// A state whose stash holds a `0xAB…` payload and whose top table
    /// holds recognisable leaves.
    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            epoch: 5,
            rng: [1, 2, 3, 4],
            top: vec![
                PosEntry {
                    leaf: Leaf(0x0BAD_CAFE),
                    merge: -3,
                    brk: 4,
                },
                PosEntry::new(Leaf(0x0DEC_ADE5)),
            ],
            stash: vec![
                Block::opaque(BlockAddr(7), Leaf(1)),
                Block::with_data(BlockAddr(8), Leaf(2), vec![0xAB; 16].into()),
            ],
            plb: vec![
                pm_block(100, 5),
                pm_block(101, 6),
                pm_block(102, 7),
                pm_block(103, 8),
            ],
            treetop: vec![vec![Block::opaque(BlockAddr(11), Leaf(4))], vec![]],
        }
    }

    fn pm_block(addr: u64, leaf: u32) -> Block {
        Block::posmap(
            BlockAddr(addr),
            Leaf(3),
            vec![PosEntry::new(Leaf(leaf)), PosEntry::new(Leaf(leaf + 1))].into(),
        )
    }

    fn bucket(blocks: &[Block]) -> Bucket {
        let mut bucket = Bucket::new(4);
        for block in blocks {
            bucket.push(block.clone());
        }
        bucket
    }

    fn seal_full(chain: &mut CheckpointChain, cp: &Checkpoint, size: usize) {
        chain
            .seal(keys(), cp.epoch, true, size, |out| {
                let treetop: Vec<Bucket> = cp.treetop.iter().map(|b| bucket(b)).collect();
                write_full(
                    out,
                    cp.rng,
                    &cp.top,
                    cp.stash.iter(),
                    cp.plb.iter(),
                    treetop.iter(),
                );
            })
            .expect("a Full always seals");
        chain.commit();
    }

    /// Seals, as pending, a step that uses every section of a `Delta`
    /// once, and applies the same step to `state`.
    fn seal_step(chain: &mut CheckpointChain, state: &mut Checkpoint) {
        state.epoch += 1;
        state.rng[0] += 1;
        state.top[1].leaf = Leaf(0x0DEC_ADE5 ^ state.epoch as u32);
        // PLB: position 2 is hit, then a block is inserted and the LRU
        // leaves; the insert and the block now behind it are rewritten.
        let hit = state.plb.remove(2);
        state.plb.insert(0, hit);
        state.plb.pop();
        state
            .plb
            .insert(0, pm_block(200 + state.epoch, 0x0FEE_D000));
        state.plb[1].entries_mut()[0].leaf = Leaf(77);
        // Stash: everything but 8 leaves, 8 is rewritten, one arrives.
        let gone = state.stash.iter().map(|b| b.addr.0).find(|&a| a != 8);
        state.stash.retain(|b| b.addr.0 == 8);
        state.stash[0] = Block::with_data(
            BlockAddr(8),
            Leaf(state.epoch as u32),
            vec![0xAB; 16].into(),
        );
        state
            .stash
            .push(Block::opaque(BlockAddr(20 + state.epoch), Leaf(3)));
        state.treetop[1] = vec![Block::opaque(BlockAddr(12), Leaf(state.epoch as u32))];
        let rewritten = bucket(&state.treetop[1]);
        let sealed = chain.seal(keys(), state.epoch, false, 1024, |out| {
            write_delta(
                out,
                DeltaParts {
                    rng: state.rng,
                    top: &state.top,
                    top_dirty: &[1],
                    plb_ops: &[2, PLB_OP_INSERT_EVICT],
                    plb_dirty: state.plb.iter().enumerate().take(2),
                    stash_removed: gone.into_iter(),
                    stash_dirty: state.stash.iter(),
                    treetop: [(1, &rewritten)].into_iter(),
                },
            );
        });
        assert_eq!(sealed, Some(1024));
    }

    /// A `Full` and `deltas` committed steps after it, with the state
    /// they describe.
    fn sample_chain(deltas: usize) -> (CheckpointChain, Checkpoint) {
        let mut chain = CheckpointChain::default();
        let mut state = sample_checkpoint();
        seal_full(&mut chain, &state, 512);
        for _ in 0..deltas {
            seal_step(&mut chain, &mut state);
            chain.commit();
        }
        (chain, state)
    }

    /// `chain` with its committed records replaced by `records`.
    fn with_records(chain: &CheckpointChain, records: &[&[u8]]) -> CheckpointChain {
        let mut ends = records.iter().scan(0, |end, r| {
            *end += r.len();
            Some((*end, false))
        });
        CheckpointChain {
            bytes: records.concat(),
            records: ends.by_ref().collect(),
            committed: records.len(),
            ..chain.clone()
        }
    }

    #[test]
    fn full_and_delta_round_trip_through_the_seal() {
        let (mut chain, state) = sample_chain(0);
        assert_eq!(chain.fold(keys()), Some(state.clone()));
        let mut next = state.clone();
        seal_step(&mut chain, &mut next);
        // Pending: the committed chain still describes the old state.
        assert!(chain.has_pending());
        assert_eq!(chain.fold(keys()), Some(state));
        chain.commit();
        assert_eq!(chain.fold(keys()), Some(next.clone()));
        seal_step(&mut chain, &mut next);
        chain.commit();
        assert_eq!(chain.fold(keys()), Some(next));
        let lengths: Vec<usize> = chain.sealed().map(<[u8]>::len).collect();
        assert_eq!(lengths, [512, 1024, 1024]);
    }

    #[test]
    fn abort_drops_the_pending_record_and_a_full_truncates_the_chain() {
        let (mut chain, state) = sample_chain(2);
        seal_step(&mut chain, &mut state.clone());
        chain.abort();
        assert!(!chain.has_pending());
        assert_eq!(chain.fold(keys()), Some(state.clone()));
        let capacity = chain.bytes.capacity();
        seal_full(&mut chain, &state, 512);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.fold(keys()), Some(state));
        assert_eq!(chain.bytes.capacity(), capacity, "the arena is reused");
    }

    #[test]
    fn a_delta_that_does_not_fit_is_not_written_and_a_full_grows() {
        let (mut chain, state) = sample_chain(1);
        let before: Vec<Vec<u8>> = chain.sealed().map(<[u8]>::to_vec).collect();
        let oversized = |out: &mut Vec<u8>| out.extend_from_slice(&[1; 64]);
        assert_eq!(chain.seal(keys(), 7, false, 64, oversized), None);
        assert!(!chain.has_pending());
        assert!(chain.sealed().eq(before.iter().map(Vec::as_slice)));
        seal_full(&mut chain, &state, 64);
        assert!(chain.sealed().next().expect("the Full").len() > 64);
        assert_eq!(chain.fold(keys()), Some(state));
    }

    #[test]
    fn sealed_records_hide_payloads_and_leaves() {
        let (chain, _) = sample_chain(1);
        let holds =
            |bytes: &[u8], pattern: &[u8]| bytes.windows(pattern.len()).any(|w| w == pattern);
        let mut prev = 0;
        for (record, leaf) in chain.sealed().zip([0x0BAD_CAFEu32, 0x0FEE_D000]) {
            let (_, plain, tag) = open_record(record, prev, keys()).expect("authentic");
            prev = tag;
            for pattern in [&[0xAB; 16][..], &leaf.to_le_bytes()] {
                assert!(holds(&plain, pattern), "the plaintext holds {pattern:x?}");
                assert!(
                    !holds(record, pattern),
                    "{pattern:x?} is readable when sealed"
                );
            }
        }
    }

    #[test]
    fn tampered_records_are_rejected() {
        let (chain, _) = sample_chain(1);
        for i in 0..chain.bytes.len() {
            let mut bad = chain.clone();
            bad.bytes[i] ^= 0x01;
            assert!(bad.fold(keys()).is_none(), "flip at byte {i} must fail");
        }
    }

    #[test]
    fn truncated_records_are_rejected() {
        let (chain, _) = sample_chain(1);
        let (full, delta) = (chain.record(0), chain.record(1));
        assert!(with_records(&chain, &[]).fold(keys()).is_none());
        for cut in 0..full.len() {
            let bad = with_records(&chain, &[&full[..cut]]);
            assert!(bad.fold(keys()).is_none(), "Full cut at {cut}");
        }
        for cut in 0..delta.len() {
            let bad = with_records(&chain, &[full, &delta[..cut]]);
            assert!(bad.fold(keys()).is_none(), "Delta cut at {cut}");
        }
    }

    #[test]
    fn wrong_keys_are_rejected() {
        let (chain, _) = sample_chain(1);
        let (cipher, mac) = keys();
        assert!(chain.fold((cipher, Mac::new(2))).is_none());
        // The right MAC key over the wrong cipher key authenticates and
        // then fails to decode.
        assert!(chain.fold((StreamCipher::new(2), mac)).is_none());
    }

    #[test]
    fn dropped_swapped_and_stale_records_are_rejected() {
        let (chain, _) = sample_chain(3);
        let r: Vec<&[u8]> = chain.sealed().collect();
        assert!(with_records(&chain, &r).fold(keys()).is_some());
        for (what, records) in [
            // The successor binds the tag of the record that is gone.
            ("dropped in the middle", vec![r[0], r[2], r[3]]),
            // Every record authenticates; the chain ends before the
            // trusted head (an older, once-valid chain).
            ("dropped at the end", vec![r[0], r[1], r[2]]),
            ("swapped", vec![r[0], r[2], r[1], r[3]]),
            (
                "an older epoch's delta replayed",
                vec![r[0], r[1], r[2], r[1]],
            ),
            ("no Full", vec![r[1], r[2], r[3]]),
        ] {
            assert!(
                with_records(&chain, &records).fold(keys()).is_none(),
                "{what}"
            );
        }
    }

    #[test]
    fn no_two_records_share_a_keystream() {
        // The same state sealed twice at one epoch — a rolled-back
        // transaction retried — is two different ciphertexts.
        let (mut chain, state) = sample_chain(0);
        let first = chain.record(0).to_vec();
        seal_full(&mut chain, &state, 512);
        assert_ne!(chain.record(0)[RECORD_HEAD..], first[RECORD_HEAD..]);
    }

    #[test]
    fn journal_records_first_touch_only_and_reuses_its_arena() {
        let mut j = TxnJournal::default();
        j.begin(0, 8);
        assert!(j.record(3, 1, &[0xAA; 8]));
        assert!(!j.record(3, 2, &[0xBB; 8]));
        assert!(j.record(4, 1, &[0xCC; 8]));
        assert_eq!(j.entries, [(3, 1), (4, 1)]);
        assert_eq!(j.arena[..8], [0xAA; 8]);
        let capacity = j.arena.capacity();
        j.begin(1, 8);
        assert!(j.entries.is_empty());
        assert!(j.record(3, 2, &[0xDD; 8]), "a new transaction");
        assert_eq!(j.arena.capacity(), capacity);
    }

    #[test]
    fn shape_depends_on_the_configuration_only() {
        let cfg = OramConfig::small_for_tests(256);
        let shape = RecordShape::new(&cfg, 32);
        assert!(shape.delta_bytes < shape.full_bytes);
        let treetop = OramConfig {
            treetop_levels: 2,
            ..cfg
        };
        assert!(RecordShape::new(&treetop, 32).delta_bytes > shape.delta_bytes);
    }
}
