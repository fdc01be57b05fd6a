//! Probabilistic encryption for bucket contents.
//!
//! "Data stored in ORAMs should be encrypted using probabilistic
//! encryption to conceal the data content and also hide which memory
//! location, if any, is updated" (paper Section 2.1). The paper treats
//! the cipher abstractly; we implement a small counter-mode stream cipher
//! (SplitMix64-based keystream) so the storage image actually changes on
//! every write with a fresh nonce, which the obliviousness tests verify.
//!
//! This is a *simulation* cipher: it demonstrates the data flow and cost
//! structure of the real thing. It must not be used to protect real data.

use proram_stats::{Rng64, SplitMix64};

/// A counter-mode stream cipher keyed with a 64-bit key.
///
/// Every encryption takes an explicit `nonce`; encrypting the same
/// plaintext under different nonces yields unrelated ciphertexts, which is
/// the probabilistic-encryption property Path ORAM requires.
///
/// # Examples
///
/// ```
/// use proram_oram::StreamCipher;
///
/// let cipher = StreamCipher::new(0xDEADBEEF);
/// let mut buf = *b"secret path oram";
/// cipher.apply(7, &mut buf);
/// assert_ne!(&buf, b"secret path oram");
/// cipher.apply(7, &mut buf); // XOR stream: applying twice decrypts
/// assert_eq!(&buf, b"secret path oram");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCipher {
    key: u64,
}

impl StreamCipher {
    /// Creates a cipher with the given key.
    pub fn new(key: u64) -> Self {
        StreamCipher { key }
    }

    /// The SplitMix seed mixing `key` and `nonce`.
    #[inline]
    fn seed(&self, nonce: u64) -> u64 {
        self.key.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ nonce.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
    }

    /// XORs the keystream for `nonce` into `buf` (encrypts or decrypts).
    ///
    /// The keystream is generated eight 64-bit words per round (two
    /// [`SplitMix64::next4`] calls) and applied as four 16-byte XORs, so
    /// a bucket-sized buffer moves 64 bytes per iteration instead of 8.
    /// The keystream byte sequence is *identical* to the
    /// one-word-at-a-time formulation (kept as
    /// [`Self::apply_scalar_reference`]), so ciphertexts and the storage
    /// image are unchanged.
    pub fn apply(&self, nonce: u64, buf: &mut [u8]) {
        let mut ks = SplitMix64::new(self.seed(nonce));
        // 64-byte blocks: two next4() calls feed four u128 XORs. All
        // eight mixes are data-independent, so they schedule in parallel
        // ahead of the wide loads/stores.
        let mut blocks = buf.chunks_exact_mut(64);
        for block in &mut blocks {
            let [k0, k1, k2, k3] = ks.next4();
            let [k4, k5, k6, k7] = ks.next4();
            let m = [
                u128::from(k0) | (u128::from(k1) << 64),
                u128::from(k2) | (u128::from(k3) << 64),
                u128::from(k4) | (u128::from(k5) << 64),
                u128::from(k6) | (u128::from(k7) << 64),
            ];
            for (lane, mi) in block.chunks_exact_mut(16).zip(m) {
                let v = u128::from_le_bytes(lane.as_ref().try_into().expect("16-byte lane"));
                lane.copy_from_slice(&(v ^ mi).to_le_bytes());
            }
        }
        // Whole words XOR 8 bytes at a time; the tail (if any) falls back
        // to byte-wise XOR of the same keystream word, so the keystream
        // byte sequence is independent of the chunking.
        let mut chunks = blocks.into_remainder().chunks_exact_mut(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.as_ref().try_into().expect("8-byte chunk"));
            chunk.copy_from_slice(&(word ^ ks.next_u64()).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = ks.next_u64().to_le_bytes();
            for (b, k) in rem.iter_mut().zip(word.iter()) {
                *b ^= k;
            }
        }
    }

    /// Writes `src` XORed with the keystream for `nonce` into `dst` —
    /// [`Self::apply`] fused with the copy, so a bucket moving between
    /// the image and the path scratch is touched once instead of copied
    /// and then transformed in place. The keystream byte sequence is
    /// identical to [`Self::apply`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `src` and `dst` differ in length.
    pub fn apply_to(&self, nonce: u64, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "apply_to needs equal lengths");
        let mut ks = SplitMix64::new(self.seed(nonce));
        let mut src_blocks = src.chunks_exact(64);
        let mut dst_blocks = dst.chunks_exact_mut(64);
        for (s, d) in (&mut src_blocks).zip(&mut dst_blocks) {
            let [k0, k1, k2, k3] = ks.next4();
            let [k4, k5, k6, k7] = ks.next4();
            let m = [
                u128::from(k0) | (u128::from(k1) << 64),
                u128::from(k2) | (u128::from(k3) << 64),
                u128::from(k4) | (u128::from(k5) << 64),
                u128::from(k6) | (u128::from(k7) << 64),
            ];
            for ((s, d), mi) in s.chunks_exact(16).zip(d.chunks_exact_mut(16)).zip(m) {
                let v = u128::from_le_bytes(s.try_into().expect("16-byte lane"));
                d.copy_from_slice(&(v ^ mi).to_le_bytes());
            }
        }
        let mut src_words = src_blocks.remainder().chunks_exact(8);
        let mut dst_words = dst_blocks.into_remainder().chunks_exact_mut(8);
        for (s, d) in (&mut src_words).zip(&mut dst_words) {
            let word = u64::from_le_bytes(s.try_into().expect("8-byte chunk"));
            d.copy_from_slice(&(word ^ ks.next_u64()).to_le_bytes());
        }
        let (s, d) = (src_words.remainder(), dst_words.into_remainder());
        if !s.is_empty() {
            let word = ks.next_u64().to_le_bytes();
            for ((d, s), k) in d.iter_mut().zip(s).zip(word) {
                *d = s ^ k;
            }
        }
    }

    /// The pre-widening implementation of [`Self::apply`]: one keystream
    /// word per iteration. Retained verbatim as the byte-equality oracle
    /// of `crypto::tests`: output is byte-identical to [`Self::apply`].
    pub fn apply_scalar_reference(&self, nonce: u64, buf: &mut [u8]) {
        let mut ks = SplitMix64::new(self.seed(nonce));
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.as_ref().try_into().expect("8-byte chunk"));
            chunk.copy_from_slice(&(word ^ ks.next_u64()).to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = ks.next_u64().to_le_bytes();
            for (b, k) in rem.iter_mut().zip(word.iter()) {
                *b ^= k;
            }
        }
    }

    /// Encrypts `buf` in place under `nonce` (alias of [`Self::apply`],
    /// named for call-site clarity).
    pub fn encrypt(&self, nonce: u64, buf: &mut [u8]) {
        self.apply(nonce, buf);
    }

    /// Decrypts `buf` in place under `nonce`.
    pub fn decrypt(&self, nonce: u64, buf: &mut [u8]) {
        self.apply(nonce, buf);
    }
}

/// A keyed 64-bit MAC for block authentication (PMMAC-style, after
/// Freecursive ORAM \[8\], the paper's baseline recursion technique).
///
/// Like [`StreamCipher`] this is a *simulation* primitive: it has the
/// interface and data flow of a real MAC (keyed, covers address, version
/// and payload) with a toy mixing function. It must not protect real
/// data.
///
/// # Examples
///
/// ```
/// use proram_oram::crypto::Mac;
///
/// let mac = Mac::new(7);
/// let tag = mac.tag(&[42, 3], b"block payload");
/// assert_eq!(tag, mac.tag(&[42, 3], b"block payload"));
/// assert_ne!(tag, mac.tag(&[42, 4], b"block payload"));
/// assert_ne!(tag, mac.tag(&[42, 3], b"block payloae"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mac {
    key: u64,
}

impl Mac {
    /// Folded into the key to form the initial chain state.
    const INIT: u64 = 0xA076_1D64_78BD_642F;

    /// Creates a MAC with the given key.
    pub fn new(key: u64) -> Self {
        Mac { key }
    }

    /// Tags the `header` words and `data` bytes.
    pub fn tag(&self, header: &[u64], data: &[u8]) -> u64 {
        self.tag_parts(header, &[data])
    }

    /// Tags the `header` words and several byte slices, absorbing each
    /// part's length so the boundaries are unambiguous:
    /// `tag_parts(h, &[a, b])` and `tag_parts(h, &[ab])` differ even when
    /// the concatenations agree. Used to authenticate non-contiguous
    /// regions (e.g. a slot's header and payload around the tag field)
    /// without copying them together.
    pub fn tag_parts(&self, header: &[u64], parts: &[&[u8]]) -> u64 {
        let mut state = self.key ^ Self::INIT;
        let mut absorb = |w: u64| {
            state ^= w;
            let mut sm = SplitMix64::new(state);
            state = sm.next_u64();
        };
        for &w in header {
            absorb(w);
        }
        for part in parts {
            for chunk in part.chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                absorb(u64::from_le_bytes(buf));
            }
            absorb(part.len() as u64);
        }
        state
    }

    /// Tags up to [`MAC_LANES`] messages of equal shape in lockstep:
    /// `out[l]` is exactly `tag_parts(lanes[l].0, lanes[l].1)`.
    ///
    /// One tag is a dependent chain of SplitMix rounds, bound by the
    /// round's latency, not by the core's width. Chains of different
    /// messages are independent, so stepping several of them word by
    /// word keeps the multipliers busy: the slots of one ORAM path are
    /// such a set (same header length, same part lengths).
    ///
    /// # Panics
    ///
    /// Panics if there are no lanes or more than [`MAC_LANES`], if `out`
    /// is not one word per lane, or if the lanes differ in header
    /// length, part count or any part's length.
    pub fn tag_lanes(&self, lanes: &[MacLane<'_>], out: &mut [u64]) {
        assert_eq!(lanes.len(), out.len(), "one tag per lane");
        match lanes.len() {
            1 => out.copy_from_slice(&self.lockstep::<1>(lanes)),
            2 => out.copy_from_slice(&self.lockstep::<2>(lanes)),
            3 => out.copy_from_slice(&self.lockstep::<3>(lanes)),
            4 => out.copy_from_slice(&self.lockstep::<4>(lanes)),
            n => panic!("{n} lanes; tag_lanes takes 1..={MAC_LANES}"),
        }
    }

    fn lockstep<const N: usize>(&self, lanes: &[MacLane<'_>]) -> [u64; N] {
        let lanes: [MacLane<'_>; N] = std::array::from_fn(|l| lanes[l]);
        let (header, parts) = lanes[0];
        assert!(
            lanes
                .iter()
                .all(|(h, p)| h.len() == header.len() && p.len() == parts.len()),
            "lanes differ in shape"
        );
        let absorb = |state: u64, w: u64| SplitMix64::new(state ^ w).next_u64();
        let mut state = [self.key ^ Self::INIT; N];
        for w in 0..header.len() {
            for (s, (h, _)) in state.iter_mut().zip(lanes) {
                *s = absorb(*s, h[w]);
            }
        }
        for (p, part) in parts.iter().enumerate() {
            let len = part.len();
            assert!(
                lanes.iter().all(|(_, parts)| parts[p].len() == len),
                "lanes differ in shape"
            );
            let split = lanes.map(|(_, parts)| parts[p].as_chunks::<8>());
            // Sliced to the common length so the word loop indexes unchecked.
            let words = split.map(|(words, _)| &words[..len / 8]);
            for w in 0..len / 8 {
                for (s, words) in state.iter_mut().zip(words) {
                    *s = absorb(*s, u64::from_le_bytes(words[w]));
                }
            }
            for (s, (_, tail)) in state.iter_mut().zip(split) {
                if !tail.is_empty() {
                    // The tail as a zero-padded little-endian word.
                    let word = tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
                    *s = absorb(*s, word);
                }
                *s = absorb(*s, len as u64);
            }
        }
        state
    }
}

/// One message of [`Mac::tag_lanes`]: the `(header, parts)` arguments
/// [`Mac::tag_parts`] would take.
pub type MacLane<'a> = (&'a [u64], &'a [&'a [u8]]);

/// Widest [`Mac::tag_lanes`] call. Four chains bring a ~150-byte slot tag
/// from ~108 ns to ~36 ns on the reference host, within 1.5x of what its
/// one multiplier port allows; a wider group would also leave more of a
/// path's ~18 slots to narrower remainder calls.
pub const MAC_LANES: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let c = StreamCipher::new(42);
        let plain = b"0123456789abcdef0123".to_vec();
        let mut buf = plain.clone();
        c.encrypt(99, &mut buf);
        assert_ne!(buf, plain);
        c.decrypt(99, &mut buf);
        assert_eq!(buf, plain);
    }

    #[test]
    fn different_nonces_differ() {
        let c = StreamCipher::new(42);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        c.encrypt(1, &mut a);
        c.encrypt(2, &mut b);
        assert_ne!(
            a, b,
            "probabilistic encryption: fresh nonce, fresh ciphertext"
        );
    }

    #[test]
    fn different_keys_differ() {
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        StreamCipher::new(1).encrypt(5, &mut a);
        StreamCipher::new(2).encrypt(5, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn wrong_nonce_fails_to_decrypt() {
        let c = StreamCipher::new(7);
        let plain = b"blockdata".to_vec();
        let mut buf = plain.clone();
        c.encrypt(1, &mut buf);
        c.decrypt(2, &mut buf);
        assert_ne!(buf, plain);
    }

    #[test]
    fn mac_detects_single_bit_flips() {
        let mac = Mac::new(99);
        let data = vec![0xAB; 64];
        let tag = mac.tag(&[1, 2, 3], &data);
        for byte in 0..64 {
            let mut tampered = data.clone();
            tampered[byte] ^= 1;
            assert_ne!(
                tag,
                mac.tag(&[1, 2, 3], &tampered),
                "flip at {byte} undetected"
            );
        }
    }

    #[test]
    fn mac_is_key_dependent() {
        assert_ne!(Mac::new(1).tag(&[5], b"x"), Mac::new(2).tag(&[5], b"x"));
    }

    #[test]
    fn tag_parts_is_boundary_sensitive() {
        let mac = Mac::new(11);
        // Single-part tagging is exactly `tag`.
        assert_eq!(mac.tag(&[1], b"abcdef"), mac.tag_parts(&[1], &[b"abcdef"]));
        // Moving a byte across a part boundary changes the tag even though
        // the concatenation is identical.
        assert_ne!(
            mac.tag_parts(&[1], &[b"abc", b"def"]),
            mac.tag_parts(&[1], &[b"abcd", b"ef"])
        );
        assert_ne!(
            mac.tag_parts(&[1], &[b"abc", b"def"]),
            mac.tag_parts(&[1], &[b"abcdef"])
        );
        // Part contents matter.
        assert_ne!(
            mac.tag_parts(&[1], &[b"abc", b"def"]),
            mac.tag_parts(&[1], &[b"abc", b"deg"])
        );
    }

    #[test]
    fn mac_distinguishes_length_extension() {
        let mac = Mac::new(4);
        assert_ne!(mac.tag(&[], b"ab"), mac.tag(&[], b"ab\0"));
    }

    #[test]
    fn widened_apply_matches_scalar_reference_at_every_length() {
        // The 4-wide keystream must be byte-identical to the retained
        // one-word-per-iteration reference for every chunking regime:
        // empty, sub-word, sub-block, block-aligned, and ragged tails.
        let c = StreamCipher::new(0xFEED_F00D_1234_5678);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257] {
            for nonce in [0u64, 1, 99, u64::MAX] {
                let plain: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
                let mut wide = plain.clone();
                let mut scalar = plain.clone();
                c.apply(nonce, &mut wide);
                c.apply_scalar_reference(nonce, &mut scalar);
                assert_eq!(wide, scalar, "len={len} nonce={nonce}");
            }
        }
    }

    #[test]
    fn apply_to_matches_apply_at_every_length() {
        let c = StreamCipher::new(0xFEED_F00D_1234_5678);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257] {
            for nonce in [0u64, 1, 99, u64::MAX] {
                let plain: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
                let mut in_place = plain.clone();
                c.apply(nonce, &mut in_place);
                let mut copied = vec![0xEE; len];
                c.apply_to(nonce, &plain, &mut copied);
                assert_eq!(copied, in_place, "len={len} nonce={nonce}");
            }
        }
    }

    #[test]
    fn tag_lanes_match_tag_parts_for_every_lane_count_and_shape() {
        let mac = Mac::new(0x0123_4567_89AB_CDEF);
        let lengths = [0usize, 1, 7, 8, 9, 17, 128, 145];
        // Lane `l`'s words and bytes differ from every other lane's.
        let header = |l: usize, len: usize| -> Vec<u64> {
            (0..len).map(|w| (l * 31 + w * 7 + 1) as u64).collect()
        };
        let bytes = |l: usize, p: usize, len: usize| -> Vec<u8> {
            (0..len)
                .map(|i| (l * 101 + p * 53 + i * 13 + 5) as u8)
                .collect()
        };
        for n in 1..=MAC_LANES {
            for header_len in 0..=3 {
                for first in lengths {
                    for second in lengths {
                        let headers: Vec<Vec<u64>> =
                            (0..n).map(|l| header(l, header_len)).collect();
                        let owned: Vec<[Vec<u8>; 2]> = (0..n)
                            .map(|l| [bytes(l, 0, first), bytes(l, 1, second)])
                            .collect();
                        let parts: Vec<[&[u8]; 2]> =
                            owned.iter().map(|[a, b]| [&a[..], &b[..]]).collect();
                        let lanes: Vec<MacLane<'_>> = headers
                            .iter()
                            .zip(&parts)
                            .map(|(h, p)| (&h[..], &p[..]))
                            .collect();
                        let mut tags = vec![0; n];
                        mac.tag_lanes(&lanes, &mut tags);
                        for (l, &(h, p)) in lanes.iter().enumerate() {
                            assert_eq!(
                                tags[l],
                                mac.tag_parts(h, p),
                                "lanes={n} lane={l} header={header_len} parts=[{first}, {second}]"
                            );
                        }
                    }
                }
            }
        }
        // No parts at all, and one part: the shapes of the other callers.
        let mut tags = [0; 2];
        mac.tag_lanes(&[(&[1, 2], &[]), (&[3, 4], &[])], &mut tags);
        assert_eq!(
            tags,
            [mac.tag_parts(&[1, 2], &[]), mac.tag_parts(&[3, 4], &[])]
        );
        mac.tag_lanes(&[(&[1], &[b"abc"]), (&[2], &[b"xyz"])], &mut tags);
        assert_eq!(tags, [mac.tag(&[1], b"abc"), mac.tag(&[2], b"xyz")]);
    }

    #[test]
    #[should_panic(expected = "lanes differ in shape")]
    fn tag_lanes_reject_unequal_shapes() {
        let mut tags = [0; 2];
        Mac::new(1).tag_lanes(&[(&[1], &[b"abc"]), (&[2], &[b"wxyz"])], &mut tags);
    }

    #[test]
    fn non_multiple_of_eight_lengths() {
        let c = StreamCipher::new(3);
        for len in [0usize, 1, 7, 9, 15] {
            let plain: Vec<u8> = (0..len as u8).collect();
            let mut buf = plain.clone();
            c.encrypt(4, &mut buf);
            c.decrypt(4, &mut buf);
            assert_eq!(buf, plain, "len={len}");
        }
    }
}
