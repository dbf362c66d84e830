//! SHA-256, implemented from scratch.
//!
//! The aggregator chains measurement blocks by hashing "the reported data and
//! the hash of the previous block" (§II-A). To keep the workspace inside the
//! approved dependency set, the hash function is implemented here rather than
//! pulled in as a crate. The implementation follows FIPS 180-4 and is tested
//! against the standard test vectors.

use core::fmt;

/// A 256-bit digest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of a genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parses a 64-character hex string.
    ///
    /// Returns `None` if the string is not exactly 64 hex characters.
    pub fn from_hex(hex: &str) -> Option<Digest> {
        if hex.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in hex.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// The raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use rtem_chain::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Convenience: hash a single byte slice.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Convenience: hash the concatenation of several byte slices without
    /// allocating an intermediate buffer.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Feeds more data into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros, then the 64-bit length; the tail spills into a
        // second block when fewer than 9 bytes of this one are free.
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= 56 {
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        digest_of(self.state)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut state = self.state.map(|word| [word]);
        compress_lanes(&mut state, &words_of(block).map(|word| [word]));
        self.state = state.map(|[word]| word);
    }
}

/// The digest of a final hash state: its words, big-endian.
fn digest_of(state: [u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// The 16 big-endian message words of one block.
fn words_of(block: &[u8; 64]) -> [u32; 16] {
    let mut words = [0u32; 16];
    for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    words
}

/// The SHA-256 compression function, run on `L` independent blocks in
/// lockstep.
///
/// Lane `l` of `state[j]` is word `j` of the `l`-th hash state and lane `l`
/// of `block[t]` is message word `t` of the `l`-th block, a structure of
/// arrays. Every statement of [`round`] is then an `L`-wide operation on one
/// `[u32; L]`, which the optimizer turns into SIMD arithmetic for `L = 16`
/// even on the baseline x86-64 target (SSE2): the multi-buffer layout of
/// Gueron & Krasnov (2012). [`Sha256`] runs it with `L = 1`; the Merkle
/// tree runs it through [`digest_lanes`] with `L = 16`.
#[inline(always)]
fn compress_lanes<const L: usize>(state: &mut [[u32; L]; 8], block: &[[u32; L]; 16]) {
    let mut w = *block;
    let mut v = *state;
    // Eight rounds per pass bring the working variables back to their
    // slots, so each call below addresses `v` at constant offsets.
    for base in (0..64).step_by(8) {
        round(&mut v, &mut w, base);
        round(&mut v, &mut w, base + 1);
        round(&mut v, &mut w, base + 2);
        round(&mut v, &mut w, base + 3);
        round(&mut v, &mut w, base + 4);
        round(&mut v, &mut w, base + 5);
        round(&mut v, &mut w, base + 6);
        round(&mut v, &mut w, base + 7);
    }
    for (word, add) in state.iter_mut().zip(v) {
        for (x, y) in word.iter_mut().zip(add) {
            *x = x.wrapping_add(y);
        }
    }
}

/// Round `i` of [`compress_lanes`].
///
/// The message schedule rolls through `w`: word `i` overwrites word
/// `i - 16`. The working variables rotate through `v` instead of being
/// shifted: in round `i`, variable `j` (`a` = 0 ... `h` = 7) lives in slot
/// `(j - i) mod 8`, so a round writes only the new `e` (over `d`) and the
/// new `a` (over `h`).
#[inline(always)]
fn round<const L: usize>(v: &mut [[u32; L]; 8], w: &mut [[u32; L]; 16], i: usize) {
    if i >= 16 {
        let (w15, w7, w2) = (w[(i + 1) % 16], w[(i + 9) % 16], w[(i + 14) % 16]);
        for (l, word) in w[i % 16].iter_mut().enumerate() {
            let s0 = w15[l].rotate_right(7) ^ w15[l].rotate_right(18) ^ (w15[l] >> 3);
            let s1 = w2[l].rotate_right(17) ^ w2[l].rotate_right(19) ^ (w2[l] >> 10);
            *word = word.wrapping_add(s0).wrapping_add(w7[l]).wrapping_add(s1);
        }
    }
    let slot = |j: usize| (j + 8 - i % 8) % 8;
    let (d, h) = (slot(3), slot(7));
    for l in 0..L {
        let (a, b, c) = (v[slot(0)][l], v[slot(1)][l], v[slot(2)][l]);
        let (e, f, g) = (v[slot(4)][l], v[slot(5)][l], v[slot(6)][l]);
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = v[h][l]
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i % 16][l]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        v[d][l] = v[d][l].wrapping_add(temp1);
        v[h][l] = temp1.wrapping_add(s0.wrapping_add(maj));
    }
}

/// Hashes `L` messages of equal total length at once; lane `l` hashes the
/// concatenation of the `P` parts `messages[l]`, so the result equals
/// [`Sha256::digest_parts`] lane by lane.
///
/// # Panics
///
/// If the messages differ in total length.
pub(crate) fn digest_lanes<const L: usize, const P: usize>(
    messages: &[[&[u8]; P]; L],
) -> [Digest; L] {
    let total = |parts: &[&[u8]; P]| parts.iter().map(|p| p.len()).sum::<usize>();
    let len = total(&messages[0]);
    assert!(
        messages.iter().all(|parts| total(parts) == len),
        "digest_lanes hashes equal-length messages only"
    );
    let blocks = (len + 9).div_ceil(64);
    let mut state = H0.map(|word| [word; L]);
    let mut words = [[0u32; L]; 16];
    for index in 0..blocks {
        for (lane, parts) in messages.iter().enumerate() {
            let block = padded_block(parts, len, index, blocks);
            for (t, word) in words_of(&block).into_iter().enumerate() {
                words[t][lane] = word;
            }
        }
        compress_lanes(&mut state, &words);
    }
    core::array::from_fn(|lane| digest_of(state.map(|word| word[lane])))
}

/// Block `index` of the padded `len`-byte concatenation of `parts`, which
/// pads to `blocks` blocks.
fn padded_block(parts: &[&[u8]], len: usize, index: usize, blocks: usize) -> [u8; 64] {
    let start = index * 64;
    let mut block = [0u8; 64];
    let mut at = 0;
    for part in parts {
        let from = start.max(at);
        let to = (start + 64).min(at + part.len());
        if from < to {
            block[from - start..to - start].copy_from_slice(&part[from - at..to - at]);
        }
        at += part.len();
    }
    if (start..start + 64).contains(&len) {
        block[len - start] = 0x80;
    }
    if index + 1 == blocks {
        block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVS reference vectors, plus 55 bytes: the longest
    // message whose padding still fits its last block (56 bytes spill).
    const VECTORS: &[(&str, &str)] = &[
        (
            "",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            "abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        ),
    ];

    #[test]
    fn nist_vectors() {
        for (input, expected) in VECTORS {
            assert_eq!(
                Sha256::digest(input.as_bytes()).to_hex(),
                *expected,
                "vector '{input}'"
            );
        }
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"The aggregator stores the consumption data in a blockchain.";
        let one_shot = Sha256::digest(data);
        for split in [1usize, 7, 13, 31, 59] {
            let mut h = Sha256::new();
            for chunk in data.chunks(split) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "split {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concatenation() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(
            Sha256::digest_parts(&[a, b]),
            Sha256::digest(b"hello world")
        );
    }

    #[test]
    fn different_inputs_different_digests() {
        assert_ne!(Sha256::digest(b"block-1"), Sha256::digest(b"block-2"));
    }

    #[test]
    fn hex_round_trip() {
        let d = Sha256::digest(b"round trip");
        let parsed = Digest::from_hex(&d.to_hex()).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(d.to_string(), d.to_hex());
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"g".repeat(64)).is_none());
    }

    #[test]
    fn zero_digest_is_all_zero() {
        assert_eq!(Digest::ZERO.as_bytes(), &[0u8; 32]);
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(64));
    }

    #[test]
    fn long_input_crossing_many_blocks() {
        // 200 bytes crosses three 64-byte blocks with a partial tail.
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        let d1 = Sha256::digest(&data);
        let mut h = Sha256::new();
        h.update(&data[..63]);
        h.update(&data[63..64]);
        h.update(&data[64..129]);
        h.update(&data[129..]);
        assert_eq!(h.finalize(), d1);
    }

    #[test]
    fn lanes_match_digest_parts_for_every_length() {
        for len in 0..=119usize {
            let messages: [Vec<u8>; 16] = core::array::from_fn(|lane| {
                (0..len).map(|i| (i * 7 + lane * 31 + len) as u8).collect()
            });
            // Split every lane into three parts at lane-dependent points,
            // some of them empty.
            let parts: [[&[u8]; 3]; 16] = core::array::from_fn(|lane| {
                let m = &messages[lane][..];
                let a = (lane * 5) % (len + 1);
                let b = a + (lane * 11 + len) % (len - a + 1);
                [&m[..a], &m[a..b], &m[b..]]
            });
            let lanes = digest_lanes(&parts);
            for (lane, digest) in lanes.iter().enumerate() {
                assert_eq!(
                    *digest,
                    Sha256::digest_parts(&parts[lane]),
                    "len {len} lane {lane}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn lanes_reject_unequal_lengths() {
        digest_lanes(&[[b"ab".as_slice()], [b"a".as_slice()]]);
    }
}
