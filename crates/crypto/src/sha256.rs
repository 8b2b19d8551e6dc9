//! SHA-256, implemented from the FIPS 180-4 specification.
//!
//! Used for ring positions, message digests under signatures, the HMAC
//! construction, and the keystream of the onion cipher.

use std::fmt;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl Digest {
    /// Digest as a hex string.
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.to_string()
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
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact yields 64 bytes"),
            );
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Chainable [`update`](Self::update).
    #[must_use]
    pub fn chain(mut self, data: &[u8]) -> Self {
        self.update(data);
        self
    }

    /// Finish and produce the digest.
    #[must_use]
    pub fn finalize(mut self) -> Digest {
        // padding: 0x80, zeros up to 56 mod 64, the 8-byte big-endian bit
        // length; a tail longer than 55 bytes pushes the length into a
        // block of its own
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One round on named working variables: only `d` and `h` change, so
/// the eight-way rotation of FIPS 180-4's `h = g; g = f; …` is done by
/// rotating the argument order of the next invocation instead of moving
/// values.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
        let ch = $g ^ ($e & ($f ^ $g));
        let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
        let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
        let maj = ($a & $b) | ($c & ($a | $b));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(s0).wrapping_add(maj);
    };
}

/// The FIPS 180-4 compression function: on the CPU's SHA extensions
/// where it has them, otherwise [`compress_scalar`]. Both give the same
/// state for every input; only CPU detection picks between them.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::compress(state, block) {
        return;
    }
    compress_scalar(state, block);
}

/// The compression function in portable code — the path on every CPU
/// without SHA extensions, and the reference the SHA-NI kernel is
/// tested against. The message schedule is a rolling window of 16
/// words — `w[i]` depends on nothing older than `w[i − 16]`, whose slot
/// it takes — refreshed once per 16 rounds.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("chunks_exact yields 4 bytes"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (pass, k) in K.chunks_exact(16).enumerate() {
        if pass > 0 {
            for j in 0..16 {
                let w15 = w[(j + 1) & 15];
                let w2 = w[(j + 14) & 15];
                let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                w[j] = w[j]
                    .wrapping_add(s0)
                    .wrapping_add(w[(j + 9) & 15])
                    .wrapping_add(s1);
            }
        }
        for (k, w) in k.chunks_exact(8).zip(w.chunks_exact(8)) {
            round!(a, b, c, d, e, f, g, h, k[0].wrapping_add(w[0]));
            round!(h, a, b, c, d, e, f, g, k[1].wrapping_add(w[1]));
            round!(g, h, a, b, c, d, e, f, k[2].wrapping_add(w[2]));
            round!(f, g, h, a, b, c, d, e, k[3].wrapping_add(w[3]));
            round!(e, f, g, h, a, b, c, d, k[4].wrapping_add(w[4]));
            round!(d, e, f, g, h, a, b, c, k[5].wrapping_add(w[5]));
            round!(c, d, e, f, g, h, a, b, k[6].wrapping_add(w[6]));
            round!(b, c, d, e, f, g, h, a, k[7].wrapping_add(w[7]));
        }
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The compression function on x86's SHA extensions (`sha256rnds2`,
/// `sha256msg1`, `sha256msg2`). The kernel is a safe function compiled
/// for those features; calling it is sound only on a CPU that has them,
/// which this module's `compress` checks at run time.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Compress `block` into `state` on the SHA extensions and return
    /// `true`, or leave `state` alone and return `false` when the CPU
    /// lacks them.
    #[expect(
        unsafe_code,
        reason = "calls the SHA-NI kernel once the CPU features it needs are detected"
    )]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: `kernel` is safe code whose only precondition is that
        // the CPU supports the features it is compiled for (sha, sse2,
        // ssse3, sse4.1). sse2 is part of the x86_64 baseline and the
        // other three were detected just above. It takes no pointers:
        // words enter through `_mm_set_epi32` and leave through
        // `_mm_extract_epi32`.
        unsafe { kernel(state, block) };
        true
    }

    /// Four rounds per step, two per `sha256rnds2`. The state is held as
    /// the instruction wants it, `abef` and `cdgh` with `a` and `c` in
    /// the top lane; `w` holds the message words of the next four steps,
    /// the oldest first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn kernel(state: &mut [u32; 8], block: &[u8; 64]) {
        let words = |i: usize| {
            let word = |j: usize| {
                let at = 16 * i + 4 * j;
                u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
            };
            _mm_set_epi32(word(3), word(2), word(1), word(0))
        };
        let mut w: [__m128i; 4] = [words(0), words(1), words(2), words(3)];
        let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
        let abef_in = _mm_set_epi32(a, b, e, f);
        let cdgh_in = _mm_set_epi32(c, d, g, h);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);
        for k in K.chunks_exact(4) {
            let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
            let wk = _mm_add_epi32(w[0], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            // the next four schedule words (the last four steps compute
            // words no round uses, so every step is the same code)
            let next = _mm_sha256msg2_epu32(
                _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[0], w[1]),
                    _mm_alignr_epi8::<4>(w[3], w[2]),
                ),
                w[3],
            );
            w = [w[1], w[2], w[3], next];
        }
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|x| x as u32);
    }
}

/// One-shot SHA-256.
#[must_use]
pub fn sha256(data: &[u8]) -> Digest {
    Sha256::new().chain(data).finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST test vectors.
    #[test]
    fn empty_vector() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
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
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn exact_block_boundary_padding() {
        // 55, 56, 63, 64 byte messages exercise every padding branch
        for n in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0x41u8; n];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "length {n}");
        }
    }

    /// The compression function this module shipped before the rolling
    /// schedule: full 64-word schedule, FIPS 180-4's textbook rotation.
    fn reference_compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-256 with the padding this module shipped before one-step
    /// padding (one padding byte at a time, the whole message at once),
    /// over the compression function `kernel`.
    fn padded_digest(data: &[u8], kernel: fn(&mut [u32; 8], &[u8; 64])) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            kernel(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, w) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }

    /// The implementation this module shipped before the rolling
    /// schedule and one-step padding. Kept as the reference the kernels
    /// are checked against.
    fn reference_sha256(data: &[u8]) -> Digest {
        padded_digest(data, reference_compress)
    }

    /// Whether `compress` runs the SHA-NI kernel on this CPU.
    #[cfg(target_arch = "x86_64")]
    fn has_sha_ni() -> bool {
        sha_ni::compress(&mut [0; 8], &[0; 64])
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn has_sha_ni() -> bool {
        false
    }

    #[test]
    fn every_length_matches_reference() {
        // `sha256` runs the SHA-NI kernel where the CPU has one, so this
        // checks it against the scalar path on every length and split
        if !has_sha_ni() {
            eprintln!("this CPU has no SHA extensions: checking the scalar path only");
        }
        // a byte pattern with no period near 64, so a misplaced block
        // cannot go unnoticed
        let data: Vec<u8> = (0..300u32).map(|i| (i * 167 + 13) as u8).collect();
        for len in 0..=300usize {
            let msg = &data[..len];
            let expected = padded_digest(msg, compress_scalar);
            assert_eq!(reference_sha256(msg), expected, "scalar, length {len}");
            assert_eq!(sha256(msg), expected, "one-shot, length {len}");
            let mut bytewise = Sha256::new();
            for b in msg {
                bytewise.update(std::slice::from_ref(b));
            }
            assert_eq!(
                bytewise.finalize(),
                expected,
                "byte-at-a-time, length {len}"
            );
            for split in 0..=len {
                let h = Sha256::new().chain(&msg[..split]).chain(&msg[split..]);
                assert_eq!(h.finalize(), expected, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn sha_ni_matches_scalar_on_random_blocks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let ni = has_sha_ni();
        if !ni {
            eprintln!("this CPU has no SHA extensions: checking the scalar path only");
        }
        let mut rng = StdRng::seed_from_u64(0x5348_414e);
        for i in 0..10_000 {
            let start: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let mut block = [0u8; 64];
            rng.fill(&mut block);
            let mut scalar = start;
            compress_scalar(&mut scalar, &block);
            let mut reference = start;
            reference_compress(&mut reference, &block);
            assert_eq!(scalar, reference, "scalar, block {i}");
            #[cfg(target_arch = "x86_64")]
            if ni {
                let mut kernel = start;
                assert!(sha_ni::compress(&mut kernel, &block));
                assert_eq!(kernel, scalar, "SHA-NI, block {i}");
            }
        }
    }

    #[test]
    fn reference_agrees_on_fips_vector() {
        assert_eq!(
            reference_sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn digest_display_roundtrip() {
        let d = sha256(b"octopus");
        assert_eq!(d.to_hex().len(), 64);
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
