//! Local stand-in for the `sha2` crate (the build environment has no
//! crates.io access). Implements **real SHA-256** (FIPS 180-4) with the
//! subset of the RustCrypto `Digest` trait surface ZugChain uses:
//! `Sha256::new/update/finalize/digest`, with the output convertible to
//! `[u8; 32]`. The downstream crypto crate carries FIPS known-answer
//! tests, so this must match the standard bit-for-bit.
//!
//! Like `sha2` and `ring`, the block compression picks its backend at run
//! time: on x86-64 CPUs with the SHA extensions it runs on
//! `sha256rnds2`/`sha256msg1`/`sha256msg2`; everywhere else (other x86-64
//! CPUs, ARM, every other target) it runs the portable compression, which
//! is also the reference the tests compare the hardware path against.
//! Only CPU detection chooses; there is no option to set.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
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

/// Runs the compression function over every 64-byte block of `blocks`
/// (whose length must be a multiple of 64) on the fastest backend this
/// CPU supports.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        // SAFETY: `x86::detected` has just confirmed that this CPU
        // supports every feature `x86::compress_blocks` is compiled for.
        unsafe { x86::compress_blocks(state, blocks) };
        return;
    }
    portable::compress_blocks(state, blocks);
}

/// The FIPS 180-4 compression in plain Rust: the only backend on CPUs
/// without SHA instructions, and the reference for the others.
mod portable {
    use super::K;

    pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            compress(state, block);
        }
    }

    fn compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The compression on the x86-64 SHA extensions (Intel's `sha256rnds2`
/// scheme: the state lives in two registers, `ABEF` and `CDGH`, and each
/// instruction runs two rounds).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use super::K;

    /// Whether this CPU has every feature [`compress_blocks`] needs. The
    /// standard library caches the CPUID answer, so this is a few loads.
    pub(crate) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`, as
    /// [`detected`] reports.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(crate) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        for block in blocks.chunks_exact(64) {
            let ptr = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is a 64-byte chunk, so the four unaligned
            // 16-byte loads at offsets 0, 16, 32 and 48 stay inside it;
            // the caller checked `detected`, so SSE2 is available.
            let [w0, w1, w2, w3] = unsafe {
                [
                    _mm_loadu_si128(ptr),
                    _mm_loadu_si128(ptr.add(1)),
                    _mm_loadu_si128(ptr.add(2)),
                    _mm_loadu_si128(ptr.add(3)),
                ]
            };
            let mut w0 = _mm_shuffle_epi8(w0, be_words);
            let mut w1 = _mm_shuffle_epi8(w1, be_words);
            let mut w2 = _mm_shuffle_epi8(w2, be_words);
            let mut w3 = _mm_shuffle_epi8(w3, be_words);
            let (abef_in, cdgh_in) = (abef, cdgh);

            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 4);
            rounds4(&mut abef, &mut cdgh, w2, 8);
            rounds4(&mut abef, &mut cdgh, w3, 12);
            // Rounds 16..64 extend the schedule four words at a time,
            // overwriting the oldest register.
            for round in (16..64).step_by(16) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, round);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, round + 4);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, round + 8);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, round + 12);
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

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
        .map(|word| word as u32);
    }

    /// Rounds `round..round + 4` on message words `w` (lane 0 first).
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, round: usize) {
        let k = _mm_set_epi32(
            K[round + 3] as i32,
            K[round + 2] as i32,
            K[round + 1] as i32,
            K[round] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// The next four schedule words from the previous sixteen,
    /// `w[t-16..t-12]` in `w0` through `w[t-4..t]` in `w3`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sigma0 = _mm_sha256msg1_epu32(w0, w1);
        let w7 = _mm_alignr_epi8::<4>(w3, w2);
        _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w3)
    }
}

/// A finalized 32-byte SHA-256 output, convertible into `[u8; 32]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output([u8; 32]);

impl From<Output> for [u8; 32] {
    fn from(output: Output) -> Self {
        output.0
    }
}

impl AsRef<[u8]> for Output {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// The subset of the RustCrypto `Digest` trait ZugChain uses.
pub trait Digest: Sized {
    /// Creates a fresh hasher.
    fn new() -> Self;
    /// Absorbs more input.
    fn update(&mut self, data: impl AsRef<[u8]>);
    /// Finishes and returns the digest.
    fn finalize(self) -> Output;

    /// One-shot convenience: hash `data` in a fresh hasher.
    fn digest(data: impl AsRef<[u8]>) -> Output {
        let mut hasher = Self::new();
        hasher.update(data);
        hasher.finalize()
    }
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            total_len: 0,
        }
    }
}

impl Digest for Sha256 {
    fn new() -> Self {
        Self::default()
    }

    fn update(&mut self, data: impl AsRef<[u8]>) {
        let mut input = data.as_ref();
        self.total_len = self.total_len.wrapping_add(input.len() as u64);

        if self.buffered > 0 {
            let take = input.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Every whole block of the input in one call.
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    fn finalize(self) -> Output {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // in one block when the length fits behind the 0x80 byte (at most
        // 55 bytes buffered), else in two.
        let mut tail = [0u8; 128];
        tail[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        tail[self.buffered] = 0x80;
        let len = if self.buffered < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        let mut state = self.state;
        compress_blocks(&mut state, &tail[..len]);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Output(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: [u8; 32]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The name of the backend [`compress_blocks`] picks on this CPU.
    fn backend() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if x86::detected() {
            return "x86-64 SHA extensions";
        }
        "portable"
    }

    /// SHA-256 built directly on the portable compression: the textbook
    /// padded message, compressed in one pass.
    fn reference(data: &[u8]) -> [u8; 32] {
        let mut message = data.to_vec();
        message.push(0x80);
        while message.len() % 64 != 56 {
            message.push(0);
        }
        message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        portable::compress_blocks(&mut state, &message);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Deterministic test bytes (xorshift64).
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn every_length_matches_the_portable_reference() {
        println!("sha256 backend: {}", backend());
        // Crosses the 55/56/63/64/119/120-byte padding boundaries and
        // several whole blocks.
        let data = bytes(1100, 7);
        for len in 0..=data.len() {
            let input = &data[..len];
            assert_eq!(
                <[u8; 32]>::from(Sha256::digest(input)),
                reference(input),
                "length {len}"
            );
        }
    }

    #[test]
    fn split_updates_match_the_portable_reference() {
        println!("sha256 backend: {}", backend());
        for seed in 1..=200u64 {
            let data = bytes(1100, seed);
            let len = (seed as usize * 37) % data.len();
            let input = &data[..len];
            // Cut the input at seeded points, including empty pieces.
            let mut cuts: Vec<usize> = bytes(6, seed.wrapping_mul(0x9e37_79b9))
                .iter()
                .map(|&b| b as usize * len / 255)
                .collect();
            cuts.sort_unstable();
            let mut hasher = Sha256::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                hasher.update(&input[from..cut]);
                from = cut;
            }
            assert_eq!(
                <[u8; 32]>::from(hasher.finalize()),
                reference(input),
                "seed {seed}, length {len}"
            );
        }
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(Sha256::digest(b"").into()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(Sha256::digest(b"abc").into()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").into()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let mut hasher = Sha256::new();
        // Uneven chunks exercise the buffering path.
        let data = vec![b'a'; 1_000_000];
        for chunk in data.chunks(977) {
            hasher.update(chunk);
        }
        assert_eq!(
            hex(hasher.finalize().into()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut hasher = Sha256::new();
        hasher.update(b"hello ");
        hasher.update(b"world");
        assert_eq!(hasher.finalize(), Sha256::digest(b"hello world"));
    }
}
