//! AES-128 (encrypt-only), used as the fixed-key PRP behind the garbling
//! hash, the OT row hashes and (keyed per seed) the OT-extension PRG —
//! the JustGarble construction.
//!
//! Two bodies encrypt the same schedule to the same ciphertext:
//!
//! * **AES-NI** (`aesenc` / `aesenclast`), x86-64 only. A batch of `N`
//!   blocks advances round by round side by side, so the instruction's
//!   latency is paid once per batch rather than once per block.
//! * **Software**: byte-wise, S-box lookups only. The fallback on a CPU
//!   without AES-NI and on every other architecture, and the reference
//!   the hardware body is tested against.
//!
//! Tier rule: [`Aes128::new`] asks the CPU once (`aes` and `ssse3`, the
//! latter for the byte reversal between `u128` and AES block order) and
//! the answer stays with that schedule; no environment variable, feature
//! flag or per-block check is involved. [`Aes128::new_software`] pins the
//! software body for tests and benches. A loop that encrypts per
//! iteration runs inside [`Aes128::in_tier`], which enables the tier's
//! CPU features around the whole loop so the batches inline into it.
//!
//! Measured on the 2-core 2.1 GHz AVX-512 build host (`cargo bench
//! --bench gc_gates`, `aes128/*`, each call fed by the one before), ns
//! per block:
//!
//! | batch | software | AES-NI |
//! |-------|----------|--------|
//! | 1     | 160      | 17     |
//! | 4     | 150      | 4.8    |
//! | 8     | 145      | 3.0    |
//!
//! Garbling issues four blocks per AND gate and evaluation two, so the
//! software body alone costs ~600 / ~300 ns per gate — it was nearly all
//! of the real-GC path's 1032 / 315 ns per AND before the hardware body
//! (now 30 / 22 ns on a cache-resident circuit).

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab,
    0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4,
    0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71,
    0xd8, 0x31, 0x15, 0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6,
    0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb,
    0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf, 0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45,
    0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44,
    0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73, 0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a,
    0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49,
    0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08, 0xba, 0x78, 0x25,
    0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e,
    0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1,
    0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb,
    0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// The stack-wide fixed garbling key (public, as in the fixed-key
/// free-XOR model).
pub const FIXED_KEY: [u8; 16] = *b"primer-fixed-key";

/// Widest batch [`Aes128::encrypt_slice`] issues: eight independent
/// `aesenc` chains cover the instruction's latency on every AES-NI core.
const SLICE_WIDTH: usize = 8;

/// Which body encrypts. Resolved once, in the constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Software,
    #[cfg(target_arch = "x86_64")]
    AesNi,
}

impl Tier {
    /// The fastest body this CPU runs.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("ssse3")
        {
            return Self::AesNi;
        }
        Self::Software
    }
}

/// An expanded AES-128 key schedule and the body that runs it.
#[derive(Debug, Clone)]
pub struct Aes128 {
    /// The eleven round keys in FIPS-197 byte order — byte `4c + r` of a
    /// round key is row `r` of column `c`. The software body XORs them
    /// into its column-major state; the hardware body loads each one
    /// unaligned as a whole.
    round_keys: [[u8; 16]; 11],
    tier: Tier,
}

#[inline]
fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

impl Aes128 {
    /// Expands a 128-bit key; encrypts on AES-NI where the CPU has it.
    pub fn new(key: [u8; 16]) -> Self {
        Self { tier: Tier::detect(), ..Self::new_software(key) }
    }

    /// Expands a 128-bit key onto the portable byte-wise body, whatever
    /// the CPU — the reference the hardware body is tested against.
    pub fn new_software(key: [u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for i in 0..4 {
            w[i] = u32::from_be_bytes([
                key[4 * i],
                key[4 * i + 1],
                key[4 * i + 2],
                key[4 * i + 3],
            ]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = temp.rotate_left(8);
                let b = temp.to_be_bytes();
                temp = u32::from_be_bytes([
                    SBOX[b[0] as usize],
                    SBOX[b[1] as usize],
                    SBOX[b[2] as usize],
                    SBOX[b[3] as usize],
                ]);
                temp ^= (RCON[i / 4 - 1] as u32) << 24;
            }
            w[i] = w[i - 4] ^ temp;
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (i, word) in w.iter().enumerate() {
            round_keys[i / 4][4 * (i % 4)..4 * (i % 4) + 4].copy_from_slice(&word.to_be_bytes());
        }
        Self { round_keys, tier: Tier::Software }
    }

    /// The fixed garbling key used across the whole stack.
    pub fn fixed() -> Self {
        Self::new(FIXED_KEY)
    }

    /// Whether this schedule encrypts on AES-NI.
    pub fn is_hardware(&self) -> bool {
        self.tier != Tier::Software
    }

    /// Encrypts one 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, block: u128) -> u128 {
        self.encrypt_blocks([block])[0]
    }

    /// Encrypts `N` independent blocks. The hardware body runs them
    /// round by round side by side, so a batch costs little more than
    /// its slowest block.
    #[inline]
    pub fn encrypt_blocks<const N: usize>(&self, mut blocks: [u128; N]) -> [u128; N] {
        match self.tier {
            Tier::Software => {
                for b in &mut blocks {
                    *b = self.encrypt_block_software(*b);
                }
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `tier` is `AesNi` only when `new` detected both
            // `aes` and `ssse3` on this CPU.
            Tier::AesNi => unsafe { aesni::encrypt_blocks(&self.round_keys, &mut blocks) },
        }
        blocks
    }

    /// Runs `f` with this schedule's CPU features switched on for the
    /// whole call, so the `encrypt_blocks` calls inside `f` inline into
    /// its loops instead of crossing a feature boundary once per batch.
    #[inline]
    pub fn in_tier<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.tier {
            Tier::Software => f(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `tier` is `AesNi` only when `new` detected both
            // `aes` and `ssse3` on this CPU.
            Tier::AesNi => unsafe { aesni::call(f) },
        }
    }

    /// Encrypts every block of `blocks` in place, eight at a time; a
    /// ragged tail rides in a zero-padded batch of its own.
    pub fn encrypt_slice(&self, blocks: &mut [u128]) {
        self.in_tier(|| {
            let mut chunks = blocks.chunks_exact_mut(SLICE_WIDTH);
            for chunk in &mut chunks {
                let batch: &mut [u128; SLICE_WIDTH] = chunk.try_into().expect("exact chunk");
                *batch = self.encrypt_blocks(*batch);
            }
            let tail = chunks.into_remainder();
            if !tail.is_empty() {
                let mut batch = [0u128; SLICE_WIDTH];
                batch[..tail.len()].copy_from_slice(tail);
                tail.copy_from_slice(&self.encrypt_blocks(batch)[..tail.len()]);
            }
        });
    }

    fn encrypt_block_software(&self, block: u128) -> u128 {
        let mut state = block.to_be_bytes();
        self.add_round_key(&mut state, 0);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            self.add_round_key(&mut state, round);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        self.add_round_key(&mut state, 10);
        u128::from_be_bytes(state)
    }

    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        for (s, k) in state.iter_mut().zip(&self.round_keys[round]) {
            *s ^= k;
        }
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    // state is column-major: state[4c + r].
    let orig = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = orig[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let a = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = xtime(a[0]) ^ (xtime(a[1]) ^ a[1]) ^ a[2] ^ a[3];
        state[4 * c + 1] = a[0] ^ xtime(a[1]) ^ (xtime(a[2]) ^ a[2]) ^ a[3];
        state[4 * c + 2] = a[0] ^ a[1] ^ xtime(a[2]) ^ (xtime(a[3]) ^ a[3]);
        state[4 * c + 3] = (xtime(a[0]) ^ a[0]) ^ a[1] ^ a[2] ^ xtime(a[3]);
    }
}

/// The AES-NI body.
#[cfg(target_arch = "x86_64")]
mod aesni {
    use std::arch::x86_64::{
        _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi8,
        _mm_shuffle_epi8, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Calls `f` from a frame that has the AES-NI features enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes` and `ssse3`.
    #[target_feature(enable = "aes,ssse3")]
    pub(super) unsafe fn call<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Encrypts `blocks` in place, all `N` chains advancing one round at
    /// a time. A block is the big-endian reading of its `u128` (as in the
    /// software body), so each is byte-reversed on the way in and out.
    ///
    /// # Safety
    ///
    /// The CPU must support `aes` and `ssse3`.
    #[inline]
    #[target_feature(enable = "aes,ssse3")]
    pub(super) unsafe fn encrypt_blocks<const N: usize>(
        round_keys: &[[u8; 16]; 11],
        blocks: &mut [u128; N],
    ) {
        let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        // SAFETY: reads the 16 bytes of one round key through a reference
        // to them; the load is the unaligned form.
        let key = |round: &[u8; 16]| unsafe { _mm_loadu_si128(round.as_ptr().cast()) };
        let mut k = key(&round_keys[0]);
        let mut state = [k; N];
        for (s, block) in state.iter_mut().zip(blocks.iter()) {
            // SAFETY: reads the 16 bytes of one `u128` through a reference
            // to it; the load is the unaligned form.
            let b = unsafe { _mm_loadu_si128((block as *const u128).cast()) };
            *s = _mm_xor_si128(_mm_shuffle_epi8(b, reverse), k);
        }
        for round in &round_keys[1..10] {
            k = key(round);
            for s in &mut state {
                *s = _mm_aesenc_si128(*s, k);
            }
        }
        k = key(&round_keys[10]);
        for (block, s) in blocks.iter_mut().zip(state) {
            let out = _mm_shuffle_epi8(_mm_aesenclast_si128(s, k), reverse);
            // SAFETY: writes the 16 bytes of one `u128` through a unique
            // reference to it; the store is the unaligned form.
            unsafe { _mm_storeu_si128((block as *mut u128).cast(), out) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_math::rng::seeded;
    use rand::Rng;

    /// Both bodies of one key; the hardware one only where the CPU has it.
    fn bodies(key: [u8; 16]) -> Vec<Aes128> {
        let mut out = vec![Aes128::new_software(key)];
        let auto = Aes128::new(key);
        if auto.is_hardware() {
            out.push(auto);
        } else {
            println!("note: no AES-NI on this host — hardware body not exercised");
        }
        out
    }

    const FIPS_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    #[test]
    fn fips_197_vector() {
        // FIPS-197 Appendix B.
        let pt = 0x3243f6a8_885a308d_313198a2_e0370734u128;
        let want = 0x3925841d_02dc09fb_dc118597_196a0b32u128;
        for aes in bodies(FIPS_KEY) {
            assert_eq!(aes.encrypt_block(pt), want, "hardware: {}", aes.is_hardware());
        }
    }

    #[test]
    fn fips_197_appendix_c1_vector() {
        // FIPS-197 Appendix C.1: key 00..0f, plaintext 00 11 .. ff.
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let pt = 0x00112233_44556677_8899aabb_ccddeeffu128;
        let want = 0x69c4e0d8_6a7b0430_d8cdb780_70b4c55au128;
        for aes in bodies(key) {
            assert_eq!(aes.encrypt_block(pt), want, "hardware: {}", aes.is_hardware());
        }
    }

    #[test]
    fn fips_197_expansion_vector() {
        // FIPS-197 Appendix A key expansion spot checks (w4 and w43).
        let aes = Aes128::new_software(FIPS_KEY);
        assert_eq!(aes.round_keys[1][..4], 0xa0fafe17u32.to_be_bytes());
        assert_eq!(aes.round_keys[10][12..], 0xb6630ca6u32.to_be_bytes());
    }

    #[test]
    fn distinct_blocks_distinct_outputs() {
        let aes = Aes128::fixed();
        let a = aes.encrypt_block(1);
        let b = aes.encrypt_block(2);
        assert_ne!(a, b);
        // Deterministic.
        assert_eq!(aes.encrypt_block(1), a);
    }

    /// Every batch width the crate issues (1 block, 2 per evaluated AND,
    /// 4 per garbled AND, 8 per slice chunk) and every ragged slice tail
    /// agree with the software body block by block.
    #[test]
    fn hardware_matches_software_on_random_pairs() {
        let mut rng = seeded(0xae5);
        let mut pairs = 0usize;
        for _ in 0..700 {
            let key: [u8; 16] = rng.gen::<u128>().to_le_bytes();
            let soft = Aes128::new_software(key);
            let blocks: [u128; 15] = std::array::from_fn(|_| rng.gen());
            let want = blocks.map(|b| soft.encrypt_block_software(b));
            for aes in bodies(key) {
                assert_eq!(aes.encrypt_blocks([blocks[0]]), [want[0]]);
                assert_eq!(aes.encrypt_blocks([blocks[0], blocks[1]]), [want[0], want[1]]);
                let four: [u128; 4] = blocks[..4].try_into().expect("4 blocks");
                assert_eq!(aes.encrypt_blocks(four)[..], want[..4]);
                let eight: [u128; 8] = blocks[..8].try_into().expect("8 blocks");
                assert_eq!(aes.encrypt_blocks(eight)[..], want[..8]);
                // Slice lengths 0..=15: no chunk, a lone tail, a chunk
                // plus every tail length.
                for len in 0..=blocks.len() {
                    let mut slice = blocks[..len].to_vec();
                    aes.encrypt_slice(&mut slice);
                    assert_eq!(slice[..], want[..len], "slice of {len}");
                }
            }
            pairs += blocks.len();
        }
        assert!(pairs >= 10_000, "{pairs} (key, block) pairs");
    }
}
