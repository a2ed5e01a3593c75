//! Ciphertext packing strategies and encrypted matrix multiplication —
//! the paper's Figure 6 in executable form.
//!
//! Both strategies compute `Enc(X)·W` for an encrypted `r × c` matrix `X`
//! and a plaintext `c × m` weight matrix `W`, producing exactly the ring
//! matmul `X·W mod t` (tests assert equality), but with very different
//! homomorphic rotation counts:
//!
//! * **feature-based** (prior work): tokens are laid out row-major, a
//!   diagonal-method rotation chain of ~`feats_pad` (up to `M`) steps per
//!   output ciphertext is required;
//! * **tokens-first** (the paper's contribution): the j-th feature of
//!   *all* tokens shares one block of `n_pad` slots, so one stride-`n_pad`
//!   rotation serves every token simultaneously — `M / n_pad` steps.
//!
//! Implementation note: accumulation is Horner-style (rotate the
//! accumulator, multiply fresh ciphertexts by pre-rotated masks). This is
//! the standard output-rotation formulation; it keeps multiplicative
//! noise off the rotation chain, which is mandatory at the paper-scale
//! plaintext modulus. Rotation counts per strategy keep the paper's
//! `M` vs `M/n` asymmetry (see `counts` functions, which the
//! implementation `debug_assert`s against).

use primer_he::{BatchEncoder, Ciphertext, Encryptor};
use primer_math::MatZ;
use rand::rngs::StdRng;

/// Which packing strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Packing {
    /// Prior-work feature-major packing (Fig. 6a).
    FeatureBased,
    /// The paper's tokens-first packing (Fig. 6b).
    TokensFirst,
}

/// Layout metadata of a packed matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Strategy that produced this layout.
    pub packing: Packing,
    /// Logical rows (tokens).
    pub rows: usize,
    /// Logical columns (features).
    pub cols: usize,
    /// SIMD width (slots per batching row).
    pub simd: usize,
    /// Tokens-first: padded token count (block stride).
    /// Feature-based: padded feature width (region size).
    pub pad: usize,
    /// Number of ciphertexts.
    pub num_cts: usize,
}

impl Layout {
    /// Computes the layout for a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix cannot be packed at this SIMD width.
    pub fn plan(packing: Packing, rows: usize, cols: usize, simd: usize) -> Layout {
        match packing {
            Packing::TokensFirst => {
                let pad = rows.next_power_of_two();
                assert!(pad <= simd, "padded rows {pad} exceed SIMD width {simd}");
                let block = simd / pad;
                let num_cts = cols.div_ceil(block);
                Layout { packing, rows, cols, simd, pad, num_cts }
            }
            Packing::FeatureBased => {
                let pad = cols.next_power_of_two().min(simd);
                if pad == simd {
                    // One token spans ceil(cols/simd) chunk ciphertexts.
                    let chunks = cols.div_ceil(simd);
                    Layout { packing, rows, cols, simd, pad, num_cts: rows * chunks }
                } else {
                    // Multiple token regions per ciphertext.
                    let group = simd / pad;
                    Layout { packing, rows, cols, simd, pad, num_cts: rows.div_ceil(group) }
                }
            }
        }
    }

    /// Features per ciphertext block (tokens-first).
    pub fn block(&self) -> usize {
        debug_assert_eq!(self.packing, Packing::TokensFirst);
        self.simd / self.pad
    }

    /// Token regions per ciphertext (feature-based, `pad < simd`).
    pub fn group(&self) -> usize {
        debug_assert_eq!(self.packing, Packing::FeatureBased);
        self.simd / self.pad
    }

    /// Slot vector (length `simd`) of ciphertext `k` for matrix `x`.
    fn slots_of(&self, x: &MatZ, k: usize) -> Vec<u64> {
        let mut slots = vec![0u64; self.simd];
        match self.packing {
            Packing::TokensFirst => {
                let block = self.block();
                for b in 0..block {
                    let j = k * block + b;
                    if j >= self.cols {
                        break;
                    }
                    for i in 0..self.rows {
                        slots[b * self.pad + i] = x[(i, j)];
                    }
                }
            }
            Packing::FeatureBased => {
                if self.pad == self.simd {
                    let chunks = self.cols.div_ceil(self.simd);
                    let (i, c) = (k / chunks, k % chunks);
                    for o in 0..self.simd.min(self.cols - c * self.simd) {
                        slots[o] = x[(i, c * self.simd + o)];
                    }
                } else {
                    let group = self.group();
                    let chunks = self.cols.div_ceil(self.pad);
                    let (z, oc) = (k / chunks, k % chunks);
                    let col_base = oc * self.pad;
                    let width = self.pad.min(self.cols - col_base);
                    for u in 0..group {
                        let i = z * group + u;
                        if i >= self.rows {
                            break;
                        }
                        for o in 0..width {
                            slots[u * self.pad + o] = x[(i, col_base + o)];
                        }
                    }
                }
            }
        }
        slots
    }

    /// Reads matrix entry `(i, j)` back out of decoded slot vectors.
    fn read(&self, decoded: &[Vec<u64>], i: usize, j: usize) -> u64 {
        match self.packing {
            Packing::TokensFirst => {
                let block = self.block();
                decoded[j / block][(j % block) * self.pad + i]
            }
            Packing::FeatureBased => {
                if self.pad == self.simd {
                    let chunks = self.cols.div_ceil(self.simd);
                    decoded[i * chunks + j / self.simd][j % self.simd]
                } else {
                    // Columns beyond `pad` live in sibling chunk
                    // ciphertexts (matmul outputs inherit the input pad).
                    let group = self.group();
                    let chunks = self.cols.div_ceil(self.pad);
                    decoded[(i / group) * chunks + j / self.pad]
                        [(i % group) * self.pad + (j % self.pad)]
                }
            }
        }
    }
}

/// A packed, encrypted matrix.
#[derive(Debug, Clone)]
pub struct PackedMatrix {
    /// Layout metadata (public).
    pub layout: Layout,
    /// The ciphertexts.
    pub cts: Vec<Ciphertext>,
}

impl PackedMatrix {
    /// Total wire size of the ciphertexts.
    pub fn serialized_size(&self) -> usize {
        self.cts.iter().map(Ciphertext::serialized_size).sum()
    }
}

/// Encrypts a ring matrix under the given packing, drawing encryption
/// randomness from the encryptor's own rng (sequential; the parallel
/// offline producers use [`encrypt_matrix_with`] instead).
pub fn encrypt_matrix(
    packing: Packing,
    x: &MatZ,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
) -> PackedMatrix {
    let layout = Layout::plan(packing, x.rows(), x.cols(), encoder.row_size());
    encrypt_matrix_in_layout(layout, x, encoder, encryptor)
}

/// Encrypts a ring matrix into a caller-specified layout (used when the
/// ciphertexts must align with a matmul output for later addition).
pub fn encrypt_matrix_in_layout(
    layout: Layout,
    x: &MatZ,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
) -> PackedMatrix {
    let mut rng = encryptor.fork_rng();
    encrypt_matrix_in_layout_with(layout, x, encoder, encryptor, &mut rng)
}

/// [`encrypt_matrix`] with caller-provided encryption randomness,
/// fanning the per-ciphertext encryptions out across the thread pool.
/// One sub-rng per ciphertext is derived from `rng` in ciphertext order
/// first, so the ciphertext bytes are identical at every thread count.
pub fn encrypt_matrix_with(
    packing: Packing,
    x: &MatZ,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
    rng: &mut StdRng,
) -> PackedMatrix {
    let layout = Layout::plan(packing, x.rows(), x.cols(), encoder.row_size());
    encrypt_matrix_in_layout_with(layout, x, encoder, encryptor, rng)
}

/// [`encrypt_matrix_in_layout`] with caller-provided randomness (see
/// [`encrypt_matrix_with`]).
pub fn encrypt_matrix_in_layout_with(
    layout: Layout,
    x: &MatZ,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
    rng: &mut StdRng,
) -> PackedMatrix {
    assert_eq!((layout.rows, layout.cols), x.shape(), "layout shape mismatch");
    let seeds: Vec<u64> = (0..layout.num_cts).map(|_| rand::Rng::gen(rng)).collect();
    let cts = rayon::par_iter_chunks(layout.num_cts, |k| {
        let mut ct_rng: StdRng = rand::SeedableRng::seed_from_u64(seeds[k]);
        encryptor.encrypt_with(&encoder.encode(&layout.slots_of(x, k)), &mut ct_rng)
    });
    PackedMatrix { layout, cts }
}

/// Encodes a ring matrix as *plaintexts* in a given layout (used by the
/// server to add its plaintext terms, e.g. `tmp1` or `−Rs`, to matmul
/// outputs).
pub fn encode_matrix_in_layout(
    layout: &Layout,
    x: &MatZ,
    encoder: &BatchEncoder,
) -> Vec<primer_he::Plaintext> {
    assert_eq!((layout.rows, layout.cols), x.shape(), "layout shape mismatch");
    (0..layout.num_cts).map(|k| encoder.encode(&layout.slots_of(x, k))).collect()
}

/// Decrypts a packed matrix of known logical shape, fanning the
/// per-ciphertext decryptions out across the thread pool (decryption is
/// deterministic, so the result is independent of the thread count).
pub fn decrypt_matrix(
    packed: &PackedMatrix,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
) -> MatZ {
    let decoded: Vec<Vec<u64>> = rayon::par_iter_chunks(packed.cts.len(), |k| {
        encoder.decode(&encryptor.decrypt(&packed.cts[k]))
    });
    MatZ::from_fn(packed.layout.rows, packed.layout.cols, |i, j| {
        packed.layout.read(&decoded, i, j)
    })
}

/// Operation counts of one encrypted matmul (the quantities behind the
/// paper's Fig. 6 comparison and the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatmulCounts {
    /// Elementary rotations.
    pub rotations: u64,
    /// Plaintext multiplications (incl. multiply-accumulate).
    pub mul_plain: u64,
    /// Input ciphertexts.
    pub in_cts: u64,
    /// Output ciphertexts.
    pub out_cts: u64,
}

mod matmul;
mod prepared;
pub mod zerorot;

pub use matmul::{
    matmul_counts, matmul_counts_mode, matmul_out_layout, matmul_plain_weights, matmul_prepared,
    matmul_weights, tf_chain_terms_max, tf_input_steps, tf_used_levels, MatmulWeights,
    RotationMode,
};
pub(crate) use matmul::chain_steps;
pub use prepared::PreparedMatmul;
pub use zerorot::ZrLayout;

/// Shared HE fixture for the packing/matmul test suites.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use primer_he::{Evaluator, GaloisKeys, HeContext, HeParams, KeyGenerator};
    use primer_math::rng::seeded;
    use primer_math::Ring;

    pub(crate) struct Fx {
        pub ring: Ring,
        pub encoder: BatchEncoder,
        pub encryptor: Encryptor,
        pub eval: Evaluator,
        pub keys: GaloisKeys,
    }

    pub(crate) fn fixture(stride: usize) -> Fx {
        let ctx = HeContext::new(HeParams::toy());
        let encoder = BatchEncoder::new(&ctx);
        let mut rng = seeded(200);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 201);
        let eval = Evaluator::new(&ctx);
        let simd = ctx.params().row_size();
        let keys =
            kg.galois_keys_pow2(&[1, stride, simd - 1, simd - stride], false, &mut rng);
        Fx { ring: Ring::new(ctx.params().t()), encoder, encryptor, eval, keys }
    }

    pub(crate) fn small_matrix(ring: &Ring, rows: usize, cols: usize, seed: u64) -> MatZ {
        // Small signed entries so products stay far from t.
        let mut rng = seeded(seed);
        MatZ::from_fn(rows, cols, |_, _| {
            ring.from_signed(rand::Rng::gen_range(&mut rng, -20i64..=20))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{fixture, small_matrix};
    use super::*;

    fn check_roundtrip(packing: Packing, rows: usize, cols: usize) {
        let fx = fixture(rows.next_power_of_two());
        let x = small_matrix(&fx.ring, rows, cols, 210);
        let packed = encrypt_matrix(packing, &x, &fx.encoder, &fx.encryptor);
        let back = decrypt_matrix(&packed, &fx.encoder, &fx.encryptor);
        assert_eq!(back, x, "{packing:?} {rows}x{cols} roundtrip");
    }

    #[test]
    fn roundtrips_both_packings() {
        for packing in [Packing::TokensFirst, Packing::FeatureBased] {
            check_roundtrip(packing, 4, 8);
            check_roundtrip(packing, 3, 17);
            check_roundtrip(packing, 6, 600); // feature chunking path
        }
    }
}
