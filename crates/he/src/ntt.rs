//! Negacyclic number-theoretic transform.
//!
//! Pointwise multiplication in the transformed domain corresponds to
//! multiplication in `Z_p[x]/(x^n + 1)`. The butterflies use Shoup
//! precomputed twiddles (the hot path of the whole HE layer).
//!
//! The output ordering of [`NttTables::forward`] is an implementation
//! detail; all users either operate pointwise (ciphertext arithmetic) or
//! recover the evaluation-point ordering empirically (the batching
//! encoder), so no external contract depends on it.

use crate::modulus::Modulus;
use crate::simd::{self, SimdLevel};

/// Precomputed tables for a negacyclic NTT of size `n` modulo `p`.
#[derive(Debug, Clone)]
pub struct NttTables {
    n: usize,
    log_n: u32,
    modulus: Modulus,
    /// The bit-reversal permutation of `0..n`, computed once per table
    /// (PR 10; `bit_reverse` used to run per element) and shared with
    /// every consumer that needs the transform's access order — the
    /// twiddle layout below, the context's Galois permutations, the
    /// encoder's slot maps.
    bit_rev: Vec<u32>,
    // psi powers in bit-reversed order, with Shoup companions.
    psi_rev: Vec<u64>,
    psi_rev_shoup: Vec<u64>,
    psi_inv_rev: Vec<u64>,
    psi_inv_rev_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
}

#[inline]
fn shoup(w: u64, p: u64) -> u64 {
    (((w as u128) << 64) / p as u128) as u64
}

fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTables {
    /// Builds tables for degree `n` (power of two) modulo `p` with
    /// `p ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or the root condition fails.
    pub fn new(n: usize, modulus: Modulus) -> Self {
        assert!(n.is_power_of_two() && n >= 2, "n must be a power of two >= 2");
        let p = modulus.value();
        assert_eq!((p - 1) % (2 * n as u64), 0, "p must be 1 mod 2n");
        let log_n = n.trailing_zeros();
        let psi = modulus.primitive_root(2 * n as u64);
        let psi_inv = modulus.inv(psi);

        let mut psi_pows = vec![0u64; n];
        let mut psi_inv_pows = vec![0u64; n];
        let mut acc = 1u64;
        let mut acc_inv = 1u64;
        for i in 0..n {
            psi_pows[i] = acc;
            psi_inv_pows[i] = acc_inv;
            acc = modulus.mul(acc, psi);
            acc_inv = modulus.mul(acc_inv, psi_inv);
        }
        let bit_rev: Vec<u32> = (0..n).map(|i| bit_reverse(i, log_n) as u32).collect();
        let mut psi_rev = vec![0u64; n];
        let mut psi_inv_rev = vec![0u64; n];
        for (i, &r) in bit_rev.iter().enumerate() {
            psi_rev[i] = psi_pows[r as usize];
            psi_inv_rev[i] = psi_inv_pows[r as usize];
        }
        let psi_rev_shoup = psi_rev.iter().map(|&w| shoup(w, p)).collect();
        let psi_inv_rev_shoup = psi_inv_rev.iter().map(|&w| shoup(w, p)).collect();
        let n_inv = modulus.inv(n as u64);
        Self {
            n,
            log_n,
            modulus,
            bit_rev,
            psi_rev,
            psi_rev_shoup,
            psi_inv_rev,
            psi_inv_rev_shoup,
            n_inv,
            n_inv_shoup: shoup(n_inv, p),
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate zero-size table (never constructed).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The modulus of this table.
    #[inline]
    pub fn modulus(&self) -> Modulus {
        self.modulus
    }

    /// In-place forward negacyclic NTT (coefficients → evaluations),
    /// at the tier [`simd::level`] resolves from `PRIMER_SIMD` — a
    /// convenience for callers without a context. Everything inside the
    /// HE layer calls [`Self::forward_at`] with its context's tier.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward(&self, a: &mut [u64]) {
        self.forward_at(a, simd::level());
    }

    /// [`Self::forward`] at an explicit SIMD level. Every level is
    /// bit-identical; the level only picks the kernel body.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn forward_at(&self, a: &mut [u64], lvl: SimdLevel) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let _span = primer_obs::span!("ntt.forward");
        let p = self.modulus.value();
        let mut t = self.n;
        let mut m = 1usize;
        while m < self.n {
            t >>= 1;
            for i in 0..m {
                let j1 = 2 * i * t;
                let w = self.psi_rev[m + i];
                let ws = self.psi_rev_shoup[m + i];
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                simd::forward_butterflies(p, w, ws, lo, hi, lvl);
            }
            m <<= 1;
        }
    }

    /// In-place inverse negacyclic NTT (evaluations → coefficients),
    /// at the tier [`simd::level`] resolves (see [`Self::forward`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse(&self, a: &mut [u64]) {
        self.inverse_at(a, simd::level());
    }

    /// [`Self::inverse`] at an explicit SIMD level (see [`Self::forward_at`]).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n`.
    pub fn inverse_at(&self, a: &mut [u64], lvl: SimdLevel) {
        assert_eq!(a.len(), self.n, "length mismatch");
        let _span = primer_obs::span!("ntt.inverse");
        let p = self.modulus.value();
        let mut t = 1usize;
        let mut m = self.n;
        while m > 1 {
            let h = m >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let w = self.psi_inv_rev[h + i];
                let ws = self.psi_inv_rev_shoup[h + i];
                let (lo, hi) = a[j1..j1 + 2 * t].split_at_mut(t);
                simd::inverse_butterflies(p, w, ws, lo, hi, lvl);
                j1 += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        simd::mul_shoup_slice(p, self.n_inv, self.n_inv_shoup, a, lvl);
    }

    /// log2 of the transform size.
    #[inline]
    pub fn log_len(&self) -> u32 {
        self.log_n
    }

    /// The bit-reversal permutation of `0..n` (`perm[i]` = `i` with its
    /// low `log_n` bits reversed — an involution). Cached at table build;
    /// consumers that used to call a per-element `bit_reverse` (Galois
    /// permutation construction, encoder slot maps) index this instead.
    #[inline]
    pub fn bit_rev_perm(&self) -> &[u32] {
        &self.bit_rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::ntt_prime;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn table(n: usize) -> NttTables {
        let p = ntt_prime(50, 2 * n as u64, &[]);
        NttTables::new(n, Modulus::new(p))
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let t = table(256);
        let mut rng = StdRng::seed_from_u64(9);
        let orig: Vec<u64> =
            (0..256).map(|_| rng.gen_range(0..t.modulus().value())).collect();
        let mut a = orig.clone();
        t.forward(&mut a);
        assert_ne!(a, orig, "transform should change the data");
        t.inverse(&mut a);
        assert_eq!(a, orig);
    }

    #[test]
    fn pointwise_is_negacyclic_convolution() {
        let n = 64;
        let t = table(n);
        let m = t.modulus();
        let mut rng = StdRng::seed_from_u64(10);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();

        // Schoolbook negacyclic product.
        let mut want = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let prod = m.mul(ai, bj);
                let k = i + j;
                if k < n {
                    want[k] = m.add(want[k], prod);
                } else {
                    want[k - n] = m.sub(want[k - n], prod);
                }
            }
        }

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, want);
    }

    #[test]
    fn linearity() {
        let n = 128;
        let t = table(n);
        let m = t.modulus();
        let mut rng = StdRng::seed_from_u64(11);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..m.value())).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        for i in 0..n {
            assert_eq!(fs[i], m.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn works_at_paper_degree() {
        let t = table(8192);
        let mut a = vec![0u64; 8192];
        a[1] = 1; // the polynomial x
        let mut f = a.clone();
        t.forward(&mut f);
        t.inverse(&mut f);
        assert_eq!(f, a);
    }
}
