//! SIMD batching encoder.
//!
//! With `t ≡ 1 (mod 2n)`, the plaintext ring `Z_t[x]/(x^n+1)` splits into
//! `n` slots, arranged SEAL-style as a 2 × (n/2) matrix. The Galois
//! automorphism `x → x^(3^k)` rotates each row by `k`; `x → x^(2n-1)`
//! swaps the rows.
//!
//! Instead of hard-coding the output ordering of our NTT, the constructor
//! *measures* it: the forward NTT of the polynomial `x` yields the
//! evaluation point of every output position, whose discrete logs (base a
//! primitive `2n`-th root) pin down the slot ↔ position map. This makes
//! the encoder robust to any internally consistent NTT variant, and the
//! rotation semantics are locked in by tests.

use crate::cipher::Plaintext;
use crate::context::HeContext;
use crate::simd;
use std::collections::HashMap;

/// Encoder between slot vectors (`Z_t^n`) and plaintext polynomials.
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    ctx: HeContext,
    /// `pos_of_slot[s]` = NTT output position storing slot `s` (the
    /// decode gather map).
    pos_of_slot: Vec<u32>,
    /// Inverse permutation: `slot_of_pos[p]` = slot stored at NTT output
    /// position `p`, so encode's scatter runs as a vectorized gather
    /// through it (PR 10).
    slot_of_pos: Vec<u32>,
}

impl BatchEncoder {
    /// Builds the encoder for a context.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext modulus does not support batching (cannot
    /// happen for validated parameter sets).
    pub fn new(ctx: &HeContext) -> Self {
        let n = ctx.n();
        let two_n = 2 * n as u64;
        let t = ctx.plain();

        // Evaluation point of every NTT output position = forward NTT of
        // the polynomial "x".
        let mut x_poly = vec![0u64; n];
        x_poly[1] = 1;
        ctx.plain_ntt().forward_at(&mut x_poly, ctx.simd());

        // Discrete logs base psi (a primitive 2n-th root mod t).
        let psi = t.primitive_root(two_n);
        let mut dlog: HashMap<u64, u64> = HashMap::with_capacity(2 * n);
        let mut acc = 1u64;
        for k in 0..two_n {
            dlog.insert(acc, k);
            acc = t.mul(acc, psi);
        }
        let mut pos_of_exp: HashMap<u64, usize> = HashMap::with_capacity(n);
        for (i, &root) in x_poly.iter().enumerate() {
            let e = *dlog.get(&root).expect("NTT output is not a 2n-th root — invalid t");
            pos_of_exp.insert(e, i);
        }

        // Slot s = (row, col): exponent 3^col (row 0) or -3^col (row 1).
        let row_size = n / 2;
        let mut pos_of_slot = vec![0u32; n];
        let mut g = 1u64; // 3^col mod 2n
        for col in 0..row_size {
            let e0 = g;
            let e1 = two_n - g;
            pos_of_slot[col] =
                *pos_of_exp.get(&e0).expect("missing exponent in slot map") as u32;
            pos_of_slot[row_size + col] =
                *pos_of_exp.get(&e1).expect("missing exponent in slot map") as u32;
            g = (g * 3) % two_n;
        }
        let mut slot_of_pos = vec![0u32; n];
        for (s, &p) in pos_of_slot.iter().enumerate() {
            slot_of_pos[p as usize] = s as u32;
        }
        Self { ctx: ctx.clone(), pos_of_slot, slot_of_pos }
    }

    /// Number of slots (= n).
    pub fn slot_count(&self) -> usize {
        self.pos_of_slot.len()
    }

    /// Slots per row (= n/2).
    pub fn row_size(&self) -> usize {
        self.pos_of_slot.len() / 2
    }

    /// Encodes up to `slot_count` values (mod `t`); missing slots are zero.
    ///
    /// # Panics
    ///
    /// Panics if more than `slot_count` values are supplied or any value
    /// is `>= t`.
    pub fn encode(&self, values: &[u64]) -> Plaintext {
        let n = self.slot_count();
        assert!(values.len() <= n, "too many values for {n} slots");
        let t = self.ctx.plain().value();
        // Zero-extend to all slots, then run the scatter as a vectorized
        // gather through the inverse permutation — bit-identical because
        // unassigned slots hold the same zeros the scatter left behind.
        let mut padded = vec![0u64; n];
        for (s, &v) in values.iter().enumerate() {
            assert!(v < t, "slot value {v} not reduced mod {t}");
            padded[s] = v;
        }
        let mut buf = vec![0u64; n];
        simd::gather(&padded, &self.slot_of_pos, &mut buf, self.ctx.simd());
        self.ctx.plain_ntt().inverse_at(&mut buf, self.ctx.simd());
        Plaintext::from_coeffs(buf)
    }

    /// Encodes signed values through the centered embedding.
    pub fn encode_signed(&self, values: &[i64]) -> Plaintext {
        let t = self.ctx.plain();
        let mapped: Vec<u64> = values.iter().map(|&v| t.from_signed(v)).collect();
        self.encode(&mapped)
    }

    /// Decodes a plaintext back to all `slot_count` slot values.
    pub fn decode(&self, plain: &Plaintext) -> Vec<u64> {
        let mut buf = plain.coeffs().to_vec();
        self.ctx.plain_ntt().forward_at(&mut buf, self.ctx.simd());
        let mut out = vec![0u64; buf.len()];
        simd::gather(&buf, &self.pos_of_slot, &mut out, self.ctx.simd());
        out
    }

    /// Decodes to centered signed values.
    pub fn decode_signed(&self, plain: &Plaintext) -> Vec<i64> {
        let t = self.ctx.plain();
        self.decode(plain).into_iter().map(|v| t.to_signed(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HeParams;
    use crate::poly::RnsPoly;

    fn setup() -> (HeContext, BatchEncoder) {
        let ctx = HeContext::new(HeParams::toy());
        let enc = BatchEncoder::new(&ctx);
        (ctx, enc)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (_ctx, enc) = setup();
        let vals: Vec<u64> = (0..enc.slot_count() as u64).collect();
        assert_eq!(enc.decode(&enc.encode(&vals)), vals);
    }

    #[test]
    fn signed_roundtrip() {
        let (_ctx, enc) = setup();
        let vals: Vec<i64> = (0..enc.slot_count() as i64).map(|i| i - 512).collect();
        assert_eq!(enc.decode_signed(&enc.encode_signed(&vals)), vals);
    }

    #[test]
    fn partial_encode_zero_fills() {
        let (_ctx, enc) = setup();
        let out = enc.decode(&enc.encode(&[5, 6, 7]));
        assert_eq!(&out[..3], &[5, 6, 7]);
        assert!(out[3..].iter().all(|&v| v == 0));
    }

    /// The load-bearing property: the automorphism x → x^(3^k) rotates
    /// each batching row left by k (slot i takes the value of slot i+k).
    #[test]
    fn galois_3_rotates_rows_left() {
        let (ctx, enc) = setup();
        let n = enc.slot_count();
        let rs = enc.row_size();
        let vals: Vec<u64> = (0..n as u64).map(|v| v + 1).collect();
        let pt = enc.encode(&vals);

        // Apply the automorphism via a single-prime "plaintext ring" poly.
        let plain_only = plain_poly_automorphism(&ctx, pt.coeffs(), 3);
        let rotated = enc.decode(&Plaintext::from_coeffs(plain_only));
        for i in 0..rs {
            assert_eq!(rotated[i], vals[(i + 1) % rs], "row 0 slot {i}");
            assert_eq!(rotated[rs + i], vals[rs + (i + 1) % rs], "row 1 slot {i}");
        }
    }

    #[test]
    fn galois_2n_minus_1_swaps_rows() {
        let (ctx, enc) = setup();
        let n = enc.slot_count();
        let rs = enc.row_size();
        let vals: Vec<u64> = (0..n as u64).map(|v| v + 1).collect();
        let pt = enc.encode(&vals);
        let g = 2 * ctx.n() as u64 - 1;
        let swapped = enc.decode(&Plaintext::from_coeffs(plain_poly_automorphism(
            &ctx,
            pt.coeffs(),
            g,
        )));
        for i in 0..rs {
            assert_eq!(swapped[i], vals[rs + i]);
            assert_eq!(swapped[rs + i], vals[i]);
        }
    }

    /// Applies x→x^g to a plaintext polynomial mod t (test helper mirroring
    /// RnsPoly::apply_automorphism but over the plaintext modulus).
    fn plain_poly_automorphism(ctx: &HeContext, coeffs: &[u64], g: u64) -> Vec<u64> {
        let n = ctx.n();
        let two_n = 2 * n as u64;
        let t = ctx.plain();
        let mut out = vec![0u64; n];
        for (i, &c) in coeffs.iter().enumerate() {
            let idx = (i as u64 * g) % two_n;
            if idx < n as u64 {
                out[idx as usize] = c;
            } else {
                out[(idx - n as u64) as usize] = t.neg(c);
            }
        }
        out
    }

    #[test]
    fn works_on_two_prime_profile() {
        let ctx = HeContext::new(HeParams::test_2k());
        let enc = BatchEncoder::new(&ctx);
        let vals: Vec<u64> = (0..100u64).map(|v| v * 31 % ctx.params().t()).collect();
        let got = enc.decode(&enc.encode(&vals));
        assert_eq!(&got[..100], &vals[..]);
    }

    #[test]
    fn rns_poly_automorphism_agrees_with_plain_model() {
        // Sanity link between the ciphertext-side automorphism and the
        // plaintext-side model used above.
        let ctx = HeContext::new(HeParams::toy());
        let coeffs: Vec<i64> = (0..ctx.n() as i64).map(|i| i % 17 - 8).collect();
        let p = RnsPoly::from_signed(&ctx, &coeffs);
        let rotated = p.apply_automorphism(&ctx, 3);
        // Independent model on signed coefficients.
        let n = ctx.n();
        let mut want = vec![0i64; n];
        for (i, &c) in coeffs.iter().enumerate() {
            let idx = (i * 3) % (2 * n);
            if idx < n {
                want[idx] = c;
            } else {
                want[idx - n] = -c;
            }
        }
        let m = ctx.moduli()[0];
        let got: Vec<i64> = rotated.residues(0).iter().map(|&x| m.to_signed(x)).collect();
        assert_eq!(got, want);
    }
}
