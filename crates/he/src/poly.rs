//! Polynomials in RNS (double-CRT) representation.

use crate::context::HeContext;
use crate::error::HeError;
use crate::simd;
use rand::Rng;

/// A polynomial in `R_q`, stored as one residue vector per RNS prime,
/// in either coefficient or NTT (evaluation) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsPoly {
    values: Vec<Vec<u64>>,
    ntt_form: bool,
}

impl RnsPoly {
    /// The zero polynomial (form is caller's choice — zero is both).
    pub fn zero(ctx: &HeContext, ntt_form: bool) -> Self {
        Self { values: vec![vec![0; ctx.n()]; ctx.num_primes()], ntt_form }
    }

    /// Embeds small signed coefficients (coefficient form).
    pub fn from_signed(ctx: &HeContext, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let values = ctx
            .moduli()
            .iter()
            .map(|m| coeffs.iter().map(|&c| m.from_signed(c)).collect())
            .collect();
        Self { values, ntt_form: false }
    }

    /// Lifts a plaintext polynomial (coefficients mod `t`) into `R_q`
    /// using the **centered** representative, so that `‖lift‖∞ ≤ t/2`.
    /// This is the lift used for plaintext multiplication.
    pub fn lift_plain_centered(ctx: &HeContext, plain_coeffs: &[u64]) -> Self {
        assert_eq!(plain_coeffs.len(), ctx.n(), "coefficient count mismatch");
        let t = ctx.plain();
        if ctx.plain_below_primes() {
            // Vectorized fast path (PR 10): with t < q_i the signed round
            // trip collapses to a branchless select per limb —
            // `c > t/2 ? q_i − t + c : c` — bit-identical to
            // `from_signed(to_signed(c))`.
            let lvl = ctx.simd();
            let values = ctx
                .moduli()
                .iter()
                .map(|m| {
                    let mut row = vec![0u64; plain_coeffs.len()];
                    simd::lift_centered(m.value(), t.value(), plain_coeffs, &mut row, lvl);
                    row
                })
                .collect();
            return Self { values, ntt_form: false };
        }
        let signed: Vec<i64> = plain_coeffs.iter().map(|&c| t.to_signed(c)).collect();
        Self::from_signed(ctx, &signed)
    }

    /// Scales a plaintext polynomial into `R_q` as `round(q·m/t)` per
    /// coefficient — the exact-rational BFV embedding used by encryption
    /// and `add_plain`.
    ///
    /// The exact scaling (instead of `⌊q/t⌋·m`) is essential at Primer's
    /// plaintext sizes: with `t ≈ 2^43`, the classic embedding leaks a
    /// `(q mod t)·k` noise term through plaintext multiplication that
    /// would exceed the decryption bound; with `round(q·m/t)` the
    /// wraparound multiples of `t` map to exact multiples of `q` and
    /// vanish.
    pub fn scale_plain_to_q(ctx: &HeContext, plain_coeffs: &[u64]) -> Self {
        let mut out = Self::zero(ctx, false);
        Self::scale_plain_into(ctx, plain_coeffs, &mut out);
        out
    }

    /// [`Self::scale_plain_to_q`] into an existing (typically arena-
    /// recycled) polynomial, overwriting every residue.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not shaped for `ctx`.
    pub fn scale_plain_into(ctx: &HeContext, plain_coeffs: &[u64], out: &mut Self) {
        assert_eq!(plain_coeffs.len(), ctx.n(), "coefficient count mismatch");
        assert_eq!(out.values.len(), ctx.num_primes(), "prime count mismatch");
        let t = ctx.params().t() as u128;
        let delta = ctx.delta(); // floor(q/t) < 2^(128-43): Δ·m fits u128
        let r_t = ctx.q() - delta * t; // q mod t
        if ctx.plain_below_primes() {
            // Vectorized fast path (PR 10): round(q·m/t) = Δ·m + rt with
            // rt = round(r_t·m/t) < t, so per limb the residue is
            // `(Δ mod q_i)·m + rt (mod q_i)` — a Shoup multiply by the
            // cached `Δ mod q_i` plus a lazy add. The rounding term is
            // computed once per coefficient (u128, shared by all limbs).
            let lvl = ctx.simd();
            let rt: Vec<u64> = plain_coeffs
                .iter()
                .map(|&c| {
                    debug_assert!((c as u128) < t, "plaintext coefficient not reduced");
                    ((r_t * c as u128 + t / 2) / t) as u64
                })
                .collect();
            let delta_qi = ctx.delta_mod_qi();
            let delta_qi_shoup = ctx.delta_mod_qi_shoup();
            for (i, md) in ctx.moduli().iter().enumerate() {
                simd::scale_combine(
                    *md,
                    delta_qi[i],
                    delta_qi_shoup[i],
                    plain_coeffs,
                    &rt,
                    &mut out.values[i],
                    lvl,
                );
            }
            out.ntt_form = false;
            return;
        }
        for (j, &c) in plain_coeffs.iter().enumerate() {
            let m = c as u128;
            debug_assert!(m < t, "plaintext coefficient not reduced");
            // round(q·m/t) = Δ·m + round(r_t·m / t); both terms fit u128.
            let scaled = delta * m + (r_t * m + t / 2) / t;
            for (i, md) in ctx.moduli().iter().enumerate() {
                out.values[i][j] = md.reduce_u128(scaled);
            }
        }
        out.ntt_form = false;
    }

    /// Uniformly random element of `R_q` (coefficient form). Sampling
    /// reduces a random `u128` mod `q`; the modulo bias is negligible for
    /// the simulation purposes of this crate.
    pub fn uniform<R: Rng + ?Sized>(ctx: &HeContext, rng: &mut R) -> Self {
        let q = ctx.q();
        let n = ctx.n();
        let mut values = vec![Vec::with_capacity(n); ctx.num_primes()];
        for _ in 0..n {
            let v: u128 = rng.gen::<u128>() % q;
            for (i, m) in ctx.moduli().iter().enumerate() {
                values[i].push(m.reduce_u128(v));
            }
        }
        Self { values, ntt_form: false }
    }

    /// Discrete-Gaussian-ish error polynomial (Box–Muller, rounded),
    /// coefficient form.
    pub fn gaussian<R: Rng + ?Sized>(ctx: &HeContext, sigma: f64, rng: &mut R) -> Self {
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                (z * sigma).round() as i64
            })
            .collect();
        Self::from_signed(ctx, &coeffs)
    }

    /// Uniform ternary polynomial ({-1, 0, 1}), coefficient form.
    pub fn ternary<R: Rng + ?Sized>(ctx: &HeContext, rng: &mut R) -> Self {
        let coeffs: Vec<i64> = (0..ctx.n()).map(|_| rng.gen_range(-1i64..=1)).collect();
        Self::from_signed(ctx, &coeffs)
    }

    /// True if in NTT (evaluation) form.
    #[inline]
    pub fn is_ntt(&self) -> bool {
        self.ntt_form
    }

    /// Residues for prime `i`.
    #[inline]
    pub fn residues(&self, i: usize) -> &[u64] {
        &self.values[i]
    }

    /// Mutable residues for prime `i`.
    #[inline]
    pub fn residues_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.values[i]
    }

    /// Converts to NTT form in place (no-op if already there).
    pub fn to_ntt(&mut self, ctx: &HeContext) {
        if !self.ntt_form {
            for (tbl, v) in ctx.ntt().iter().zip(&mut self.values) {
                tbl.forward_at(v, ctx.simd());
            }
            self.ntt_form = true;
        }
    }

    /// Converts to coefficient form in place (no-op if already there).
    pub fn to_coeff(&mut self, ctx: &HeContext) {
        if self.ntt_form {
            for (tbl, v) in ctx.ntt().iter().zip(&mut self.values) {
                tbl.inverse_at(v, ctx.simd());
            }
            self.ntt_form = false;
        }
    }

    /// `self += other` (forms must match).
    pub fn add_assign(&mut self, ctx: &HeContext, other: &Self) {
        assert_eq!(self.ntt_form, other.ntt_form, "form mismatch in add");
        let lvl = ctx.simd();
        for ((m, a), b) in ctx.moduli().iter().zip(&mut self.values).zip(&other.values) {
            simd::add_mod(*m, a, b, lvl);
        }
    }

    /// `self -= other` (forms must match).
    pub fn sub_assign(&mut self, ctx: &HeContext, other: &Self) {
        assert_eq!(self.ntt_form, other.ntt_form, "form mismatch in sub");
        let lvl = ctx.simd();
        for ((m, a), b) in ctx.moduli().iter().zip(&mut self.values).zip(&other.values) {
            simd::sub_mod(*m, a, b, lvl);
        }
    }

    /// `self = -self`.
    pub fn negate(&mut self, ctx: &HeContext) {
        let lvl = ctx.simd();
        for (m, a) in ctx.moduli().iter().zip(&mut self.values) {
            simd::neg_mod(*m, a, lvl);
        }
    }

    /// Pointwise product (both operands must be in NTT form).
    pub fn mul_pointwise_assign(&mut self, ctx: &HeContext, other: &Self) {
        assert!(self.ntt_form && other.ntt_form, "pointwise mul needs NTT form");
        let lvl = ctx.simd();
        for ((m, a), b) in ctx.moduli().iter().zip(&mut self.values).zip(&other.values) {
            simd::mul_mod(*m, a, b, lvl);
        }
    }

    /// `self += a ⊙ b` (all three in NTT form) without an intermediate
    /// allocation — the accumulation pattern of encrypted matmul.
    pub fn add_mul_pointwise_assign(&mut self, ctx: &HeContext, a: &Self, b: &Self) {
        assert!(self.ntt_form && a.ntt_form && b.ntt_form, "needs NTT form");
        let lvl = ctx.simd();
        for (((m, acc), x), y) in
            ctx.moduli().iter().zip(&mut self.values).zip(&a.values).zip(&b.values)
        {
            simd::add_mul_mod(*m, acc, x, y, lvl);
        }
    }

    /// Fused key-switch accumulation (PR 10): `acc0 += x ⊙ b` and
    /// `acc1 += x ⊙ a` in one interleaved pass — each chunk of the shared
    /// digit `x` is loaded once and multiplied against both key halves,
    /// covering all RNS limbs in a single call (all five operands in NTT
    /// form). Bit-identical to two [`Self::add_mul_pointwise_assign`]
    /// calls; the fusion only changes memory traffic.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not in NTT form.
    pub fn add_mul2_pointwise_assign(
        ctx: &HeContext,
        acc0: &mut Self,
        acc1: &mut Self,
        x: &Self,
        b: &Self,
        a: &Self,
    ) {
        assert!(
            acc0.ntt_form && acc1.ntt_form && x.ntt_form && b.ntt_form && a.ntt_form,
            "needs NTT form"
        );
        let lvl = ctx.simd();
        let mut limbs: Vec<simd::KsLimb<'_>> = ctx
            .moduli()
            .iter()
            .zip(&mut acc0.values)
            .zip(&mut acc1.values)
            .zip(&x.values)
            .zip(&b.values)
            .zip(&a.values)
            .map(|(((((m, c0), c1), xv), bv), av)| simd::KsLimb {
                m: *m,
                acc0: c0,
                acc1: c1,
                x: xv,
                b: bv,
                a: av,
            })
            .collect();
        simd::ks_accumulate(&mut limbs, lvl);
    }

    /// Applies a Galois automorphism **in NTT form** via its evaluation-
    /// point permutation (see [`HeContext::galois_perm`]): output position
    /// `i` takes the value at `perm[i]`, per prime. This is how the
    /// NTT-resident pipeline rotates without leaving the evaluation
    /// domain.
    ///
    /// # Panics
    ///
    /// Panics if not in NTT form or the permutation length mismatches.
    pub fn permute_ntt(&self, ctx: &HeContext, perm: &[u32]) -> Self {
        let mut out = Self::zero(ctx, true);
        self.permute_ntt_into(ctx, perm, &mut out);
        out
    }

    /// [`Self::permute_ntt`] into an existing (typically arena-recycled)
    /// polynomial, overwriting every residue.
    ///
    /// # Panics
    ///
    /// Panics as [`Self::permute_ntt`], or if `out` is not shaped for
    /// `ctx`.
    pub fn permute_ntt_into(&self, ctx: &HeContext, perm: &[u32], out: &mut Self) {
        assert!(self.ntt_form, "NTT-domain automorphism needs NTT form");
        assert_eq!(perm.len(), ctx.n(), "permutation length mismatch");
        assert_eq!(out.values.len(), self.values.len(), "prime count mismatch");
        let lvl = ctx.simd();
        for (src, dst) in self.values.iter().zip(&mut out.values) {
            assert_eq!(dst.len(), perm.len(), "residue length mismatch");
            simd::gather(src, perm, dst, lvl);
        }
        out.ntt_form = true;
    }

    /// Rebuilds a polynomial from arena-recycled limb storage. The
    /// buffers must be shaped `num_primes × n` for the context the poly
    /// will be used with; contents are taken as-is (callers overwrite
    /// them fully or pass zeroed storage).
    pub fn from_raw_parts(values: Vec<Vec<u64>>, ntt_form: bool) -> Self {
        Self { values, ntt_form }
    }

    /// Surrenders the limb storage (for recycling into a scratch arena).
    pub fn into_raw_parts(self) -> Vec<Vec<u64>> {
        self.values
    }

    /// Applies the Galois automorphism `x → x^g` (coefficient form only).
    ///
    /// # Panics
    ///
    /// Panics if in NTT form or `g` is even / out of range.
    pub fn apply_automorphism(&self, ctx: &HeContext, g: u64) -> Self {
        assert!(!self.ntt_form, "automorphism operates on coefficient form");
        let n = ctx.n();
        let two_n = 2 * n as u64;
        assert!(g % 2 == 1 && g < two_n, "galois element must be odd and < 2n");
        let mut out = Self::zero(ctx, false);
        for (pi, m) in ctx.moduli().iter().enumerate() {
            let src = &self.values[pi];
            let dst = &mut out.values[pi];
            for (i, &c) in src.iter().enumerate() {
                let idx = (i as u64 * g) % two_n;
                if idx < n as u64 {
                    dst[idx as usize] = c;
                } else {
                    dst[(idx - n as u64) as usize] = m.neg(c);
                }
            }
        }
        out
    }

    /// Serialized size in bytes (8 bytes per residue + 2-byte header).
    pub fn serialized_size(&self) -> usize {
        2 + self.values.iter().map(|v| v.len() * 8).sum::<usize>()
    }

    /// Appends the wire encoding (form byte + residues LE) to `out`.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.ntt_form));
        out.push(self.values.len() as u8);
        for residues in &self.values {
            for &v in residues {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// Reads a polynomial written by [`RnsPoly::write_bytes`]; returns
    /// the poly and the number of bytes consumed.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on truncated input or a prime count that
    /// does not match the context (network-facing: never panics).
    pub fn read_bytes(ctx: &HeContext, bytes: &[u8]) -> Result<(Self, usize), HeError> {
        if bytes.len() < 2 {
            return Err(HeError::Malformed { what: "poly header" });
        }
        let ntt_form = bytes[0] == 1;
        let primes = bytes[1] as usize;
        if primes != ctx.num_primes() {
            return Err(HeError::Malformed { what: "poly prime count" });
        }
        let n = ctx.n();
        let need = 2 + primes * n * 8;
        if bytes.len() < need {
            return Err(HeError::Malformed { what: "poly residues" });
        }
        let mut off = 2;
        let mut values = Vec::with_capacity(primes);
        for _ in 0..primes {
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(u64::from_le_bytes(bytes[off..off + 8].try_into().expect("u64")));
                off += 8;
            }
            values.push(v);
        }
        Ok((Self { values, ntt_form }, off))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HeParams;
    use primer_math::rng::seeded;

    fn ctx() -> HeContext {
        HeContext::new(HeParams::toy())
    }

    #[test]
    fn ntt_roundtrip() {
        let ctx = ctx();
        let mut rng = seeded(20);
        let p = RnsPoly::uniform(&ctx, &mut rng);
        let mut q = p.clone();
        q.to_ntt(&ctx);
        assert!(q.is_ntt());
        q.to_coeff(&ctx);
        assert_eq!(p, q);
    }

    #[test]
    fn add_sub_cancel() {
        let ctx = ctx();
        let mut rng = seeded(21);
        let a = RnsPoly::uniform(&ctx, &mut rng);
        let b = RnsPoly::uniform(&ctx, &mut rng);
        let mut c = a.clone();
        c.add_assign(&ctx, &b);
        c.sub_assign(&ctx, &b);
        assert_eq!(c, a);
    }

    #[test]
    fn automorphism_identity_element() {
        let ctx = ctx();
        let mut rng = seeded(22);
        let a = RnsPoly::uniform(&ctx, &mut rng);
        assert_eq!(a.apply_automorphism(&ctx, 1), a);
    }

    #[test]
    fn automorphism_composes() {
        let ctx = ctx();
        let n = ctx.n() as u64;
        let mut rng = seeded(23);
        let a = RnsPoly::uniform(&ctx, &mut rng);
        let g1 = 3u64;
        let g2 = 5u64;
        let lhs = a.apply_automorphism(&ctx, g1).apply_automorphism(&ctx, g2);
        let rhs = a.apply_automorphism(&ctx, (g1 * g2) % (2 * n));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ternary_is_small() {
        let ctx = ctx();
        let mut rng = seeded(24);
        let s = RnsPoly::ternary(&ctx, &mut rng);
        let m = ctx.moduli()[0];
        for &c in s.residues(0) {
            assert!(m.to_signed(c).abs() <= 1);
        }
    }

    /// A context's tier is a pure performance knob: one op sequence on a
    /// context pinned to scalar and on one at the best tier the CPU has
    /// gives equal polys.
    #[test]
    fn scalar_and_best_tier_contexts_agree() {
        use crate::simd::{SimdLevel, SimdPolicy};
        let best = HeContext::new(HeParams::test_2k()).with_simd(SimdPolicy::Auto.level());
        let scalar = best.clone().with_simd(SimdLevel::Scalar);
        let run = |ctx: &HeContext| {
            let mut rng = seeded(26);
            let mut polys: Vec<RnsPoly> = (0..4).map(|_| RnsPoly::uniform(ctx, &mut rng)).collect();
            polys.iter_mut().for_each(|p| p.to_ntt(ctx));
            let [mut a, b, mut acc0, mut acc1] = <[RnsPoly; 4]>::try_from(polys).expect("4 polys");
            a.mul_pointwise_assign(ctx, &b);
            RnsPoly::add_mul2_pointwise_assign(ctx, &mut acc0, &mut acc1, &a, &b, &a);
            let mut out = acc0.permute_ntt(ctx, &ctx.galois_perm(3));
            out.add_assign(ctx, &acc1);
            out.to_coeff(ctx);
            out
        };
        assert_eq!(run(&scalar), run(&best), "best tier {:?}", best.simd());
    }

    #[test]
    fn gaussian_is_narrow() {
        let ctx = ctx();
        let mut rng = seeded(25);
        let e = RnsPoly::gaussian(&ctx, 3.2, &mut rng);
        let m = ctx.moduli()[0];
        for &c in e.residues(0) {
            assert!(m.to_signed(c).abs() < 40, "gaussian tail unreasonably fat");
        }
    }
}
