//! Shared precomputed state for one parameter set.

use crate::modulus::Modulus;
use crate::ntt::NttTables;
use crate::params::HeParams;
use crate::simd::{self, SimdLevel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Precomputed context: moduli wrappers, NTT tables per RNS prime, the
/// plaintext-side NTT, CRT (Garner) constants and the BFV scaling factor
/// `Δ = ⌊q/t⌋`.
///
/// Contexts are cheap to clone (`Arc` inside) and shared by every key,
/// ciphertext operation and encoder.
///
/// A context also fixes the SIMD tier its kernels run at ([`Self::simd`]),
/// read from `PRIMER_SIMD` once, when the context is built.
#[derive(Debug, Clone)]
pub struct HeContext {
    inner: Arc<Inner>,
    simd: SimdLevel,
}

#[derive(Debug)]
struct Inner {
    params: HeParams,
    moduli: Vec<Modulus>,
    ntt: Vec<NttTables>,
    plain: Modulus,
    plain_ntt: NttTables,
    q: u128,
    delta: u128,
    delta_mod_qi: Vec<u64>,
    // Shoup companions of delta_mod_qi, so the base-conversion combine
    // (`round(q·m/t)` scaling) runs as a vector Shoup multiply per limb.
    delta_mod_qi_shoup: Vec<u64>,
    // True when t < every RNS prime — the precondition for the
    // vectorized centered-lift and scale-combine fast paths (all stock
    // profiles satisfy it; the scalar u128 path remains as fallback).
    plain_below_primes: bool,
    // Garner mixed-radix constants: garner_inv[i] = (q_0·…·q_{i-1})^{-1} mod q_i.
    garner_inv: Vec<u64>,
    // NTT-domain Galois permutations, one per element, built on first
    // use and shared by every evaluator cloned from this context (the
    // automorphism x → x^g permutes NTT evaluation points, so rotations
    // never have to leave the evaluation domain).
    galois_perms: Mutex<HashMap<u64, Arc<Vec<u32>>>>,
}

impl HeContext {
    /// Builds the context for a parameter set, at the SIMD tier
    /// [`simd::level`] resolves from `PRIMER_SIMD`.
    ///
    /// # Panics
    ///
    /// Panics on an unparseable `PRIMER_SIMD` (config assembly rejects
    /// one as a typed error before it gets here).
    pub fn new(params: HeParams) -> Self {
        let moduli: Vec<Modulus> = params.moduli().iter().map(|&q| Modulus::new(q)).collect();
        let ntt = moduli.iter().map(|m| NttTables::new(params.n(), *m)).collect();
        let plain = Modulus::new(params.t());
        let plain_ntt = NttTables::new(params.n(), plain);
        let q = params.q();
        let delta = q / params.t() as u128;
        let delta_mod_qi: Vec<u64> = moduli.iter().map(|m| m.reduce_u128(delta)).collect();
        let delta_mod_qi_shoup = moduli
            .iter()
            .zip(&delta_mod_qi)
            .map(|(m, &d)| (((d as u128) << 64) / m.value() as u128) as u64)
            .collect();
        let plain_below_primes = moduli.iter().all(|m| params.t() < m.value());
        let mut garner_inv = vec![0u64; moduli.len()];
        for i in 1..moduli.len() {
            let mi = moduli[i];
            let mut prod = 1u64;
            for m in &moduli[..i] {
                prod = mi.mul(prod, mi.reduce(m.value()));
            }
            garner_inv[i] = mi.inv(prod);
        }
        Self {
            inner: Arc::new(Inner {
                params,
                moduli,
                ntt,
                plain,
                plain_ntt,
                q,
                delta,
                delta_mod_qi,
                delta_mod_qi_shoup,
                plain_below_primes,
                garner_inv,
                galois_perms: Mutex::new(HashMap::new()),
            }),
            simd: simd::level(),
        }
    }

    /// This context with its kernels pinned to `lvl`, sharing every
    /// table with `self` — how tests pick a tier without touching the
    /// environment. Like any [`SimdLevel`], a tier the CPU lacks degrades
    /// at each kernel call.
    pub fn with_simd(mut self, lvl: SimdLevel) -> Self {
        self.simd = lvl;
        self
    }

    /// The SIMD tier every polynomial, encoder and evaluator op on this
    /// context runs its kernels at.
    #[inline]
    pub fn simd(&self) -> SimdLevel {
        self.simd
    }

    /// The parameter set.
    #[inline]
    pub fn params(&self) -> &HeParams {
        &self.inner.params
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.inner.params.n()
    }

    /// Number of RNS primes.
    #[inline]
    pub fn num_primes(&self) -> usize {
        self.inner.moduli.len()
    }

    /// RNS prime wrappers.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.inner.moduli
    }

    /// NTT tables per RNS prime.
    #[inline]
    pub fn ntt(&self) -> &[NttTables] {
        &self.inner.ntt
    }

    /// Plaintext modulus wrapper.
    #[inline]
    pub fn plain(&self) -> Modulus {
        self.inner.plain
    }

    /// Plaintext-side NTT tables (mod `t`), used by the batching encoder.
    #[inline]
    pub fn plain_ntt(&self) -> &NttTables {
        &self.inner.plain_ntt
    }

    /// `q` as a u128.
    #[inline]
    pub fn q(&self) -> u128 {
        self.inner.q
    }

    /// `Δ = ⌊q/t⌋`.
    #[inline]
    pub fn delta(&self) -> u128 {
        self.inner.delta
    }

    /// `Δ mod q_i` per prime.
    #[inline]
    pub fn delta_mod_qi(&self) -> &[u64] {
        &self.inner.delta_mod_qi
    }

    /// Shoup companions of [`Self::delta_mod_qi`]
    /// (`floor((Δ mod q_i)·2^64 / q_i)`), for the vectorized
    /// base-conversion combine.
    #[inline]
    pub fn delta_mod_qi_shoup(&self) -> &[u64] {
        &self.inner.delta_mod_qi_shoup
    }

    /// True when `t < q_i` for every RNS prime — the precondition for
    /// the vectorized centered-lift / scale-combine fast paths in
    /// [`crate::poly::RnsPoly`]. Holds for every stock profile.
    #[inline]
    pub fn plain_below_primes(&self) -> bool {
        self.inner.plain_below_primes
    }

    /// Recombines RNS residues of one coefficient into the integer
    /// representative in `[0, q)` (Garner's mixed-radix algorithm; exact
    /// because `q < 2^125`).
    pub fn crt_compose(&self, residues: &[u64]) -> u128 {
        debug_assert_eq!(residues.len(), self.num_primes());
        let moduli = &self.inner.moduli;
        // Mixed-radix digits: v = d0 + d1·q0 + d2·q0·q1 + …
        let mut digits = vec![0u64; residues.len()];
        digits[0] = residues[0];
        for i in 1..residues.len() {
            let mi = moduli[i];
            // u = (r_i - value-so-far) * inv mod q_i
            let mut val = mi.reduce(digits[0]);
            let mut radix = 1u64;
            for (j, &d) in digits.iter().enumerate().take(i).skip(1) {
                radix = mi.mul(radix, mi.reduce(moduli[j - 1].value()));
                val = mi.add(val, mi.mul(mi.reduce(d), radix));
            }
            let diff = mi.sub(mi.reduce(residues[i]), val);
            digits[i] = mi.mul(diff, self.inner.garner_inv[i]);
        }
        let mut acc = 0u128;
        let mut radix = 1u128;
        for (i, &d) in digits.iter().enumerate() {
            acc += d as u128 * radix;
            radix *= moduli[i].value() as u128;
        }
        acc
    }

    /// The NTT-domain permutation realizing the Galois automorphism
    /// `x → x^g`: `ntt(σ_g(f))[i] = ntt(f)[perm[i]]` for every RNS prime
    /// (the output ordering of the negacyclic NTT is structural —
    /// position `i` holds the evaluation at `ψ^(2·bitrev(i)+1)` for that
    /// prime's own `ψ` — so one index permutation serves all primes;
    /// `proptest_he` asserts this against the coefficient-domain
    /// automorphism per parameter profile).
    ///
    /// Built once per element and cached; cheap to clone out (`Arc`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or out of `1..2n` (not a Galois element).
    pub fn galois_perm(&self, g: u64) -> Arc<Vec<u32>> {
        let n = self.n();
        let two_n = 2 * n as u64;
        assert!(g % 2 == 1 && g < two_n, "galois element must be odd and < 2n");
        let mut cache = self.inner.galois_perms.lock().expect("galois perm cache poisoned");
        Arc::clone(cache.entry(g).or_insert_with(|| {
            // The bit-reversal permutation is cached on every NTT table
            // (same n everywhere); borrow it instead of recomputing.
            let bitrev = self.inner.ntt[0].bit_rev_perm();
            let perm = bitrev
                .iter()
                .map(|&r| {
                    // Evaluation point at position i is ψ^e with
                    // e = 2·bitrev(i)+1; σ_g(f) there equals f at ψ^(g·e),
                    // which lives at position bitrev(((g·e mod 2n)−1)/2).
                    let e = 2 * r as u64 + 1;
                    let src_e = (g * e) % two_n;
                    bitrev[(src_e >> 1) as usize]
                })
                .collect();
            Arc::new(perm)
        }))
    }

    /// Centers an integer in `[0, q)` to the signed representative in
    /// `(-q/2, q/2]`, returned as `(negative, magnitude)`.
    pub fn center_q(&self, v: u128) -> (bool, u128) {
        if v > self.inner.q / 2 {
            (true, self.inner.q - v)
        } else {
            (false, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crt_compose_roundtrip() {
        let ctx = HeContext::new(HeParams::test_2k());
        let q = ctx.q();
        for v in [0u128, 1, 12345, q / 3, q - 1] {
            let residues: Vec<u64> =
                ctx.moduli().iter().map(|m| m.reduce_u128(v)).collect();
            assert_eq!(ctx.crt_compose(&residues), v);
        }
    }

    #[test]
    fn single_prime_compose_is_identity() {
        let ctx = HeContext::new(HeParams::toy());
        assert_eq!(ctx.crt_compose(&[777]), 777);
    }

    #[test]
    fn delta_relation() {
        let ctx = HeContext::new(HeParams::test_2k());
        let t = ctx.params().t() as u128;
        assert!(ctx.delta() * t <= ctx.q());
        assert!((ctx.delta() + 1) * t > ctx.q());
    }

    #[test]
    fn galois_perm_is_cached_and_identity_at_one() {
        let ctx = HeContext::new(HeParams::toy());
        let p1 = ctx.galois_perm(1);
        assert!(p1.iter().enumerate().all(|(i, &s)| s as usize == i));
        let p3a = ctx.galois_perm(3);
        let p3b = ctx.galois_perm(3);
        assert!(Arc::ptr_eq(&p3a, &p3b), "second lookup must hit the cache");
        // Every galois perm is a permutation (g odd ⇒ bijective on points).
        let mut seen = vec![false; ctx.n()];
        for &s in p3a.iter() {
            assert!(!seen[s as usize], "duplicate source index");
            seen[s as usize] = true;
        }
    }

    #[test]
    fn galois_perm_matches_coefficient_automorphism() {
        use crate::poly::RnsPoly;
        for params in [HeParams::toy(), HeParams::test_2k()] {
            let ctx = HeContext::new(params);
            let mut rng = primer_math::rng::seeded(77);
            let p = RnsPoly::uniform(&ctx, &mut rng);
            for g in [3u64, 9, 2 * ctx.n() as u64 - 1] {
                let mut via_coeff = p.apply_automorphism(&ctx, g);
                via_coeff.to_ntt(&ctx);
                let mut p_ntt = p.clone();
                p_ntt.to_ntt(&ctx);
                let via_perm = p_ntt.permute_ntt(&ctx, &ctx.galois_perm(g));
                assert_eq!(via_perm, via_coeff, "element {g}");
            }
        }
    }

    #[test]
    fn center_q_halves() {
        let ctx = HeContext::new(HeParams::toy());
        let q = ctx.q();
        assert_eq!(ctx.center_q(0), (false, 0));
        assert_eq!(ctx.center_q(1), (false, 1));
        assert_eq!(ctx.center_q(q - 1), (true, 1));
    }
}
