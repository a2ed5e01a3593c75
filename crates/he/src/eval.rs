//! Homomorphic evaluation: additions, plaintext multiplication, and
//! Galois rotations with key switching.
//!
//! # NTT residency (DESIGN.md §10)
//!
//! Ciphertext polynomials live in NTT (evaluation) form from encryption
//! to decryption. Rotations used to be the exception — the old path
//! pulled both parts back to coefficient form, applied the automorphism
//! there, and transformed every key-switch digit forward again. The
//! current path instead **hoists** ([`Evaluator::hoist`]): `c1` leaves
//! the evaluation domain exactly once per hoist for the RNS digit
//! extraction (digit extraction is inherently positional), the digits
//! are transformed forward once, and every subsequent Galois element is
//! applied as a pure evaluation-point permutation
//! ([`Evaluator::apply_galois_hoisted`]) — `c0` never leaves NTT form at
//! all. One rotation therefore costs 1 inverse NTT + D forward NTTs
//! (D = total key-switch digits) instead of the old 2 + D + 1, and
//! rotating the same ciphertext by many elements ([`Evaluator::
//! rotate_many`]) pays the decomposition once for the whole set.
//!
//! The coefficient-domain implementation survives as
//! [`Evaluator::apply_galois_coeff`], the reference the equivalence
//! tests pin the hoisted path against (identical decrypted slots; the
//! ciphertext noise differs immaterially below the decryption bound).

use crate::arena::ScratchArena;
use crate::cipher::{Ciphertext, Plaintext};
use crate::context::HeContext;
use crate::counters::{OpCounters, OpCounts};
use crate::error::HeError;
use crate::galois;
use crate::keys::{digits_for_prime, GaloisKeys, KskKey, RelinKey};
use crate::poly::RnsPoly;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A plaintext prepared for multiplication: centered-lifted into `R_q`
/// and transformed to NTT form. Reused across many `mul_plain` calls.
#[derive(Debug, Clone)]
pub struct MulPlain {
    poly: RnsPoly,
    /// True if every slot is zero (multiplication can be skipped).
    pub is_zero: bool,
}

impl MulPlain {
    /// Resident memory of the prepared mask (the NTT-form `R_q`
    /// polynomial) — what a cached prepared-weights plane pins per mask.
    pub fn resident_bytes(&self) -> usize {
        self.poly.serialized_size()
    }
}

/// A ciphertext whose key-switching decomposition has been computed
/// once ("hoisted"): the RNS digit extraction of `c1` — and the forward
/// NTT of every digit — is paid up front, so any number of Galois
/// elements can then be applied as cheap evaluation-point permutations.
/// Produced by [`Evaluator::hoist`], consumed by
/// [`Evaluator::apply_galois_hoisted`].
#[derive(Debug)]
pub struct HoistedCiphertext {
    /// `c0` in NTT form (untouched by the decomposition).
    c0: RnsPoly,
    /// `digits[i][j]` = digit `j` of `c1`'s residues mod prime `i`,
    /// spread over all RNS primes, in NTT form.
    digits: Vec<Vec<RnsPoly>>,
    digit_bits: u32,
}

/// Server-side homomorphic evaluator (no secret key).
#[derive(Debug)]
pub struct Evaluator {
    ctx: HeContext,
    /// Shared so the serving stack can watch a live session's op counts
    /// from its `/stats` thread while the evaluator is hot elsewhere.
    counters: Arc<OpCounters>,
    arena: Arc<ScratchArena>,
    /// High-water mark of *estimated* worst-case noise, in millibits
    /// (`u64` so it can be a lock-free `fetch_max`). The packed-matmul
    /// drivers compute a [`crate::NoiseModel`] bound for each chain they
    /// evaluate and record it here, so a phase's op counts come with the
    /// noise estimate that justified its layout choice.
    noise_millibits: AtomicU64,
}

impl Evaluator {
    /// Creates an evaluator for a context, with a private scratch arena.
    pub fn new(ctx: &HeContext) -> Self {
        Self::with_arena(ctx, Arc::new(ScratchArena::new()))
    }

    /// Creates an evaluator sharing an existing scratch arena — the
    /// parallel offline producers give each bundle a scratch evaluator
    /// (for exact per-bundle op attribution) but share the session
    /// arena, so recycled buffers flow between workers instead of each
    /// scratch evaluator warming a pool it immediately drops.
    pub fn with_arena(ctx: &HeContext, arena: Arc<ScratchArena>) -> Self {
        Self {
            ctx: ctx.clone(),
            counters: Arc::new(OpCounters::new()),
            arena,
            noise_millibits: AtomicU64::new(0),
        }
    }

    /// Records a worst-case noise estimate (in bits) for work evaluated
    /// through this evaluator; keeps the maximum seen.
    pub fn note_noise(&self, bits: f64) {
        let millibits = (bits.max(0.0) * 1000.0) as u64;
        self.noise_millibits.fetch_max(millibits, Ordering::Relaxed);
    }

    /// The largest noise estimate recorded so far, in bits.
    pub fn noise_high_water_bits(&self) -> f64 {
        self.noise_millibits.load(Ordering::Relaxed) as f64 / 1000.0
    }

    /// The scratch arena (shared with scratch evaluators).
    pub fn arena(&self) -> &Arc<ScratchArena> {
        &self.arena
    }

    /// The context.
    pub fn context(&self) -> &HeContext {
        &self.ctx
    }

    /// Operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    /// A shared handle to the counters — what a live `/stats` poll reads
    /// while this evaluator is busy on another thread.
    pub fn counters_handle(&self) -> Arc<OpCounters> {
        Arc::clone(&self.counters)
    }

    /// Snapshot of the counters.
    pub fn counts(&self) -> OpCounts {
        self.counters.snapshot()
    }

    /// Merges another evaluator's counts into this one (the parallel
    /// offline producers give each bundle a scratch evaluator for exact
    /// per-bundle attribution, then fold the ops back into the session).
    pub fn absorb_counts(&self, delta: &OpCounts) {
        self.counters.add(delta);
    }

    /// `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if part counts differ (relinearize or resize first).
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.size(), b.size(), "ciphertext size mismatch in add");
        self.counters.bump(|c| c.add += 1);
        let mut out = a.clone();
        for i in 0..b.size() {
            out.part_mut(i).add_assign(&self.ctx, b.part(i));
        }
        out
    }

    /// `a += b` in place.
    pub fn add_inplace(&self, a: &mut Ciphertext, b: &Ciphertext) {
        assert_eq!(a.size(), b.size(), "ciphertext size mismatch in add");
        self.counters.bump(|c| c.add += 1);
        for i in 0..b.size() {
            a.part_mut(i).add_assign(&self.ctx, b.part(i));
        }
    }

    /// `a - b`.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        assert_eq!(a.size(), b.size(), "ciphertext size mismatch in sub");
        self.counters.bump(|c| c.add += 1);
        let mut out = a.clone();
        for i in 0..b.size() {
            out.part_mut(i).sub_assign(&self.ctx, b.part(i));
        }
        out
    }

    /// `-a`.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        for i in 0..out.size() {
            out.part_mut(i).negate(&self.ctx);
        }
        out
    }

    /// `ct + pt` (Δ-scaled plaintext added to the body).
    pub fn add_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.counters.bump(|c| {
            c.add_plain += 1;
            c.ntt += 1;
        });
        let mut scaled = self.arena.take_uninit(&self.ctx, false);
        RnsPoly::scale_plain_into(&self.ctx, pt.coeffs(), &mut scaled);
        scaled.to_ntt(&self.ctx);
        let mut out = ct.clone();
        out.part_mut(0).add_assign(&self.ctx, &scaled);
        self.arena.recycle(&self.ctx, scaled);
        out
    }

    /// `ct - pt`.
    pub fn sub_plain(&self, ct: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        self.counters.bump(|c| {
            c.add_plain += 1;
            c.ntt += 1;
        });
        let mut scaled = self.arena.take_uninit(&self.ctx, false);
        RnsPoly::scale_plain_into(&self.ctx, pt.coeffs(), &mut scaled);
        scaled.to_ntt(&self.ctx);
        let mut out = ct.clone();
        out.part_mut(0).sub_assign(&self.ctx, &scaled);
        self.arena.recycle(&self.ctx, scaled);
        out
    }

    /// Prepares a plaintext for repeated multiplication (centered lift
    /// into `R_q` plus one forward NTT per prime — the per-mask cost the
    /// prepared-weights plane hoists out of the hot path; counted as
    /// `mask_prep` so phase attribution can prove where encoding runs).
    pub fn prepare_mul_plain(&self, pt: &Plaintext) -> MulPlain {
        self.counters.bump(|c| {
            c.mask_prep += 1;
            c.ntt += 1;
        });
        let is_zero = pt.coeffs().iter().all(|&c| c == 0);
        let mut poly = RnsPoly::lift_plain_centered(&self.ctx, pt.coeffs());
        poly.to_ntt(&self.ctx);
        MulPlain { poly, is_zero }
    }

    /// `ct × pt` (slot-wise).
    pub fn mul_plain(&self, ct: &Ciphertext, pt: &MulPlain) -> Ciphertext {
        self.counters.bump(|c| c.mul_plain += 1);
        let mut out = ct.clone();
        for i in 0..out.size() {
            out.part_mut(i).mul_pointwise_assign(&self.ctx, &pt.poly);
        }
        out
    }

    /// Fused `acc += ct × pt`, the inner loop of encrypted matmul.
    pub fn mul_plain_accumulate(&self, acc: &mut Ciphertext, ct: &Ciphertext, pt: &MulPlain) {
        assert_eq!(acc.size(), ct.size(), "size mismatch in accumulate");
        self.counters.bump(|c| {
            c.mul_plain += 1;
            c.add += 1;
        });
        for i in 0..ct.size() {
            acc.part_mut(i).add_mul_pointwise_assign(&self.ctx, ct.part(i), &pt.poly);
        }
    }

    /// An encryption of zero (trivial, noiseless — used as accumulator seed).
    pub fn zero_ciphertext(&self) -> Ciphertext {
        Ciphertext::new(
            vec![RnsPoly::zero(&self.ctx, true), RnsPoly::zero(&self.ctx, true)],
            None,
        )
    }

    /// Rotates both batching rows left by `step` (`result slot i` =
    /// `input slot i+step`). Uses a dedicated key when available,
    /// otherwise composes power-of-two hops.
    ///
    /// # Errors
    ///
    /// [`HeError::MissingGaloisKey`] if the step cannot be realized with
    /// the provided keys.
    pub fn rotate_rows(
        &self,
        ct: &Ciphertext,
        step: usize,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        let n = self.ctx.n();
        let s = step % (n / 2);
        if s == 0 {
            return Ok(ct.clone());
        }
        let hops = galois::decompose_step(s, keys.steps())
            .ok_or(HeError::MissingGaloisKey { step: s })?;
        let mut out = ct.clone();
        for hop in hops {
            let element = galois::element_for_row_step(n, hop);
            let key = keys.key_for(element).ok_or(HeError::MissingGaloisKey { step: hop })?;
            out = self.apply_galois(&out, element, key);
        }
        Ok(out)
    }

    /// Swaps the two batching rows.
    ///
    /// # Errors
    ///
    /// [`HeError::MissingGaloisKey`] if the column key was not generated.
    pub fn rotate_columns(
        &self,
        ct: &Ciphertext,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext, HeError> {
        let element = galois::element_for_columns(self.ctx.n());
        let key = keys.key_for(element).ok_or(HeError::MissingGaloisKey { step: 0 })?;
        Ok(self.apply_galois(ct, element, key))
    }

    /// Hoists a ciphertext: performs the one inverse NTT of `c1` and the
    /// full RNS digit decomposition (with its forward NTTs) that every
    /// key switch needs, so the result can be rotated by any number of
    /// Galois elements at permutation-plus-pointwise cost each.
    ///
    /// # Panics
    ///
    /// Panics unless the ciphertext has exactly 2 parts.
    pub fn hoist(&self, ct: &Ciphertext) -> HoistedCiphertext {
        assert_eq!(ct.size(), 2, "hoisting applies to size-2 ciphertexts");
        let _span = primer_obs::span!("he.hoist");
        self.counters.bump(|c| c.ntt += 1);
        let ctx = &self.ctx;
        // The working copy of `c1` is scratch (every limb is overwritten
        // by the copy below); the digits it decomposes into escape with
        // the hoist and come back via `recycle_hoisted`.
        let mut c1 = self.arena.take_uninit(ctx, true);
        for i in 0..ctx.num_primes() {
            c1.residues_mut(i).copy_from_slice(ct.part(1).residues(i));
        }
        c1.to_coeff(ctx);
        let digits = self.decompose_ntt(&c1);
        self.arena.recycle(ctx, c1);
        HoistedCiphertext {
            c0: ct.part(0).clone(),
            digits,
            digit_bits: ctx.params().decomp_bits(),
        }
    }

    /// Returns a consumed hoist's digit storage to the scratch arena.
    /// Every internal consumer ([`Evaluator::apply_galois`],
    /// [`Evaluator::rotate_many`]) calls this when the hoist dies, so
    /// rotation-heavy chains recycle their largest temporaries instead
    /// of round-tripping the allocator `D` times per hoist.
    pub fn recycle_hoisted(&self, h: HoistedCiphertext) {
        for prime_digits in h.digits {
            for digit in prime_digits {
                self.arena.recycle(&self.ctx, digit);
            }
        }
    }

    /// Applies `x → x^element` to a hoisted ciphertext and switches back
    /// to the canonical key, entirely in the evaluation domain: `c0` and
    /// every precomputed digit are permuted (the NTT-domain automorphism)
    /// and multiply-accumulated against the key. One call = one
    /// elementary rotation in the op counts.
    pub fn apply_galois_hoisted(
        &self,
        h: &HoistedCiphertext,
        element: u64,
        key: &KskKey,
    ) -> Ciphertext {
        self.counters.bump(|c| c.rotations += 1);
        let ctx = &self.ctx;
        debug_assert_eq!(key.digit_bits(), h.digit_bits, "key/hoist digit width mismatch");
        let perm = ctx.galois_perm(element);
        let mut acc0 = h.c0.permute_ntt(ctx, &perm);
        let mut acc1 = RnsPoly::zero(ctx, true);
        // One arena buffer serves every σ(digit) in the double loop —
        // permute_ntt_into overwrites all residues each pass.
        let mut sd = self.arena.take_uninit(ctx, true);
        for (i, prime_digits) in h.digits.iter().enumerate() {
            debug_assert_eq!(prime_digits.len(), key.digits(i), "digit count mismatch");
            for (j, digit) in prime_digits.iter().enumerate() {
                // σ(digit) in NTT form: the permutation carries the
                // negacyclic sign flips, so coefficients stay ±digit —
                // within the same key-switch noise bound as the
                // coefficient-domain path.
                digit.permute_ntt_into(ctx, &perm, &mut sd);
                let (b, a) = key.part(i, j);
                // Fused interleaved pass (see `key_switch`).
                RnsPoly::add_mul2_pointwise_assign(ctx, &mut acc0, &mut acc1, &sd, b, a);
            }
        }
        self.arena.recycle(ctx, sd);
        Ciphertext::new(vec![acc0, acc1], None)
    }

    /// Applies `x → x^element` and switches back to the canonical key
    /// (hoist + one hoisted application). One call = one elementary
    /// rotation in the op counts.
    pub fn apply_galois(&self, ct: &Ciphertext, element: u64, key: &KskKey) -> Ciphertext {
        let _span = primer_obs::span!("he.rotate", element = element);
        let h = self.hoist(ct);
        let out = self.apply_galois_hoisted(&h, element, key);
        self.recycle_hoisted(h);
        out
    }

    /// The coefficient-domain reference implementation of
    /// [`Evaluator::apply_galois`] (the pre-hoisting path): both parts
    /// leave NTT form, the automorphism runs on coefficients, and the
    /// digits of `σ(c1)` are decomposed after the automorphism. Kept so
    /// the equivalence suite can pin the hoisted path against it slot
    /// for slot; not used by any protocol.
    pub fn apply_galois_coeff(&self, ct: &Ciphertext, element: u64, key: &KskKey) -> Ciphertext {
        assert_eq!(ct.size(), 2, "galois on size-2 ciphertexts only");
        self.counters.bump(|c| {
            c.rotations += 1;
            // Two inverse transforms to leave NTT form plus the forward
            // transform of σ(c0); the digits count inside key_switch.
            c.ntt += 3;
        });
        let ctx = &self.ctx;
        let mut c0 = ct.part(0).clone();
        let mut c1 = ct.part(1).clone();
        c0.to_coeff(ctx);
        c1.to_coeff(ctx);
        let c0g = c0.apply_automorphism(ctx, element);
        let c1g = c1.apply_automorphism(ctx, element);
        let (mut acc0, acc1) = self.key_switch(&c1g, key);
        let mut c0g_ntt = c0g;
        c0g_ntt.to_ntt(ctx);
        acc0.add_assign(ctx, &c0g_ntt);
        Ciphertext::new(vec![acc0, acc1], None)
    }

    /// Rotates one ciphertext by several row steps at once, hoisting the
    /// key-switch decomposition **once** and reusing it for every Galois
    /// element — the amortization diagonal-method matmul chains rely on.
    /// Each step must be covered by a dedicated key: falling back to
    /// power-of-two hop composition would re-decompose at every hop and
    /// defeat the hoist, so that case is reported as missing instead.
    ///
    /// # Errors
    ///
    /// [`HeError::MissingGaloisKey`] if any step lacks a dedicated key.
    pub fn rotate_many(
        &self,
        ct: &Ciphertext,
        steps: &[usize],
        keys: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>, HeError> {
        let _span = primer_obs::span!("he.rotate_many", steps = steps.len());
        let n = self.ctx.n();
        let h = self.hoist(ct);
        let out: Result<Vec<Ciphertext>, HeError> = steps
            .iter()
            .map(|&step| {
                let s = step % (n / 2);
                if s == 0 {
                    return Ok(ct.clone());
                }
                let element = galois::element_for_row_step(n, s);
                let key = keys.key_for(element).ok_or(HeError::MissingGaloisKey { step: s })?;
                Ok(self.apply_galois_hoisted(&h, element, key))
            })
            .collect();
        self.recycle_hoisted(h);
        out
    }

    /// The RNS digit decomposition of a coefficient-form polynomial,
    /// every digit transformed to NTT form — shared by hoisting and the
    /// relinearization key switch.
    fn decompose_ntt(&self, poly_coeff: &RnsPoly) -> Vec<Vec<RnsPoly>> {
        let ctx = &self.ctx;
        let w = ctx.params().decomp_bits();
        let total_digits: u64 =
            ctx.moduli().iter().map(|m| digits_for_prime(m.value(), w) as u64).sum();
        self.counters.bump(|c| c.ntt += total_digits);
        let mask = ((1u128 << w) - 1) as u64;
        let lvl = ctx.simd();
        // Scratch row shared by every digit: one vectorized extraction
        // per digit, then a straight copy into each prime row (d < 2^w <
        // every q_p, so the same row is a valid residue everywhere).
        let mut extracted = vec![0u64; ctx.n()];
        (0..ctx.num_primes())
            .map(|i| {
                let residues = poly_coeff.residues(i);
                let digits = digits_for_prime(ctx.moduli()[i].value(), w);
                (0..digits)
                    .map(|j| {
                        let shift = j * w;
                        // Fully overwritten below (all rows), so stale
                        // arena limbs are safe.
                        let mut digit = self.arena.take_uninit(ctx, false);
                        crate::simd::extract_digit(residues, shift, mask, &mut extracted, lvl);
                        for p in 0..ctx.num_primes() {
                            digit.residues_mut(p).copy_from_slice(&extracted);
                        }
                        digit.to_ntt(ctx);
                        digit
                    })
                    .collect()
            })
            .collect()
    }

    /// Relinearizes a size-3 ciphertext down to size 2 (THE-X baseline).
    ///
    /// # Errors
    ///
    /// [`HeError::WrongCiphertextSize`] unless the input has 3 parts.
    pub fn relinearize(&self, ct: &Ciphertext, rk: &RelinKey) -> Result<Ciphertext, HeError> {
        if ct.size() != 3 {
            return Err(HeError::WrongCiphertextSize { expected: 3, actual: ct.size() });
        }
        self.counters.bump(|c| {
            c.relin += 1;
            c.ntt += 1;
        });
        let ctx = &self.ctx;
        let mut c2 = ct.part(2).clone();
        c2.to_coeff(ctx);
        let (acc0, acc1) = self.key_switch(&c2, &rk.0);
        let mut p0 = ct.part(0).clone();
        p0.add_assign(ctx, &acc0);
        let mut p1 = ct.part(1).clone();
        p1.add_assign(ctx, &acc1);
        Ok(Ciphertext::new(vec![p0, p1], None))
    }

    /// Core key switch: given `poly` (coefficient form) encrypted-times
    /// `s_old`, produces `(acc0, acc1)` in NTT form such that
    /// `acc0 + acc1·s ≈ poly·s_old`. Built on [`Evaluator::decompose_ntt`],
    /// so this path and hoisting decompose identically by construction
    /// (deserialization pins every key's digit width to the context's).
    fn key_switch(&self, poly_coeff: &RnsPoly, key: &KskKey) -> (RnsPoly, RnsPoly) {
        let ctx = &self.ctx;
        debug_assert_eq!(key.digit_bits(), ctx.params().decomp_bits(), "digit width mismatch");
        let digits = self.decompose_ntt(poly_coeff);
        let mut acc0 = RnsPoly::zero(ctx, true);
        let mut acc1 = RnsPoly::zero(ctx, true);
        for (i, prime_digits) in digits.iter().enumerate() {
            debug_assert_eq!(prime_digits.len(), key.digits(i), "digit count mismatch");
            for (j, digit) in prime_digits.iter().enumerate() {
                let (b, a) = key.part(i, j);
                // Fused interleaved pass: the digit is loaded once and
                // accumulated against both key halves across all limbs.
                RnsPoly::add_mul2_pointwise_assign(ctx, &mut acc0, &mut acc1, digit, b, a);
            }
        }
        // The digits die here (a hoist's escape instead and come back
        // via `recycle_hoisted`) — return their storage to the arena.
        for prime_digits in digits {
            for digit in prime_digits {
                self.arena.recycle(ctx, digit);
            }
        }
        (acc0, acc1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BatchEncoder;
    use crate::encryptor::Encryptor;
    use crate::keys::KeyGenerator;
    use crate::params::HeParams;
    use primer_math::rng::seeded;

    struct Fixture {
        ctx: HeContext,
        enc: BatchEncoder,
        encr: Encryptor,
        eval: Evaluator,
        kg: KeyGenerator,
    }

    fn fixture(params: HeParams) -> Fixture {
        let ctx = HeContext::new(params);
        let enc = BatchEncoder::new(&ctx);
        let mut rng = seeded(50);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encr = Encryptor::new(&ctx, kg.secret_key().clone(), 51);
        let eval = Evaluator::new(&ctx);
        Fixture { ctx, enc, encr, eval, kg }
    }

    #[test]
    fn homomorphic_addition() {
        let f = fixture(HeParams::toy());
        let t = f.ctx.params().t();
        let a: Vec<u64> = (0..100).map(|i| i * 3 % t).collect();
        let b: Vec<u64> = (0..100).map(|i| i * 7 % t).collect();
        let ca = f.encr.encrypt(&f.enc.encode(&a));
        let cb = f.encr.encrypt(&f.enc.encode(&b));
        let sum = f.eval.add(&ca, &cb);
        let got = f.enc.decode(&f.encr.decrypt(&sum));
        for i in 0..100 {
            assert_eq!(got[i], (a[i] + b[i]) % t);
        }
    }

    #[test]
    fn plaintext_add_and_sub() {
        let f = fixture(HeParams::toy());
        let t = f.ctx.params().t();
        let a = vec![100u64, 200, 300];
        let b = vec![5u64, t - 1, 42];
        let ct = f.encr.encrypt(&f.enc.encode(&a));
        let added = f.eval.add_plain(&ct, &f.enc.encode(&b));
        let got = f.enc.decode(&f.encr.decrypt(&added));
        for i in 0..3 {
            assert_eq!(got[i], (a[i] + b[i]) % t);
        }
        let subbed = f.eval.sub_plain(&added, &f.enc.encode(&b));
        let back = f.enc.decode(&f.encr.decrypt(&subbed));
        assert_eq!(&back[..3], &a[..]);
    }

    #[test]
    fn plaintext_multiplication_slotwise() {
        let f = fixture(HeParams::toy());
        let t = f.ctx.params().t();
        let a: Vec<u64> = (0..50).map(|i| (i * i) % t).collect();
        let w: Vec<u64> = (0..50).map(|i| (i + 13) % t).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&a));
        let mp = f.eval.prepare_mul_plain(&f.enc.encode(&w));
        let prod = f.eval.mul_plain(&ct, &mp);
        let budget = f.encr.noise_budget(&prod);
        assert!(budget > 5.0, "post-mult budget {budget}");
        let got = f.enc.decode(&f.encr.decrypt(&prod));
        for i in 0..50 {
            assert_eq!(got[i], a[i] * w[i] % t, "slot {i}");
        }
    }

    #[test]
    fn rotation_moves_slots_left() {
        let f = fixture(HeParams::toy());
        let rs = f.enc.row_size();
        let vals: Vec<u64> = (0..2 * rs as u64).map(|v| v + 1).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&vals));
        let mut rng = seeded(52);
        let gk = f.kg.galois_keys(&[1, 5], false, &mut rng);
        for step in [1usize, 5] {
            let rot = f.eval.rotate_rows(&ct, step, &gk).expect("key present");
            let got = f.enc.decode(&f.encr.decrypt(&rot));
            for i in 0..rs {
                assert_eq!(got[i], vals[(i + step) % rs], "step {step} slot {i}");
                assert_eq!(got[rs + i], vals[rs + (i + step) % rs]);
            }
        }
    }

    #[test]
    fn rotation_composes_from_pow2() {
        let f = fixture(HeParams::toy());
        let rs = f.enc.row_size();
        let vals: Vec<u64> = (0..2 * rs as u64).map(|v| 2 * v + 3).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&vals));
        let mut rng = seeded(53);
        let gk = f.kg.galois_keys_pow2(&[], false, &mut rng);
        let before = f.eval.counts().rotations;
        let rot = f.eval.rotate_rows(&ct, 11, &gk).expect("pow2 coverage");
        // 11 = 8 + 2 + 1 → exactly three elementary rotations.
        assert_eq!(f.eval.counts().rotations - before, 3);
        let got = f.enc.decode(&f.encr.decrypt(&rot));
        for i in 0..rs {
            assert_eq!(got[i], vals[(i + 11) % rs]);
        }
    }

    #[test]
    fn column_rotation_swaps_rows() {
        let f = fixture(HeParams::toy());
        let rs = f.enc.row_size();
        let vals: Vec<u64> = (0..2 * rs as u64).map(|v| v + 7).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&vals));
        let mut rng = seeded(54);
        let gk = f.kg.galois_keys(&[1], true, &mut rng);
        let rot = f.eval.rotate_columns(&ct, &gk).expect("columns key");
        let got = f.enc.decode(&f.encr.decrypt(&rot));
        for i in 0..rs {
            assert_eq!(got[i], vals[rs + i]);
            assert_eq!(got[rs + i], vals[i]);
        }
    }

    #[test]
    fn missing_key_is_an_error() {
        let f = fixture(HeParams::toy());
        let ct = f.encr.encrypt(&f.enc.encode(&[1]));
        let mut rng = seeded(55);
        let gk = f.kg.galois_keys(&[4], false, &mut rng);
        let err = f.eval.rotate_rows(&ct, 3, &gk).unwrap_err();
        assert!(matches!(err, HeError::MissingGaloisKey { .. }));
    }

    #[test]
    fn rotation_works_on_two_prime_profile() {
        let f = fixture(HeParams::test_2k());
        let rs = f.enc.row_size();
        let vals: Vec<u64> = (0..2 * rs as u64).map(|v| v % 1000).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&vals));
        let mut rng = seeded(56);
        let gk = f.kg.galois_keys(&[7], false, &mut rng);
        let rot = f.eval.rotate_rows(&ct, 7, &gk).expect("key present");
        let budget = f.encr.noise_budget(&rot);
        assert!(budget > 30.0, "post-rotation budget {budget}");
        let got = f.enc.decode(&f.encr.decrypt(&rot));
        for i in 0..rs {
            assert_eq!(got[i], vals[(i + 7) % rs]);
        }
    }

    #[test]
    fn hoisted_rotation_matches_coeff_reference() {
        for params in [HeParams::toy(), HeParams::test_2k()] {
            let f = fixture(params);
            let rs = f.enc.row_size();
            let vals: Vec<u64> = (0..2 * rs as u64).map(|v| (v * 3 + 1) % 1000).collect();
            let ct = f.encr.encrypt(&f.enc.encode(&vals));
            let mut rng = seeded(57);
            let gk = f.kg.galois_keys(&[1, 5], true, &mut rng);
            for element in [
                crate::galois::element_for_row_step(f.ctx.n(), 1),
                crate::galois::element_for_row_step(f.ctx.n(), 5),
                crate::galois::element_for_columns(f.ctx.n()),
            ] {
                let key = gk.key_for(element).expect("key generated");
                let hoisted = f.eval.apply_galois(&ct, element, key);
                let reference = f.eval.apply_galois_coeff(&ct, element, key);
                // Same plaintext slots (ciphertext noise differs
                // immaterially — both stay far below the bound).
                assert_eq!(
                    f.enc.decode(&f.encr.decrypt(&hoisted)),
                    f.enc.decode(&f.encr.decrypt(&reference)),
                    "element {element}"
                );
                let budget = f.encr.noise_budget(&hoisted);
                assert!(budget > 5.0, "hoisted budget {budget}");
            }
        }
    }

    #[test]
    fn rotate_many_amortizes_one_hoist_and_matches_rotate_rows() {
        let f = fixture(HeParams::toy());
        let rs = f.enc.row_size();
        let vals: Vec<u64> = (0..2 * rs as u64).map(|v| v + 9).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&vals));
        let mut rng = seeded(58);
        let steps = [1usize, 3, 7, 20];
        let gk = f.kg.galois_keys(&steps, false, &mut rng);
        let before = f.eval.counts().rotations;
        let many = f.eval.rotate_many(&ct, &steps, &gk).expect("dedicated keys");
        assert_eq!(f.eval.counts().rotations - before, steps.len() as u64);
        for (&step, rotated) in steps.iter().zip(&many) {
            // Bit-identical to the one-at-a-time path (same element, same
            // key, same arithmetic — the hoist is pure reuse).
            let single = f.eval.rotate_rows(&ct, step, &gk).expect("key");
            assert_eq!(rotated, &single, "step {step}");
        }
        // A step without a dedicated key is refused, not silently
        // decomposed (hop composition would re-hoist per hop).
        let err = f.eval.rotate_many(&ct, &[6], &gk).unwrap_err();
        assert!(matches!(err, HeError::MissingGaloisKey { .. }));
    }

    #[test]
    fn accumulate_matches_mul_then_add() {
        let f = fixture(HeParams::toy());
        let t = f.ctx.params().t();
        let a: Vec<u64> = (0..20).map(|i| i + 1).collect();
        let w: Vec<u64> = (0..20).map(|i| 2 * i + 1).collect();
        let ct = f.encr.encrypt(&f.enc.encode(&a));
        let mp = f.eval.prepare_mul_plain(&f.enc.encode(&w));
        let mut acc = f.eval.zero_ciphertext();
        f.eval.mul_plain_accumulate(&mut acc, &ct, &mp);
        f.eval.mul_plain_accumulate(&mut acc, &ct, &mp);
        let got = f.enc.decode(&f.encr.decrypt(&acc));
        for i in 0..20 {
            assert_eq!(got[i], 2 * a[i] * w[i] % t);
        }
    }
}
