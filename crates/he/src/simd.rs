//! Runtime-dispatched SIMD kernels for the modular hot loops.
//!
//! Essentially all HE hot-path time is pointwise `u64` arithmetic over
//! RNS limbs: NTT butterflies (Shoup multiplication), pointwise multiply
//! (Barrett), ciphertext add/sub, key-switch digit extraction and
//! accumulation, base conversion and the encode/decode permutations.
//! Each of those 13 loops is written **once**, as a generic
//! `#[inline(always)]` body over a private `Lane` trait, and
//! instantiated inside one `#[target_feature]` wrapper per lane type.
//! The [`scalar`] module is the reference semantics, the remainder tail
//! of every vector body and the non-x86 path.
//!
//! | lane type    | lanes | features                      | 64×64→128 product                   |
//! |--------------|-------|-------------------------------|-------------------------------------|
//! | `Avx2`       | 4×64  | `avx2`                        | four `vpmuludq` partial products    |
//! | `Avx512Dq`   | 8×64  | `avx512f,avx512dq`            | `vpmuludq` partials + `vpmullq` low |
//! | `Avx512Ifma` | 8×64  | `avx512f,avx512dq,avx512ifma` | `vpmadd52{lo,hi}` on 52-bit limbs   |
//!
//! Each lane type keeps its ISA's idiom behind the trait: AVX-512
//! compares into mask registers, AVX2 compares unsigned through a
//! sign-bit flip and `vpcmpgtq`. All three stay because each is the only
//! vector body on some CPU (DESIGN.md §11 has the IFMA vs DQ numbers).
//!
//! > **Bit identity.** For every input, every vector kernel produces the
//! > same bytes as the scalar kernel. SIMD width is a pure performance
//! > knob; wire bytes and logits never depend on it.
//!
//! It holds by construction: every kernel ends in the *canonical*
//! residue in `[0, p)`. Add/sub/neg, Shoup multiplication and the
//! butterflies use the scalar code's exact branch structure, lane-wise.
//! Pointwise multiply is lane-wise Barrett with the cached
//! [`Modulus::barrett_mu`] against the scalar `u128 %`; both fully
//! reduce, and all three product syntheses compute the exact 128-bit
//! product.
//!
//! # Tiers and dispatch
//!
//! A kernel takes its tier as a [`SimdLevel`]. Inside the HE layer that
//! is the context's tier ([`crate::HeContext::simd`]), fixed when the
//! context is built: [`level`] reads `PRIMER_SIMD` there, and tests pin
//! a tier with [`crate::HeContext::with_simd`]. No kernel and no
//! polynomial, encoder or evaluator op reads the environment. The
//! variable is a [`SimdPolicy`] (`scalar|avx2|avx512|auto`, plus the
//! legacy `0|off|1|on`); `SystemConfig` rejects a typo as a typed error
//! before it builds the context. A valid request above what the CPU
//! offers degrades to the best supported tier, and `avx512` takes the
//! IFMA body wherever the CPU has it.
//!
//! Every call re-checks the CPU and the slice length (at least one full
//! vector) before it enters a wrapper, so even a forged [`SimdLevel`]
//! can never execute unsupported instructions.
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::modulus::Modulus;

/// Lane width selected for a kernel invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// 4×64-bit lanes via AVX2 (`x86_64` only; falls back to scalar on
    /// other architectures or CPUs without the feature).
    Avx2,
    /// 8×64-bit lanes via AVX-512F/DQ, with the IFMA `vpmadd52` product
    /// when the CPU additionally reports `avx512ifma`.
    Avx512,
}

impl SimdLevel {
    /// Short human-readable name (bench metadata, logs).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The parsed `PRIMER_SIMD` policy: what the operator *asked for*, before
/// CPU capability clamps it to a [`SimdLevel`].
///
/// Parsing ([`parse`](SimdPolicy::parse)) is split from reading the
/// environment (`from_env`) so unknown values can be a hard error
/// surfaced as a typed `ConfigError` at config assembly: a typo silently
/// selecting a different tier would invalidate whatever experiment set
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Best tier the CPU supports (the default).
    Auto,
    /// Force the scalar reference kernels.
    Scalar,
    /// Cap at the AVX2 tier (scalar where AVX2 is unavailable).
    Avx2,
    /// Cap at the AVX-512 tier (degrades to AVX2, then scalar).
    Avx512,
}

impl SimdPolicy {
    /// Parses a `PRIMER_SIMD` value (case-insensitive, whitespace
    /// trimmed). `0|off|scalar` force scalar and `1|on|auto` mean
    /// auto-detect — the first two spellings of each are the legacy
    /// forms and keep old scripts working.
    ///
    /// # Errors
    ///
    /// The offending value, verbatim, on anything but
    /// `scalar|avx2|avx512|auto` / `0|off` / `1|on`.
    pub fn parse(value: &str) -> Result<SimdPolicy, String> {
        let v = value.trim();
        if v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("scalar") {
            Ok(SimdPolicy::Scalar)
        } else if v == "1" || v.eq_ignore_ascii_case("on") || v.eq_ignore_ascii_case("auto") {
            Ok(SimdPolicy::Auto)
        } else if v.eq_ignore_ascii_case("avx2") {
            Ok(SimdPolicy::Avx2)
        } else if v.eq_ignore_ascii_case("avx512") {
            Ok(SimdPolicy::Avx512)
        } else {
            Err(value.to_string())
        }
    }

    /// Reads `PRIMER_SIMD`. Unset means [`SimdPolicy::Auto`].
    ///
    /// # Errors
    ///
    /// The unrecognised value (see [`SimdPolicy::parse`]).
    pub fn from_env() -> Result<SimdPolicy, String> {
        match std::env::var("PRIMER_SIMD") {
            Err(_) => Ok(SimdPolicy::Auto),
            Ok(v) => Self::parse(&v),
        }
    }

    /// Clamps the requested policy to what the running CPU supports:
    /// degrade (512 → 2 → scalar), never UB.
    pub fn level(self) -> SimdLevel {
        match self {
            SimdPolicy::Scalar => SimdLevel::Scalar,
            SimdPolicy::Auto | SimdPolicy::Avx512 if avx512_available() => SimdLevel::Avx512,
            SimdPolicy::Auto | SimdPolicy::Avx512 | SimdPolicy::Avx2 if avx2_available() => {
                SimdLevel::Avx2
            }
            _ => SimdLevel::Scalar,
        }
    }
}

/// True when the running CPU reports every listed x86 feature; always
/// false on other architectures.
macro_rules! detected {
    ($($feature:tt),+) => {{
        #[cfg(target_arch = "x86_64")]
        let found = $(std::arch::is_x86_feature_detected!($feature))&&+;
        #[cfg(not(target_arch = "x86_64"))]
        let found = false;
        found
    }};
}

/// True when the running CPU can execute the AVX2 kernels.
#[inline]
pub fn avx2_available() -> bool {
    detected!("avx2")
}

/// True when the running CPU can execute the AVX-512 kernels
/// (`avx512f` for the lane ops **and** `avx512dq` for `vpmullq`).
#[inline]
pub fn avx512_available() -> bool {
    detected!("avx512f", "avx512dq")
}

/// True when the AVX-512 tier will take the IFMA (`vpmadd52`) body.
/// Purely informational outside this module — both AVX-512 product
/// syntheses are exact, so IFMA changes speed, never bytes.
#[inline]
pub fn ifma_available() -> bool {
    detected!("avx512f", "avx512dq", "avx512ifma")
}

/// Resolves the tier from the environment: the `PRIMER_SIMD` policy
/// clamped to CPU support. Called when an `HeContext` is built and by
/// the `NttTables::{forward, inverse}` conveniences — never per kernel
/// call.
///
/// # Panics
///
/// Panics on an unparseable `PRIMER_SIMD`. This is the backstop for
/// callers that bypassed config assembly — `primer_core::SystemConfig`
/// validates the variable with [`SimdPolicy::from_env`] and rejects a
/// typo as a typed `ConfigError` before it builds a context.
#[inline]
pub fn level() -> SimdLevel {
    SimdPolicy::from_env()
        .unwrap_or_else(|v| {
            panic!("PRIMER_SIMD must be scalar|avx2|avx512|auto (or 0|off|1|on), got {v:?}")
        })
        .level()
}

/// One RNS limb of a key-switch digit accumulation: the borrowed rows
/// [`ks_accumulate`] walks in a single fused pass.
pub struct KsLimb<'a> {
    /// The limb's prime.
    pub m: Modulus,
    /// Accumulator row of the output `c0` part.
    pub acc0: &'a mut [u64],
    /// Accumulator row of the output `c1` part.
    pub acc1: &'a mut [u64],
    /// The decomposed digit row (NTT form) — loaded once, used twice.
    pub x: &'a [u64],
    /// Key-switch key row multiplying into `acc0`.
    pub b: &'a [u64],
    /// Key-switch key row multiplying into `acc1`.
    pub a: &'a [u64],
}

/// Fused key-switch accumulation over **all** RNS limbs of one digit:
/// per limb, `acc0 += x ⊙ b` and `acc1 += x ⊙ a` in a single interleaved
/// pass — each digit chunk is loaded into lanes once and multiplied
/// against both key parts while it sits in registers, instead of two
/// separate `add_mul` sweeps per limb.
///
/// Bit-identical to the two-sweep formulation: the per-element operations
/// and their order within each element are unchanged.
///
/// # Panics
///
/// Panics if any limb's slice lengths disagree.
pub fn ks_accumulate(limbs: &mut [KsLimb<'_>], lvl: SimdLevel) {
    for l in limbs.iter_mut() {
        add_mul_mod2(l.m, l.acc0, l.acc1, l.x, l.b, l.a, lvl);
    }
}

/// The body one kernel call runs.
#[derive(Debug, Clone, Copy)]
enum Body {
    Scalar,
    Avx2,
    Avx512Dq,
    Avx512Ifma,
}

impl Body {
    /// The degrade rule: a vector body needs at least one full vector of
    /// elements (shorter slices are all tail) and a CPU with its features,
    /// re-checked on every call so a forged [`SimdLevel`] degrades instead
    /// of executing illegal instructions.
    #[inline]
    fn pick(lvl: SimdLevel, len: usize) -> Body {
        match lvl {
            SimdLevel::Avx512 if len >= 8 && ifma_available() => Body::Avx512Ifma,
            SimdLevel::Avx512 if len >= 8 && avx512_available() => Body::Avx512Dq,
            SimdLevel::Avx512 | SimdLevel::Avx2 if len >= 4 && avx2_available() => Body::Avx2,
            _ => Body::Scalar,
        }
    }
}

/// Defines each public kernel from one signature. The `pub fn` (the
/// signature plus `lvl`) runs its argument checks and calls `on::<kernel>`
/// with the body [`Body::pick`] chooses for `[len]` elements, which runs
/// the kernel's generic `vector` body inside the `#[target_feature]`
/// wrapper of that lane type, or the [`scalar`] reference.
macro_rules! kernels {
    ($(
        $(#[$doc:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) [$len:expr] $checks:block
    )*) => {
        $(
            $(#[$doc])*
            #[allow(clippy::too_many_arguments)]
            pub fn $name($($arg: $ty,)* lvl: SimdLevel) {
                $checks
                // SAFETY: `Body::pick` returns a vector body only on a CPU
                // that has its features; the checks above establish the
                // bodies' slice preconditions (gather's index bounds).
                unsafe { on::$name(Body::pick(lvl, $len), $($arg),*) }
            }
        )*

        mod on {
            use super::{scalar, Body, Modulus};
            $(
                /// # Safety
                ///
                /// The CPU must have the features of `body`'s lane type.
                #[allow(clippy::too_many_arguments)]
                #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
                #[inline]
                pub(super) unsafe fn $name(body: Body, $($arg: $ty),*) {
                    #[cfg(target_arch = "x86_64")]
                    match body {
                        Body::Avx2 => kernels!(@at "avx2" Avx2 $name $($arg: $ty),*),
                        Body::Avx512Dq => kernels!(@at "avx512f,avx512dq" Avx512Dq
                            $name $($arg: $ty),*),
                        Body::Avx512Ifma => kernels!(@at "avx512f,avx512dq,avx512ifma" Avx512Ifma
                            $name $($arg: $ty),*),
                        Body::Scalar => {}
                    }
                    scalar::$name($($arg),*)
                }
            )*
        }
    };
    // Returns through one `#[target_feature]` wrapper around the `vector`
    // body at `$lane`.
    (@at $feature:literal $lane:ident $name:ident $($arg:ident: $ty:ty),*) => {{
        #[target_feature(enable = $feature)]
        unsafe fn at($($arg: $ty),*) {
            super::vector::$name::<super::vector::$lane>($($arg),*)
        }
        return at($($arg),*);
    }};
}

kernels! {
    /// `a[i] = a[i] + b[i] mod p` lane-wise.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length (all kernels in this module).
    pub fn add_mod(m: Modulus, a: &mut [u64], b: &[u64]) [a.len()] {
        assert_eq!(a.len(), b.len(), "simd kernel length mismatch");
    }

    /// `a[i] = a[i] - b[i] mod p` lane-wise.
    pub fn sub_mod(m: Modulus, a: &mut [u64], b: &[u64]) [a.len()] {
        assert_eq!(a.len(), b.len(), "simd kernel length mismatch");
    }

    /// `a[i] = -a[i] mod p` lane-wise.
    pub fn neg_mod(m: Modulus, a: &mut [u64]) [a.len()] {}

    /// `a[i] = a[i] * b[i] mod p` lane-wise (Barrett in the vector bodies).
    pub fn mul_mod(m: Modulus, a: &mut [u64], b: &[u64]) [a.len()] {
        assert_eq!(a.len(), b.len(), "simd kernel length mismatch");
    }

    /// `acc[i] = acc[i] + a[i] * b[i] mod p` lane-wise.
    pub fn add_mul_mod(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) [acc.len()] {
        assert_eq!(acc.len(), a.len(), "simd kernel length mismatch");
        assert_eq!(acc.len(), b.len(), "simd kernel length mismatch");
    }

    /// Fused dual accumulate: `acc0[i] += x[i] * b[i]` and
    /// `acc1[i] += x[i] * a[i]` (mod p) in one pass — `x` is loaded once per
    /// chunk. Element-wise identical to two [`add_mul_mod`] calls.
    pub fn add_mul_mod2(
        m: Modulus,
        acc0: &mut [u64],
        acc1: &mut [u64],
        x: &[u64],
        b: &[u64],
        a: &[u64],
    ) [acc0.len()] {
        assert_eq!(acc0.len(), acc1.len(), "simd kernel length mismatch");
        assert_eq!(acc0.len(), x.len(), "simd kernel length mismatch");
        assert_eq!(acc0.len(), b.len(), "simd kernel length mismatch");
        assert_eq!(acc0.len(), a.len(), "simd kernel length mismatch");
    }

    /// One level of Cooley–Tukey forward butterflies with a shared twiddle:
    /// `(lo[i], hi[i]) = (lo[i] + w·hi[i], lo[i] − w·hi[i]) mod p`.
    pub fn forward_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) [lo.len()] {
        assert_eq!(lo.len(), hi.len(), "simd kernel length mismatch");
    }

    /// One level of Gentleman–Sande inverse butterflies with a shared twiddle:
    /// `(lo[i], hi[i]) = (lo[i] + hi[i], w·(lo[i] − hi[i])) mod p`.
    pub fn inverse_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) [lo.len()] {
        assert_eq!(lo.len(), hi.len(), "simd kernel length mismatch");
    }

    /// `a[i] = a[i] * w mod p` with a Shoup-precomputed constant (the inverse
    /// NTT's final `n^{-1}` scaling).
    pub fn mul_shoup_slice(p: u64, w: u64, ws: u64, a: &mut [u64]) [a.len()] {}

    /// Digit extraction for key-switch decomposition:
    /// `dst[i] = (src[i] >> shift) & mask`.
    ///
    /// # Panics
    ///
    /// Panics if `shift >= 64` or the slices differ in length.
    pub fn extract_digit(src: &[u64], shift: u32, mask: u64, dst: &mut [u64]) [src.len()] {
        assert!(shift < 64, "digit shift out of range");
        assert_eq!(src.len(), dst.len(), "simd kernel length mismatch");
    }

    /// Permutation gather: `dst[i] = src[idx[i]]` — the NTT-domain Galois
    /// automorphism and the encoder's slot↔position maps.
    ///
    /// # Panics
    ///
    /// Panics if `idx` and `dst` differ in length or any index is out of
    /// bounds for `src` (checked up front so the vector gathers are safe).
    pub fn gather(src: &[u64], idx: &[u32], dst: &mut [u64]) [idx.len()] {
        assert_eq!(idx.len(), dst.len(), "simd kernel length mismatch");
        let max = idx.iter().copied().max().unwrap_or(0);
        assert!(idx.is_empty() || (max as usize) < src.len(), "gather index out of bounds");
    }

    /// Centered plaintext lift into one RNS limb:
    /// `dst[i] = if src[i] > t/2 { p − t + src[i] } else { src[i] }`.
    /// Bit-identical to `Modulus::from_signed(t.to_signed(c))` whenever
    /// `t < p` and `src[i] < t` (the dispatcher asserts the former; callers
    /// guarantee the latter — plaintexts are reduced mod `t`).
    ///
    /// # Panics
    ///
    /// Panics if `t >= p` or the slices differ in length.
    pub fn lift_centered(p: u64, t: u64, src: &[u64], dst: &mut [u64]) [src.len()] {
        assert!(t < p, "centered lift requires t < p");
        assert_eq!(src.len(), dst.len(), "simd kernel length mismatch");
    }

    /// Base-conversion combine for `round(q·m/t)` scaling into one RNS limb:
    /// `out[i] = (Δ_p · plain[i] + rt[i]) mod p`, with `Δ_p = Δ mod p` fed as
    /// a Shoup pair `(delta, delta_shoup)` and `rt[i] < p` the per-coefficient
    /// rounding term (computed once, scalar, by the caller). Canonical-residue
    /// identical to reducing the full `u128` product: both are the unique
    /// value of `(Δ·m + rt) mod p`.
    pub fn scale_combine(
        m: Modulus,
        delta: u64,
        delta_shoup: u64,
        plain: &[u64],
        rt: &[u64],
        out: &mut [u64],
    ) [plain.len()] {
        assert_eq!(plain.len(), rt.len(), "simd kernel length mismatch");
        assert_eq!(plain.len(), out.len(), "simd kernel length mismatch");
    }
}

/// Shoup modular multiplication: `x · w mod p` with `w_shoup` precomputed
/// as `floor(w · 2^64 / p)`. Requires `p < 2^63` and `w < p` (any `x`);
/// result is canonical.
#[inline]
pub fn mul_shoup(x: u64, w: u64, w_shoup: u64, p: u64) -> u64 {
    let q = ((x as u128 * w_shoup as u128) >> 64) as u64;
    let r = (x.wrapping_mul(w)).wrapping_sub(q.wrapping_mul(p));
    if r >= p {
        r - p
    } else {
        r
    }
}

/// The portable reference kernels. The AVX2 and AVX-512 kernels must
/// match these bit-for-bit (proptested in `tests/simd_bit_identity.rs`).
pub mod scalar {
    use super::{mul_shoup, Modulus};

    pub fn add_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.add(*x, y);
        }
    }

    pub fn sub_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.sub(*x, y);
        }
    }

    pub fn neg_mod(m: Modulus, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = m.neg(*x);
        }
    }

    pub fn mul_mod(m: Modulus, a: &mut [u64], b: &[u64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x = m.mul(*x, y);
        }
    }

    pub fn add_mul_mod(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        for ((d, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *d = m.add(*d, m.mul(x, y));
        }
    }

    pub fn add_mul_mod2(
        m: Modulus,
        acc0: &mut [u64],
        acc1: &mut [u64],
        x: &[u64],
        b: &[u64],
        a: &[u64],
    ) {
        for ((((d0, d1), &xv), &bv), &av) in
            acc0.iter_mut().zip(acc1.iter_mut()).zip(x).zip(b).zip(a)
        {
            *d0 = m.add(*d0, m.mul(xv, bv));
            *d1 = m.add(*d1, m.mul(xv, av));
        }
    }

    pub fn forward_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        for (u_ref, v_ref) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *u_ref;
            let v = mul_shoup(*v_ref, w, ws, p);
            let sum = u + v;
            *u_ref = if sum >= p { sum - p } else { sum };
            *v_ref = if u >= v { u - v } else { u + p - v };
        }
    }

    pub fn inverse_butterflies(p: u64, w: u64, ws: u64, lo: &mut [u64], hi: &mut [u64]) {
        for (u_ref, v_ref) in lo.iter_mut().zip(hi.iter_mut()) {
            let u = *u_ref;
            let v = *v_ref;
            let sum = u + v;
            *u_ref = if sum >= p { sum - p } else { sum };
            let diff = if u >= v { u - v } else { u + p - v };
            *v_ref = mul_shoup(diff, w, ws, p);
        }
    }

    pub fn mul_shoup_slice(p: u64, w: u64, ws: u64, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = mul_shoup(*x, w, ws, p);
        }
    }

    pub fn extract_digit(src: &[u64], shift: u32, mask: u64, dst: &mut [u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = (s >> shift) & mask;
        }
    }

    pub fn gather(src: &[u64], idx: &[u32], dst: &mut [u64]) {
        for (d, &i) in dst.iter_mut().zip(idx) {
            *d = src[i as usize];
        }
    }

    pub fn lift_centered(p: u64, t: u64, src: &[u64], dst: &mut [u64]) {
        let half = t / 2;
        let offset = p - t;
        for (d, &c) in dst.iter_mut().zip(src) {
            debug_assert!(c < t, "plaintext coefficient not reduced");
            *d = if c > half { offset + c } else { c };
        }
    }

    pub fn scale_combine(
        m: Modulus,
        delta: u64,
        delta_shoup: u64,
        plain: &[u64],
        rt: &[u64],
        out: &mut [u64],
    ) {
        let p = m.value();
        for ((o, &c), &r) in out.iter_mut().zip(plain).zip(rt) {
            *o = m.add(mul_shoup(c, delta, delta_shoup, p), r);
        }
    }
}

/// The lane trait, its three lane types, and each kernel's vector loop.
/// A body walks whole vectors and hands the remainder to [`scalar`]. It
/// and the trait methods carry no `target_feature` of their own: they
/// inline into the `kernels!` wrappers, which enable the features.
#[cfg(target_arch = "x86_64")]
mod vector {
    use super::{scalar, Modulus};
    use std::arch::x86_64::*;
    use std::marker::PhantomData;

    /// One vector of `u64` lanes and the operations the kernels need on
    /// it.
    ///
    /// # Safety
    ///
    /// Every method must run inside a `#[target_feature]` wrapper that
    /// enables the implementor's features. `load`/`store` need at least
    /// `LANES` elements; `gather` needs every index in bounds.
    pub(super) trait Lane {
        const LANES: usize;
        type V: Copy;
        unsafe fn load(s: &[u64]) -> Self::V;
        unsafe fn store(s: &mut [u64], v: Self::V);
        unsafe fn splat(x: u64) -> Self::V;
        unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn and(a: Self::V, b: Self::V) -> Self::V;
        unsafe fn or(a: Self::V, b: Self::V) -> Self::V;
        /// Logical shifts by a runtime count (`_mm_cvtsi32_si128(n)`).
        unsafe fn srl(a: Self::V, count: __m128i) -> Self::V;
        unsafe fn sll(a: Self::V, count: __m128i) -> Self::V;
        /// Conditional subtract: `x − p` where `x ≥ p` (unsigned), else `x`.
        unsafe fn csub(x: Self::V, p: Self::V) -> Self::V;
        /// Low 64 bits of the lane product (wrapping, as `wrapping_mul`).
        unsafe fn mul_lo(a: Self::V, b: Self::V) -> Self::V;
        /// `vpmuludq`: the product of the low 32 bits of each lane.
        unsafe fn mul_u32(a: Self::V, b: Self::V) -> Self::V;
        /// The exact 64×64→128 lane product as (low 64, high 64) halves.
        unsafe fn mul_lo_hi(a: Self::V, b: Self::V) -> (Self::V, Self::V);
        /// `src[idx[i]]` for the first `LANES` indices.
        unsafe fn gather(src: *const u64, idx: &[u32]) -> Self::V;
        /// `neg_mod`'s select: `p − x` where `x ≠ 0`, else `0`.
        unsafe fn neg_nonzero(x: Self::V, p: Self::V) -> Self::V;
        /// `lift_centered`'s select: `c + offset` where `c > half`
        /// (unsigned), else `c`.
        unsafe fn add_above(c: Self::V, half: Self::V, offset: Self::V) -> Self::V;
    }

    /// Trait methods whose body is one expression, so each lane type's
    /// impl reads as a table from trait op to intrinsic.
    macro_rules! lane_fns {
        ($($name:ident($($arg:ident: $ty:ty),*) = $body:expr;)*) => {$(
            #[inline(always)]
            unsafe fn $name($($arg: $ty),*) -> Self::V {
                $body
            }
        )*};
    }

    /// 4×64-bit lanes (`avx2`). No unsigned 64-bit compare exists at this
    /// width, so compares flip the sign bit and use `vpcmpgtq`.
    pub(super) enum Avx2 {}

    impl Lane for Avx2 {
        const LANES: usize = 4;
        type V = __m256i;

        lane_fns! {
            load(s: &[u64]) = _mm256_loadu_si256(s.as_ptr() as *const __m256i);
            splat(x: u64) = _mm256_set1_epi64x(x as i64);
            add(a: __m256i, b: __m256i) = _mm256_add_epi64(a, b);
            sub(a: __m256i, b: __m256i) = _mm256_sub_epi64(a, b);
            and(a: __m256i, b: __m256i) = _mm256_and_si256(a, b);
            or(a: __m256i, b: __m256i) = _mm256_or_si256(a, b);
            srl(a: __m256i, count: __m128i) = _mm256_srl_epi64(a, count);
            sll(a: __m256i, count: __m128i) = _mm256_sll_epi64(a, count);
            mul_u32(a: __m256i, b: __m256i) = _mm256_mul_epu32(a, b);
        }
        #[inline(always)]
        unsafe fn store(s: &mut [u64], v: __m256i) {
            _mm256_storeu_si256(s.as_mut_ptr() as *mut __m256i, v)
        }
        #[inline(always)]
        unsafe fn csub(x: __m256i, p: __m256i) -> __m256i {
            // `(p − 1) ^ SIGN` is loop-invariant; the compiler hoists it.
            let sign = _mm256_set1_epi64x(i64::MIN);
            let pm1s = _mm256_xor_si256(_mm256_sub_epi64(p, _mm256_set1_epi64x(1)), sign);
            let ge = _mm256_cmpgt_epi64(_mm256_xor_si256(x, sign), pm1s);
            _mm256_sub_epi64(x, _mm256_and_si256(p, ge))
        }
        #[inline(always)]
        unsafe fn mul_lo(a: __m256i, b: __m256i) -> __m256i {
            let ll = _mm256_mul_epu32(a, b);
            let lh = _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b));
            let hl = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b);
            _mm256_add_epi64(ll, _mm256_slli_epi64::<32>(_mm256_add_epi64(lh, hl)))
        }
        #[inline(always)]
        unsafe fn mul_lo_hi(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
            mul_lo_hi_u32::<Self>(a, b)
        }
        #[inline(always)]
        unsafe fn gather(src: *const u64, idx: &[u32]) -> __m256i {
            let iv = _mm_loadu_si128(idx.as_ptr() as *const __m128i);
            _mm256_i32gather_epi64::<8>(src as *const i64, iv)
        }
        #[inline(always)]
        unsafe fn neg_nonzero(x: __m256i, p: __m256i) -> __m256i {
            let zero = _mm256_cmpeq_epi64(x, _mm256_setzero_si256());
            _mm256_andnot_si256(zero, _mm256_sub_epi64(p, x))
        }
        #[inline(always)]
        unsafe fn add_above(c: __m256i, half: __m256i, offset: __m256i) -> __m256i {
            let sign = _mm256_set1_epi64x(i64::MIN);
            let gt = _mm256_cmpgt_epi64(_mm256_xor_si256(c, sign), _mm256_xor_si256(half, sign));
            _mm256_add_epi64(c, _mm256_and_si256(offset, gt))
        }
    }

    /// 8×64-bit lanes (`avx512f` + `avx512dq`): compares go to mask
    /// registers and the low product half is a native `vpmullq`. `P`
    /// picks the 128-bit product synthesis — the only difference between
    /// the two AVX-512 lane types.
    pub(super) struct Avx512<P>(PhantomData<P>);
    pub(super) type Avx512Dq = Avx512<Dq>;
    pub(super) type Avx512Ifma = Avx512<Ifma>;

    /// A 64×64→128 lane product synthesis for [`Avx512`].
    pub(super) trait Product512 {
        unsafe fn mul_lo_hi(a: __m512i, b: __m512i) -> (__m512i, __m512i);
    }

    /// The `vpmuludq` synthesis of [`Avx2`], with `vpmullq` for the low half.
    pub(super) enum Dq {}

    impl Product512 for Dq {
        #[inline(always)]
        unsafe fn mul_lo_hi(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
            (_mm512_mullo_epi64(a, b), mul_lo_hi_u32::<Avx512<Dq>>(a, b).1)
        }
    }

    /// IFMA `vpmadd52{lo,hi}` on 52-bit limbs — fewer µops where present.
    pub(super) enum Ifma {}

    impl Product512 for Ifma {
        /// With `a = a_lo + 2^52·a_hi` (`a_hi < 2^12`, ditto `b`):
        /// `a·b = ll + 2^52·cross + 2^104·hh`, where `vpmadd52lo/hi`
        /// deliver the 52-bit halves of `a_lo·b_lo` (`ll_lo`, `ll_hi`)
        /// and of the two cross products (accumulated: `cr_lo < 2^53`,
        /// `cr_hi < 2^13`). Writing `mid = ll_hi + cr_lo < 2^54`,
        /// `top = cr_hi + a_hi·b_hi`:
        ///
        /// * `lo = ll_lo + (mid << 52)` is exact (`ll_lo < 2^52`, no carry);
        /// * `hi = (mid >> 12) + (top << 40)` is exact because the full
        ///   product is `< 2^128`, forcing `top < 2^24`.
        #[inline(always)]
        unsafe fn mul_lo_hi(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
            let z = _mm512_setzero_si512();
            let a_hi = _mm512_srli_epi64::<52>(a);
            let b_hi = _mm512_srli_epi64::<52>(b);
            let ll_lo = _mm512_madd52lo_epu64(z, a, b);
            let ll_hi = _mm512_madd52hi_epu64(z, a, b);
            let cr_lo = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(z, a_hi, b), a, b_hi);
            let cr_hi = _mm512_madd52hi_epu64(_mm512_madd52hi_epu64(z, a_hi, b), a, b_hi);
            let hh = _mm512_mullo_epi64(a_hi, b_hi);
            let mid = _mm512_add_epi64(ll_hi, cr_lo);
            let top = _mm512_add_epi64(cr_hi, hh);
            let lo = _mm512_add_epi64(ll_lo, _mm512_slli_epi64::<52>(mid));
            let hi = _mm512_add_epi64(_mm512_srli_epi64::<12>(mid), _mm512_slli_epi64::<40>(top));
            (lo, hi)
        }
    }

    impl<P: Product512> Lane for Avx512<P> {
        const LANES: usize = 8;
        type V = __m512i;

        lane_fns! {
            load(s: &[u64]) = _mm512_loadu_epi64(s.as_ptr() as *const i64);
            splat(x: u64) = _mm512_set1_epi64(x as i64);
            add(a: __m512i, b: __m512i) = _mm512_add_epi64(a, b);
            sub(a: __m512i, b: __m512i) = _mm512_sub_epi64(a, b);
            and(a: __m512i, b: __m512i) = _mm512_and_si512(a, b);
            or(a: __m512i, b: __m512i) = _mm512_or_si512(a, b);
            srl(a: __m512i, count: __m128i) = _mm512_srl_epi64(a, count);
            sll(a: __m512i, count: __m128i) = _mm512_sll_epi64(a, count);
            csub(x: __m512i, p: __m512i) =
                _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, p), x, p);
            mul_lo(a: __m512i, b: __m512i) = _mm512_mullo_epi64(a, b);
            mul_u32(a: __m512i, b: __m512i) = _mm512_mul_epu32(a, b);
            gather(src: *const u64, idx: &[u32]) = _mm512_i32gather_epi64::<8>(
                _mm256_loadu_si256(idx.as_ptr() as *const __m256i),
                src as *const i64,
            );
            neg_nonzero(x: __m512i, p: __m512i) =
                _mm512_maskz_sub_epi64(_mm512_cmpneq_epi64_mask(x, _mm512_setzero_si512()), p, x);
            add_above(c: __m512i, half: __m512i, offset: __m512i) =
                _mm512_mask_add_epi64(c, _mm512_cmpgt_epu64_mask(c, half), c, offset);
        }
        #[inline(always)]
        unsafe fn store(s: &mut [u64], v: __m512i) {
            _mm512_storeu_epi64(s.as_mut_ptr() as *mut i64, v)
        }
        #[inline(always)]
        unsafe fn mul_lo_hi(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
            P::mul_lo_hi(a, b)
        }
    }

    /// The 64×64→128 product from four `vpmuludq` 32×32 partial products
    /// plus a cross-term carry. `cross < 3·2^32`, so its own carry lives in
    /// bits 32..34 and the three-way add cannot overflow a lane.
    #[inline(always)]
    unsafe fn mul_lo_hi_u32<L: Lane>(a: L::V, b: L::V) -> (L::V, L::V) {
        let (lomask, k32) = (L::splat(0xFFFF_FFFF), _mm_cvtsi32_si128(32));
        let (a_hi, b_hi) = (L::srl(a, k32), L::srl(b, k32));
        let (ll, lh) = (L::mul_u32(a, b), L::mul_u32(a, b_hi));
        let (hl, hh) = (L::mul_u32(a_hi, b), L::mul_u32(a_hi, b_hi));
        let cross = L::add(L::add(L::srl(ll, k32), L::and(lh, lomask)), L::and(hl, lomask));
        let hi = L::add(L::add(hh, L::srl(lh, k32)), L::add(L::srl(hl, k32), L::srl(cross, k32)));
        (L::or(L::sll(cross, k32), L::and(ll, lomask)), hi)
    }

    /// Shoup multiply by a broadcast constant; canonical result.
    #[inline(always)]
    unsafe fn mul_shoup<L: Lane>(x: L::V, w: L::V, ws: L::V, p: L::V) -> L::V {
        let (_, q) = L::mul_lo_hi(x, ws);
        L::csub(L::sub(L::mul_lo(x, w), L::mul_lo(q, p)), p)
    }

    /// Barrett lane constants for one modulus: reduces a full 128-bit
    /// lane product to the canonical residue, bit-identical to the scalar
    /// `u128 %`.
    struct Barrett<L: Lane> {
        p: L::V,
        mu: L::V,
        sh1: __m128i,
        sh1c: __m128i,
        sh2: __m128i,
        sh2c: __m128i,
    }

    impl<L: Lane> Barrett<L> {
        #[inline(always)]
        unsafe fn new(m: Modulus) -> Self {
            let bits = m.bits() as i32;
            Barrett {
                p: L::splat(m.value()),
                mu: L::splat(m.barrett_mu()),
                // q1 combines (lo >> (L−1)) | (hi << (64−(L−1))); q3 the
                // same with L+1. All four counts are in [1, 63] because
                // 2 ≤ p < 2^62.
                sh1: _mm_cvtsi32_si128(bits - 1),
                sh1c: _mm_cvtsi32_si128(64 - (bits - 1)),
                sh2: _mm_cvtsi32_si128(bits + 1),
                sh2c: _mm_cvtsi32_si128(64 - (bits + 1)),
            }
        }

        /// `a · b mod p`, fully reduced.
        ///
        /// With `L = bits(p)`: `q1 = floor(x / 2^(L−1))` fits 64 bits
        /// because `x < p² < 2^(2L)`; `q3 = floor(q1·mu / 2^(L+1))`
        /// satisfies `q3 ≤ floor(x/p) ≤ q3 + 2`, so the remainder after
        /// one low-64 subtraction sits in `[0, 3p)` (`3p < 2^64` since
        /// `p < 2^62`) and two conditional subtracts canonicalise it.
        #[inline(always)]
        unsafe fn mul_mod(&self, a: L::V, b: L::V) -> L::V {
            let (xlo, xhi) = L::mul_lo_hi(a, b);
            let q1 = L::or(L::srl(xlo, self.sh1), L::sll(xhi, self.sh1c));
            let (qlo, qhi) = L::mul_lo_hi(q1, self.mu);
            let q3 = L::or(L::srl(qlo, self.sh2), L::sll(qhi, self.sh2c));
            let r = L::sub(xlo, L::mul_lo(q3, self.p));
            L::csub(L::csub(r, self.p), self.p)
        }

        /// `(acc + a · b) mod p` for a canonical `acc`.
        #[inline(always)]
        unsafe fn add_mul(&self, acc: L::V, a: L::V, b: L::V) -> L::V {
            L::csub(L::add(acc, self.mul_mod(a, b)), self.p)
        }
    }

    #[inline(always)]
    pub(super) unsafe fn add_mod<L: Lane>(m: Modulus, a: &mut [u64], b: &[u64]) {
        let p = L::splat(m.value());
        let mut bs = b.chunks_exact(L::LANES);
        let mut av = a.chunks_exact_mut(L::LANES);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            L::store(x, L::csub(L::add(L::load(x), L::load(y)), p));
        }
        scalar::add_mod(m, av.into_remainder(), bs.remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn sub_mod<L: Lane>(m: Modulus, a: &mut [u64], b: &[u64]) {
        let p = L::splat(m.value());
        let mut bs = b.chunks_exact(L::LANES);
        let mut av = a.chunks_exact_mut(L::LANES);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            // a + p − b lands in (0, 2p); one csub matches both scalar
            // branches exactly.
            L::store(x, L::csub(L::sub(L::add(L::load(x), p), L::load(y)), p));
        }
        scalar::sub_mod(m, av.into_remainder(), bs.remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn neg_mod<L: Lane>(m: Modulus, a: &mut [u64]) {
        let p = L::splat(m.value());
        let mut av = a.chunks_exact_mut(L::LANES);
        for x in av.by_ref() {
            L::store(x, L::neg_nonzero(L::load(x), p));
        }
        scalar::neg_mod(m, av.into_remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn mul_mod<L: Lane>(m: Modulus, a: &mut [u64], b: &[u64]) {
        let barrett = Barrett::<L>::new(m);
        let mut bs = b.chunks_exact(L::LANES);
        let mut av = a.chunks_exact_mut(L::LANES);
        for (x, y) in av.by_ref().zip(bs.by_ref()) {
            L::store(x, barrett.mul_mod(L::load(x), L::load(y)));
        }
        scalar::mul_mod(m, av.into_remainder(), bs.remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn add_mul_mod<L: Lane>(m: Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let barrett = Barrett::<L>::new(m);
        let mut asl = a.chunks_exact(L::LANES);
        let mut bs = b.chunks_exact(L::LANES);
        let mut accv = acc.chunks_exact_mut(L::LANES);
        for ((d, x), y) in accv.by_ref().zip(asl.by_ref()).zip(bs.by_ref()) {
            L::store(d, barrett.add_mul(L::load(d), L::load(x), L::load(y)));
        }
        scalar::add_mul_mod(m, accv.into_remainder(), asl.remainder(), bs.remainder());
    }

    /// Fused dual accumulate: the digit chunk `x` is loaded once and
    /// multiplied against both key parts while in registers.
    #[inline(always)]
    pub(super) unsafe fn add_mul_mod2<L: Lane>(
        m: Modulus,
        acc0: &mut [u64],
        acc1: &mut [u64],
        x: &[u64],
        b: &[u64],
        a: &[u64],
    ) {
        let barrett = Barrett::<L>::new(m);
        let mut xs = x.chunks_exact(L::LANES);
        let mut bs = b.chunks_exact(L::LANES);
        let mut asl = a.chunks_exact(L::LANES);
        let mut a0 = acc0.chunks_exact_mut(L::LANES);
        let mut a1 = acc1.chunks_exact_mut(L::LANES);
        for ((((d0, d1), xv), bv), av) in
            a0.by_ref().zip(a1.by_ref()).zip(xs.by_ref()).zip(bs.by_ref()).zip(asl.by_ref())
        {
            let xc = L::load(xv);
            L::store(d0, barrett.add_mul(L::load(d0), xc, L::load(bv)));
            L::store(d1, barrett.add_mul(L::load(d1), xc, L::load(av)));
        }
        let (a0, a1) = (a0.into_remainder(), a1.into_remainder());
        scalar::add_mul_mod2(m, a0, a1, xs.remainder(), bs.remainder(), asl.remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn forward_butterflies<L: Lane>(
        p: u64,
        w: u64,
        ws: u64,
        lo: &mut [u64],
        hi: &mut [u64],
    ) {
        let (pv, wv, wsv) = (L::splat(p), L::splat(w), L::splat(ws));
        let mut los = lo.chunks_exact_mut(L::LANES);
        let mut his = hi.chunks_exact_mut(L::LANES);
        for (lc, hc) in los.by_ref().zip(his.by_ref()) {
            let u = L::load(lc);
            let v = mul_shoup::<L>(L::load(hc), wv, wsv, pv);
            L::store(lc, L::csub(L::add(u, v), pv));
            L::store(hc, L::csub(L::sub(L::add(u, pv), v), pv));
        }
        scalar::forward_butterflies(p, w, ws, los.into_remainder(), his.into_remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn inverse_butterflies<L: Lane>(
        p: u64,
        w: u64,
        ws: u64,
        lo: &mut [u64],
        hi: &mut [u64],
    ) {
        let (pv, wv, wsv) = (L::splat(p), L::splat(w), L::splat(ws));
        let mut los = lo.chunks_exact_mut(L::LANES);
        let mut his = hi.chunks_exact_mut(L::LANES);
        for (lc, hc) in los.by_ref().zip(his.by_ref()) {
            let u = L::load(lc);
            let v = L::load(hc);
            L::store(lc, L::csub(L::add(u, v), pv));
            let diff = L::csub(L::sub(L::add(u, pv), v), pv);
            L::store(hc, mul_shoup::<L>(diff, wv, wsv, pv));
        }
        scalar::inverse_butterflies(p, w, ws, los.into_remainder(), his.into_remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn mul_shoup_slice<L: Lane>(p: u64, w: u64, ws: u64, a: &mut [u64]) {
        let (pv, wv, wsv) = (L::splat(p), L::splat(w), L::splat(ws));
        let mut av = a.chunks_exact_mut(L::LANES);
        for x in av.by_ref() {
            L::store(x, mul_shoup::<L>(L::load(x), wv, wsv, pv));
        }
        scalar::mul_shoup_slice(p, w, ws, av.into_remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn extract_digit<L: Lane>(
        src: &[u64],
        shift: u32,
        mask: u64,
        dst: &mut [u64],
    ) {
        let count = _mm_cvtsi32_si128(shift as i32);
        let maskv = L::splat(mask);
        let mut ss = src.chunks_exact(L::LANES);
        let mut ds = dst.chunks_exact_mut(L::LANES);
        for (d, s) in ds.by_ref().zip(ss.by_ref()) {
            L::store(d, L::and(L::srl(L::load(s), count), maskv));
        }
        scalar::extract_digit(ss.remainder(), shift, mask, ds.into_remainder());
    }

    /// Relies on `super::gather`'s up-front index bounds check.
    #[inline(always)]
    pub(super) unsafe fn gather<L: Lane>(src: &[u64], idx: &[u32], dst: &mut [u64]) {
        let mut is = idx.chunks_exact(L::LANES);
        let mut ds = dst.chunks_exact_mut(L::LANES);
        for (d, i) in ds.by_ref().zip(is.by_ref()) {
            L::store(d, L::gather(src.as_ptr(), i));
        }
        scalar::gather(src, is.remainder(), ds.into_remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn lift_centered<L: Lane>(p: u64, t: u64, src: &[u64], dst: &mut [u64]) {
        let (half, offset) = (L::splat(t / 2), L::splat(p - t));
        let mut ss = src.chunks_exact(L::LANES);
        let mut ds = dst.chunks_exact_mut(L::LANES);
        for (d, s) in ds.by_ref().zip(ss.by_ref()) {
            L::store(d, L::add_above(L::load(s), half, offset));
        }
        scalar::lift_centered(p, t, ss.remainder(), ds.into_remainder());
    }

    #[inline(always)]
    pub(super) unsafe fn scale_combine<L: Lane>(
        m: Modulus,
        delta: u64,
        delta_shoup: u64,
        plain: &[u64],
        rt: &[u64],
        out: &mut [u64],
    ) {
        let (pv, wv, wsv) = (L::splat(m.value()), L::splat(delta), L::splat(delta_shoup));
        let mut ps = plain.chunks_exact(L::LANES);
        let mut rs = rt.chunks_exact(L::LANES);
        let mut os = out.chunks_exact_mut(L::LANES);
        for ((o, c), r) in os.by_ref().zip(ps.by_ref()).zip(rs.by_ref()) {
            let v = mul_shoup::<L>(L::load(c), wv, wsv, pv);
            L::store(o, L::csub(L::add(v, L::load(r)), pv));
        }
        let (ps, rs) = (ps.remainder(), rs.remainder());
        scalar::scale_combine(m, delta, delta_shoup, ps, rs, os.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn vecs(m: Modulus, len: usize, seed: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = |rng: &mut StdRng| (0..len).map(|_| rng.gen_range(0..m.value())).collect();
        (g(&mut rng), g(&mut rng), g(&mut rng))
    }

    /// Odd lengths exercise the scalar tail inside the vector kernels;
    /// 5 and 9 straddle the 4- and 8-lane minimums.
    const LENS: [usize; 6] = [1, 4, 5, 9, 31, 256];

    /// Small, medium and near-limit moduli (the last stresses the
    /// Barrett shift counts at `L = 62`).
    fn moduli() -> Vec<Modulus> {
        vec![
            Modulus::new(97),
            Modulus::new(65537),
            Modulus::new(1032193),
            Modulus::new((1u64 << 50) + 4097),
            Modulus::new((1u64 << 62) - 57), // not prime; kernels don't care
        ]
    }

    /// The vector tiers this CPU can actually run (testing an
    /// unsupported tier would silently degrade — vacuous, not wrong).
    fn vector_tiers() -> Vec<SimdLevel> {
        let mut tiers = Vec::new();
        if avx2_available() {
            tiers.push(SimdLevel::Avx2);
        }
        if avx512_available() {
            tiers.push(SimdLevel::Avx512);
        }
        tiers
    }

    #[test]
    fn vector_tiers_match_scalar_on_all_kernels() {
        for tier in vector_tiers() {
            for m in moduli() {
                for len in LENS {
                    let (a, b, c) = vecs(m, len, 0xC0FFEE ^ m.value() ^ len as u64);
                    let check = |name: &str, f: &dyn Fn(&mut [u64], SimdLevel)| {
                        let mut s = a.clone();
                        let mut v = a.clone();
                        f(&mut s, SimdLevel::Scalar);
                        f(&mut v, tier);
                        assert_eq!(
                            s,
                            v,
                            "{name} diverged (tier={}, p={}, len={len})",
                            tier.name(),
                            m.value()
                        );
                    };
                    check("add", &|x, l| add_mod(m, x, &b, l));
                    check("sub", &|x, l| sub_mod(m, x, &b, l));
                    check("neg", &|x, l| neg_mod(m, x, l));
                    check("mul", &|x, l| mul_mod(m, x, &b, l));
                    check("add_mul", &|x, l| add_mul_mod(m, x, &b, &c, l));
                    let p = m.value();
                    let w = b[0] % p;
                    let ws = (((w as u128) << 64) / p as u128) as u64;
                    check("mul_shoup_slice", &|x, l| mul_shoup_slice(p, w, ws, x, l));
                    check("scale_combine", &|x, l| {
                        let src = x.to_vec();
                        scale_combine(m, w, ws, &src, &c, x, l)
                    });
                    let shift = (m.value() % 23) as u32;
                    let mask = (1u64 << 16) - 1;
                    check("extract_digit", &|x, l| {
                        let src = x.to_vec();
                        extract_digit(&src, shift, mask, x, l)
                    });
                    let idx: Vec<u32> = (0..len as u32).rev().collect();
                    check("gather", &|x, l| {
                        let src = x.to_vec();
                        gather(&src, &idx, x, l)
                    });
                    type PairKernel<'f> = &'f dyn Fn(&mut [u64], &mut [u64], SimdLevel);
                    let check2 = |name: &str, f: PairKernel<'_>| {
                        let (mut sl, mut sh) = (a.clone(), b.clone());
                        let (mut vl, mut vh) = (a.clone(), b.clone());
                        f(&mut sl, &mut sh, SimdLevel::Scalar);
                        f(&mut vl, &mut vh, tier);
                        assert_eq!(
                            (sl, sh),
                            (vl, vh),
                            "{name} diverged (tier={}, p={}, len={len})",
                            tier.name(),
                            m.value()
                        );
                    };
                    check2("fwd_bfly", &|l0, h0, l| forward_butterflies(p, w, ws, l0, h0, l));
                    check2("inv_bfly", &|l0, h0, l| inverse_butterflies(p, w, ws, l0, h0, l));
                    check2("add_mul2", &|a0, a1, l| add_mul_mod2(m, a0, a1, &a, &b, &c, l));
                }
            }
        }
    }

    /// The fused dual accumulate must equal two independent single
    /// accumulates — at every tier (this is what lets `key_switch` fuse
    /// its two sweeps without changing bytes).
    #[test]
    fn fused_accumulate_equals_two_passes() {
        for m in moduli() {
            for len in LENS {
                let (x, b, a) = vecs(m, len, 0xFACE ^ m.value());
                let (acc0_init, acc1_init, _) = vecs(m, len, 0xBEEF ^ len as u64);
                let mut want0 = acc0_init.clone();
                let mut want1 = acc1_init.clone();
                add_mul_mod(m, &mut want0, &x, &b, SimdLevel::Scalar);
                add_mul_mod(m, &mut want1, &x, &a, SimdLevel::Scalar);
                for tier in
                    [SimdLevel::Scalar].into_iter().chain(vector_tiers())
                {
                    let mut acc0 = acc0_init.clone();
                    let mut acc1 = acc1_init.clone();
                    let mut limbs = [KsLimb {
                        m,
                        acc0: &mut acc0,
                        acc1: &mut acc1,
                        x: &x,
                        b: &b,
                        a: &a,
                    }];
                    ks_accumulate(&mut limbs, tier);
                    assert_eq!(acc0, want0, "acc0 diverged (tier={})", tier.name());
                    assert_eq!(acc1, want1, "acc1 diverged (tier={})", tier.name());
                }
            }
        }
    }

    /// The lift/scale kernels' scalar references must match the original
    /// formulas they replaced (`to_signed`/`from_signed` round trip; full
    /// `u128` reduction).
    #[test]
    fn conversion_kernels_match_original_formulas() {
        let mut rng = StdRng::seed_from_u64(0x51D);
        for m in moduli() {
            let p = m.value();
            let t_candidates = [2u64, 97, 65537, p / 2 + 1, p - 1];
            for &tv in t_candidates.iter().filter(|&&tv| (2..p).contains(&tv)) {
                let t = Modulus::new(tv);
                let src: Vec<u64> = (0..64)
                    .map(|i| match i {
                        0 => 0,
                        1 => tv - 1,
                        2 => tv / 2,
                        3 => (tv / 2).saturating_add(1).min(tv - 1),
                        _ => rng.gen_range(0..tv),
                    })
                    .collect();
                let mut got = vec![0u64; src.len()];
                lift_centered(p, tv, &src, &mut got, SimdLevel::Scalar);
                let want: Vec<u64> =
                    src.iter().map(|&c| m.from_signed(t.to_signed(c))).collect();
                assert_eq!(got, want, "lift_centered != from_signed∘to_signed (p={p}, t={tv})");

                let delta = rng.gen_range(0..p);
                let ds = (((delta as u128) << 64) / p as u128) as u64;
                let rt: Vec<u64> = src.iter().map(|&c| c % tv).collect();
                let mut out = vec![0u64; src.len()];
                scale_combine(m, delta, ds, &src, &rt, &mut out, SimdLevel::Scalar);
                let want: Vec<u64> = src
                    .iter()
                    .zip(&rt)
                    .map(|(&c, &r)| m.reduce_u128(delta as u128 * c as u128 + r as u128))
                    .collect();
                assert_eq!(out, want, "scale_combine != u128 reduction (p={p})");
            }
        }
    }

    #[test]
    fn policy_parses_tier_names_and_rejects_typos() {
        for (s, want) in [
            ("scalar", SimdPolicy::Scalar),
            ("0", SimdPolicy::Scalar),
            ("off", SimdPolicy::Scalar),
            ("OFF", SimdPolicy::Scalar),
            ("auto", SimdPolicy::Auto),
            ("1", SimdPolicy::Auto),
            ("on", SimdPolicy::Auto),
            ("avx2", SimdPolicy::Avx2),
            ("AVX2", SimdPolicy::Avx2),
            ("avx512", SimdPolicy::Avx512),
            (" avx512 ", SimdPolicy::Avx512),
        ] {
            assert_eq!(SimdPolicy::parse(s), Ok(want), "parse({s:?})");
        }
        for bad in ["axv512", "avx", "2", "scalar512", "avx-512", ""] {
            assert_eq!(SimdPolicy::parse(bad), Err(bad.to_string()), "parse({bad:?})");
        }
    }

    /// Requested tiers beyond CPU support degrade (never UB), and the
    /// degradation order is 512 → 2 → scalar.
    #[test]
    fn policy_degrades_to_cpu_support() {
        assert_eq!(SimdPolicy::Scalar.level(), SimdLevel::Scalar);
        let best = SimdPolicy::Auto.level();
        match best {
            SimdLevel::Avx512 => assert!(avx512_available()),
            SimdLevel::Avx2 => assert!(avx2_available() && !avx512_available()),
            SimdLevel::Scalar => assert!(!avx2_available()),
        }
        assert_eq!(SimdPolicy::Avx512.level(), best, "avx512 request = best tier");
        let capped = SimdPolicy::Avx2.level();
        assert!(capped != SimdLevel::Avx512, "avx2 request must cap below 512");
        assert_eq!(capped == SimdLevel::Avx2, avx2_available());
    }

    #[test]
    fn forced_scalar_override() {
        std::env::set_var("PRIMER_SIMD", "0");
        assert_eq!(level(), SimdLevel::Scalar);
        std::env::set_var("PRIMER_SIMD", "off");
        assert_eq!(level(), SimdLevel::Scalar);
        std::env::set_var("PRIMER_SIMD", "1");
        let auto = level();
        std::env::remove_var("PRIMER_SIMD");
        assert_eq!(auto, level(), "legacy \"1\" must mean auto-detect");
        assert_eq!(auto, SimdPolicy::Auto.level());
    }

    #[test]
    fn boundary_values_reduce_canonically() {
        // p−1 in every lane is the worst case for every csub chain.
        for tier in vector_tiers() {
            for m in moduli() {
                let top = m.value() - 1;
                let mut a = vec![top; 16];
                let b = vec![top; 16];
                let want: Vec<u64> = a.iter().map(|&x| m.mul(x, top)).collect();
                mul_mod(m, &mut a, &b, tier);
                assert_eq!(a, want, "tier={}", tier.name());
                let mut s = vec![top; 16];
                add_mod(m, &mut s, &b, SimdLevel::Scalar);
                let mut v = vec![top; 16];
                add_mod(m, &mut v, &b, tier);
                assert_eq!(s, v, "tier={}", tier.name());
            }
        }
    }

    /// Every profile's RNS primes and plaintext modulus.
    fn profile_moduli() -> Vec<Modulus> {
        use crate::params::HeParams;
        let mut values: Vec<u64> =
            [HeParams::toy(), HeParams::test_2k(), HeParams::test_2k_wide(), HeParams::paper_8k()]
                .iter()
                .flat_map(|params| params.moduli().iter().copied().chain([params.t()]))
                .collect();
        values.sort_unstable();
        values.dedup();
        values.into_iter().map(Modulus::new).collect()
    }

    /// The product kernels at both AVX-512 lane types, pinned directly:
    /// `Body::pick` prefers IFMA wherever the CPU has it, so on an IFMA
    /// host nothing else runs the DQ body — yet it is the only AVX-512
    /// body on Skylake-X and Cascade Lake.
    #[test]
    fn product_kernels_match_scalar_at_dq_and_ifma() {
        let mut bodies = Vec::new();
        if avx512_available() {
            bodies.push(Body::Avx512Dq);
        } else {
            eprintln!("note: host lacks AVX-512 (F+DQ) — skipping the Avx512Dq body");
        }
        if ifma_available() {
            bodies.push(Body::Avx512Ifma);
        } else {
            eprintln!("note: host lacks AVX-512 IFMA — skipping the Avx512Ifma body");
        }
        for m in profile_moduli() {
            let p = m.value();
            for len in (0..=17).chain([2048]) {
                let (mut a, mut b, c) = vecs(m, len, p ^ len as u64);
                // The boundary residues 0 and p − 1, against each other
                // and against random values, in every lane position.
                for i in 0..len {
                    match i % 4 {
                        1 => (a[i], b[i]) = (p - 1, p - 1),
                        2 => a[i] = 0,
                        3 => (a[i], b[i]) = (p - 1, 0),
                        _ => {}
                    }
                }
                for w in [p - 1, p / 3 + 1] {
                    let ws = (((w as u128) << 64) / p as u128) as u64;
                    let run = |body: Body| {
                        let mut mul = a.clone();
                        let mut fma = c.clone();
                        let (mut fma0, mut fma1) = (c.clone(), b.clone());
                        let (mut flo, mut fhi) = (a.clone(), b.clone());
                        let (mut ilo, mut ihi) = (a.clone(), b.clone());
                        let mut shoup = a.clone();
                        let mut scale = vec![0; len];
                        // SAFETY: every vector body run here passed its CPU
                        // check above; the scalar body needs none.
                        unsafe {
                            on::mul_mod(body, m, &mut mul, &b);
                            on::add_mul_mod(body, m, &mut fma, &a, &b);
                            on::add_mul_mod2(body, m, &mut fma0, &mut fma1, &a, &b, &c);
                            on::forward_butterflies(body, p, w, ws, &mut flo, &mut fhi);
                            on::inverse_butterflies(body, p, w, ws, &mut ilo, &mut ihi);
                            on::mul_shoup_slice(body, p, w, ws, &mut shoup);
                            on::scale_combine(body, m, w, ws, &a, &c, &mut scale);
                        }
                        (mul, fma, fma0, fma1, flo, fhi, ilo, ihi, shoup, scale)
                    };
                    let want = run(Body::Scalar);
                    for &body in &bodies {
                        assert!(run(body) == want, "{body:?} diverged (p={p}, len={len}, w={w})");
                    }
                }
            }
        }
    }
}
