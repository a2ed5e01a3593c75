//! Secret keys, key-switching keys, Galois keys, relinearization keys.

use crate::context::HeContext;
use crate::error::HeError;
use crate::galois;
use crate::poly::RnsPoly;
use primer_math::codec::{put_u32, put_u64, Rdr};
use rand::Rng;
use std::collections::HashMap;

/// The ternary secret key, kept in both NTT and coefficient form (the
/// latter is needed to derive `s(x^g)` for Galois key generation), plus a
/// cached `s²` for decrypting unrelinearized ciphertexts.
#[derive(Debug, Clone)]
pub struct SecretKey {
    s_ntt: RnsPoly,
    s_coeff: RnsPoly,
    s2_ntt: RnsPoly,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn random<R: Rng + ?Sized>(ctx: &HeContext, rng: &mut R) -> Self {
        let s_coeff = RnsPoly::ternary(ctx, rng);
        let mut s_ntt = s_coeff.clone();
        s_ntt.to_ntt(ctx);
        let mut s2_ntt = s_ntt.clone();
        let s_copy = s_ntt.clone();
        s2_ntt.mul_pointwise_assign(ctx, &s_copy);
        Self { s_ntt, s_coeff, s2_ntt }
    }

    /// `s` in NTT form.
    pub(crate) fn s_ntt(&self) -> &RnsPoly {
        &self.s_ntt
    }

    /// `s` in coefficient form.
    pub(crate) fn s_coeff(&self) -> &RnsPoly {
        &self.s_coeff
    }

    /// `s²` in NTT form.
    pub(crate) fn s2_ntt(&self) -> &RnsPoly {
        &self.s2_ntt
    }
}

/// A key-switching key from some source secret `s_old` to the canonical
/// secret `s`, with per-prime digit decomposition.
#[derive(Debug, Clone)]
pub struct KskKey {
    /// `parts[i][j]` = (b, a) for source prime `i`, digit `j`, both NTT.
    parts: Vec<Vec<(RnsPoly, RnsPoly)>>,
    digit_bits: u32,
}

impl KskKey {
    /// Generates a key switching `s_old → s`.
    pub(crate) fn generate<R: Rng + ?Sized>(
        ctx: &HeContext,
        sk: &SecretKey,
        s_old_ntt: &RnsPoly,
        rng: &mut R,
    ) -> Self {
        let w = ctx.params().decomp_bits();
        let sigma = ctx.params().sigma();
        let mut parts = Vec::with_capacity(ctx.num_primes());
        for (i, mi) in ctx.moduli().iter().enumerate() {
            let digits = digits_for_prime(mi.value(), w);
            let mut prime_parts = Vec::with_capacity(digits as usize);
            for j in 0..digits {
                let mut a = RnsPoly::uniform(ctx, rng);
                a.to_ntt(ctx);
                let mut b = RnsPoly::gaussian(ctx, sigma, rng);
                b.to_ntt(ctx);
                // b = e - a·s  (+ B^j·s_old at prime i only)
                let mut a_s = a.clone();
                a_s.mul_pointwise_assign(ctx, sk.s_ntt());
                b.sub_assign(ctx, &a_s);
                let factor = mi.reduce_u128(1u128 << (j * w));
                let n = ctx.n();
                for k in 0..n {
                    let add = mi.mul(factor, s_old_ntt.residues(i)[k]);
                    b.residues_mut(i)[k] = mi.add(b.residues(i)[k], add);
                }
                prime_parts.push((b, a));
            }
            parts.push(prime_parts);
        }
        Self { parts, digit_bits: w }
    }

    /// `(b, a)` for source prime `i`, digit `j`.
    pub(crate) fn part(&self, i: usize, j: usize) -> &(RnsPoly, RnsPoly) {
        &self.parts[i][j]
    }

    /// Digit count for source prime `i`.
    pub(crate) fn digits(&self, i: usize) -> usize {
        self.parts[i].len()
    }

    /// Digit width in bits.
    pub(crate) fn digit_bits(&self) -> u32 {
        self.digit_bits
    }

    /// Wire size in bytes (matches [`KskKey::write`] exactly).
    pub fn serialized_size(&self) -> usize {
        2 + self
            .parts
            .iter()
            .map(|pp| {
                1 + pp
                    .iter()
                    .map(|(b, a)| b.serialized_size() + a.serialized_size())
                    .sum::<usize>()
            })
            .sum::<usize>()
    }

    /// Appends the wire encoding to `out`.
    fn write(&self, out: &mut Vec<u8>) {
        out.push(self.digit_bits as u8);
        out.push(self.parts.len() as u8);
        for prime_parts in &self.parts {
            out.push(prime_parts.len() as u8);
            for (b, a) in prime_parts {
                b.write(out);
                a.write(out);
            }
        }
    }

    /// Reads a key written by [`KskKey::write`].
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on truncated or structurally invalid
    /// input — key material arrives over the network during session
    /// Setup, so this path must never panic on attacker-shaped bytes.
    fn read(ctx: &HeContext, r: &mut Rdr) -> Result<Self, HeError> {
        let [digit_bits, n_primes] = r.array("ksk header")?;
        let digit_bits = u32::from(digit_bits);
        // The digit width is fixed by the parameter set; a key with any
        // other width would pass Setup and then index out of bounds (or
        // silently compute garbage) during the first hoisted key switch.
        if digit_bits != ctx.params().decomp_bits() {
            return Err(HeError::Malformed { what: "ksk digit width" });
        }
        if usize::from(n_primes) != ctx.num_primes() {
            return Err(HeError::Malformed { what: "ksk prime count" });
        }
        let mut parts = Vec::with_capacity(ctx.num_primes());
        for m in ctx.moduli() {
            let digits = usize::from(r.u8("ksk digit count")?);
            // The digit count is fully determined by (prime, width);
            // anything else is a forgery or corruption.
            if digits != digits_for_prime(m.value(), digit_bits) as usize {
                return Err(HeError::Malformed { what: "ksk digit count" });
            }
            let prime_parts = (0..digits)
                .map(|_| Ok((RnsPoly::read(ctx, r)?, RnsPoly::read(ctx, r)?)))
                .collect::<Result<_, HeError>>()?;
            parts.push(prime_parts);
        }
        Ok(Self { parts, digit_bits })
    }
}

/// Number of base-`2^w` digits needed to cover residues mod `q`.
pub(crate) fn digits_for_prime(q: u64, w: u32) -> u32 {
    let bits = 64 - (q - 1).leading_zeros();
    bits.div_ceil(w)
}

/// Galois keys for a set of rotation steps (plus, optionally, the
/// column-swap element).
#[derive(Debug, Clone)]
pub struct GaloisKeys {
    /// galois element → key.
    keys: HashMap<u64, KskKey>,
    /// Row steps directly covered by a dedicated key.
    steps: Vec<usize>,
    columns: bool,
}

impl GaloisKeys {
    pub(crate) fn new(keys: HashMap<u64, KskKey>, steps: Vec<usize>, columns: bool) -> Self {
        Self { keys, steps, columns }
    }

    /// The key for a galois element, if present.
    pub(crate) fn key_for(&self, element: u64) -> Option<&KskKey> {
        self.keys.get(&element)
    }

    /// Row-rotation steps with dedicated keys.
    pub fn steps(&self) -> &[usize] {
        &self.steps
    }

    /// Whether the column-swap key is present.
    pub fn has_columns(&self) -> bool {
        self.columns
    }

    /// Wire size in bytes (these keys travel client → server once per
    /// session, during Setup). Matches [`GaloisKeys::write`] exactly.
    pub fn serialized_size(&self) -> usize {
        1 + 4
            + 4 * self.steps.len()
            + 4
            + self.keys.values().map(|k| 8 + k.serialized_size()).sum::<usize>()
    }

    /// Appends the wire encoding to `out`. Keys are written in ascending
    /// galois element order so the encoding is deterministic (the
    /// backing map is unordered).
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.columns));
        put_u32(out, self.steps.len() as u32);
        for &s in &self.steps {
            put_u32(out, s as u32);
        }
        let mut elements: Vec<u64> = self.keys.keys().copied().collect();
        elements.sort_unstable();
        put_u32(out, elements.len() as u32);
        for e in elements {
            put_u64(out, e);
            self.keys[&e].write(out);
        }
    }

    /// Reads keys written by [`GaloisKeys::write`].
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on truncated, oversized or structurally
    /// invalid input. This is the first network flight a serving worker
    /// decodes, so a garbage handshake must surface as an error, not a
    /// panic.
    pub fn read(ctx: &HeContext, r: &mut Rdr) -> Result<Self, HeError> {
        let columns = r.u8("galois key header")? == 1;
        let n_steps = r.u32("galois key header")? as usize;
        // A step list longer than the distinct rotations of the ring is
        // nonsense; bound it before allocating anything.
        if n_steps > ctx.n() {
            return Err(HeError::Malformed { what: "galois step count" });
        }
        let steps = (0..n_steps)
            .map(|_| Ok(r.u32("galois key header")? as usize))
            .collect::<Result<_, HeError>>()?;
        let n_keys = r.u32("galois key header")? as usize;
        if n_keys > 2 * ctx.n() {
            return Err(HeError::Malformed { what: "galois key count" });
        }
        let mut keys = HashMap::with_capacity(n_keys);
        for _ in 0..n_keys {
            let element = r.u64("galois element")?;
            keys.insert(element, KskKey::read(ctx, r)?);
        }
        Ok(Self { keys, steps, columns })
    }
}

/// Relinearization key (`s² → s`), used only by the THE-X baseline.
#[derive(Debug, Clone)]
pub struct RelinKey(pub(crate) KskKey);

impl RelinKey {
    /// Wire size in bytes.
    pub fn serialized_size(&self) -> usize {
        self.0.serialized_size()
    }
}

/// Generates all key material for one party.
#[derive(Debug)]
pub struct KeyGenerator {
    ctx: HeContext,
    sk: SecretKey,
}

impl KeyGenerator {
    /// Samples a fresh secret key.
    pub fn new<R: Rng + ?Sized>(ctx: &HeContext, rng: &mut R) -> Self {
        Self { ctx: ctx.clone(), sk: SecretKey::random(ctx, rng) }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Generates Galois keys for the given row steps (each normalized into
    /// `1..n/2`) and optionally the column swap.
    ///
    /// # Panics
    ///
    /// Panics if any step normalizes to 0.
    pub fn galois_keys<R: Rng + ?Sized>(
        &self,
        steps: &[usize],
        columns: bool,
        rng: &mut R,
    ) -> GaloisKeys {
        let n = self.ctx.n();
        let mut keys = HashMap::new();
        let mut kept = Vec::new();
        for &step in steps {
            let s = step % (n / 2);
            assert!(s != 0, "rotation step must be non-zero mod n/2");
            let element = galois::element_for_row_step(n, s);
            if keys.contains_key(&element) {
                continue;
            }
            keys.insert(element, self.make_key_for_element(element, rng));
            kept.push(s);
        }
        if columns {
            let element = galois::element_for_columns(n);
            keys.insert(element, self.make_key_for_element(element, rng));
        }
        GaloisKeys::new(keys, kept, columns)
    }

    /// Convenience: keys for all power-of-two steps (enough to compose any
    /// rotation) plus optional extra dedicated strides.
    pub fn galois_keys_pow2<R: Rng + ?Sized>(
        &self,
        extra_steps: &[usize],
        columns: bool,
        rng: &mut R,
    ) -> GaloisKeys {
        let n = self.ctx.n();
        let mut steps: Vec<usize> = (0..).map(|k| 1usize << k).take_while(|&s| s < n / 2).collect();
        for &e in extra_steps {
            let s = e % (n / 2);
            if s != 0 && !steps.contains(&s) {
                steps.push(s);
            }
        }
        self.galois_keys(&steps, columns, rng)
    }

    /// Relinearization key for the THE-X baseline.
    pub fn relin_key<R: Rng + ?Sized>(&self, rng: &mut R) -> RelinKey {
        RelinKey(KskKey::generate(&self.ctx, &self.sk, self.sk.s2_ntt(), rng))
    }

    fn make_key_for_element<R: Rng + ?Sized>(&self, element: u64, rng: &mut R) -> KskKey {
        // Target secret: s(x^element).
        let mut s_g = self.sk.s_coeff().apply_automorphism(&self.ctx, element);
        s_g.to_ntt(&self.ctx);
        KskKey::generate(&self.ctx, &self.sk, &s_g, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HeParams;
    use primer_math::codec::decode;
    use primer_math::rng::seeded;

    #[test]
    fn digit_counts() {
        assert_eq!(digits_for_prime((1 << 17) + 1, 16), 2);
        assert_eq!(digits_for_prime((1 << 59) - 1, 20), 3);
    }

    #[test]
    fn galois_keys_dedupe_steps() {
        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(31);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1, 1, 2], false, &mut rng);
        assert_eq!(gk.steps(), &[1, 2]);
        assert!(!gk.has_columns());
    }

    #[test]
    fn pow2_covers_log_range() {
        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(32);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys_pow2(&[30], true, &mut rng);
        // n/2 = 512 → steps 1..=256 are powers of two, plus stride 30.
        assert!(gk.steps().contains(&256));
        assert!(gk.steps().contains(&30));
        assert!(gk.has_columns());
    }

    fn to_bytes(gk: &GaloisKeys) -> Vec<u8> {
        let mut out = Vec::new();
        gk.write(&mut out);
        out
    }

    fn from_bytes(ctx: &HeContext, bytes: &[u8]) -> Result<GaloisKeys, HeError> {
        decode(bytes, |r| GaloisKeys::read(ctx, r))
    }

    #[test]
    fn galois_keys_roundtrip_through_bytes() {
        use crate::encoder::BatchEncoder;
        use crate::encryptor::Encryptor;
        use crate::eval::Evaluator;

        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(34);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1, 4], true, &mut rng);
        let bytes = to_bytes(&gk);
        assert_eq!(bytes.len(), gk.serialized_size());
        let back = from_bytes(&ctx, &bytes).expect("well-formed keys");
        assert_eq!(back.steps(), gk.steps());
        assert!(back.has_columns());
        assert_eq!(to_bytes(&back), bytes, "re-serialization must be stable");

        // The deserialized keys must actually rotate: a fresh evaluator
        // using only `back` produces the same slots as the original keys.
        let encoder = BatchEncoder::new(&ctx);
        let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 35);
        let eval = Evaluator::new(&ctx);
        let vals: Vec<u64> = (0..encoder.row_size() as u64).collect();
        let ct = encryptor.encrypt(&encoder.encode(&vals));
        let with_orig = eval.rotate_rows(&ct, 4, &gk).expect("orig keys");
        let with_back = eval.rotate_rows(&ct, 4, &back).expect("deserialized keys");
        assert_eq!(
            encoder.decode(&encryptor.decrypt(&with_orig)),
            encoder.decode(&encryptor.decrypt(&with_back)),
        );
    }

    #[test]
    fn malformed_key_bytes_are_errors_not_panics() {
        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(36);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1], false, &mut rng);
        let bytes = to_bytes(&gk);
        // Truncation anywhere (header, step list, mid-poly, last byte).
        for cut in [0usize, 3, 5, 17, bytes.len() / 3, bytes.len() - 1] {
            assert!(
                from_bytes(&ctx, &bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail to decode"
            );
        }
        // Trailing garbage is rejected (exact-length framing).
        let mut long = bytes.clone();
        long.push(0);
        assert!(from_bytes(&ctx, &long).is_err());
        // Absurd step count cannot trigger a huge allocation or panic.
        let mut bad = bytes.clone();
        bad[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_bytes(&ctx, &bad).is_err());
        // A residue at or above its prime: the first residue of the one
        // key's first polynomial, after the 13-byte header and step
        // list, the 8-byte element, the 3 key header bytes and the
        // 2-byte poly header.
        let mut bad = bytes.clone();
        bad[26..34].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(from_bytes(&ctx, &bad).err(), Some(HeError::Malformed { what: "poly residue" }));
        // That polynomial's form byte: coefficient form, or no form at all.
        for (form, what) in [(0, "poly not in NTT form"), (2, "poly form")] {
            let mut bad = bytes.clone();
            bad[24] = form;
            assert_eq!(from_bytes(&ctx, &bad).err(), Some(HeError::Malformed { what }), "{form}");
        }
    }

    #[test]
    fn key_sizes_are_substantial() {
        let ctx = HeContext::new(HeParams::toy());
        let mut rng = seeded(33);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let gk = kg.galois_keys(&[1], false, &mut rng);
        // 1 element × (1 prime × 4 digits) × 2 polys × 1024 coeffs × 8B.
        assert!(gk.serialized_size() > 4 * 2 * 1024 * 8);
    }
}
