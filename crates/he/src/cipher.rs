//! Plaintext and ciphertext containers with wire serialization.

use crate::context::HeContext;
use crate::error::HeError;
use crate::poly::RnsPoly;
use primer_math::codec::Rdr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A batched plaintext: polynomial coefficients mod `t` (coefficient form).
///
/// Produced by [`crate::encoder::BatchEncoder::encode`]; consumed by
/// encryption, plaintext addition and (after preparation) plaintext
/// multiplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
}

impl Plaintext {
    /// Wraps raw coefficients (values reduced mod `t`).
    pub(crate) fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Self { coeffs }
    }

    /// Polynomial coefficients mod `t`.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Serialized size in bytes.
    pub fn serialized_size(&self) -> usize {
        8 + self.coeffs.len() * 8
    }
}

/// A ciphertext: 2 (or 3, before relinearization) polynomials in NTT form.
///
/// Fresh symmetric ciphertexts carry the 32-byte PRG seed that generated
/// their uniform part, so they serialize to roughly half the size (the
/// standard Gazelle-style upload compression); any homomorphic operation
/// clears the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    parts: Vec<RnsPoly>,
    seed: Option<[u8; 32]>,
}

impl Ciphertext {
    pub(crate) fn new(parts: Vec<RnsPoly>, seed: Option<[u8; 32]>) -> Self {
        debug_assert!(parts.len() == 2 || parts.len() == 3);
        Self { parts, seed }
    }

    /// Regenerates the uniform part `a` from a seed (shared by encryption
    /// and deserialization so both sides derive the identical polynomial).
    pub(crate) fn a_from_seed(ctx: &HeContext, seed: &[u8; 32]) -> RnsPoly {
        let mut rng = StdRng::from_seed(*seed);
        let mut a = RnsPoly::uniform(ctx, &mut rng);
        a.to_ntt(ctx);
        a
    }

    /// Number of polynomial parts (2, or 3 after a ct–ct multiply).
    pub fn size(&self) -> usize {
        self.parts.len()
    }

    /// Borrow of part `i`.
    pub fn part(&self, i: usize) -> &RnsPoly {
        &self.parts[i]
    }

    pub(crate) fn part_mut(&mut self, i: usize) -> &mut RnsPoly {
        self.seed = None;
        &mut self.parts[i]
    }

    /// Whether this ciphertext still qualifies for seed compression.
    pub fn is_seed_compressible(&self) -> bool {
        self.seed.is_some()
    }

    /// Wire size in bytes. Fresh symmetric ciphertexts replace the random
    /// part with their 32-byte seed.
    pub fn serialized_size(&self) -> usize {
        let header = 2;
        if self.seed.is_some() {
            header + self.parts[0].serialized_size() + 32
        } else {
            header + self.parts.iter().map(RnsPoly::serialized_size).sum::<usize>()
        }
    }

    /// Appends the wire encoding to `out` ([`Ciphertext::serialized_size`]
    /// bytes).
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.seed.is_some()));
        out.push(self.parts.len() as u8);
        match &self.seed {
            Some(seed) => {
                self.parts[0].write(out);
                out.extend_from_slice(seed);
            }
            None => self.parts.iter().for_each(|p| p.write(out)),
        }
    }

    /// Reads a ciphertext written by [`Ciphertext::write`].
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on truncated or structurally invalid bytes
    /// (network-facing: a garbage flight must not crash the receiver).
    pub fn read(ctx: &HeContext, r: &mut Rdr) -> Result<Self, HeError> {
        let [seeded, n_parts] = r.array("ciphertext header")?;
        if seeded == 1 {
            if n_parts != 2 {
                return Err(HeError::Malformed { what: "seeded ciphertext part count" });
            }
            let c0 = RnsPoly::read(ctx, r)?;
            let seed = r.array("ciphertext seed")?;
            let a = Self::a_from_seed(ctx, &seed);
            Ok(Self { parts: vec![c0, a], seed: Some(seed) })
        } else {
            if !(2..=3).contains(&n_parts) {
                return Err(HeError::Malformed { what: "ciphertext part count" });
            }
            let parts = (0..n_parts).map(|_| RnsPoly::read(ctx, r)).collect::<Result<_, _>>()?;
            Ok(Self { parts, seed: None })
        }
    }

    /// Deep structural check that the ciphertext belongs to `ctx`.
    pub fn validate(&self, ctx: &HeContext) -> bool {
        self.parts.iter().all(|p| p.residues(0).len() == ctx.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HeParams;
    use primer_math::codec::decode;

    #[test]
    fn seed_compression_halves_fresh_size() {
        let ctx = HeContext::new(HeParams::toy());
        let p0 = RnsPoly::zero(&ctx, true);
        let fresh = Ciphertext::new(vec![p0.clone(), p0.clone()], Some([7; 32]));
        let evaluated = Ciphertext::new(vec![p0.clone(), p0], None);
        assert!(fresh.serialized_size() < evaluated.serialized_size() * 6 / 10);
    }

    #[test]
    fn mutation_clears_compressibility() {
        let ctx = HeContext::new(HeParams::toy());
        let p = RnsPoly::zero(&ctx, true);
        let mut ct = Ciphertext::new(vec![p.clone(), p], Some([9; 32]));
        assert!(ct.is_seed_compressible());
        let _ = ct.part_mut(0);
        assert!(!ct.is_seed_compressible());
    }

    fn to_bytes(ct: &Ciphertext) -> Vec<u8> {
        let mut out = Vec::new();
        ct.write(&mut out);
        out
    }

    fn from_bytes(ctx: &HeContext, bytes: &[u8]) -> Result<Ciphertext, HeError> {
        decode(bytes, |r| Ciphertext::read(ctx, r))
    }

    #[test]
    fn serialization_roundtrip_both_forms() {
        let ctx = HeContext::new(HeParams::toy());
        let seed = [3u8; 32];
        let a = Ciphertext::a_from_seed(&ctx, &seed);
        let fresh = Ciphertext::new(vec![a.clone(), a.clone()], Some(seed));
        let bytes = to_bytes(&fresh);
        assert_eq!(bytes.len(), fresh.serialized_size());
        assert_eq!(from_bytes(&ctx, &bytes).expect("roundtrip"), fresh);

        let evaluated = Ciphertext::new(vec![a.clone(), a], None);
        let bytes = to_bytes(&evaluated);
        assert_eq!(bytes.len(), evaluated.serialized_size());
        assert_eq!(from_bytes(&ctx, &bytes).expect("roundtrip"), evaluated);
    }

    #[test]
    fn truncated_and_malformed_bytes_are_errors_not_panics() {
        let ctx = HeContext::new(HeParams::toy());
        let seed = [5u8; 32];
        let a = Ciphertext::a_from_seed(&ctx, &seed);
        let fresh = Ciphertext::new(vec![a.clone(), a], Some(seed));
        let bytes = to_bytes(&fresh);
        // Every strict prefix must decode to an error, never a panic.
        for cut in [0usize, 1, 2, 10, bytes.len() / 2, bytes.len() - 1] {
            let got = from_bytes(&ctx, &bytes[..cut]);
            assert!(
                matches!(got, Err(HeError::Malformed { .. })),
                "prefix of {cut} bytes must be Malformed"
            );
        }
        // A corrupted header (absurd part count) is rejected too.
        let mut bad = bytes.clone();
        bad[0] = 0; // not seeded …
        bad[1] = 77; // … with 77 parts
        assert!(from_bytes(&ctx, &bad).is_err());
        // So is a residue at or above its prime.
        let mut bad = bytes;
        bad[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(from_bytes(&ctx, &bad), Err(HeError::Malformed { what: "poly residue" }));
    }
}
