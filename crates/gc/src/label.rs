//! Wire labels, the global free-XOR offset, and the garbling hash.

use crate::aes::Aes128;
use rand::Rng;

/// A 128-bit wire label. The least-significant bit is the point-and-
/// permute (color) bit.
pub type Label = u128;

/// Color bit of a label.
#[inline]
pub fn color(l: Label) -> bool {
    l & 1 == 1
}

/// Samples the global free-XOR offset `R` (color bit forced to 1 so the
/// two labels of every wire have opposite colors).
pub fn sample_delta<R: Rng + ?Sized>(rng: &mut R) -> Label {
    rng.gen::<u128>() | 1
}

/// Samples a fresh zero-label.
pub fn sample_label<R: Rng + ?Sized>(rng: &mut R) -> Label {
    rng.gen::<u128>()
}

/// The fixed-key garbling hash `H(L, tweak) = π(2L ⊕ tweak) ⊕ (2L ⊕
/// tweak)` with `π` = fixed-key AES-128 (the standard JustGarble /
/// half-gates instantiation).
#[derive(Debug, Clone)]
pub struct GarbleHash {
    aes: Aes128,
}

impl GarbleHash {
    /// The stack-wide fixed-key hash.
    pub fn new() -> Self {
        Self::with_aes(Aes128::fixed())
    }

    /// The hash over a caller-built schedule — how tests pin the software
    /// or the hardware AES body.
    pub fn with_aes(aes: Aes128) -> Self {
        Self { aes }
    }

    /// Runs `f` inside the cipher's tier (see [`Aes128::in_tier`]).
    #[inline]
    pub fn in_tier<R>(&self, f: impl FnOnce() -> R) -> R {
        self.aes.in_tier(f)
    }

    /// Hashes `N` labels, each under its gate-unique tweak, through one
    /// batched AES call.
    #[inline]
    pub fn hash_batch<const N: usize>(&self, inputs: [(Label, u64); N]) -> [u128; N] {
        let xs = inputs.map(|(label, tweak)| (label << 1) ^ (tweak as u128));
        let mut out = self.aes.encrypt_blocks(xs);
        for (o, x) in out.iter_mut().zip(xs) {
            *o ^= x;
        }
        out
    }
}

impl Default for GarbleHash {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_math::rng::seeded;

    #[test]
    fn delta_has_color_one() {
        let mut rng = seeded(90);
        for _ in 0..10 {
            assert!(color(sample_delta(&mut rng)));
        }
    }

    #[test]
    fn hash_depends_on_tweak_and_label() {
        let h = GarbleHash::new();
        let [base, tweaked, relabeled, again] = h.hash_batch([(5, 1), (5, 2), (6, 1), (5, 1)]);
        assert_ne!(base, tweaked);
        assert_ne!(base, relabeled);
        assert_eq!(base, again);
        // A batch is its members hashed one at a time.
        assert_eq!(h.hash_batch([(5, 2)]), [tweaked]);
    }
}
