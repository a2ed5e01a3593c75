//! Error type for fallible HE operations.

use primer_math::codec::WireError;
use std::fmt;

/// Errors returned by fallible evaluator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeError {
    /// No Galois key available for the requested rotation step, and the
    /// step cannot be decomposed into available power-of-two hops.
    MissingGaloisKey {
        /// The elementary step that had no key.
        step: usize,
    },
    /// Operation requires a single-prime (u128-tensorable) profile.
    MultiPrimeUnsupported {
        /// The operation that was attempted.
        op: &'static str,
    },
    /// Ciphertext has an unexpected number of polynomial parts.
    WrongCiphertextSize {
        /// Expected part count.
        expected: usize,
        /// Actual part count.
        actual: usize,
    },
    /// Serialized key/ciphertext bytes are truncated or structurally
    /// invalid. Network-facing deserializers return this instead of
    /// panicking, so a garbage peer cannot crash a serving worker.
    Malformed {
        /// Which construct failed to decode.
        what: &'static str,
    },
}

impl fmt::Display for HeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeError::MissingGaloisKey { step } => {
                write!(f, "no galois key covers rotation step {step}")
            }
            HeError::MultiPrimeUnsupported { op } => {
                write!(f, "{op} requires a single-prime parameter profile")
            }
            HeError::WrongCiphertextSize { expected, actual } => {
                write!(f, "ciphertext has {actual} parts, expected {expected}")
            }
            HeError::Malformed { what } => {
                write!(f, "malformed serialized bytes while decoding {what}")
            }
        }
    }
}

impl std::error::Error for HeError {}

impl From<WireError> for HeError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Short { what } => HeError::Malformed { what },
            WireError::Trailing => HeError::Malformed { what: "trailing bytes" },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HeError::MissingGaloisKey { step: 5 };
        assert!(e.to_string().contains("step 5"));
    }
}
