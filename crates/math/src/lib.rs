//! Fixed-point and modular-ring linear algebra for the Primer
//! private-inference stack.
//!
//! This crate is the numeric foundation shared by every other crate in the
//! workspace:
//!
//! * [`Ring`] — arithmetic in the plaintext ring `Z_t` (the same `t` serves
//!   as HE batching modulus, secret-sharing modulus and GC word ring),
//! * [`FixedSpec`] — the paper's 15-bit fixed-point format and its
//!   re-truncation semantics,
//! * [`Matrix`] / [`MatZ`] / [`MatF`] — dense matrices over `Z_t` and f64,
//! * [`fxp`] — the shared fixed-point algorithms (exp, reciprocal, rsqrt,
//!   softmax, GELU, LayerNorm) that the garbled circuits replicate
//!   bit-exactly,
//! * [`activation`] — f64 references and THE-X-style polynomial
//!   approximations,
//! * [`rng`] — deterministic seeded randomness,
//! * [`codec`] — the one little-endian, length-checked byte codec every
//!   flight, key set and suspend image is written and read with.
//!
//! ```
//! use primer_math::{FixedSpec, Ring};
//! let ring = Ring::new(65537);
//! let spec = FixedSpec::paper();
//! let x = spec.encode(&ring, -1.25);
//! assert_eq!(spec.decode(&ring, x), -1.25);
//! ```

pub mod activation;
pub mod codec;
pub mod fixed;
pub mod fxp;
pub mod matrix;
pub mod ring;
pub mod rng;

pub use fixed::FixedSpec;
pub use matrix::{MatF, MatZ, Matrix};
pub use ring::Ring;
