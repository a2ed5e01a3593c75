//! Garbled circuits with free-XOR + half-gates, oblivious transfer, and
//! fixed-point non-linear function circuits — the Primer stack's
//! substitute for the JustGarble/Gazelle GC runtime.
//!
//! Layering:
//!
//! * [`circuit`] / [`builder`] — boolean circuit IR and a word-level
//!   builder (adders, multipliers, comparators, barrel shifters) with
//!   build-time constant folding,
//! * [`arith`] — ring (`Z_t`) gadgets: share reconstruction mod `t`,
//!   centered lift, re-embedding, saturation (the paper's "adder and
//!   multiplexer" modular circuits),
//! * [`nonlinear`] — SoftMax / GELU / LayerNorm / sigmoid / exp circuits,
//!   bit-exact against `primer_math::fxp`,
//! * [`garble`] — half-gates garbling and evaluation over a fixed-key
//!   AES-128 hash ([`aes`]: AES-NI where the CPU has it, a byte-wise
//!   software body elsewhere), tables written into and read from the
//!   wire frame in place,
//! * [`ot`] — Chou–Orlandi base OTs over MODP groups (own bignum with
//!   Montgomery exponentiation) extended via IKNP to precomputed random
//!   OTs,
//! * [`protocol`] — the two-party offline/online execution harness used
//!   by the Primer engine.
//!
//! ```
//! use primer_gc::builder::{from_bits_signed, to_bits, CircuitBuilder};
//!
//! let mut b = CircuitBuilder::new();
//! let x = b.garbler_input(8);
//! let y = b.evaluator_input(8);
//! let sum = b.add(&x, &y);
//! let circuit = b.build(&sum);
//! let out = circuit.eval_plain(&to_bits(20, 8), &to_bits(22, 8));
//! assert_eq!(from_bits_signed(&out), 42);
//! ```

pub mod aes;
pub mod arith;
pub mod builder;
pub mod circuit;
pub mod garble;
pub mod label;
pub mod nonlinear;
pub mod ot;
pub mod protocol;

pub use builder::{Bit, CircuitBuilder, Word};
pub use circuit::Circuit;
pub use nonlinear::GcNumCfg;
pub use ot::OtGroup;
pub use protocol::{EvaluatorSession, GarblerSession};
