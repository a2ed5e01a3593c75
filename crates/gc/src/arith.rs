//! Ring (`Z_t`) and fixed-point gadgets on top of the circuit builder.
//!
//! The paper's GC phase reconstructs additive shares mod `t` ("a modular
//! operation circuit is implemented by an adder and a multiplexer"),
//! lifts to two's complement, applies the function, and re-shares. These
//! gadgets implement exactly that.

use crate::builder::{Bit, CircuitBuilder, Word};

/// Number of bits needed to represent values in `[0, t)`.
pub fn ring_bits(t: u64) -> usize {
    (64 - t.leading_zeros()) as usize
}

/// `x + y mod t` for `x, y ∈ [0, t)` held as unsigned `ring_bits(t)`-bit
/// words: one adder + compare + mux, as in the paper.
pub fn add_mod(b: &mut CircuitBuilder, x: &Word, y: &Word, t: u64) -> Word {
    let w = ring_bits(t);
    assert_eq!(x.len(), w, "x width");
    assert_eq!(y.len(), w, "y width");
    // Widen by one bit so x+y never wraps.
    let xw = b.resize_unsigned(x, w + 1);
    let yw = b.resize_unsigned(y, w + 1);
    let sum = b.add(&xw, &yw);
    let t_const = b.const_word(t as i64, w + 1);
    let lt = b.lt_unsigned(&sum, &t_const);
    let reduced = b.sub(&sum, &t_const);
    let out = b.mux_word(lt, &sum, &reduced);
    out[..w].to_vec()
}

/// `x − y mod t`.
pub fn sub_mod(b: &mut CircuitBuilder, x: &Word, y: &Word, t: u64) -> Word {
    let w = ring_bits(t);
    assert_eq!(x.len(), w, "x width");
    assert_eq!(y.len(), w, "y width");
    let xw = b.resize_unsigned(x, w + 1);
    let yw = b.resize_unsigned(y, w + 1);
    let borrow = b.lt_unsigned(x, y);
    let diff = b.sub(&xw, &yw);
    let t_const = b.const_word(t as i64, w + 1);
    let fixed = b.add(&diff, &t_const);
    let out = b.mux_word(borrow, &fixed, &diff);
    out[..w].to_vec()
}

/// Centers a ring element into two's complement: `x > t/2 ? x − t : x`,
/// sign-extended to `out_width` bits.
pub fn lift_centered(b: &mut CircuitBuilder, x: &Word, t: u64, out_width: usize) -> Word {
    let w = ring_bits(t);
    assert_eq!(x.len(), w, "x width");
    let xw = b.resize_unsigned(x, w + 1);
    let half = b.const_word((t / 2) as i64, w + 1);
    let gt_half = b.lt_unsigned(&half, &xw); // t/2 < x  ⇔  x > t/2
    let t_const = b.const_word(t as i64, w + 1);
    let wrapped = b.sub(&xw, &t_const); // negative in two's complement
    let centered = b.mux_word(gt_half, &wrapped, &xw);
    b.resize_signed(&centered, out_width)
}

/// Embeds a signed value (|v| < t/2) back into `[0, t)`.
pub fn ring_embed(b: &mut CircuitBuilder, v: &Word, t: u64) -> Word {
    let w = ring_bits(t);
    let vw = b.resize_signed(v, w + 1);
    let sign = *vw.last().expect("non-empty");
    let t_const = b.const_word(t as i64, w + 1);
    let shifted = b.add(&vw, &t_const);
    let out = b.mux_word(sign, &shifted, &vw);
    out[..w].to_vec()
}

/// Saturating clamp to the signed `bits`-bit range — the paper's 15-bit
/// re-truncation bound (matches `FixedSpec::saturate`). The clamped value
/// fits in `bits`, so the result is its low `bits` sign-extended to the
/// input width: every bit above is the sign wire itself.
pub fn saturate(b: &mut CircuitBuilder, v: &Word, bits: u32) -> Word {
    let max = (1i64 << (bits - 1)) - 1;
    let min = -(1i64 << (bits - 1));
    let w = v.len();
    let max_c = b.const_word(max, w);
    let min_c = b.const_word(min, w);
    let over = b.lt_signed(&max_c, v);
    let clamped_hi = b.mux_word(over, &max_c, v);
    let under = b.lt_signed(&clamped_hi, &min_c);
    let clamped = b.mux_word(under, &min_c, &clamped_hi);
    b.resize_signed(&clamped[..bits as usize], w)
}

/// ReLU on a two's-complement word: the value bits masked by the
/// inverted sign, so the result's sign bit is a constant 0.
pub fn relu(b: &mut CircuitBuilder, v: &[Bit]) -> Word {
    let (&sign, value) = v.split_last().expect("non-empty");
    let keep = b.not(sign);
    let mut out: Word = value.iter().map(|&x| b.and(x, keep)).collect();
    out.push(Bit::Const(false));
    out
}

/// Maximum of two signed words.
pub fn max_signed(b: &mut CircuitBuilder, x: &Word, y: &Word) -> Word {
    let lt = b.lt_signed(x, y);
    b.mux_word(lt, y, x)
}

/// Index of the most significant set bit (for `v > 0`), as an unsigned
/// `idx_bits`-bit word — the priority encoder behind recip/rsqrt
/// normalization. Matches `fxp::msb_index` on positive inputs.
pub fn msb_index(b: &mut CircuitBuilder, v: &Word, idx_bits: usize) -> Word {
    // Prefix-OR from the top, then one-hot select, then encode.
    let w = v.len();
    let mut seen = Bit::Const(false);
    let mut onehot = vec![Bit::Const(false); w];
    for i in (0..w).rev() {
        let is_first = {
            let not_seen = b.not(seen);
            b.and(v[i], not_seen)
        };
        onehot[i] = is_first;
        seen = b.or(seen, v[i]);
    }
    let mut index = vec![Bit::Const(false); idx_bits];
    for (i, &sel) in onehot.iter().enumerate() {
        for (j, bit) in index.iter_mut().enumerate() {
            if (i >> j) & 1 == 1 {
                *bit = b.or(*bit, sel);
            }
        }
    }
    index
}

/// Two-sided dynamic shift matching `fxp::shift_signed(x, -s)`: right
/// shift by `s` when `s ≥ 0`, left shift by `−s` otherwise. `s` is a
/// signed word with `s ≥ −max_left`, so the left shifter reads only the
/// amount bits `max_left` needs.
pub fn shift_by_neg_signed(b: &mut CircuitBuilder, x: &Word, s: &Word, max_left: usize) -> Word {
    let sign = *s.last().expect("non-empty");
    let mag_neg = b.neg(s);
    let mag = b.mux_word(sign, &mag_neg, s);
    let mag_u = mag[..mag.len() - 1].to_vec(); // drop sign bit, |s| small
    let right = b.shr_arith_dyn(x, &mag_u);
    let left_bits = (usize::BITS - max_left.leading_zeros()) as usize;
    let left = b.shl_dyn(x, &mag_u[..left_bits.min(mag_u.len())]);
    b.mux_word(sign, &left, &right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_bits_signed, from_bits_unsigned, to_bits, CircuitBuilder};

    const T: u64 = 769; // prime, 10 bits

    fn eval2(
        f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> Word,
        x: u64,
        y: u64,
    ) -> u64 {
        let w = ring_bits(T);
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(w);
        let ys = b.evaluator_input(w);
        let out = f(&mut b, &xs, &ys);
        let c = b.build(&out);
        from_bits_unsigned(&c.eval_plain(&to_bits(x as i64, w), &to_bits(y as i64, w)))
    }

    #[test]
    fn add_mod_matches_ring() {
        for (x, y) in [(0u64, 0u64), (1, 767), (768, 768), (400, 500), (768, 1)] {
            assert_eq!(eval2(|b, a, c| add_mod(b, a, c, T), x, y), (x + y) % T, "{x}+{y}");
        }
    }

    #[test]
    fn sub_mod_matches_ring() {
        for (x, y) in [(0u64, 1u64), (768, 768), (100, 700), (5, 5), (0, 768)] {
            let want = (x + T - y) % T;
            assert_eq!(eval2(|b, a, c| sub_mod(b, a, c, T), x, y), want, "{x}-{y}");
        }
    }

    #[test]
    fn lift_and_embed_roundtrip() {
        let w = ring_bits(T);
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(w);
        let lifted = lift_centered(&mut b, &xs, T, 16);
        let back = ring_embed(&mut b, &lifted, T);
        let mut outs = lifted.clone();
        outs.extend_from_slice(&back);
        let c = b.build(&outs);
        for x in [0u64, 1, 384, 385, 768, 500] {
            let out = c.eval_plain(&to_bits(x as i64, w), &[]);
            let signed = from_bits_signed(&out[..16]);
            let expected = if x > T / 2 { x as i64 - T as i64 } else { x as i64 };
            assert_eq!(signed, expected, "lift {x}");
            assert_eq!(from_bits_unsigned(&out[16..]), x, "embed {x}");
        }
    }

    #[test]
    fn saturate_clamps() {
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(16);
        let out = saturate(&mut b, &xs, 8);
        let c = b.build(&out);
        for (x, want) in [(300i64, 127i64), (-300, -128), (100, 100), (-12, -12)] {
            assert_eq!(from_bits_signed(&c.eval_plain(&to_bits(x, 16), &[])), want);
        }
    }

    /// The bits above `bits` are the sign wire itself, so the builder
    /// reads the clamp's width off the result.
    #[test]
    fn saturate_extends_with_its_sign_wire() {
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(48);
        let out = saturate(&mut b, &xs, 12);
        assert_eq!(out.len(), 48);
        assert!(matches!(out[11], Bit::Wire(_)));
        assert!(out[12..].iter().all(|&o| o == out[11]));
        assert_eq!(crate::builder::sig_len(&out), 12);
    }

    #[test]
    fn relu_max() {
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(8);
        let ys = b.evaluator_input(8);
        let r = relu(&mut b, &xs);
        let m = max_signed(&mut b, &xs, &ys);
        let mut outs = r;
        outs.extend(m);
        let c = b.build(&outs);
        for x in [-100i64, -1, 0, 55] {
            for y in [-7i64, 0, 56] {
                let out = c.eval_plain(&to_bits(x, 8), &to_bits(y, 8));
                assert_eq!(from_bits_signed(&out[..8]), x.max(0), "relu {x}");
                assert_eq!(from_bits_signed(&out[8..]), x.max(y), "max {x} {y}");
            }
        }
    }

    #[test]
    fn msb_index_matches_fxp() {
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(20);
        let idx = msb_index(&mut b, &xs, 5);
        let c = b.build(&idx);
        for x in [1i64, 2, 3, 7, 8, 100, 1 << 15, (1 << 19) - 1] {
            let got = from_bits_unsigned(&c.eval_plain(&to_bits(x, 20), &[]));
            assert_eq!(got, primer_math::fxp::msb_index(x) as u64, "msb {x}");
        }
    }

    #[test]
    fn shift_by_neg_signed_matches_fxp() {
        let mut b = CircuitBuilder::new();
        let xs = b.garbler_input(24);
        let ss = b.evaluator_input(6);
        let out = shift_by_neg_signed(&mut b, &xs, &ss, 8);
        let c = b.build(&out);
        for x in [123456i64, -9999, 1, 0] {
            for s in [-8i64, -1, 0, 1, 5, 12] {
                let got =
                    from_bits_signed(&c.eval_plain(&to_bits(x, 24), &to_bits(s, 6)));
                let want = wrap_to(primer_math::fxp::shift_signed(x, -s as i32), 24);
                assert_eq!(got, want, "shift {x} by -{s}");
            }
        }
    }

    fn wrap_to(v: i64, width: usize) -> i64 {
        let m = 1i64 << width;
        let r = ((v % m) + m) % m;
        if r >= m / 2 {
            r - m
        } else {
            r
        }
    }
}
