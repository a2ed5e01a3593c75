//! Shared fixed-point algorithms for the non-polynomial transformer ops.
//!
//! These functions are the *single source of truth* for how SoftMax, GELU
//! and LayerNorm are computed in fixed point: the plaintext fixed-point
//! reference in `primer-nn` calls them directly, and the garbled-circuit
//! generators in `primer-gc` either implement the **same dataflow
//! gate-by-gate** or read these functions' own outputs from tables built
//! with the circuit (exp, recip, rsqrt, GELU), so that private inference
//! is bit-exact against the reference.
//!
//! Every algorithm uses only operations with a direct circuit realization:
//! add/sub, multiply + arithmetic right shift (`mul_q`), comparisons,
//! select (`mux`), shifts by bounded dynamic amounts, and most-significant-
//! bit extraction (a priority encoder).
//!
//! All values are `i64` in Q(`frac`) two's-complement fixed point.

/// Fixed-point multiply: `(a*b) >> frac` with floor (arithmetic-shift)
/// rounding — identical to taking the middle bits of a two's-complement
/// product in a circuit.
#[inline]
pub fn mul_q(a: i64, b: i64, frac: u32) -> i64 {
    ((a as i128 * b as i128) >> frac) as i64
}

/// Quantizes a constant to Q(frac) (round-to-nearest). Used for the
/// polynomial coefficients baked into circuits.
#[inline]
pub fn const_q(x: f64, frac: u32) -> i64 {
    (x * (1u64 << frac) as f64).round() as i64
}

/// Index of the most significant set bit of `x > 0` (`floor(log2 x)`).
///
/// # Panics
///
/// Panics if `x <= 0`.
#[inline]
pub fn msb_index(x: i64) -> u32 {
    assert!(x > 0, "msb_index requires a positive input");
    63 - (x as u64).leading_zeros()
}

/// `2^f` for `f` in `[0, 1]` (Q frac), cubic polynomial approximation.
///
/// Coefficients follow the classic fast-exp2 cubic fit; absolute error is
/// below `2^-9` across the domain, well inside the pipeline's quantization
/// noise for `frac <= 16`.
pub fn exp2_frac(f: i64, frac: u32) -> i64 {
    let c0 = const_q(1.0, frac);
    let c1 = const_q(0.695_976_1, frac);
    let c2 = const_q(0.224_940_4, frac);
    let c3 = const_q(0.079_083_5, frac);
    // Horner: ((c3*f + c2)*f + c1)*f + c0
    let mut acc = c3;
    acc = mul_q(acc, f, frac) + c2;
    acc = mul_q(acc, f, frac) + c1;
    acc = mul_q(acc, f, frac) + c0;
    acc
}

/// `e^{-x}` for `x >= 0` (Q frac).
///
/// Computed as `2^{-y}` with `y = x·log2(e)`; the integer part of `y`
/// becomes a bounded right shift, the fractional part goes through
/// [`exp2_frac`]. Returns 0 once the result underflows Q(frac).
pub fn exp_neg(x: i64, frac: u32) -> i64 {
    debug_assert!(x >= 0, "exp_neg domain is x >= 0");
    let one = 1i64 << frac;
    let log2e = const_q(std::f64::consts::LOG2_E, frac);
    let y = mul_q(x, log2e, frac);
    let k = (y >> frac) as u32; // integer part of the exponent
    let f = y & (one - 1); // fractional part in [0, 1)
    // 2^{-f} = 2^{1-f} / 2; exp2_frac's domain [0,1] covers 1-f.
    let m = exp2_frac(one - f, frac) >> 1;
    // Shift cap: beyond frac+1 the result is below one ulp.
    if k > frac + 1 {
        0
    } else {
        m >> k
    }
}

/// `1/x` for `x > 0` (Q frac) via normalize + Newton–Raphson.
///
/// `x` is scaled into `[1, 2)` by a power of two; three Newton iterations
/// on the classic `48/17 − 32/17·m` initial guess give ~2^-15 relative
/// accuracy; the result is denormalized by the inverse power of two.
/// Returns the format maximum for `x <= 0` (guarded by callers).
pub fn recip(x: i64, frac: u32) -> i64 {
    if x <= 0 {
        return i64::MAX >> 1;
    }
    let one = 1i64 << frac;
    let two = 2 * one;
    let e = msb_index(x) as i32;
    let s = e + 1 - frac as i32; // x = m * 2^s with m in [0.5, 1)
    let m = shift_signed(x, -s);
    // Classic initial guess, valid for m in [0.5, 1].
    let mut y = const_q(48.0 / 17.0, frac) - mul_q(const_q(32.0 / 17.0, frac), m, frac);
    for _ in 0..3 {
        y = mul_q(y, two - mul_q(m, y, frac), frac);
    }
    // 1/x = (1/m) * 2^{-s}
    shift_signed(y, -s)
}

/// `1/sqrt(x)` for `x > 0` (Q frac) via even-exponent normalize + Newton.
///
/// Four iterations of `y ← y(3 − x·y²)/2` from a linear initial guess on
/// `m ∈ [0.5, 2)`. Returns the format maximum for `x <= 0`.
pub fn rsqrt(x: i64, frac: u32) -> i64 {
    if x <= 0 {
        return i64::MAX >> 1;
    }
    let three = 3i64 << frac;
    let e = msb_index(x) as i32;
    let mut s = e - frac as i32; // x ≈ m * 2^s, m in [1,2)
    if s & 1 != 0 {
        s += 1; // make s even; m shifts into [0.5, 1)
    }
    let m = shift_signed(x, -s); // m in [0.5, 2)
    let mut y = const_q(1.649_9, frac) - mul_q(const_q(0.471_4, frac), m, frac);
    for _ in 0..4 {
        let y2 = mul_q(y, y, frac);
        let xy2 = mul_q(m, y2, frac);
        y = mul_q(y, (three - xy2) >> 1, frac);
    }
    // 1/sqrt(x) = (1/sqrt(m)) * 2^{-s/2}
    shift_signed(y, -s / 2)
}

/// Shift by a signed amount: positive = left, negative = arithmetic right.
#[inline]
pub fn shift_signed(x: i64, amount: i32) -> i64 {
    if amount >= 0 {
        x.checked_shl(amount as u32).unwrap_or(0)
    } else {
        let a = (-amount) as u32;
        if a >= 63 {
            if x < 0 {
                -1
            } else {
                0
            }
        } else {
            x >> a
        }
    }
}

/// Numerically-stable fixed-point SoftMax over a slice.
///
/// `y_i = exp(x_i − max) / Σ_j exp(x_j − max)`, everything in Q(frac).
pub fn softmax(xs: &[i64], frac: u32) -> Vec<i64> {
    assert!(!xs.is_empty(), "softmax of an empty slice");
    let m = *xs.iter().max().expect("non-empty");
    let exps: Vec<i64> = xs.iter().map(|&x| exp_neg(m - x, frac)).collect();
    let sum: i64 = exps.iter().sum();
    let r = recip(sum, frac);
    exps.iter().map(|&e| mul_q(e, r, frac)).collect()
}

/// Fixed-point logistic sigmoid `1/(1+e^{-x})`.
pub fn sigmoid(x: i64, frac: u32) -> i64 {
    let one = 1i64 << frac;
    let e = exp_neg(x.abs(), frac);
    let pos = recip(one + e, frac);
    if x >= 0 {
        pos
    } else {
        one - pos
    }
}

/// Fixed-point GELU via the sigmoid form `x · σ(1.702·x)`.
///
/// This is the approximation commonly used in efficient transformer
/// implementations. In real arithmetic its largest error against the
/// exact erf form `x·Φ(x)` is 0.0203, at `x ≈ −2.27`: 2.6 steps of the
/// paper's Q7 format (1/128).
pub fn gelu(x: i64, frac: u32) -> i64 {
    let k = const_q(1.702, frac);
    let s = sigmoid(mul_q(k, x, frac), frac);
    mul_q(x, s, frac)
}

/// Fixed-point ReLU.
#[inline]
pub fn relu(x: i64) -> i64 {
    if x > 0 {
        x
    } else {
        0
    }
}

/// Fixed-point LayerNorm over a slice with affine parameters.
///
/// `y_i = γ_i · (x_i − µ)/sqrt(σ² + ε) + β_i` where µ, σ² are the mean and
/// variance of `xs`, all in Q(frac). `inv_n` must be `const_q(1/n, frac)`;
/// it is passed in because circuits bake it in as a constant.
pub fn layer_norm(xs: &[i64], gamma: &[i64], beta: &[i64], inv_n: i64, frac: u32) -> Vec<i64> {
    assert_eq!(xs.len(), gamma.len(), "gamma length mismatch");
    assert_eq!(xs.len(), beta.len(), "beta length mismatch");
    let sum: i64 = xs.iter().sum();
    let mean = mul_q(sum, inv_n, frac);
    let centered: Vec<i64> = xs.iter().map(|&x| x - mean).collect();
    let var_sum: i64 = centered.iter().map(|&c| mul_q(c, c, frac)).sum();
    let var = mul_q(var_sum, inv_n, frac) + const_q(1e-3, frac).max(1);
    let rs = rsqrt(var, frac);
    centered
        .iter()
        .zip(gamma.iter().zip(beta))
        .map(|(&c, (&g, &b))| mul_q(mul_q(c, rs, frac), g, frac) + b)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAC: u32 = 12;

    fn q(x: f64) -> i64 {
        const_q(x, FRAC)
    }

    fn deq(x: i64) -> f64 {
        x as f64 / (1u64 << FRAC) as f64
    }

    #[test]
    fn exp2_frac_accuracy() {
        for i in 0..=64 {
            let f = i as f64 / 64.0;
            let got = deq(exp2_frac(q(f), FRAC));
            assert!((got - f.exp2()).abs() < 4e-3, "2^{f}: got {got}");
        }
    }

    #[test]
    fn exp_neg_accuracy() {
        for i in 0..100 {
            let x = i as f64 / 10.0;
            let got = deq(exp_neg(q(x), FRAC));
            assert!((got - (-x).exp()).abs() < 6e-3, "e^-{x}: got {got}");
        }
    }

    #[test]
    fn exp_neg_underflows_to_zero() {
        assert_eq!(exp_neg(q(40.0), FRAC), 0);
    }

    #[test]
    fn recip_accuracy_wide_range() {
        let ulp = 1.0 / (1u64 << FRAC) as f64;
        for &x in &[0.07f64, 0.5, 1.0, 1.7, 3.0, 10.0, 31.0, 200.0] {
            let got = deq(recip(q(x), FRAC));
            // Tolerance: 0.5% relative, floored at one ulp of the output
            // representation (unavoidable quantization for tiny results).
            let tol = (5e-3 / x).max(1.5 * ulp);
            assert!((got - 1.0 / x).abs() < tol, "1/{x}: got {got}");
        }
    }

    #[test]
    fn rsqrt_accuracy_wide_range() {
        for &x in &[0.1f64, 0.3, 1.0, 2.0, 5.0, 30.0, 100.0] {
            let got = deq(rsqrt(q(x), FRAC));
            let want = 1.0 / x.sqrt();
            assert!((got - want).abs() / want < 6e-3, "rsqrt({x}): got {got} want {want}");
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let xs: Vec<i64> = [-1.0f64, 0.0, 2.0, 0.5].iter().map(|&x| q(x)).collect();
        let ys = softmax(&xs, FRAC);
        let total: f64 = ys.iter().map(|&y| deq(y)).sum();
        assert!((total - 1.0).abs() < 0.02, "sum {total}");
        assert!(ys[2] > ys[3] && ys[3] > ys[1] && ys[1] > ys[0]);
        let exact = {
            let m = 2.0f64;
            let e: Vec<f64> = [-1.0f64, 0.0, 2.0, 0.5].iter().map(|x| (x - m).exp()).collect();
            let s: f64 = e.iter().sum();
            e.into_iter().map(|v| v / s).collect::<Vec<_>>()
        };
        for (y, w) in ys.iter().zip(exact) {
            assert!((deq(*y) - w).abs() < 0.01, "softmax entry {} vs {w}", deq(*y));
        }
    }

    #[test]
    fn sigmoid_symmetry() {
        let one = 1i64 << FRAC;
        for i in -40..=40 {
            let x = q(i as f64 / 5.0);
            let s = sigmoid(x, FRAC);
            let s_neg = sigmoid(-x, FRAC);
            assert!((s + s_neg - one).abs() <= 2, "σ(x)+σ(-x)≈1 failed at {i}");
        }
    }

    #[test]
    fn gelu_matches_float() {
        for i in -30..=30 {
            let x = i as f64 / 5.0;
            let got = deq(gelu(q(x), FRAC));
            let want = x / (1.0 + (-1.702 * x).exp());
            assert!((got - want).abs() < 0.02, "gelu({x}): got {got} want {want}");
        }
    }

    #[test]
    fn layer_norm_normalizes() {
        let xs: Vec<i64> = (0..8).map(|i| q(i as f64 / 2.0)).collect();
        let gamma = vec![q(1.0); 8];
        let beta = vec![0i64; 8];
        let inv_n = q(1.0 / 8.0);
        let ys = layer_norm(&xs, &gamma, &beta, inv_n, FRAC);
        let mean: f64 = ys.iter().map(|&y| deq(y)).sum::<f64>() / 8.0;
        let var: f64 = ys.iter().map(|&y| (deq(y) - mean).powi(2)).sum::<f64>() / 8.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn relu_clamps() {
        assert_eq!(relu(-5), 0);
        assert_eq!(relu(7), 7);
    }

    #[test]
    fn msb_index_matches_log2() {
        for e in 0..62 {
            assert_eq!(msb_index(1i64 << e), e);
            if e > 1 {
                assert_eq!(msb_index((1i64 << e) + 1), e);
            }
        }
    }
}
