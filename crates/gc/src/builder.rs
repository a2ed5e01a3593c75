//! Circuit builder: words, adders, multipliers, comparators, shifters.
//!
//! Values are little-endian bit vectors ([`Word`]) in two's complement.
//! Constants are folded at build time, so multiplying by a constant or
//! XOR-ing with zero costs no gates; a gate asked for twice is emitted
//! once (structural hashing); and [`CircuitBuilder::build`] drops every
//! gate its outputs do not depend on — circuits stay as small as the
//! dataflow allows, however wastefully a gadget is written (`mul_q`
//! builds a full product and keeps half of it).

use crate::circuit::{Circuit, Gate, OutBit, WireId, WrittenCounts};

/// A single bit: a build-time constant or a live wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bit {
    /// Known constant.
    Const(bool),
    /// Circuit wire.
    Wire(WireId),
}

/// A little-endian two's-complement word.
pub type Word = Vec<Bit>;

/// Slots in the builder's table of recently emitted gates (1 MB).
const RECENT_SLOTS: usize = 1 << 16;
/// A gate no builder emits (wire ids stay below 2³¹): marks a free slot.
const NO_GATE: Gate = Gate::Inv(WireId::MAX);

/// Slot of `gate` in the recent-gates table: a multiplicative hash of
/// `(op, a, b)`, top bits taken.
fn recent_slot(gate: Gate) -> usize {
    let (a, b) = match gate {
        Gate::Xor(a, b) => (a, b),
        Gate::And(a, b) => (a | 1 << 31, b),
        Gate::Inv(a) => (a, WireId::MAX),
    };
    let key = u64::from(a) << 32 | u64::from(b);
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - RECENT_SLOTS.trailing_zeros())) as usize
}

/// Incremental circuit builder.
///
/// All inputs must be declared before the first gate is emitted.
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    garbler_inputs: u32,
    evaluator_inputs: u32,
    gates: Vec<Gate>,
    /// Structural hashing: a direct-mapped table of recently emitted
    /// gates and the wires they drive, empty until the first gate. A
    /// duplicate is merged when nothing else has taken its slot since —
    /// duplicates arise within a gadget (a comparator and the subtractor
    /// beside it walk the same carry chain), so this catches 96 % of what
    /// an exact table does on the session's units, and an exact table
    /// costs several times the rest of the build in cache misses.
    recent: Vec<(Gate, WireId)>,
    /// Gates asked for, merged or not.
    written: WrittenCounts,
    frozen: bool,
}

impl CircuitBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a garbler input word of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if gates have already been emitted.
    pub fn garbler_input(&mut self, width: usize) -> Word {
        assert!(!self.frozen, "declare all inputs before emitting gates");
        let start = self.garbler_inputs;
        self.garbler_inputs += width as u32;
        (0..width).map(|i| Bit::Wire(start + i as u32)).collect()
    }

    /// Declares an evaluator input word of `width` bits.
    ///
    /// Evaluator wires are numbered after all garbler wires; because
    /// declaration order is caller-controlled, the builder records a
    /// placeholder id and fixes it up in [`Self::build`].
    pub fn evaluator_input(&mut self, width: usize) -> Word {
        assert!(!self.frozen, "declare all inputs before emitting gates");
        let start = self.evaluator_inputs;
        self.evaluator_inputs += width as u32;
        // Evaluator wires are provisionally tagged with the high bit set;
        // build() renumbers them to garbler_inputs + index.
        (0..width).map(|i| Bit::Wire(EVAL_TAG | (start + i as u32))).collect()
    }

    /// The wire driven by `gate`: the one an identical recent gate
    /// drives, else a new one.
    fn emit(&mut self, gate: Gate) -> Bit {
        self.frozen = true;
        self.written.gates += 1;
        self.written.ands += usize::from(matches!(gate, Gate::And(_, _)));
        if self.recent.is_empty() {
            self.recent = vec![(NO_GATE, 0); RECENT_SLOTS];
        }
        let slot = &mut self.recent[recent_slot(gate)];
        if slot.0 != gate {
            let wire = self.garbler_inputs + self.evaluator_inputs + self.gates.len() as u32;
            self.gates.push(gate);
            *slot = (gate, wire);
        }
        Bit::Wire(slot.1)
    }

    /// Strips the evaluator placeholder tag (inputs are frozen before the
    /// first gate, so `garbler_inputs` is final whenever this runs).
    fn resolve(&self, w: WireId) -> WireId {
        if w & EVAL_TAG != 0 {
            self.garbler_inputs + (w & !EVAL_TAG)
        } else {
            w
        }
    }

    /// `a ⊕ b` with constant folding.
    pub fn xor(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => Bit::Const(x ^ y),
            (Bit::Const(false), w) | (w, Bit::Const(false)) => w,
            (Bit::Const(true), w) | (w, Bit::Const(true)) => self.not(w),
            (Bit::Wire(x), Bit::Wire(y)) => {
                let (rx, ry) = (self.resolve(x), self.resolve(y));
                self.emit(Gate::Xor(rx.min(ry), rx.max(ry)))
            }
        }
    }

    /// `a ∧ b` with constant folding.
    pub fn and(&mut self, a: Bit, b: Bit) -> Bit {
        match (a, b) {
            (Bit::Const(x), Bit::Const(y)) => Bit::Const(x & y),
            (Bit::Const(false), _) | (_, Bit::Const(false)) => Bit::Const(false),
            (Bit::Const(true), w) | (w, Bit::Const(true)) => w,
            (Bit::Wire(x), Bit::Wire(y)) => {
                let (rx, ry) = (self.resolve(x), self.resolve(y));
                self.emit(Gate::And(rx.min(ry), rx.max(ry)))
            }
        }
    }

    /// `¬a` (free).
    pub fn not(&mut self, a: Bit) -> Bit {
        match a {
            Bit::Const(x) => Bit::Const(!x),
            Bit::Wire(x) => {
                let rx = self.resolve(x);
                self.emit(Gate::Inv(rx))
            }
        }
    }

    /// `a ∨ b` (one AND).
    pub fn or(&mut self, a: Bit, b: Bit) -> Bit {
        let na = self.not(a);
        let nb = self.not(b);
        let n = self.and(na, nb);
        self.not(n)
    }

    /// `sel ? a : b` (one AND).
    pub fn mux(&mut self, sel: Bit, a: Bit, b: Bit) -> Bit {
        let d = self.xor(a, b);
        let m = self.and(sel, d);
        self.xor(b, m)
    }

    /// Word-wise `sel ? a : b`.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn mux_word(&mut self, sel: Bit, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len(), "mux width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.mux(sel, x, y)).collect()
    }

    /// Constant word of `width` bits (two's complement of `value`,
    /// sign-extended beyond 64 bits).
    pub fn const_word(&self, value: i64, width: usize) -> Word {
        (0..width)
            .map(|i| {
                let bit = if i < 64 { (value >> i) & 1 == 1 } else { value < 0 };
                Bit::Const(bit)
            })
            .collect()
    }

    /// Word XOR.
    pub fn xor_word(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.len(), b.len(), "xor width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.xor(x, y)).collect()
    }

    /// Ripple-carry addition with explicit carry-in; returns (sum, carry).
    pub fn add_with_carry(&mut self, a: &Word, b: &Word, carry_in: Bit) -> (Word, Bit) {
        assert_eq!(a.len(), b.len(), "add width mismatch");
        let mut c = carry_in;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xc = self.xor(x, c);
            let yc = self.xor(y, c);
            let s = self.xor(xc, y);
            let t = self.and(xc, yc);
            c = self.xor(c, t);
            sum.push(s);
        }
        (sum, c)
    }

    /// Wrapping addition.
    pub fn add(&mut self, a: &Word, b: &Word) -> Word {
        self.add_with_carry(a, b, Bit::Const(false)).0
    }

    /// Wrapping subtraction `a − b`.
    pub fn sub(&mut self, a: &Word, b: &Word) -> Word {
        let nb: Word = b.iter().map(|&x| self.not(x)).collect();
        self.add_with_carry(a, &nb, Bit::Const(true)).0
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: &Word) -> Word {
        let zero = self.const_word(0, a.len());
        self.sub(&zero, a)
    }

    /// Sign-extends (or truncates) to `width`.
    pub fn resize_signed(&mut self, a: &Word, width: usize) -> Word {
        let mut out = a.clone();
        let sign = *a.last().expect("non-empty word");
        out.resize(width, sign);
        out.truncate(width);
        out
    }

    /// Zero-extends (or truncates) to `width`.
    pub fn resize_unsigned(&mut self, a: &Word, width: usize) -> Word {
        let mut out = a.clone();
        out.resize(width, Bit::Const(false));
        out.truncate(width);
        out
    }

    /// Full signed multiplication: `a × b` at width `a.len()+b.len()`.
    ///
    /// Shift-and-add over sign-extended operands; constant bits fold, so
    /// multiplying by a constant only costs adders for its set bits.
    pub fn mul_full_signed(&mut self, a: &Word, b: &Word) -> Word {
        let out_w = a.len() + b.len();
        let ax = self.resize_signed(a, out_w);
        let mut acc = self.const_word(0, out_w);
        for (i, &bi) in b.iter().enumerate() {
            // Partial product: (a << i) masked by b_i.
            let mut shifted = vec![Bit::Const(false); i];
            shifted.extend_from_slice(&ax[..out_w - i]);
            let masked: Word = shifted.iter().map(|&x| self.and(bi, x)).collect();
            if i + 1 == b.len() {
                // Two's complement: the top partial product is subtracted.
                acc = self.sub(&acc, &masked);
            } else {
                acc = self.add(&acc, &masked);
            }
        }
        acc
    }

    /// Wrapping signed multiplication at the operand width.
    pub fn mul(&mut self, a: &Word, b: &Word) -> Word {
        let full = self.mul_full_signed(a, b);
        full[..a.len()].to_vec()
    }

    /// Unsigned `a < b`.
    pub fn lt_unsigned(&mut self, a: &Word, b: &Word) -> Bit {
        // a < b  ⇔  no carry out of a + ¬b + 1.
        let nb: Word = b.iter().map(|&x| self.not(x)).collect();
        let (_, carry) = self.add_with_carry(a, &nb, Bit::Const(true));
        self.not(carry)
    }

    /// Signed `a < b`.
    pub fn lt_signed(&mut self, a: &Word, b: &Word) -> Bit {
        let w = a.len() + 1;
        let ax = self.resize_signed(a, w);
        let bx = self.resize_signed(b, w);
        let d = self.sub(&ax, &bx);
        *d.last().expect("non-empty")
    }

    /// `a == b`.
    pub fn eq(&mut self, a: &Word, b: &Word) -> Bit {
        assert_eq!(a.len(), b.len(), "eq width mismatch");
        let mut any_diff = Bit::Const(false);
        for (&x, &y) in a.iter().zip(b) {
            let d = self.xor(x, y);
            any_diff = self.or(any_diff, d);
        }
        self.not(any_diff)
    }

    /// Logical shift left by a constant (wrapping at word width).
    pub fn shl_const(&self, a: &Word, k: usize) -> Word {
        let w = a.len();
        let mut out = vec![Bit::Const(false); k.min(w)];
        out.extend_from_slice(&a[..w - k.min(w)]);
        out
    }

    /// Arithmetic shift right by a constant.
    pub fn shr_arith_const(&self, a: &Word, k: usize) -> Word {
        let w = a.len();
        let sign = *a.last().expect("non-empty");
        let k = k.min(w);
        let mut out: Word = a[k..].to_vec();
        out.resize(w, sign);
        out
    }

    /// Arithmetic shift right by a dynamic amount (unsigned word).
    /// Barrel shifter: one mux layer per amount bit.
    pub fn shr_arith_dyn(&mut self, a: &Word, amount: &Word) -> Word {
        let mut cur = a.clone();
        for (j, &aj) in amount.iter().enumerate() {
            if (1usize << j) >= 2 * a.len() {
                break;
            }
            let shifted = self.shr_arith_const(&cur, 1 << j);
            cur = self.mux_word(aj, &shifted, &cur);
        }
        cur
    }

    /// Logical shift left by a dynamic amount (unsigned word).
    pub fn shl_dyn(&mut self, a: &Word, amount: &Word) -> Word {
        let mut cur = a.clone();
        for (j, &aj) in amount.iter().enumerate() {
            if (1usize << j) >= 2 * a.len() {
                break;
            }
            let shifted = self.shl_const(&cur, 1 << j);
            cur = self.mux_word(aj, &shifted, &cur);
        }
        cur
    }

    /// Finalizes the circuit with the given output bits, keeping only the
    /// gates they depend on. The result runs once; a step made of
    /// identical elements or rows builds one and calls
    /// [`Circuit::repeated`].
    pub fn build(self, outputs: &[Bit]) -> Circuit {
        let outs = outputs
            .iter()
            .map(|&b| match b {
                Bit::Const(c) => OutBit::Const(c),
                Bit::Wire(w) => OutBit::Wire(self.resolve(w)),
            })
            .collect();
        Circuit::from_gates(self.garbler_inputs, self.evaluator_inputs, self.gates, outs)
            .compact()
            .with_written(self.written)
    }

    /// Current AND-gate count (cost preview while building).
    pub fn and_count(&self) -> usize {
        self.gates.iter().filter(|g| matches!(g, Gate::And(_, _))).count()
    }
}

const EVAL_TAG: u32 = 1 << 31;

/// Packs an integer into plaintext bits for [`Circuit::eval_plain`].
pub fn to_bits(value: i64, width: usize) -> Vec<bool> {
    (0..width).map(|i| (value >> i) & 1 == 1).collect()
}

/// Recovers a signed integer from output bits (two's complement).
pub fn from_bits_signed(bits: &[bool]) -> i64 {
    let mut v: i64 = 0;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            v |= 1 << i;
        }
    }
    let w = bits.len();
    if w < 64 && bits[w - 1] {
        v -= 1 << w;
    }
    v
}

/// Recovers an unsigned integer from output bits.
pub fn from_bits_unsigned(bits: &[bool]) -> u64 {
    let mut v: u64 = 0;
    for (i, &b) in bits.iter().enumerate() {
        if b {
            v |= 1 << i;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a two-input circuit computing `f(a, b)` and checks it
    /// against `reference` over a value grid.
    fn check_binop(
        width: usize,
        f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> Word,
        reference: impl Fn(i64, i64) -> i64,
    ) {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(width);
        let y = b.evaluator_input(width);
        let out = f(&mut b, &x, &y);
        let circuit = b.build(&out);
        let lo = -(1i64 << (width - 1));
        let hi = 1i64 << (width - 1);
        for a in [lo, -3, -1, 0, 1, 2, 5, hi - 1] {
            for c in [lo, -2, -1, 0, 1, 3, hi - 1] {
                let got = from_bits_signed(
                    &circuit.eval_plain(&to_bits(a, width), &to_bits(c, width)),
                );
                let want = wrap(reference(a, c), width);
                assert_eq!(got, want, "f({a}, {c}) width {width}");
            }
        }
    }

    fn wrap(v: i64, width: usize) -> i64 {
        let m = 1i64 << width;
        let r = ((v % m) + m) % m;
        if r >= m / 2 {
            r - m
        } else {
            r
        }
    }

    #[test]
    fn adder_matches_reference() {
        check_binop(8, |b, x, y| b.add(x, y), |a, c| a + c);
    }

    #[test]
    fn subtractor_matches_reference() {
        check_binop(8, |b, x, y| b.sub(x, y), |a, c| a - c);
    }

    #[test]
    fn multiplier_matches_reference() {
        check_binop(8, |b, x, y| b.mul(x, y), |a, c| a.wrapping_mul(c));
    }

    #[test]
    fn full_multiplier_no_wrap() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(8);
        let y = b.evaluator_input(8);
        let out = b.mul_full_signed(&x, &y);
        let circuit = b.build(&out);
        for a in [-128i64, -77, -1, 0, 3, 127] {
            for c in [-128i64, -5, 0, 1, 99, 127] {
                let got =
                    from_bits_signed(&circuit.eval_plain(&to_bits(a, 8), &to_bits(c, 8)));
                assert_eq!(got, a * c, "{a}*{c}");
            }
        }
    }

    #[test]
    fn comparisons() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(8);
        let y = b.evaluator_input(8);
        let lt = b.lt_signed(&x, &y);
        let eq = b.eq(&x, &y);
        let circuit = b.build(&[lt, eq]);
        for a in [-128i64, -1, 0, 5, 127] {
            for c in [-128i64, -2, 0, 5, 126] {
                let out = circuit.eval_plain(&to_bits(a, 8), &to_bits(c, 8));
                assert_eq!(out[0], a < c, "{a} < {c}");
                assert_eq!(out[1], a == c, "{a} == {c}");
            }
        }
    }

    #[test]
    fn unsigned_comparison() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(8);
        let y = b.evaluator_input(8);
        let lt = b.lt_unsigned(&x, &y);
        let circuit = b.build(&[lt]);
        for a in [0i64, 1, 127, 200, 255] {
            for c in [0i64, 2, 128, 255] {
                let out = circuit.eval_plain(&to_bits(a, 8), &to_bits(c, 8));
                assert_eq!(out[0], (a as u64) < (c as u64), "{a} <u {c}");
            }
        }
    }

    #[test]
    fn mux_selects() {
        let mut b = CircuitBuilder::new();
        let s = b.garbler_input(1);
        let x = b.evaluator_input(4);
        let y = b.const_word(5, 4);
        let out = b.mux_word(s[0], &x, &y);
        let circuit = b.build(&out);
        assert_eq!(from_bits_signed(&circuit.eval_plain(&[true], &to_bits(3, 4))), 3);
        assert_eq!(from_bits_signed(&circuit.eval_plain(&[false], &to_bits(3, 4))), 5);
    }

    #[test]
    fn dynamic_shifts() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(16);
        let amt = b.evaluator_input(4);
        let right = b.shr_arith_dyn(&x, &amt);
        let left = b.shl_dyn(&x, &amt);
        let mut outs = right.clone();
        outs.extend_from_slice(&left);
        let circuit = b.build(&outs);
        for v in [-30000i64, -5, 1234, 32767] {
            for k in [0usize, 1, 3, 7, 15] {
                let out = circuit.eval_plain(&to_bits(v, 16), &to_bits(k as i64, 4));
                let r = from_bits_signed(&out[..16]);
                let l = from_bits_signed(&out[16..]);
                assert_eq!(r, v >> k, "{v} >> {k}");
                assert_eq!(l, wrap(v << k, 16), "{v} << {k}");
            }
        }
    }

    /// Outputs that keep the low half of a product leave none of the top
    /// half's gates behind: what remains is the w-bit wrapping multiplier,
    /// w(w+1)/2 partial-product bits plus (w−1)(w−2)/2 carries.
    #[test]
    fn ignored_top_half_of_a_product_is_not_built() {
        for w in [8usize, 16] {
            let product = |keep: usize| {
                let mut b = CircuitBuilder::new();
                let x = b.garbler_input(w);
                let y = b.evaluator_input(w);
                let full = b.mul_full_signed(&x, &y);
                b.build(&full[..keep])
            };
            let (full, low) = (product(2 * w), product(w));
            assert_eq!(low.and_count(), w * w - w + 1, "width {w}");
            assert!(2 * low.and_count() < full.and_count(), "width {w}");
            assert_eq!((low.unreachable_gates(), full.unreachable_gates()), (0, 0));
            assert_eq!(low.unit_written(), full.unit_written(), "same gadget, same requests");
            assert!(low.unit_gates().len() < low.unit_written().gates / 2);
        }
    }

    /// A gate asked for twice — operands in either order — is one gate.
    #[test]
    fn repeated_gates_are_emitted_once() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(1)[0];
        let y = b.evaluator_input(1)[0];
        let (a1, a2) = (b.and(x, y), b.and(y, x));
        let (x1, x2) = (b.xor(x, y), b.xor(y, x));
        let (n1, n2) = (b.not(x), b.not(x));
        assert_eq!((a1, x1, n1), (a2, x2, n2));
        let c = b.build(&[a1, x1, n1]);
        assert_eq!((c.unit_gates().len(), c.and_count()), (3, 1));
        assert_eq!(c.unit_written(), WrittenCounts { gates: 6, ands: 2 });
        assert_eq!(c.eval_plain(&[true], &[false]), vec![false, true, false]);
    }

    #[test]
    fn constant_multiplication_costs_no_mask_ands() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(16);
        let c = b.const_word(5, 16);
        let _ = b.mul(&x, &c);
        // Multiplying by constant 5 (two set bits) must be far cheaper
        // than a full 16×16 multiplier (~2·16² = 512 ANDs).
        assert!(b.and_count() < 64, "and count {}", b.and_count());
    }
}
