//! Garbled-circuit step modules: share reconstruction, the non-polynomial
//! function, and re-sharing — the `F(X·W) − R_c[i+1]` module of Fig. 4.
//!
//! Circuit semantics are pinned to `primer_nn::FixedTransformer`'s
//! reference operations (which in turn call `primer_math::fxp`), so the
//! private pipeline is bit-exact against the plaintext fixed-point model.
//!
//! Two execution modes:
//! * [`GcMode::Garbled`] — real half-gates garbling + IKNP OTs,
//! * [`GcMode::Simulated`] — plain circuit evaluation with wire traffic
//!   padded to the exact garbled sizes (for fast tests and large sweeps;
//!   the circuits themselves are identical).

use primer_gc::arith::{add_mod, lift_centered, relu, ring_bits, ring_embed, saturate, sub_mod};
use primer_gc::builder::{Bit, CircuitBuilder, Word};
use primer_gc::nonlinear as gcnl;
use primer_gc::{Circuit, GcNumCfg};
use primer_math::fxp;
use primer_nn::PipelineSpec;

/// Which non-polynomial step a circuit implements.
#[derive(Debug, Clone, PartialEq)]
pub enum GcStepKind {
    /// Truncate raw (double-scale) products back to the value format.
    TruncSat {
        /// Number of matrix elements.
        elems: usize,
    },
    /// Truncate then GELU (feed-forward activation).
    Gelu {
        /// Number of matrix elements.
        elems: usize,
    },
    /// Row-wise SoftMax over raw attention scores, with the 1/√n
    /// pre-scale folded in.
    Softmax {
        /// Rows (queries).
        rows: usize,
        /// Columns (keys).
        cols: usize,
        /// `const_q(1/√n, gc_frac)`.
        prescale: i64,
    },
    /// Truncate attention output, add the residual stream, LayerNorm.
    LayerNormResidual {
        /// Rows (tokens).
        rows: usize,
        /// Columns (hidden width).
        cols: usize,
        /// γ at GC scale.
        gamma: Vec<i64>,
        /// β at GC scale.
        beta: Vec<i64>,
    },
}

impl GcStepKind {
    /// Primary input elements (shares held by both parties).
    pub fn elems(&self) -> usize {
        match self {
            GcStepKind::TruncSat { elems } | GcStepKind::Gelu { elems } => *elems,
            GcStepKind::Softmax { rows, cols, .. } => rows * cols,
            GcStepKind::LayerNormResidual { rows, cols, .. } => rows * cols,
        }
    }

    /// Whether the step also consumes residual-stream shares.
    pub fn has_residual(&self) -> bool {
        matches!(self, GcStepKind::LayerNormResidual { .. })
    }

    /// `(elements per unit, repeat)`: the element-wise kinds repeat one
    /// element, the row-wise kinds one row — γ / β are per column, so
    /// every row of a LayerNorm is the same circuit.
    fn unit_shape(&self) -> (usize, usize) {
        match self {
            GcStepKind::TruncSat { elems } | GcStepKind::Gelu { elems } => (1, *elems),
            GcStepKind::Softmax { rows, cols, .. }
            | GcStepKind::LayerNormResidual { rows, cols, .. } => (*cols, *rows),
        }
    }
}

/// Builds the step circuit: one element's or one row's gates, run once
/// per element / row. Garbler (client) inputs: primary shares, then
/// optional residual shares, then fresh output masks. Evaluator (server)
/// inputs: its matching shares. Outputs: the server's next-layer share
/// (the function result minus the client mask, mod t), in element order.
pub fn build_step_circuit(kind: &GcStepKind, spec: &PipelineSpec, gc: GcNumCfg) -> Circuit {
    let t = spec.ring.modulus();
    let rb = ring_bits(t);
    let w = gc.width;
    let (n, repeat) = kind.unit_shape();
    let n_res = if kind.has_residual() { n } else { 0 };
    let mut b = CircuitBuilder::new();

    // The unit's inputs, plane by plane in the order of `client_bits` /
    // `server_bits`; `repeated` below lays instance r's `n` words at
    // words `[r·n, (r+1)·n)` of each plane.
    let share_c: Vec<Word> = (0..n).map(|_| b.garbler_input(rb)).collect();
    let res_c: Vec<Word> = (0..n_res).map(|_| b.garbler_input(rb)).collect();
    let masks: Vec<Word> = (0..n).map(|_| b.garbler_input(rb)).collect();
    let share_s: Vec<Word> = (0..n).map(|_| b.evaluator_input(rb)).collect();
    let res_s: Vec<Word> = (0..n_res).map(|_| b.evaluator_input(rb)).collect();

    // Reconstruct and lift every primary element.
    let lifted: Vec<Word> = share_c
        .iter()
        .zip(&share_s)
        .map(|(c, s)| {
            let rec = add_mod(&mut b, c, s, t);
            lift_centered(&mut b, &rec, t, w)
        })
        .collect();

    let frac = spec.fixed.frac() as usize;
    let bits = spec.fixed.bits();
    let delta = (spec.gc_frac - spec.fixed.frac()) as usize;
    let trunc_sat = |b: &mut CircuitBuilder, v: &Word| {
        let shifted = b.shr_arith_const(v, frac);
        saturate(b, &shifted, bits)
    };
    // Back from GC scale to the value format.
    let from_gc = |b: &mut CircuitBuilder, v: &Word| {
        let down = b.shr_arith_const(v, delta);
        saturate(b, &down, bits)
    };

    let results: Vec<Word> = match kind {
        GcStepKind::TruncSat { .. } => lifted.iter().map(|v| trunc_sat(&mut b, v)).collect(),
        GcStepKind::Gelu { .. } => {
            let table = GeluTable::new(spec);
            lifted
                .iter()
                .map(|v| {
                    let tr = trunc_sat(&mut b, v);
                    table.circuit(&mut b, &tr[..bits as usize])
                })
                .collect()
        }
        GcStepKind::Softmax { prescale, .. } => {
            let shift = spec.gc_frac as i32 - 2 * spec.fixed.frac() as i32;
            let pre = b.const_word(*prescale, w);
            let row: Vec<Word> = lifted
                .iter()
                .map(|v| {
                    let shifted = if shift >= 0 {
                        b.shl_const(v, shift as usize)
                    } else {
                        b.shr_arith_const(v, (-shift) as usize)
                    };
                    gcnl::mul_q(&mut b, gc, &shifted, &pre)
                })
                .collect();
            let probs = gcnl::softmax(&mut b, gc, &row);
            probs.iter().map(|p| from_gc(&mut b, p)).collect()
        }
        GcStepKind::LayerNormResidual { gamma, beta, .. } => {
            let row: Vec<Word> = (0..n)
                .map(|c| {
                    let tr = trunc_sat(&mut b, &lifted[c]);
                    let rec_x = add_mod(&mut b, &res_c[c], &res_s[c], t);
                    let x_l = lift_centered(&mut b, &rec_x, t, w);
                    let sum = b.add(&tr, &x_l);
                    let res = saturate(&mut b, &sum, bits);
                    b.shl_const(&res, delta)
                })
                .collect();
            let normed = gcnl::layer_norm(&mut b, gc, &row, gamma, beta);
            normed.iter().map(|v| from_gc(&mut b, v)).collect()
        }
    };

    // Re-embed into the ring and subtract the client's fresh mask.
    let mut outputs: Vec<Bit> = Vec::with_capacity(n * rb);
    for (res, mask) in results.iter().zip(&masks) {
        let ring_val = ring_embed(&mut b, res, t);
        let shared = sub_mod(&mut b, &ring_val, mask, t);
        outputs.extend_from_slice(&shared);
    }
    let planes = [n * rb; 3];
    let res = usize::from(kind.has_residual());
    b.build(&outputs).repeated(repeat, &planes[..2 + res], &planes[..1 + res])
}

/// The GELU step's gadget: `gelu(x) = relu(x) − d(x)`, where the gap
/// `d = relu − PipelineSpec::gelu` is read from a table of the reference
/// itself, so the circuit is exact on every value of the format.
///
/// `d` is non-zero only for small `|x|` (GELU meets ReLU in both tails),
/// so the table covers the smallest signed window holding every
/// non-zero gap and the circuit gates it off outside: at `FixedSpec(12,
/// 5)` a 9-bit window of 3-bit gaps, at `FixedSpec::paper()` an 11-bit
/// window of 5-bit gaps.
struct GeluTable {
    /// Value bits of the format.
    bits: usize,
    /// Index bits: the window is `[−2^(window−1), 2^(window−1))`.
    window: usize,
    /// `d(x)` for the window's values in two's-complement index order.
    gaps: gcnl::Table,
}

impl GeluTable {
    /// Tabulates the gap over the whole format — `2^bits` reference calls.
    ///
    /// # Panics
    ///
    /// Panics if the reference rises above ReLU somewhere (the gap would
    /// be negative).
    fn new(spec: &PipelineSpec) -> Self {
        let f = spec.fixed;
        let all: Vec<u64> = (f.min_raw()..=f.max_raw())
            .map(|x| {
                let d = fxp::relu(x) - spec.gelu(x);
                assert!(d >= 0, "reference GELU above ReLU at raw {x}");
                d as u64
            })
            .collect();
        let gap = |x: i64| all[(x - f.min_raw()) as usize];
        // Smallest signed width holding every x with a non-zero gap.
        let window = (f.min_raw()..=f.max_raw())
            .filter(|&x| gap(x) != 0)
            .map(|x| 65 - (x ^ (x >> 63)).leading_zeros() as usize)
            .max()
            .unwrap_or(1);
        let half = 1i64 << (window - 1);
        let gaps: Vec<u64> =
            (0..2 * half).map(|i| gap(if i < half { i } else { i - 2 * half })).collect();
        Self { bits: f.bits() as usize, window, gaps: gcnl::Table::new(&gaps) }
    }

    /// `gelu(x)` for the `bits`-bit word `x`, as a `bits`-bit word.
    fn circuit(&self, b: &mut CircuitBuilder, x: &[Bit]) -> Word {
        let out = relu(b, x);
        // In the window iff every bit above it copies its top bit.
        let top = x[self.window - 1];
        let mut inside = Bit::Const(true);
        for &xi in &x[self.window..] {
            let differs = b.xor(xi, top);
            let same = b.not(differs);
            inside = b.and(inside, same);
        }
        let mut gap = self.gaps.read(b, &x[..self.window]);
        for g in &mut gap {
            *g = b.and(*g, inside);
        }
        gap.resize(self.bits, Bit::Const(false));
        b.sub(&out, &gap)
    }
}

/// Reference semantics of a step on reconstructed raw values — must agree
/// with both the circuit and `primer_nn::FixedTransformer`. Input/output
/// are signed raw values.
pub fn reference_step(kind: &GcStepKind, spec: &PipelineSpec, raw: &[i64], residual: &[i64]) -> Vec<i64> {
    let f = spec.fixed;
    match kind {
        GcStepKind::TruncSat { .. } => raw.iter().map(|&v| f.truncate_product(v)).collect(),
        GcStepKind::Gelu { .. } => raw.iter().map(|&v| spec.gelu(f.truncate_product(v))).collect(),
        GcStepKind::Softmax { rows, cols, prescale } => {
            let mut out = Vec::with_capacity(rows * cols);
            for r in 0..*rows {
                let row: Vec<i64> = (0..*cols)
                    .map(|c| {
                        fxp::mul_q(spec.product_to_gc(raw[r * cols + c]), *prescale, spec.gc_frac)
                    })
                    .collect();
                for p in fxp::softmax(&row, spec.gc_frac) {
                    out.push(spec.from_gc(p));
                }
            }
            out
        }
        GcStepKind::LayerNormResidual { rows, cols, gamma, beta } => {
            let inv_n = fxp::const_q(1.0 / *cols as f64, spec.gc_frac);
            let mut out = Vec::with_capacity(rows * cols);
            for r in 0..*rows {
                let row: Vec<i64> = (0..*cols)
                    .map(|c| {
                        let idx = r * cols + c;
                        let res = f.saturate(f.truncate_product(raw[idx]) + residual[idx]);
                        spec.to_gc(res)
                    })
                    .collect();
                for v in fxp::layer_norm(&row, gamma, beta, inv_n, spec.gc_frac) {
                    out.push(spec.from_gc(v));
                }
            }
            out
        }
    }
}

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcMode {
    /// Real garbling + OT.
    Garbled,
    /// Plain evaluation with garbled-sized placeholder traffic.
    Simulated,
}

/// Packs ring words into circuit input bits.
pub fn ring_words_to_bits(vals: &[u64], rb: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(vals.len() * rb);
    for &v in vals {
        for i in 0..rb {
            out.push((v >> i) & 1 == 1);
        }
    }
    out
}

/// Unpacks circuit output bits into ring words.
pub fn bits_to_ring_words(bits: &[bool], rb: usize) -> Vec<u64> {
    bits.chunks(rb)
        .map(|chunk| {
            let mut v = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                if b {
                    v |= 1 << i;
                }
            }
            v
        })
        .collect()
}

mod exec;

pub use exec::{GcClientOt, GcClientStep, GcServerOt, GcServerStep, GcSessionOt};

#[cfg(test)]
mod tests {
    use super::*;
    use primer_math::{FixedSpec, Ring};

    /// The window and gap width are read off the reference: GELU's gap
    /// from ReLU dies out at ±143 raw (4.5) in the test format and ±573
    /// raw (4.5) in the paper's.
    #[test]
    fn gelu_table_window_and_gap_width() {
        for (fixed, window, gap_bits) in
            [(FixedSpec::new(12, 5), 9, 3), (FixedSpec::paper(), 11, 5)]
        {
            let spec = PipelineSpec::new(Ring::new((1 << 40) + 15), fixed, 12);
            let table = GeluTable::new(&spec);
            assert_eq!((table.window, table.gaps.out_bits()), (window, gap_bits), "{fixed:?}");
        }
    }
}
