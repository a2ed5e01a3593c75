//! Fixed-point non-linear function circuits, bit-exact against
//! `primer_math::fxp` on the valid input domain (positive inputs for
//! recip/rsqrt, `x ≥ 0` for exp_neg, magnitudes small enough not to
//! overflow the configured width).
//!
//! A function of a narrow input is cheapest as a [`Table`]: its entries
//! are the reference's own outputs, computed at build time, so reading
//! one is exact on every index by construction. `exp_neg` reads the
//! reference over its whole non-zero range; `recip` and `rsqrt` keep the
//! reference's power-of-two normalisation as gates and read the reference
//! at the normalised mantissa, where its own shift is 0; the GELU step
//! (`primer_core::gcmod`) reads its gap from ReLU. What is left —
//! `mul_q`, SoftMax's max and sum, LayerNorm's moments and the
//! normalising shifts — follows the reference's dataflow gate for gate,
//! at the width the builder reads off each operand's sign copies rather
//! than the configured word's: a table output is 13–14 bits, a saturated
//! LayerNorm input `bits` plus the scale gap. The normalising shifts
//! read only the left-shift amount bits that the exponent's lower bound
//! leaves possible.

use crate::arith::{max_signed, msb_index, shift_by_neg_signed};
use crate::builder::{Bit, CircuitBuilder, Word};
use primer_math::fxp::{self, const_q};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};

/// Numeric configuration: word `width` and fractional bits `frac` of the
/// GC-internal fixed-point format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcNumCfg {
    /// Two's-complement word width.
    pub width: usize,
    /// Fractional bits.
    pub frac: u32,
}

impl GcNumCfg {
    /// Default protocol configuration: 48-bit words, 12 fractional bits
    /// (wide enough for LayerNorm variance sums at BERT dimensions).
    pub fn protocol() -> Self {
        Self { width: 48, frac: 12 }
    }

    /// Compact configuration for fast tests.
    pub fn test() -> Self {
        Self { width: 32, frac: 12 }
    }

    /// Bits of a normalising exponent (`msb_index` of a word).
    fn exponent_bits(&self) -> usize {
        7
    }
}

/// `(a*b) >> frac` — fixed-point multiply matching `fxp::mul_q`.
pub fn mul_q(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word, y: &Word) -> Word {
    let full = b.mul_full_signed(x, y);
    let shifted = b.shr_arith_const(&full, cfg.frac as usize);
    shifted[..cfg.width].to_vec()
}

/// `fxp::exp_neg` on every `d ∈ [0, 2^n)`, where `2^n` is the first power
/// of two at or past the reference's shift cap: every `d` from the cap on
/// has exponent `k = (d·log2 e) >> 2·frac > frac + 1`, and the reference
/// returns 0 (`n = 16` at `frac = 12`, whose cap is 39 750).
fn exp_neg_table(frac: u32) -> Table {
    let log2e = const_q(std::f64::consts::LOG2_E, frac);
    let cap = (((i64::from(frac) + 2) << (2 * frac)) + log2e - 1) / log2e;
    let n = 64 - (cap - 1).leading_zeros();
    Table::new(&(0..1i64 << n).map(|d| fxp::exp_neg(d, frac) as u64).collect::<Vec<_>>())
}

/// `e^{-x}` for `x ≥ 0` from `table` ([`exp_neg_table`]): the table's
/// entry for the low `n` bits, gated to 0 when any bit above is set.
fn read_exp_neg(b: &mut CircuitBuilder, cfg: GcNumCfg, table: &Table, x: &Word) -> Word {
    let n = table.index_bits();
    let mut out = table.read(b, &x[..n]);
    let mut past = Bit::Const(false);
    for &xi in &x[n..] {
        past = b.or(past, xi);
    }
    let inside = b.not(past);
    for o in &mut out {
        *o = b.and(*o, inside);
    }
    out.resize(cfg.width, Bit::Const(false));
    out
}

/// `e^{-x}` for `x ≥ 0` — matches `fxp::exp_neg`.
pub fn exp_neg(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    read_exp_neg(b, cfg, &exp_neg_table(cfg.frac), x)
}

/// The reference's normalisation of `x > 0` for recip (`even` false) and
/// rsqrt (`even` true): `x = m · 2^s` with `s = msb(x) + 1 − frac`,
/// respectively `msb(x) − frac` rounded up to even, as `(m, s)` — `m` in
/// `[2^(frac−1), 2^frac)`, respectively `[2^(frac−1), 2^(frac+1))`, and
/// `s` a signed word. Shifting by `s` moves left by at most
/// [`max_left`]`(frac, even)` bits.
fn normalise(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word, even: bool) -> (Word, Word) {
    let bits = cfg.exponent_bits();
    let mut e = msb_index(b, x, bits);
    e.push(Bit::Const(false)); // make room for sign
    let frac = i64::from(cfg.frac);
    let offset = b.const_word(if even { -frac } else { 1 - frac }, bits + 1);
    let mut s = b.add(&e, &offset);
    if even {
        // s += s & 1.
        let mut lsb = vec![Bit::Const(false); bits + 1];
        lsb[0] = s[0];
        s = b.add(&s, &lsb);
    }
    (shift_by_neg_signed(b, x, &s, max_left(cfg.frac, even)), s)
}

/// The largest left shift `−s` that [`normalise`]'s exponent asks for.
fn max_left(frac: u32, even: bool) -> usize {
    if even {
        // msb ≥ 0, so s = msb − frac, rounded up to even, is ≥ −frac.
        frac as usize
    } else {
        // msb ≥ 0, so s = msb + 1 − frac ≥ 1 − frac.
        frac as usize - 1
    }
}

/// The reference at every mantissa `m < 2^index_bits` that normalisation
/// can produce (`m ≥ 2^(frac−1)`), where its own shift is 0 so the entry
/// is the Newton iteration's result itself; the rows below hold 0.
fn mantissa_table(frac: u32, index_bits: u32, f: fn(i64, u32) -> i64) -> Table {
    let reachable = 1i64 << (frac - 1);
    let entry = |m: i64| if m < reachable { 0 } else { f(m, frac) as u64 };
    Table::new(&(0..1i64 << index_bits).map(entry).collect::<Vec<_>>())
}

/// `1/x` for `x > 0` — matches `fxp::recip`: normalise, read the
/// reference at the `frac`-bit mantissa, shift back.
pub fn recip(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let (m, s) = normalise(b, cfg, x, false);
    let table = mantissa_table(cfg.frac, cfg.frac, fxp::recip);
    let y = table.read(b, &m[..cfg.frac as usize]);
    let y = b.resize_unsigned(&y, cfg.width);
    shift_by_neg_signed(b, &y, &s, max_left(cfg.frac, false))
}

/// `1/sqrt(x)` for `x > 0` — matches `fxp::rsqrt`: normalise to an even
/// exponent, read the reference at the `frac + 1`-bit mantissa, shift
/// back by half the exponent.
pub fn rsqrt(b: &mut CircuitBuilder, cfg: GcNumCfg, x: &Word) -> Word {
    let (m, s) = normalise(b, cfg, x, true);
    let table = mantissa_table(cfg.frac, cfg.frac + 1, fxp::rsqrt);
    let y = table.read(b, &m[..cfg.frac as usize + 1]);
    let y = b.resize_unsigned(&y, cfg.width);
    // s is even, so s/2 is exact, and s ≥ −frac, so s/2 ≥ −frac/2.
    let half_s = b.shr_arith_const(&s, 1);
    shift_by_neg_signed(b, &y, &half_s, max_left(cfg.frac, true) / 2)
}

/// Stable SoftMax over a slice of words — matches `fxp::softmax`.
pub fn softmax(b: &mut CircuitBuilder, cfg: GcNumCfg, xs: &[Word]) -> Vec<Word> {
    assert!(!xs.is_empty(), "softmax of an empty slice");
    let mut m = xs[0].clone();
    for x in &xs[1..] {
        m = max_signed(b, &m, x);
    }
    let table = exp_neg_table(cfg.frac);
    let exps: Vec<Word> = xs
        .iter()
        .map(|x| {
            let d = b.sub(&m, x);
            read_exp_neg(b, cfg, &table, &d)
        })
        .collect();
    let mut sum = b.const_word(0, cfg.width);
    for e in &exps {
        sum = b.add(&sum, e);
    }
    let r = recip(b, cfg, &sum);
    exps.iter().map(|e| mul_q(b, cfg, e, &r)).collect()
}

/// LayerNorm with public affine constants — matches `fxp::layer_norm`.
/// `gamma`/`beta` are Q(frac) constants baked into the circuit (they are
/// the server's public-to-the-circuit model weights).
pub fn layer_norm(
    b: &mut CircuitBuilder,
    cfg: GcNumCfg,
    xs: &[Word],
    gamma: &[i64],
    beta: &[i64],
) -> Vec<Word> {
    assert_eq!(xs.len(), gamma.len(), "gamma length");
    assert_eq!(xs.len(), beta.len(), "beta length");
    let n = xs.len();
    let inv_n = const_q(1.0 / n as f64, cfg.frac);
    let inv_n_w = b.const_word(inv_n, cfg.width);
    let mut sum = b.const_word(0, cfg.width);
    for x in xs {
        sum = b.add(&sum, x);
    }
    let mean = mul_q(b, cfg, &sum, &inv_n_w);
    let centered: Vec<Word> = xs.iter().map(|x| b.sub(x, &mean)).collect();
    let mut var_sum = b.const_word(0, cfg.width);
    for c in &centered {
        let sq = mul_q(b, cfg, c, c);
        var_sum = b.add(&var_sum, &sq);
    }
    let var_raw = mul_q(b, cfg, &var_sum, &inv_n_w);
    let eps = b.const_word(const_q(1e-3, cfg.frac).max(1), cfg.width);
    let var = b.add(&var_raw, &eps);
    let rs = rsqrt(b, cfg, &var);
    centered
        .iter()
        .zip(gamma.iter().zip(beta))
        .map(|(c, (&g, &be))| {
            let normed = mul_q(b, cfg, c, &rs);
            let g_w = b.const_word(g, cfg.width);
            let scaled = mul_q(b, cfg, &normed, &g_w);
            let b_w = b.const_word(be, cfg.width);
            b.add(&scaled, &b_w)
        })
        .collect()
}

/// One-hot decode of `bits` (little endian): line `v` is set iff `bits`
/// reads `v`. `2^len − 2` ANDs.
fn one_hot(b: &mut CircuitBuilder, bits: &[Bit]) -> Vec<Bit> {
    let mut lines = vec![Bit::Const(true)];
    for &bit in bits {
        let set: Vec<Bit> = lines.iter().map(|&l| b.and(l, bit)).collect();
        let clear: Vec<Bit> = lines.iter().zip(&set).map(|(&l, &s)| b.xor(l, s)).collect();
        lines = clear;
        lines.extend(set);
    }
    lines
}

/// ANDs [`one_hot`] spends when only the `used` lines reach an output:
/// at bit `i ≥ 1`, one per value of the low `i` bits that a used line
/// has.
fn one_hot_ands(used: &[bool]) -> usize {
    let mut level = used.to_vec();
    let mut ands = 0;
    while level.len() > 2 {
        let half = level.len() / 2;
        level = (0..half).map(|u| level[u] || level[u + half]).collect();
        ands += level.iter().filter(|&&x| x).count();
    }
    ands
}

/// A function of an unsigned `n`-bit index, tabulated when the circuit is
/// built and read in it: exact on every index, whatever the entries hold.
///
/// The index splits into `k` high and `n − k` low bits, each decoded
/// one-hot. Output bit `j` is `⊕_h hot_h ∧ sel_{h,j}`, where `sel_{h,j}`
/// is the XOR (free) of the low lines whose entry in block `h` has bit
/// `j` set; blocks with the same selection share one AND, an empty
/// selection costs none and a full one (the low lines sum to 1) is
/// `hot_h` itself. `k` is chosen once per table, from a count of those
/// ANDs: it rises from 0 while a high bit saves more low lines than it
/// adds blocks, and stops at the first split the next does not beat.
#[derive(Debug)]
pub struct Table {
    index_bits: usize,
    /// High index bits `k`.
    split: usize,
    /// Per output bit, how its ANDs are laid out at `split`.
    plan: Vec<BitPlan>,
}

/// One output bit of a [`Table`] read.
#[derive(Debug)]
struct BitPlan {
    /// `(block, selection)` for each block with a non-empty selection, in
    /// block order: the block's hot line joins that selection's XOR.
    blocks: Vec<(usize, usize)>,
    /// The distinct selections, in the order of their bits read from low
    /// line 0.
    selections: Vec<Selection>,
}

/// The low lines to XOR, and whether the XOR is complemented.
type Selection = (Vec<usize>, bool);

/// Bit `j` of every entry, packed 64 to a word from bit 0.
fn column(entries: &[u64], j: usize) -> Vec<u64> {
    entries
        .chunks(64)
        .map(|c| c.iter().enumerate().fold(0, |w, (i, &v)| w | ((v >> j) & 1) << i))
        .collect()
}

/// An `n`-bit column cut into blocks of `2^low_bits` bits, each packed
/// from bit 0 into whole words, and the words per block.
fn blocks(column: &[u64], n: usize, low_bits: usize) -> (Cow<'_, [u64]>, usize) {
    if low_bits >= 6 {
        return (Cow::Borrowed(column), 1 << (low_bits - 6));
    }
    let len = 1 << low_bits;
    let mask = (1u64 << len) - 1;
    let words = (0..1usize << (n - low_bits))
        .map(|h| (column[h * len / 64] >> (h * len % 64)) & mask)
        .collect();
    (Cow::Owned(words), 1)
}

/// The selection of a block whose `len` bits are `pattern`: the low lines
/// to XOR — the shorter side, as the low lines sum to 1 — and whether
/// the XOR is complemented.
fn selection(pattern: &[u64], len: usize) -> Selection {
    let bit = |l: usize| (pattern[l / 64] >> (l % 64)) & 1 == 1;
    let ones: usize = pattern.iter().map(|w| w.count_ones() as usize).sum();
    let flip = 2 * ones > len;
    ((0..len).filter(|&l| bit(l) != flip).collect(), flip)
}

impl Table {
    /// Tabulates `entries`, one per index (`2^n` of them), read as unsigned
    /// words as wide as the largest.
    ///
    /// # Panics
    ///
    /// Panics unless `entries.len()` is a power of two.
    pub fn new(entries: &[u64]) -> Self {
        assert!(entries.len().is_power_of_two(), "table length must be a power of two");
        let n = entries.len().trailing_zeros() as usize;
        let out_bits = entries.iter().max().map_or(0, |&v| 64 - v.leading_zeros() as usize);
        let columns: Vec<Vec<u64>> = (0..out_bits).map(|j| column(entries, j)).collect();
        let (mut split, mut best) = (0, Self::and_count(&columns, n, 0));
        for k in 1..=n {
            let ands = Self::and_count(&columns, n, k);
            if ands >= best {
                break;
            }
            (split, best) = (k, ands);
        }
        let plan = columns.iter().map(|c| Self::plan(c, n, n - split)).collect();
        Self { index_bits: n, split, plan }
    }

    /// ANDs a read at split `k` costs: the decoders' lines that reach an
    /// output, and one per distinct selection neither empty nor full.
    fn and_count(columns: &[Vec<u64>], n: usize, k: usize) -> usize {
        let len = 1usize << (n - k);
        let mask = if len >= 64 { u64::MAX } else { (1 << len) - 1 };
        let mut used_low = vec![0u64; len.div_ceil(64)];
        let mut used_high = vec![false; 1 << k];
        let mut terms = 0;
        for column in columns {
            let (blocks, per_block) = blocks(column, n, n - k);
            let mut seen = HashSet::new();
            for (h, p) in blocks.chunks(per_block).enumerate() {
                if p.iter().all(|&w| w == 0) {
                    continue;
                }
                used_high[h] = true;
                if seen.insert(p) {
                    // As `selection` picks the lines.
                    let ones: usize = p.iter().map(|w| w.count_ones() as usize).sum();
                    let flip = if 2 * ones > len { mask } else { 0 };
                    for (u, &w) in used_low.iter_mut().zip(p) {
                        *u |= w ^ flip;
                    }
                    // A full selection is the hot line itself; with no
                    // high bits the hot line is the constant 1.
                    terms += usize::from(k > 0 && ones < len);
                }
            }
        }
        let used_low: Vec<bool> = (0..len).map(|l| used_low[l / 64] >> (l % 64) & 1 == 1).collect();
        one_hot_ands(&used_low) + one_hot_ands(&used_high) + terms
    }

    /// The read plan of one output bit with `low_bits` low index bits.
    fn plan(column: &[u64], n: usize, low_bits: usize) -> BitPlan {
        let (blocks, per_block) = blocks(column, n, low_bits);
        // Keyed by the pattern's bits read from line 0.
        let mut groups: BTreeMap<Vec<u64>, (Selection, Vec<usize>)> = BTreeMap::new();
        for (h, p) in blocks.chunks(per_block).enumerate() {
            if p.iter().any(|&w| w != 0) {
                let key = p.iter().map(|w| w.reverse_bits()).collect();
                let len = 1 << low_bits;
                groups.entry(key).or_insert_with(|| (selection(p, len), vec![])).1.push(h);
            }
        }
        let mut bit = BitPlan { blocks: Vec::new(), selections: Vec::new() };
        for (s, (selection, hs)) in groups.into_values().enumerate() {
            bit.selections.push(selection);
            bit.blocks.extend(hs.into_iter().map(|h| (h, s)));
        }
        bit.blocks.sort_unstable();
        bit
    }

    /// Index bits `n`.
    pub fn index_bits(&self) -> usize {
        self.index_bits
    }

    /// Bits of an entry: those of the largest.
    pub fn out_bits(&self) -> usize {
        self.plan.len()
    }

    /// The entry at `index` (little endian), as an unsigned
    /// [`Self::out_bits`]-bit word.
    ///
    /// # Panics
    ///
    /// Panics unless `index` has [`Self::index_bits`] bits.
    pub fn read(&self, b: &mut CircuitBuilder, index: &[Bit]) -> Word {
        assert_eq!(index.len(), self.index_bits, "table index width");
        let low_bits = self.index_bits - self.split;
        let low = one_hot(b, &index[..low_bits]);
        let high = one_hot(b, &index[low_bits..]);
        self.plan
            .iter()
            .map(|bit| {
                let mut hots = vec![Bit::Const(false); bit.selections.len()];
                for &(h, s) in &bit.blocks {
                    hots[s] = b.xor(hots[s], high[h]);
                }
                let mut out = Bit::Const(false);
                for ((lines, flip), &hot) in bit.selections.iter().zip(&hots) {
                    let mut sel = Bit::Const(*flip);
                    for &l in lines {
                        sel = b.xor(sel, low[l]);
                    }
                    let term = b.and(hot, sel);
                    out = b.xor(out, term);
                }
                out
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_bits_signed, to_bits, CircuitBuilder};
    use crate::circuit::{Circuit, Gate, OutBit};
    use primer_math::rng::seeded;
    use rand::Rng;

    const CFG: GcNumCfg = GcNumCfg { width: 32, frac: 12 };
    /// Both word widths a session uses: tests and protocol.
    const WIDTHS: [GcNumCfg; 2] = [CFG, GcNumCfg { width: 48, frac: 12 }];

    /// `c`, a single unit with garbler inputs only, on every input of
    /// `xs`, 64 at a time: lane `l` of a wire holds its bit for input
    /// `l` of the batch. Outputs are read as a signed word.
    fn eval_lanes(c: &Circuit, xs: &[i64]) -> Vec<i64> {
        assert_eq!((c.repeat(), c.evaluator_inputs), (1, 0), "one unit, garbler inputs");
        let inputs = c.garbler_inputs as usize;
        let mut wires = vec![0u64; c.unit_wires()];
        let mut out = Vec::with_capacity(xs.len());
        for batch in xs.chunks(64) {
            for (i, w) in wires[..inputs].iter_mut().enumerate() {
                *w = batch.iter().enumerate().fold(0, |w, (l, &x)| w | ((x >> i) as u64 & 1) << l);
            }
            for (k, g) in c.unit_gates().iter().enumerate() {
                wires[inputs + k] = match *g {
                    Gate::Xor(a, b) => wires[a as usize] ^ wires[b as usize],
                    Gate::And(a, b) => wires[a as usize] & wires[b as usize],
                    Gate::Inv(a) => !wires[a as usize],
                };
            }
            let bits: Vec<u64> = c
                .unit_outputs()
                .iter()
                .map(|o| match *o {
                    OutBit::Wire(w) => wires[w as usize],
                    OutBit::Const(v) => 0u64.wrapping_sub(u64::from(v)),
                })
                .collect();
            out.extend((0..batch.len()).map(|l| {
                let lane: Vec<bool> = bits.iter().map(|w| (w >> l) & 1 == 1).collect();
                from_bits_signed(&lane)
            }));
        }
        out
    }

    /// Builds a unary circuit at `cfg` and checks it bit-exact against the
    /// fxp reference on `inputs`.
    fn check_unary(
        cfg: GcNumCfg,
        f_circ: impl Fn(&mut CircuitBuilder, GcNumCfg, &Word) -> Word,
        f_ref: impl Fn(i64) -> i64,
        inputs: &[i64],
    ) {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(cfg.width);
        let out = f_circ(&mut b, cfg, &x);
        let c = b.build(&out);
        for (&v, got) in inputs.iter().zip(eval_lanes(&c, inputs)) {
            assert_eq!(got, f_ref(v), "width {}: input {v} ({})", cfg.width, v as f64 / 4096.0);
        }
    }

    fn q(x: f64) -> i64 {
        fxp::const_q(x, CFG.frac)
    }

    /// Every `2^k` and `2^k ± 1` in `[1, top]`, and 64 random values of
    /// it.
    fn powers_and_random(top: i64, seed: u64) -> Vec<i64> {
        let mut rng = seeded(seed);
        let mut xs: Vec<i64> = (0..63)
            .map(|k| 1i64 << k)
            .take_while(|&p| p <= top)
            .flat_map(|p| [p - 1, p, p + 1])
            .filter(|&x| (1..=top).contains(&x))
            .collect();
        xs.extend((0..64).map(|_| rng.gen_range(1..=top)));
        xs
    }

    /// Every `d` the table holds and the first past it, both sides of
    /// the shift cap, and values up to the largest positive word.
    #[test]
    fn exp_neg_bit_exact() {
        for cfg in WIDTHS {
            let mut xs: Vec<i64> = (0..=1 << 16).collect();
            xs.extend([39_749, 39_750]);
            xs.extend(powers_and_random((1 << (cfg.width - 1)) - 1, 0xe4));
            check_unary(cfg, exp_neg, |v| fxp::exp_neg(v, cfg.frac), &xs);
            assert_eq!(exp_neg_table(cfg.frac).index_bits(), 16, "39 750 needs 16 bits");
        }
    }

    /// Every `x` below `2^16`, then powers of two up to `2^(w−2)` and
    /// their neighbours.
    fn positive_inputs(cfg: GcNumCfg) -> Vec<i64> {
        let mut xs: Vec<i64> = (1..1 << 16).collect();
        xs.extend(powers_and_random(1 << (cfg.width - 2), 0x7ec));
        xs
    }

    #[test]
    fn recip_bit_exact() {
        for cfg in WIDTHS {
            check_unary(cfg, recip, |v| fxp::recip(v, cfg.frac), &positive_inputs(cfg));
        }
    }

    #[test]
    fn rsqrt_bit_exact() {
        for cfg in WIDTHS {
            check_unary(cfg, rsqrt, |v| fxp::rsqrt(v, cfg.frac), &positive_inputs(cfg));
        }
    }

    /// The tables of `recip` / `rsqrt` are indexed by the mantissa's low
    /// `frac` / `frac + 1` bits and hold 0 below `2^(frac−1)`: the
    /// normalised mantissa must land in that range for every input.
    #[test]
    fn normalised_mantissa_fits_the_table_index() {
        for cfg in WIDTHS {
            for (even, top) in [(false, 1i64 << cfg.frac), (true, 1 << (cfg.frac + 1))] {
                let mut b = CircuitBuilder::new();
                let x = b.garbler_input(cfg.width);
                let (m, _) = normalise(&mut b, cfg, &x, even);
                let c = b.build(&m);
                let xs = positive_inputs(cfg);
                for (x, m) in xs.iter().zip(eval_lanes(&c, &xs)) {
                    let reachable = 1i64 << (cfg.frac - 1);
                    assert!((reachable..top).contains(&m), "width {}, x {x}: m {m}", cfg.width);
                }
            }
        }
    }

    /// The exponent `normalise` returns keeps to the left-shift bound the
    /// shifters are built for: `s ≥ 1 − frac` for recip and `s ≥ −frac`
    /// for rsqrt.
    #[test]
    fn normalised_exponent_keeps_to_the_left_shift_bound() {
        for cfg in WIDTHS {
            let frac = i64::from(cfg.frac);
            for (even, min_s) in [(false, 1 - frac), (true, -frac)] {
                assert_eq!(max_left(cfg.frac, even) as i64, -min_s);
                let mut b = CircuitBuilder::new();
                let x = b.garbler_input(cfg.width);
                let (_, s) = normalise(&mut b, cfg, &x, even);
                let c = b.build(&s);
                let xs = positive_inputs(cfg);
                for (x, s) in xs.iter().zip(eval_lanes(&c, &xs)) {
                    assert!(s >= min_s, "width {}, even {even}, x {x}: s {s}", cfg.width);
                }
            }
        }
    }

    #[test]
    fn softmax_bit_exact() {
        let vals: Vec<i64> = [-1.0f64, 0.5, 2.0, 0.0].iter().map(|&x| q(x)).collect();
        let mut b = CircuitBuilder::new();
        let xs: Vec<Word> = (0..4).map(|_| b.garbler_input(CFG.width)).collect();
        let ys = softmax(&mut b, CFG, &xs);
        let flat: Vec<_> = ys.into_iter().flatten().collect();
        let c = b.build(&flat);
        let mut input_bits = Vec::new();
        for &v in &vals {
            input_bits.extend(to_bits(v, CFG.width));
        }
        let out = c.eval_plain(&input_bits, &[]);
        let want = fxp::softmax(&vals, CFG.frac);
        for (i, w) in want.iter().enumerate() {
            let got =
                from_bits_signed(&out[i * CFG.width..(i + 1) * CFG.width]);
            assert_eq!(got, *w, "softmax slot {i}");
        }
    }

    #[test]
    fn layer_norm_bit_exact() {
        let vals: Vec<i64> = [0.0f64, 0.5, 1.0, 1.5, -2.0, 0.25, 3.0, -0.5]
            .iter()
            .map(|&x| q(x))
            .collect();
        let gamma: Vec<i64> = (0..8).map(|i| q(1.0 + i as f64 / 16.0)).collect();
        let beta: Vec<i64> = (0..8).map(|i| q(i as f64 / 8.0 - 0.5)).collect();
        let mut b = CircuitBuilder::new();
        let xs: Vec<Word> = (0..8).map(|_| b.garbler_input(CFG.width)).collect();
        let ys = layer_norm(&mut b, CFG, &xs, &gamma, &beta);
        let flat: Vec<_> = ys.into_iter().flatten().collect();
        let c = b.build(&flat);
        let mut input_bits = Vec::new();
        for &v in &vals {
            input_bits.extend(to_bits(v, CFG.width));
        }
        let out = c.eval_plain(&input_bits, &[]);
        let inv_n = fxp::const_q(1.0 / 8.0, CFG.frac);
        let want = fxp::layer_norm(&vals, &gamma, &beta, inv_n, CFG.frac);
        for (i, w) in want.iter().enumerate() {
            let got = from_bits_signed(&out[i * CFG.width..(i + 1) * CFG.width]);
            assert_eq!(got, *w, "layer_norm slot {i}");
        }
    }

    #[test]
    fn softmax_gate_budget_is_sane() {
        let mut b = CircuitBuilder::new();
        let xs: Vec<Word> = (0..8).map(|_| b.garbler_input(CFG.width)).collect();
        let ys = softmax(&mut b, CFG, &xs);
        let flat: Vec<_> = ys.into_iter().flatten().collect();
        let c = b.build(&flat);
        // Eight exp table reads, a recip read and eight multiplies at 32
        // bits ≈ tens of thousands of ANDs; anything above a million
        // signals a gadget blowup.
        assert!(c.and_count() < 1_000_000, "and count {}", c.and_count());
        assert!(c.and_count() > 1_000, "and count suspiciously low");
    }
}
