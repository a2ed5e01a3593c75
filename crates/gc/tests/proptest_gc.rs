//! Property-based tests: circuit gadgets vs integer semantics, and
//! garbled evaluation vs plain evaluation.

use primer_gc::builder::{from_bits_signed, to_bits, CircuitBuilder};
use primer_gc::circuit::{Gate, OutBit};
use primer_gc::garble::{evaluate, garble};
use primer_gc::Circuit;
use primer_math::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// Garbles `c` and evaluates it on the labels of the given input bits.
fn garbled_eval(c: &Circuit, g_bits: &[bool], e_bits: &[bool], seed: u64) -> Vec<bool> {
    let (garbled, enc) = garble(c, &mut seeded(seed));
    let gl: Vec<u128> = g_bits.iter().enumerate().map(|(i, &v)| enc.garbler_label(i, v)).collect();
    let el: Vec<u128> = e_bits
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let (l0, l1) = enc.evaluator_pair(i);
            if v { l1 } else { l0 }
        })
        .collect();
    evaluate(c, &garbled, &gl, &el)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adder/subtractor/multiplier circuits match two's-complement
    /// integer arithmetic for arbitrary inputs.
    #[test]
    fn arithmetic_circuits_match_integers(a in -2048i64..2048, b in -2048i64..2048) {
        let width = 12;
        let mut bld = CircuitBuilder::new();
        let x = bld.garbler_input(width);
        let y = bld.evaluator_input(width);
        let sum = bld.add(&x, &y);
        let diff = bld.sub(&x, &y);
        let prod = bld.mul(&x, &y);
        let mut outs = sum;
        outs.extend(diff);
        outs.extend(prod);
        let c = bld.build(&outs);
        let out = c.eval_plain(&to_bits(a, width), &to_bits(b, width));
        prop_assert_eq!(from_bits_signed(&out[..width]), wrap(a + b, width));
        prop_assert_eq!(from_bits_signed(&out[width..2 * width]), wrap(a - b, width));
        prop_assert_eq!(from_bits_signed(&out[2 * width..]), wrap(a.wrapping_mul(b), width));
    }

    /// Garbled evaluation equals plain evaluation on a comparator+mux
    /// circuit for arbitrary inputs (the core garbling soundness claim).
    #[test]
    fn garbled_equals_plain(a in -128i64..128, b in -128i64..128, seed in 0u64..1000) {
        let width = 8;
        let mut bld = CircuitBuilder::new();
        let x = bld.garbler_input(width);
        let y = bld.evaluator_input(width);
        let lt = bld.lt_signed(&x, &y);
        let mx = bld.mux_word(lt, &y, &x); // max(x, y)
        let c = bld.build(&mx);
        let want = c.eval_plain(&to_bits(a, width), &to_bits(b, width));

        let got = garbled_eval(&c, &to_bits(a, width), &to_bits(b, width), seed);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(from_bits_signed(&got), a.max(b));
    }

    /// Dead-gate removal changes nothing observable: over random gate
    /// lists — most of whose gates feed no output — the compacted unit
    /// equals the list as given under plain evaluation and under
    /// garble → evaluate, run once or repeated.
    #[test]
    fn compacted_equals_uncompacted(
        seed in 0u64..1_000_000,
        n_gates in 1usize..160,
        repeat in 1usize..4,
    ) {
        let mut rng = seeded(seed);
        let (g_in, e_in) = (rng.gen_range(1..5u32), rng.gen_range(1..5u32));
        let first = g_in + e_in;
        let gates: Vec<Gate> = (0..n_gates as u32)
            .map(|k| {
                let (a, b) = (rng.gen_range(0..first + k), rng.gen_range(0..first + k));
                match rng.gen_range(0..3) {
                    0 => Gate::Xor(a, b),
                    1 => Gate::And(a, b),
                    _ => Gate::Inv(a),
                }
            })
            .collect();
        let outputs: Vec<OutBit> = (0..rng.gen_range(1..6))
            .map(|_| match rng.gen_range(0..8) {
                0 => OutBit::Const(rng.gen()),
                _ => OutBit::Wire(rng.gen_range(0..first + n_gates as u32)),
            })
            .collect();
        let planes = ([g_in as usize], [e_in as usize]);
        let raw = Circuit::from_gates(g_in, e_in, gates, outputs);
        let small = raw.clone().compact().repeated(repeat, &planes.0, &planes.1);
        let raw = raw.repeated(repeat, &planes.0, &planes.1);
        prop_assert_eq!(small.unreachable_gates(), 0);
        prop_assert_eq!(
            small.unit_gates().len() + raw.unreachable_gates(),
            raw.unit_gates().len()
        );
        prop_assert_eq!(
            (small.garbler_inputs, small.evaluator_inputs, small.num_outputs()),
            (raw.garbler_inputs, raw.evaluator_inputs, raw.num_outputs())
        );

        let g_bits: Vec<bool> = (0..raw.garbler_inputs).map(|_| rng.gen()).collect();
        let e_bits: Vec<bool> = (0..raw.evaluator_inputs).map(|_| rng.gen()).collect();
        let want = raw.eval_plain(&g_bits, &e_bits);
        prop_assert_eq!(&small.eval_plain(&g_bits, &e_bits), &want);
        prop_assert_eq!(&garbled_eval(&raw, &g_bits, &e_bits, seed), &want);
        prop_assert_eq!(&garbled_eval(&small, &g_bits, &e_bits, seed), &want);
    }

    /// Ring gadgets: add_mod/sub_mod match Z_t for arbitrary elements.
    #[test]
    fn mod_gadgets_match_ring(x in 0u64..769, y in 0u64..769) {
        use primer_gc::arith::{add_mod, ring_bits, sub_mod};
        let t = 769u64;
        let w = ring_bits(t);
        let mut bld = CircuitBuilder::new();
        let a = bld.garbler_input(w);
        let b = bld.evaluator_input(w);
        let s = add_mod(&mut bld, &a, &b, t);
        let d = sub_mod(&mut bld, &a, &b, t);
        let mut outs = s;
        outs.extend(d);
        let c = bld.build(&outs);
        let out = c.eval_plain(&to_bits(x as i64, w), &to_bits(y as i64, w));
        let got_sum = primer_gc::builder::from_bits_unsigned(&out[..w]);
        let got_diff = primer_gc::builder::from_bits_unsigned(&out[w..]);
        prop_assert_eq!(got_sum, (x + y) % t);
        prop_assert_eq!(got_diff, (x + t - y) % t);
    }

    /// The sigmoid circuit is bit-exact against fxp for arbitrary inputs
    /// in the numeric domain.
    #[test]
    fn sigmoid_circuit_bit_exact(x in -(6i64 << 12)..(6i64 << 12)) {
        use primer_gc::nonlinear::{sigmoid, GcNumCfg};
        let cfg = GcNumCfg { width: 32, frac: 12 };
        let mut bld = CircuitBuilder::new();
        let input = bld.garbler_input(cfg.width);
        let out = sigmoid(&mut bld, cfg, &input);
        let c = bld.build(&out);
        let got = from_bits_signed(&c.eval_plain(&to_bits(x, cfg.width), &[]));
        prop_assert_eq!(got, primer_math::fxp::sigmoid(x, cfg.frac));
    }
}
