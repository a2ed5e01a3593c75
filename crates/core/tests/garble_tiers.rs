//! The garbling pipeline is the same function of its seed on the software
//! and the hardware AES body: for real step circuits the offline frame,
//! the input encoding and the evaluated outputs agree byte for byte. The
//! body is picked by the `Aes128` handle passed in, not by the
//! environment, so both run in one process on any host.
//!
//! Golden digests pin the garbler's output itself for every session step
//! kind at the session's 48-bit words: a change to the garbling loops that
//! moves one byte of a frame or of an input encoding fails here, under
//! either body. Repeats 1, 2 and 3 cover a single instance, an instance
//! pair and an odd last instance. The digest is 64-bit FNV-1a — change
//! detection, not security.
//!
//! The GELU step is a table lookup, so it is checked exhaustively: on
//! every value of the format, plain and garbled, against the reference.
//! The SoftMax and LayerNorm steps read exp, recip and rsqrt from tables
//! (each gadget checked exhaustively in `primer_gc::nonlinear`); here the
//! whole steps meet the reference on random rows, saturating ones too.

use primer_core::gcmod::{
    bits_to_ring_words, build_step_circuit, reference_step, ring_words_to_bits, GcStepKind,
};
use primer_core::{build_session_circuits, ProtocolVariant, SystemConfig};
use primer_gc::aes::{Aes128, FIXED_KEY};
use primer_gc::arith::ring_bits;
use primer_gc::builder::{from_bits_unsigned, to_bits, CircuitBuilder};
use primer_gc::garble::{evaluate, evaluate_with, garble, garble_with, InputEncoding};
use primer_gc::label::GarbleHash;
use primer_gc::nonlinear::Table;
use primer_gc::{Circuit, GcNumCfg};
use primer_he::params::HeParams;
use primer_math::rng::seeded;
use primer_math::{fxp, FixedSpec, Ring};
use primer_nn::{FixedTransformer, PipelineSpec, TransformerConfig, TransformerWeights};
use proptest::prelude::*;
use rand::Rng;

/// The labels the evaluator holds for input bits `g_bits` / `e_bits`
/// under `enc`.
fn input_labels(enc: &InputEncoding, g_bits: &[bool], e_bits: &[bool]) -> [Vec<u128>; 2] {
    let gl = g_bits.iter().enumerate().map(|(i, &b)| enc.garbler_label(i, b)).collect();
    let el = e_bits
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let (l0, l1) = enc.evaluator_pair(i);
            if b {
                l1
            } else {
                l0
            }
        })
        .collect();
    [gl, el]
}

/// Random input bits for `circuit` drawn from `seed`, and the labels the
/// evaluator holds for them under `enc`.
fn random_inputs(
    circuit: &Circuit,
    enc: &InputEncoding,
    seed: u64,
) -> ([Vec<bool>; 2], [Vec<u128>; 2]) {
    let mut rng = seeded(seed);
    let g_bits: Vec<bool> = (0..circuit.garbler_inputs).map(|_| rng.gen()).collect();
    let e_bits: Vec<bool> = (0..circuit.evaluator_inputs).map(|_| rng.gen()).collect();
    let labels = input_labels(enc, &g_bits, &e_bits);
    ([g_bits, e_bits], labels)
}

fn check_tiers_agree(name: &str, circuit: &Circuit, seed: u64) {
    let hardware = Aes128::new(FIXED_KEY);
    if !hardware.is_hardware() {
        println!("note: no AES-NI on this host — {name}: software body only, nothing to compare");
        return;
    }
    let soft = GarbleHash::with_aes(Aes128::new_software(FIXED_KEY));
    let hard = GarbleHash::with_aes(hardware);

    let (frame_s, enc_s) = garble_with(circuit, &soft, &mut seeded(seed));
    let (frame_h, enc_h) = garble_with(circuit, &hard, &mut seeded(seed));
    assert!(frame_s.as_bytes() == frame_h.as_bytes(), "{name}: offline frames differ");
    assert_eq!(enc_s, enc_h, "{name}: input encodings differ");

    let ([g_bits, e_bits], [gl, el]) = random_inputs(circuit, &enc_s, seed + 1);
    // Each body evaluates the other's garbling.
    let out_s = evaluate_with(circuit, &soft, &frame_h, &gl, &el);
    let out_h = evaluate_with(circuit, &hard, &frame_s, &gl, &el);
    assert_eq!(out_s, out_h, "{name}: evaluated outputs differ");
    assert_eq!(out_h, circuit.eval_plain(&g_bits, &e_bits), "{name}: garbled != plain");
}

#[test]
fn step_circuits_garble_identically_on_both_aes_bodies() {
    let spec = PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12);
    let gc = GcNumCfg { width: 32, frac: 12 };
    let softmax = build_step_circuit(
        &GcStepKind::Softmax { rows: 4, cols: 4, prescale: fxp::const_q(0.5, 12) },
        &spec,
        gc,
    );
    check_tiers_agree("softmax 4x4", &softmax, 0x5a);
    let gamma: Vec<i64> = (0..4).map(|i| fxp::const_q(1.0 + i as f64 / 8.0, 12)).collect();
    let beta: Vec<i64> = (0..4).map(|i| fxp::const_q(i as f64 / 4.0 - 0.5, 12)).collect();
    let layer_norm =
        build_step_circuit(&GcStepKind::LayerNormResidual { rows: 2, cols: 4, gamma, beta }, &spec, gc);
    check_tiers_agree("layer-norm residual 2x4", &layer_norm, 0x1e);
}

/// 64-bit FNV-1a over `chunks`, in order.
fn fnv1a<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn encoding_digest(enc: &InputEncoding) -> u64 {
    let labels: Vec<[u8; 16]> = enc
        .garbler_zero
        .iter()
        .chain(&enc.evaluator_zero)
        .chain([&enc.delta])
        .map(|l| l.to_le_bytes())
        .collect();
    fnv1a(labels.iter().map(|l| &l[..]))
}

/// The step circuit of `name` with `repeat` instances of its unit, at the
/// test profile's ring and the session's `GcNumCfg`.
fn step_circuit(name: &str, repeat: usize) -> Circuit {
    let t = HeParams::test_2k_wide().t();
    let spec = PipelineSpec::new(Ring::new(t), FixedSpec::new(12, 5), 12);
    let gc = GcNumCfg { width: 48, frac: 12 };
    let cols = 4;
    let kind = match name {
        "trunc_sat" => GcStepKind::TruncSat { elems: repeat },
        "gelu" => GcStepKind::Gelu { elems: repeat },
        "softmax" => GcStepKind::Softmax { rows: repeat, cols, prescale: fxp::const_q(0.5, 12) },
        "layer_norm_residual" => GcStepKind::LayerNormResidual {
            rows: repeat,
            cols,
            gamma: (0..cols).map(|i| fxp::const_q(1.0 + i as f64 / 8.0, 12)).collect(),
            beta: (0..cols).map(|i| fxp::const_q(i as f64 / 4.0 - 0.5, 12)).collect(),
        },
        _ => unreachable!("unknown step {name}"),
    };
    let circuit = build_step_circuit(&kind, &spec, gc);
    assert_eq!(circuit.repeat(), repeat, "{name}");
    circuit
}

/// `(frame digest, encoding digest)` of `circuit` garbled under `hash`
/// from `seed`; also checks that the garbling evaluates to `eval_plain`.
fn digests(name: &str, circuit: &Circuit, hash: &GarbleHash, seed: u64) -> (u64, u64) {
    let (garbled, enc) = garble_with(circuit, hash, &mut seeded(seed));
    let ([g_bits, e_bits], [gl, el]) = random_inputs(circuit, &enc, seed ^ 0xffff);
    let out = evaluate_with(circuit, hash, &garbled, &gl, &el);
    assert_eq!(out, circuit.eval_plain(&g_bits, &e_bits), "{name}: garbled != plain");
    (fnv1a([garbled.as_bytes()]), encoding_digest(&enc))
}

/// `(step, repeat, frame digest, encoding digest)`, recorded before the
/// garbler ran instances in pairs; GELU's frames re-recorded when its
/// step became a table lookup, and the other steps' frames when the
/// share wrapper took the result's low `bits` only and SoftMax and
/// LayerNorm read exp, recip and rsqrt from tables, and every step's
/// frames when the builder's adders, comparators and multipliers came to
/// run over their operands' significant bits only (no encoding moved).
const GOLDEN: [(&str, usize, u64, u64); 12] = [
    ("trunc_sat", 1, 0x67e5c9ef0392bf11, 0x0f88ec5ae77dde5e),
    ("trunc_sat", 2, 0xc86f29fe63c04a75, 0xd5511de237b4320d),
    ("trunc_sat", 3, 0x3e249afeb6121e3a, 0xc3fab69ab1236282),
    ("softmax", 1, 0xc967e96857d1a111, 0x34fe47915d09e14e),
    ("softmax", 2, 0x9e5f15db910bbfd5, 0x20d0464e147b5b6f),
    ("softmax", 3, 0xbfa883fe88b02d9e, 0xf99834b90a815f6a),
    ("layer_norm_residual", 1, 0xe106c9e8eab64f21, 0x73bbc93717231c56),
    ("layer_norm_residual", 2, 0x0cf5f46fb1458bc2, 0x8c68d05642f4f5d8),
    ("layer_norm_residual", 3, 0xd516d6dfc2822f5a, 0x25ce5d49678c1908),
    ("gelu", 1, 0xaa0fb7a834205702, 0x87ae5747f7a473d4),
    ("gelu", 2, 0xfe3fedce44fb3572, 0x66c583d23a1018a0),
    ("gelu", 3, 0x2318ebb1f83efa2f, 0x6b763215a12c1202),
];

fn check_golden(hash: &GarbleHash, body: &str) {
    let mut drift = Vec::new();
    for (i, &(name, repeat, frame, enc)) in GOLDEN.iter().enumerate() {
        let circuit = step_circuit(name, repeat);
        let got = digests(name, &circuit, hash, 0x6c0 + i as u64);
        if got != (frame, enc) {
            drift.push(format!("(\"{name}\", {repeat}, {:#018x}, {:#018x}),", got.0, got.1));
        }
    }
    assert!(drift.is_empty(), "{body} AES body: digests drifted:\n{}", drift.join("\n"));
}

#[test]
fn step_frames_match_golden_digests_on_the_software_body() {
    check_golden(&GarbleHash::with_aes(Aes128::new_software(FIXED_KEY)), "software");
}

#[test]
fn step_frames_match_golden_digests_on_the_hardware_body() {
    let aes = Aes128::new(FIXED_KEY);
    if !aes.is_hardware() {
        println!("note: no AES-NI on this host — the software test covers the digests");
        return;
    }
    check_golden(&GarbleHash::with_aes(aes), "hardware");
}

/// ROADMAP item 3's GC budget, held in Tier-1 as `circuit_stats --check`
/// holds it in CI: a test-tiny Primer-FPC query garbles at most 400 000
/// ANDs, and no step unit — LayerNorm's row is the largest — more than
/// 20 000.
#[test]
fn test_tiny_query_stays_within_the_gc_budget() {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("test profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(4007));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    let circuits = build_session_circuits(&sys, ProtocolVariant::Fpc, &fixed);
    let largest = circuits.iter().map(Circuit::unit_and_count).max().expect("steps");
    let query: usize = circuits.iter().map(Circuit::and_count).sum();
    assert!(largest <= 20_000, "a step unit needs {largest} ANDs");
    assert!(query <= 400_000, "the query needs {query} ANDs");
}

/// Raw (product-scale) inputs covering every value of `fixed` after
/// truncation — each value with random low bits, which the truncation
/// floors away — then inputs that saturate either way.
fn every_gelu_input(fixed: FixedSpec, t: u64) -> Vec<i64> {
    let mut rng = seeded(0x6e1);
    let frac = fixed.frac();
    let mut raw: Vec<i64> = (fixed.min_raw()..=fixed.max_raw())
        .map(|x| (x << frac) + rng.gen_range(0..1i64 << frac))
        .collect();
    let past = (fixed.max_raw() + 1) << frac;
    let edge = (t / 2) as i64 - 1;
    raw.extend([past, -past - 1, 3 * past, -3 * past, edge, -edge]);
    raw
}

/// `kind` at `fixed` on `raw` (and `residual`, for a step that takes
/// one) through `run` (circuit, client bits, server bits → server output
/// bits), shares and masks drawn at random: the server's share plus the
/// mask must equal `reference_step`.
fn check_step(
    kind: &GcStepKind,
    fixed: FixedSpec,
    t: u64,
    raw: &[i64],
    residual: &[i64],
    run: impl FnOnce(&Circuit, &[bool], &[bool]) -> Vec<bool>,
) {
    let spec = PipelineSpec::new(Ring::new(t), fixed, 12);
    let ring = spec.ring;
    let rb = ring_bits(t);
    let circuit = build_step_circuit(kind, &spec, GcNumCfg { width: 48, frac: 12 });
    let mut rng = seeded(0x6e2);
    let mut share = |vals: &[i64]| -> (Vec<u64>, Vec<u64>) {
        let client: Vec<u64> = vals.iter().map(|_| ring.random(&mut rng)).collect();
        let server =
            vals.iter().zip(&client).map(|(&v, &c)| ring.sub(ring.from_signed(v), c)).collect();
        (client, server)
    };
    let (client, server) = share(raw);
    let (res_client, res_server) = share(residual);
    let masks: Vec<u64> = (0..raw.len()).map(|_| ring.random(&mut rng)).collect();
    let client_bits = ring_words_to_bits(&[&client[..], &res_client, &masks].concat(), rb);
    let server_bits = ring_words_to_bits(&[server, res_server].concat(), rb);
    let out = bits_to_ring_words(&run(&circuit, &client_bits, &server_bits), rb);
    let want = reference_step(kind, &spec, raw, residual);
    for (i, (&o, &m)) in out.iter().zip(&masks).enumerate() {
        let got = ring.to_signed(ring.add(o, m));
        assert_eq!(got, want[i], "{fixed:?}: element {i}, raw input {}", raw[i]);
    }
}

fn check_gelu_step(
    fixed: FixedSpec,
    t: u64,
    raw: &[i64],
    run: impl FnOnce(&Circuit, &[bool], &[bool]) -> Vec<bool>,
) {
    check_step(&GcStepKind::Gelu { elems: raw.len() }, fixed, t, raw, &[], run);
}

#[test]
fn gelu_step_equals_reference_on_every_value_at_the_test_format() {
    let (fixed, t) = (FixedSpec::new(12, 5), HeParams::test_2k_wide().t());
    check_gelu_step(fixed, t, &every_gelu_input(fixed, t), |c, g, e| c.eval_plain(g, e));
}

#[test]
fn gelu_step_equals_reference_on_every_value_at_the_paper_format() {
    let (fixed, t) = (FixedSpec::paper(), HeParams::paper_8k().t());
    check_gelu_step(fixed, t, &every_gelu_input(fixed, t), |c, g, e| c.eval_plain(g, e));
}

#[test]
fn garbled_gelu_step_equals_reference_on_every_value_at_the_test_format() {
    let (fixed, t) = (FixedSpec::new(12, 5), HeParams::test_2k_wide().t());
    check_gelu_step(fixed, t, &every_gelu_input(fixed, t), garbled_run);
}

/// Garbles `c` and evaluates it on the given bits.
fn garbled_run(c: &Circuit, g_bits: &[bool], e_bits: &[bool]) -> Vec<bool> {
    let (garbled, enc) = garble(c, &mut seeded(0x6e3));
    let [gl, el] = input_labels(&enc, g_bits, e_bits);
    evaluate(c, &garbled, &gl, &el)
}

const COLS: usize = 5;

/// A SoftMax step over `rows` random rows of raw scores, and those
/// scores: moderate rows, rows spread so wide that every exp but the
/// largest underflows (probabilities 1 and 0), rows of equal scores and
/// rows at the ring's edge, `±(t/2 − 1)`.
fn softmax_case(fixed: FixedSpec, t: u64, rows: usize) -> (GcStepKind, Vec<i64>) {
    let mut rng = seeded(0x50f);
    let edge = (t / 2) as i64 - 1;
    let moderate = 8i64 << (2 * fixed.frac());
    let raw = (0..rows)
        .flat_map(|r| {
            let row: Vec<i64> = match r % 4 {
                0 => (0..COLS).map(|_| rng.gen_range(-moderate..=moderate)).collect(),
                1 => (0..COLS).map(|_| rng.gen_range(-edge..=edge)).collect(),
                2 => vec![rng.gen_range(-moderate..=moderate); COLS],
                _ => (0..COLS).map(|c| [edge, -edge, 0][(c + r) % 3]).collect(),
            };
            row
        })
        .collect();
    let prescale = fxp::const_q(0.5, 12);
    (GcStepKind::Softmax { rows, cols: COLS, prescale }, raw)
}

/// A LayerNormResidual step over `rows` random rows, its raw products
/// and its residual stream: values across the format with random low
/// product bits, products that saturate either way, and constant rows
/// (variance ε only).
fn layer_norm_case(fixed: FixedSpec, rows: usize) -> (GcStepKind, Vec<i64>, Vec<i64>) {
    let mut rng = seeded(0x1a7);
    let frac = fixed.frac();
    let past = (fixed.max_raw() + 1) << frac;
    let mut raw = Vec::with_capacity(rows * COLS);
    let mut residual = Vec::with_capacity(rows * COLS);
    let values = fixed.min_raw()..=fixed.max_raw();
    for r in 0..rows {
        for c in 0..COLS {
            let (x, res) = match r % 3 {
                0 => {
                    let x = rng.gen_range(values.clone()) << frac;
                    (x | rng.gen_range(0..1i64 << frac), rng.gen_range(values.clone()))
                }
                1 => ([past, -past - 1, 3 * past][c % 3], rng.gen_range(values.clone())),
                _ => (fixed.max_raw() << frac, fixed.max_raw()),
            };
            raw.push(x);
            residual.push(res);
        }
    }
    let gamma = (0..COLS).map(|_| fxp::const_q(rng.gen_range(-2.0..2.0), 12)).collect();
    let beta = (0..COLS).map(|_| fxp::const_q(rng.gen_range(-1.0..1.0), 12)).collect();
    (GcStepKind::LayerNormResidual { rows, cols: COLS, gamma, beta }, raw, residual)
}

fn check_rows(fixed: FixedSpec, t: u64, rows: usize, garbled: bool) {
    let run = |c: &Circuit, g: &[bool], e: &[bool]| {
        if garbled {
            garbled_run(c, g, e)
        } else {
            c.eval_plain(g, e)
        }
    };
    let (softmax, scores) = softmax_case(fixed, t, rows);
    check_step(&softmax, fixed, t, &scores, &[], run);
    let (layer_norm, raw, residual) = layer_norm_case(fixed, rows);
    check_step(&layer_norm, fixed, t, &raw, &residual, run);
}

#[test]
fn softmax_and_layer_norm_steps_equal_reference_on_random_rows_at_the_test_format() {
    check_rows(FixedSpec::new(12, 5), HeParams::test_2k_wide().t(), 96, false);
}

#[test]
fn softmax_and_layer_norm_steps_equal_reference_on_random_rows_at_the_paper_format() {
    check_rows(FixedSpec::paper(), HeParams::paper_8k().t(), 96, false);
}

#[test]
fn garbled_softmax_and_layer_norm_steps_equal_reference_at_the_test_format() {
    check_rows(FixedSpec::new(12, 5), HeParams::test_2k_wide().t(), 24, true);
}

proptest! {
    /// A `Table` reads back every entry of a random table, whichever
    /// split it picks.
    #[test]
    fn lookup_reads_every_entry_of_a_random_table(
        index_bits in 1usize..=6,
        out_bits in 1usize..=5,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = seeded(seed);
        let table: Vec<u64> =
            (0..1usize << index_bits).map(|_| rng.gen_range(0..1u64 << out_bits)).collect();
        let mut b = CircuitBuilder::new();
        let index = b.garbler_input(index_bits);
        let out = Table::new(&table).read(&mut b, &index);
        let c = b.build(&out);
        prop_assert_eq!(c.unreachable_gates(), 0);
        for (i, &want) in table.iter().enumerate() {
            let got = from_bits_unsigned(&c.eval_plain(&to_bits(i as i64, index_bits), &[]));
            prop_assert_eq!(got, want, "index {}", i);
        }
    }
}
