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

use primer_core::gcmod::{build_step_circuit, GcStepKind};
use primer_gc::aes::{Aes128, FIXED_KEY};
use primer_gc::garble::{evaluate_with, garble_with, InputEncoding};
use primer_gc::label::GarbleHash;
use primer_gc::{Circuit, GcNumCfg};
use primer_he::params::HeParams;
use primer_math::rng::seeded;
use primer_math::{fxp, FixedSpec, Ring};
use primer_nn::PipelineSpec;
use rand::Rng;

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
    ([g_bits, e_bits], [gl, el])
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
/// garbler ran instances in pairs.
const GOLDEN: [(&str, usize, u64, u64); 12] = [
    ("trunc_sat", 1, 0x4c7417417e9f3b4a, 0x0f88ec5ae77dde5e),
    ("trunc_sat", 2, 0x88a6dcee2c460a6e, 0xd5511de237b4320d),
    ("trunc_sat", 3, 0x1b532b73caa17bea, 0xc3fab69ab1236282),
    ("softmax", 1, 0xb422d323db095ef0, 0x34fe47915d09e14e),
    ("softmax", 2, 0xafbaf86a2939cea3, 0x20d0464e147b5b6f),
    ("softmax", 3, 0xee1c2c6ce7833555, 0xf99834b90a815f6a),
    ("layer_norm_residual", 1, 0xd6ec6f55e828cf86, 0x73bbc93717231c56),
    ("layer_norm_residual", 2, 0x524c6b74cf3b5743, 0x8c68d05642f4f5d8),
    ("layer_norm_residual", 3, 0xb95b19c6e0c6f77a, 0x25ce5d49678c1908),
    ("gelu", 1, 0x103fa95487beed1a, 0x87ae5747f7a473d4),
    ("gelu", 2, 0x0f0559651bf2502f, 0x66c583d23a1018a0),
    ("gelu", 3, 0x1924e88741483199, 0x6b763215a12c1202),
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
