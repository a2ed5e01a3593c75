//! The garbling pipeline is the same function of its seed on the software
//! and the hardware AES body: for real step circuits the offline frame,
//! the input encoding and the evaluated outputs agree byte for byte. The
//! body is picked by the `Aes128` handle passed in, not by the
//! environment, so both run in one process on any host.

use primer_core::gcmod::{build_step_circuit, GcStepKind};
use primer_gc::aes::{Aes128, FIXED_KEY};
use primer_gc::garble::{evaluate_with, garble_with};
use primer_gc::label::GarbleHash;
use primer_gc::{Circuit, GcNumCfg};
use primer_math::rng::seeded;
use primer_math::{fxp, FixedSpec, Ring};
use primer_nn::PipelineSpec;
use rand::Rng;

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

    let mut rng = seeded(seed + 1);
    let g_bits: Vec<bool> = (0..circuit.garbler_inputs).map(|_| rng.gen()).collect();
    let e_bits: Vec<bool> = (0..circuit.evaluator_inputs).map(|_| rng.gen()).collect();
    let gl: Vec<u128> = g_bits.iter().enumerate().map(|(i, &b)| enc_s.garbler_label(i, b)).collect();
    let el: Vec<u128> = e_bits
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let (l0, l1) = enc_s.evaluator_pair(i);
            if b {
                l1
            } else {
                l0
            }
        })
        .collect();
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
