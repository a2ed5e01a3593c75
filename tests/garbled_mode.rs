//! Full-fidelity garbled execution: the same step circuits the engine
//! uses, run through real half-gates garbling and IKNP OTs — one step on
//! its own, and whole sessions whose steps share one IKNP extension.

use primer::core::gcmod::{
    bits_to_ring_words, build_step_circuit, reference_step, ring_words_to_bits, GcClientStep,
    GcMode, GcServerStep, GcStepKind,
};
use primer::core::{
    build_session_circuits, ClientSession, ProtocolVariant, ServerSession, SystemConfig,
};
use primer::gc::arith::ring_bits;
use primer::gc::{GcNumCfg, OtGroup};
use primer::math::rng::seeded;
use primer::math::{FixedSpec, MatZ, Ring};
use primer::net::{run_two_party, run_two_party_persistent};
use primer::nn::{FixedTransformer, PipelineSpec, TransformerConfig, TransformerWeights};
use primer::ss::share_vec;
use std::sync::Arc;

/// Runs the TruncSat step garbled and simulated; both must agree with the
/// reference (and therefore with each other).
#[test]
fn garbled_and_simulated_agree_with_reference() {
    let spec = PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12);
    let gc = GcNumCfg { width: 32, frac: 12 };
    let ring = spec.ring;
    let rb = ring_bits(ring.modulus());
    let kind = GcStepKind::TruncSat { elems: 4 };
    let circuit = build_step_circuit(&kind, &spec, gc);

    let raw: Vec<i64> = vec![12_345, -9_876, 1 << 12, -(1 << 14)];
    let raw_ring: Vec<u64> = raw.iter().map(|&v| ring.from_signed(v)).collect();
    let mut rng = seeded(700);
    let (c_share, s_share) = share_vec(&ring, &raw_ring, &mut rng);
    let masks = MatZ::random(&ring, 1, 4, &mut rng).into_vec();

    let mut client_vals = c_share.clone();
    client_vals.extend_from_slice(&masks);
    let client_bits = ring_words_to_bits(&client_vals, rb);
    let server_bits = ring_words_to_bits(&s_share, rb);

    for mode in [GcMode::Garbled, GcMode::Simulated] {
        let (c1, c2) = (circuit.clone(), circuit.clone());
        let (cb, sb) = (client_bits.clone(), server_bits.clone());
        let (_, out_bits, _) = run_two_party(
            move |t| {
                let mut rng = seeded(701);
                let step = GcClientStep::offline(&c1, mode, &OtGroup::test_768(), &t, &mut rng);
                step.online(&c1, &t, &cb);
            },
            move |t| {
                let mut rng = seeded(702);
                let step = GcServerStep::offline(&c2, mode, &OtGroup::test_768(), &t, &mut rng);
                step.try_online(&c2, &t, &sb).expect("well-formed client flights")
            },
        );
        let server_out = bits_to_ring_words(&out_bits, rb);
        let want = reference_step(&kind, &spec, &raw, &[]);
        for i in 0..4 {
            let got = ring.to_signed(ring.add(server_out[i], masks[i]));
            assert_eq!(got, want[i], "elem {i} in {mode:?}");
        }
    }
}

/// A garbled Fpc session of three queries over a pool of two: two
/// refills, the second continuing the session's IKNP extension where the
/// first left off, on base OTs run once. Every query is bit-exact against
/// the plaintext reference; a same-seed simulated session meters exactly
/// the same bytes; and garbled mode's flights are simulated mode's plus,
/// per step, one column flight offline and two more online, plus the
/// three base-OT flights once.
#[test]
fn garbled_session_refills_continue_one_extension() {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("test-tiny fits the test profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(710));
    let fixed = Arc::new(FixedTransformer::quantize(&cfg, &weights, sys.pipeline));
    let circuits = Arc::new(build_session_circuits(&sys, ProtocolVariant::Fpc, &fixed));
    let queries = vec![vec![9usize, 2, 31, 12], vec![4, 9, 23, 7], vec![31, 30, 29, 28]];
    let (total, pool) = (queries.len(), 2);
    let run = |mode: GcMode| {
        let (sys_c, sys_s) = (sys.clone(), sys.clone());
        let (fixed_c, fixed_s) = (Arc::clone(&fixed), Arc::clone(&fixed));
        let (circuits_c, circuits_s) = (Arc::clone(&circuits), Arc::clone(&circuits));
        let variant = ProtocolVariant::Fpc;
        let (logits, _, meter) = run_two_party_persistent(
            queries.clone(),
            move |t| {
                ClientSession::setup(sys_c, variant, mode, fixed_c, circuits_c, 711, total, pool, t)
            },
            |cs: &mut ClientSession, tokens: Vec<usize>, t| {
                cs.infer(&tokens, t).expect("in-process flight cannot be malformed")
            },
            move |t| {
                ServerSession::setup(sys_s, variant, mode, fixed_s, circuits_s, 711, total, pool, t)
                    .expect("in-process key transfer cannot be malformed")
            },
            |ss: &mut ServerSession, _, t| {
                ss.serve_one(t).expect("in-process flight cannot be malformed");
            },
        );
        (logits, meter.total_bytes(), meter.total_messages())
    };

    let (garbled, garbled_bytes, garbled_flights) = run(GcMode::Garbled);
    for (i, (tokens, logits)) in queries.iter().zip(&garbled).enumerate() {
        assert_eq!(logits, &fixed.logits_combined(tokens), "query {i}");
    }
    let (simulated, simulated_bytes, simulated_flights) = run(GcMode::Simulated);
    assert_eq!(simulated, garbled);
    assert_eq!(garbled_bytes, simulated_bytes, "garbled vs simulated bytes");
    let per_query = 3 * circuits.len() as u64;
    assert_eq!(per_query, 18, "six GC steps per test-tiny Fpc query");
    assert_eq!(garbled_flights, simulated_flights + per_query * total as u64 + 3);
}
