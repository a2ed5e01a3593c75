//! The layout selector's correctness bar beyond the default sessions
//! (which `tests/private_inference.rs` checks bit-exact on every
//! variant).
//!
//! * **The noise gate is sound:** on every parameter profile where
//!   [`input_mode_noise_safe`] approves the input-rotation chain, the
//!   **measured** post-matmul noise of a real encrypted matmul stays at
//!   or below the analytic worst-case bound the gate compared against
//!   the budget.
//! * **Output-rotation chains and diagonal FHGS run on the selected key
//!   plan.** `test_tiny` selects input-rotation chains and zero-rotation
//!   FHGS everywhere on the tokens-first variants; a 32-token, 32-wide,
//!   one-head model is where the selector picks tokens-first
//!   output-rotation chains and diagonal FHGS. There, server Setup must
//!   accept the client's key plan, and a diagonal FHGS product must
//!   reconstruct with exactly the plan's keys. (A full query at that
//!   shape is too heavy for a test: GELU alone is ≈ 150 M ANDs.)

use primer_core::costmodel::layout::{
    fhgs_mode, fingerprint, galois_steps, input_mode_noise_safe,
};
use primer_core::fhgs::{self, FhgsDims, FhgsMode};
use primer_core::packing::{
    decrypt_matrix, encrypt_matrix, matmul_weights, tf_chain_terms_max, tf_input_steps,
    MatmulWeights, RotationMode,
};
use primer_core::{
    build_session_circuits, ClientSession, GcMode, Packing, ProtocolVariant, ServerSession,
    SystemConfig,
};
use primer_he::{
    BatchEncoder, Encryptor, Evaluator, HeContext, HeParams, KeyGenerator, NoiseModel,
};
use primer_math::rng::seeded;
use primer_math::{MatZ, Ring};
use primer_net::{run_two_party, MemTransport};
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::sync::Arc;

/// Runs one input-mode encrypted matmul on `params` and asserts the
/// measured output noise stays under the analytic chain bound (and the
/// product is exact). Returns the worst measured/bound gap in bits.
fn measure_input_chain(params: &HeParams) -> f64 {
    let (rows, cols, out_cols) = (4usize, 32, 8);
    let ctx = HeContext::new(params.clone());
    let ring = Ring::new(params.t());
    let model = NoiseModel::new(params);
    let encoder = BatchEncoder::new(&ctx);
    let mut rng = seeded(810);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 811);
    let eval = Evaluator::new(&ctx);
    let keys = kg.galois_keys(&tf_input_steps(rows, cols, out_cols, encoder.row_size()), false, &mut rng);

    let x = MatZ::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) % 41) as u64);
    let w = MatZ::from_fn(cols, out_cols, |i, j| ((i * 5 + j * 13) % 37) as u64);
    let packed = encrypt_matrix(Packing::TokensFirst, &x, &encoder, &encryptor);
    let out = matmul_weights(
        &packed,
        &MatmulWeights::Fresh { w: &w, encoder: &encoder, mode: RotationMode::Input },
        &eval,
        &keys,
    )
    .expect("dedicated keys provisioned");
    assert_eq!(decrypt_matrix(&out, &encoder, &encryptor), x.matmul(&ring, &w));

    // The bound the selector's gate compared against the budget: every
    // term is a rotated-then-masked ciphertext, `terms` of them summed.
    let term = model.mul_plain_bits(model.rotated_bits(model.fresh_bits()));
    let terms = tf_chain_terms_max(rows, cols, out_cols, params.row_size());
    let bound = NoiseModel::sum_bits(term, terms);
    let mut worst_gap = f64::NEG_INFINITY;
    for ct in &out.cts {
        let measured = model.measured_bits(encryptor.noise_budget(ct));
        assert!(
            measured <= bound,
            "measured {measured:.1} bits exceeds analytic bound {bound:.1} (n={})",
            params.n()
        );
        worst_gap = worst_gap.max(measured - bound);
    }
    worst_gap
}

#[test]
fn the_noise_gate_is_sound() {
    // Wherever the model approves the input-rotation chain, real
    // ciphertexts must obey the bound it reasoned about (toy is the
    // designed counterexample: gated off).
    let (rows, cols, out_cols) = (4usize, 32, 8);
    assert!(!input_mode_noise_safe(&HeParams::toy(), rows, cols, out_cols));
    for params in [HeParams::test_2k(), HeParams::test_2k_wide(), HeParams::paper_8k()] {
        if input_mode_noise_safe(&params, rows, cols, out_cols) {
            let gap = measure_input_chain(&params);
            assert!(gap <= 0.0, "bound violated by {gap:.1} bits at n={}", params.n());
        }
    }
    // At least the wide test profile must actually take the measured
    // branch, or this test silently checked nothing.
    assert!(input_mode_noise_safe(&HeParams::test_2k_wide(), rows, cols, out_cols));
}

#[test]
fn output_chains_and_diagonal_fhgs_run_on_the_selected_key_plan() {
    // 32 tokens, 32 wide, one head: on the test profile the plan mixes
    // output- and input-rotation tokens-first chains and runs the
    // attention FHGS in diagonal mode.
    let cfg = TransformerConfig::new("wide-32", 32, 1, 32, 1, 32, 3);
    let sys = SystemConfig::test_profile(&cfg).expect("profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(820));
    let fixed = Arc::new(FixedTransformer::quantize(&cfg, &weights, sys.pipeline));

    // Setup: the server's key-coverage check accepts the client's plan,
    // hoisted input-mode steps and output-mode chain steps alike.
    for variant in [ProtocolVariant::Fp, ProtocolVariant::Fpc] {
        assert_eq!(fingerprint(&sys, variant), "oooooioi/dd", "{}", variant.name());
        let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
        let (ct, st, _meter) = MemTransport::pair();
        let (sys_s, fixed_s, circuits_s) = (sys.clone(), Arc::clone(&fixed), Arc::clone(&circuits));
        let server = std::thread::spawn(move || {
            ServerSession::setup(
                sys_s, variant, GcMode::Simulated, fixed_s, circuits_s, 821, 1, 1, &st,
            )
            .map(drop)
        });
        let _client = ClientSession::setup(
            sys.clone(),
            variant,
            GcMode::Simulated,
            Arc::clone(&fixed),
            circuits,
            821,
            1,
            1,
            &ct,
        );
        server
            .join()
            .expect("server thread")
            .unwrap_or_else(|e| panic!("{}: Setup refused the key plan: {e}", variant.name()));
    }

    // The attention product (score and attention×value share one shape
    // here) runs diagonal, with keys for exactly the plan's steps.
    let dims = FhgsDims { n: cfg.n_tokens, k: cfg.d_head(), m: cfg.n_tokens };
    let mode = fhgs_mode(sys.he.params(), Packing::TokensFirst, dims);
    assert_eq!(mode, FhgsMode::Diagonal(Packing::TokensFirst));
    let plan = galois_steps(&sys, ProtocolVariant::Fp);
    let ctx = sys.he.clone();
    let ring = sys.ring();
    let mut rng = seeded(822);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key().clone();
    let keys = kg.galois_keys(&plan, false, &mut rng);
    assert_eq!(keys.steps(), plan.as_slice(), "one dedicated key per planned step");

    let a = MatZ::from_fn(dims.n, dims.k, |i, j| ((i * 13 + j * 3) % 50) as u64);
    let b = MatZ::from_fn(dims.k, dims.m, |i, j| ((i * 7 + j * 17) % 50) as u64);
    let (ctx_c, ctx_s) = (ctx.clone(), ctx);
    let (a_c, b_c) = (a.clone(), b.clone());
    let (client_share, (server_share, rotations), _) = run_two_party(
        move |t| {
            let encoder = BatchEncoder::new(&ctx_c);
            let encryptor = Encryptor::new(&ctx_c, sk, 823);
            let ring = Ring::new(ctx_c.params().t());
            let mut rng = seeded(824);
            let rc_a = MatZ::random(&ring, dims.n, dims.k, &mut rng);
            let rc_b = MatZ::random(&ring, dims.k, dims.m, &mut rng);
            let (pre, flights) =
                fhgs::client_request(&ring, mode, rc_a, rc_b, &encoder, &encryptor, &mut rng);
            for flight in &flights {
                flight.send(&t);
            }
            primer_core::wire::send_matrix(&t, &a_c.sub(&ring, &pre.rc_a));
            primer_core::wire::send_matrix(&t, &b_c.sub(&ring, &pre.rc_b));
            fhgs::client_online(&pre, &ring, &ctx_c, &encoder, &encryptor, &t)
                .expect("in-process flight")
        },
        move |t| {
            let encoder = BatchEncoder::new(&ctx_s);
            let eval = Evaluator::new(&ctx_s);
            let ring = Ring::new(ctx_s.params().t());
            let mut rng = seeded(825);
            let pre = fhgs::server_offline(&ring, mode, dims, &ctx_s, &encoder, &t, &mut rng)
                .expect("in-process flight");
            let ua = primer_core::wire::recv_matrix(&t).expect("in-process flight");
            let ub = primer_core::wire::recv_matrix(&t).expect("in-process flight");
            let share = fhgs::server_online(&pre, &ring, &ua, &ub, &encoder, &eval, &keys, &t);
            (share, eval.counts().rotations)
        },
    );
    assert!(rotations > 0, "the diagonal product must rotate");
    assert_eq!(client_share.add(&ring, &server_share), a.matmul(&ring, &b));
}
