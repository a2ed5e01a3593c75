//! The paper-scale parameter profile end to end: one `test_tiny` Fpc
//! query under `SystemConfig::paper_profile` (n = 8192, 43-bit
//! plaintext, 2048-bit OT group), in both GC modes.
//!
//! Each mode takes tens of seconds in a release build (≈ 20–27 s on a
//! 2-core x86-64 host) and far longer in debug, so the test is
//! `#[ignore]`d from the default run. Run it with
//! `cargo test --release -q --test paper_profile -- --ignored`.

use primer::core::costmodel::layout::chain_mode;
use primer::core::packing::matmul_counts_mode;
use primer::core::{Engine, GcMode, Packing, ProtocolVariant, SystemConfig};
use primer::math::rng::seeded;
use primer::nn::{FixedTransformer, TransformerConfig, TransformerWeights};

/// The query's logits equal the fixed-point reference bit for bit, and
/// its offline rotations are exactly the count model's total over the
/// session's weight matmuls, each in the mode the selector gave it.
#[test]
#[ignore = "paper profile: tens of seconds per GC mode in release"]
fn fpc_query_on_the_paper_profile_is_bit_exact_in_both_gc_modes() {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::paper_profile(&cfg).expect("test-tiny fits the paper profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(900));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    let tokens = [9usize, 2, 31, 12];

    // Fpc's weight matmuls: the embedding and the three combined
    // projections (CHGS), block 0's WO / W1 / W2, and the classifier.
    // Its FHGS triples are zero-rotation at this shape, so they add none.
    let (n, d, dff) = (cfg.n_tokens, cfg.d_model, cfg.d_ff);
    let shapes = [
        (n, cfg.vocab, d),
        (n, cfg.vocab, d),
        (n, cfg.vocab, d),
        (n, cfg.vocab, d),
        (n, d, d),
        (n, d, dff),
        (n, dff, d),
        (1, d, cfg.n_classes),
    ];
    let params = sys.he.params();
    let simd = params.row_size();
    let rotations: u64 = shapes
        .iter()
        .map(|&(rows, cols, out_cols)| {
            let mode = chain_mode(params, Packing::TokensFirst, rows, cols, out_cols);
            matmul_counts_mode(Packing::TokensFirst, rows, cols, out_cols, simd, mode).rotations
        })
        .sum();

    for mode in [GcMode::Simulated, GcMode::Garbled] {
        let engine = Engine::new(sys.clone(), ProtocolVariant::Fpc, fixed.clone(), mode, 901);
        let report = engine.run(&tokens);
        assert_eq!(report.logits, fixed.logits_combined(&tokens), "{mode:?}");
        assert!(report.matches_plaintext_reference(), "{mode:?}");
        assert_eq!(report.he_ops_offline.rotations, rotations, "{mode:?}");
    }
}
