//! Warm-session correctness: a persistent session must serve its 2nd and
//! 3rd inference bit-identically to a fresh one-shot `Engine::run`, for
//! every protocol variant, and offline pools must drain and refill
//! without ever silently reusing consumed masks.

use primer::core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer::math::rng::seeded;
use primer::nn::{FixedTransformer, TransformerConfig, TransformerWeights};

fn engine_for(variant: ProtocolVariant, seed: u64) -> Engine {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(seed));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    Engine::new(sys, variant, fixed, GcMode::Simulated, seed + 1)
}

/// The headline reuse claim, per variant: one warm session serves the
/// same query three times through a pool of 2 (so the pool drains after
/// the second query and must refill for the third — a mid-serve refill
/// on a live transport), and every warm answer equals a fresh
/// `Engine::run` bit for bit.
#[test]
fn warm_sessions_are_bit_identical_to_fresh_runs() {
    let tokens = vec![4usize, 9, 23, 7];
    for variant in ProtocolVariant::all() {
        let engine = engine_for(variant, 820);
        let reports = engine.serve(&vec![tokens.clone(); 3], 2);
        assert_eq!(reports.len(), 3);
        let fresh = engine.run(&tokens);
        assert!(fresh.matches_plaintext_reference(), "{}: fresh run", variant.name());
        for (i, report) in reports.iter().enumerate() {
            assert!(
                report.matches_plaintext_reference(),
                "{}: warm inference {i} diverged from the reference",
                variant.name()
            );
            assert_eq!(
                report.logits,
                fresh.logits,
                "{}: warm inference {i} != fresh run on the same tokens",
                variant.name()
            );
            assert_eq!(report.predicted, fresh.predicted, "{}: prediction {i}", variant.name());
            // Setup is shared: every warm report amortizes over 3 queries.
            assert_eq!(report.session_queries, 3);
        }
        // The fresh one-shot session amortizes over exactly itself.
        assert_eq!(fresh.session_queries, 1);
    }
}

/// Amortization bookkeeping: in a warm batch the one-time setup cost is
/// identical across reports (it is the same session), each query still
/// pays its own offline + online work, and the amortized per-query cost
/// is strictly below setup + offline + online paid in full (what a
/// one-shot run charges).
#[test]
fn warm_batches_amortize_setup() {
    let engine = engine_for(ProtocolVariant::Fp, 830);
    let queries = vec![vec![1usize, 2, 3, 4], vec![31, 30, 29, 28], vec![7, 7, 7, 7]];
    let reports = engine.serve(&queries, queries.len());
    let setup = reports[0].steps.setup();
    assert!(setup.bytes > 0, "setup carries the Galois-key flight");
    for r in &reports {
        assert!(r.matches_plaintext_reference());
        assert_eq!(r.steps.setup().bytes, setup.bytes, "one session, one setup");
        assert_eq!(r.steps.setup().compute, setup.compute);
        assert!(r.steps.offline_total().bytes > 0, "per-query offline work");
        assert!(r.steps.online_total().bytes > 0, "per-query online work");
        let amortized = r.amortized_cost();
        let full = r.phases().amortized_per_query(1);
        assert!(
            amortized.compute < full.compute && amortized.bytes < full.bytes,
            "amortizing setup over 3 queries must beat paying it per query"
        );
    }
    // Different inputs through one warm session produce different logits.
    assert_ne!(reports[0].logits, reports[1].logits);
}
