//! Thread-count determinism: the parallel offline/HE hot path must be a
//! pure performance knob. For every protocol variant, end-to-end private
//! inference over a multi-bundle session must produce **bit-identical**
//! logits at `PRIMER_THREADS=1`, `2` and `8` — and match the plaintext
//! fixed-point reference at every setting.
//!
//! This is the contract DESIGN.md §9 states: masks, encryption
//! randomness and the wire schedule are derived from session seeds and
//! the negotiated batch size alone, never from worker scheduling. The
//! companion failure-path tests (a worker panic inside a parallel refill
//! closing the shared pool loudly) live in `primer_core`'s
//! `session::pool` unit tests and `vendor/rayon`'s scope tests.
//!
//! Everything runs in ONE `#[test]` because `PRIMER_THREADS` is
//! process-global state; integration-test files get their own process,
//! so no other suite observes the mutation.

use primer_core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer_math::rng::seeded;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};

fn engine_for(variant: ProtocolVariant) -> Engine {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(900));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    Engine::new(sys, variant, fixed, GcMode::Simulated, 901)
}

/// Three queries over a pool of two: the session runs one parallel
/// refill batch of 2 bundles plus a remainder batch of 1, covering both
/// the fan-out and the tail of the refill schedule.
fn serve_logits(variant: ProtocolVariant, threads: usize) -> Vec<Vec<i64>> {
    std::env::set_var("PRIMER_THREADS", threads.to_string());
    let queries = vec![vec![3, 17, 0, 29], vec![5, 5, 30, 1], vec![9, 2, 31, 12]];
    let reports = engine_for(variant).serve(&queries, 2);
    for (i, report) in reports.iter().enumerate() {
        assert!(
            report.matches_plaintext_reference(),
            "{} query {i} at {threads} thread(s): private {:?} != reference {:?}",
            variant.name(),
            report.logits,
            report.reference_logits
        );
    }
    reports.into_iter().map(|r| r.logits).collect()
}

#[test]
fn all_variants_bit_identical_across_thread_counts() {
    for variant in ProtocolVariant::all() {
        let baseline = serve_logits(variant, 1);
        for threads in [2usize, 8] {
            let got = serve_logits(variant, threads);
            assert_eq!(
                got,
                baseline,
                "{} logits diverged between 1 and {threads} threads",
                variant.name()
            );
        }
    }
}
