//! Private sentiment classification on a synthetic SST-2-like task.
//!
//! Demonstrates the paper's accuracy claim: the Primer pipeline computes
//! the *exact* fixed-point function (no polynomial approximation), so its
//! task accuracy equals the fixed-point model's — while a THE-X-style
//! approximated pipeline measurably loses accuracy.
//!
//! Run: `cargo run --release --example private_sst2`

use primer::core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer::math::rng::seeded;
use primer::nn::{
    evaluate, Dataset, FixedTransformer, Task, Transformer, TransformerConfig,
    TransformerWeights,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg)?;
    let weights = TransformerWeights::random(&cfg, &mut seeded(11));
    let teacher = Transformer::new(cfg.clone(), weights.clone());
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);

    // Accuracy of the three pipelines on the synthetic SST-2 task.
    let dataset = Dataset::generate(Task::Sst2, &teacher, 40, &mut seeded(12));
    let report = evaluate(&teacher, &fixed, &dataset);
    println!("SST-2-like accuracy (teacher agreement, %):");
    println!("  float (exact)       : {:>5.1}", report.float_exact);
    println!("  fixed point (Primer): {:>5.1}", report.fixed_point);
    println!("  poly approx (THE-X) : {:>5.1}", report.poly_approx);
    println!("  approximation gap   : {:>5.1} points", report.approx_gap());

    // Now serve a few of those examples through the real private
    // protocol over one warm session (Setup and circuit construction run
    // once for the whole batch) and confirm each prediction equals the
    // fixed-point model's.
    let engine = Engine::new(sys, ProtocolVariant::Fp, fixed.clone(), GcMode::Simulated, 13);
    let queries: Vec<Vec<usize>> =
        dataset.examples.iter().take(3).map(|ex| ex.tokens.clone()).collect();
    for (ex, private) in dataset.examples.iter().zip(engine.serve(&queries, queries.len())) {
        let plain = fixed.classify(&ex.tokens);
        println!(
            "tokens {:?} → private class {} (plaintext fixed-point: {}, exact match: {})",
            ex.tokens,
            private.predicted,
            plain,
            private.matches_plaintext_reference()
        );
        assert_eq!(private.predicted, plain);
    }
    Ok(())
}
