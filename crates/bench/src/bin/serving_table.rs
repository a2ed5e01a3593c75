//! Amortized serving table: measured one-shot vs warm-session costs per
//! protocol variant, on the scaled test profile.
//!
//! For every variant with an offline phase this prints the one-shot
//! `Engine::run` wall-clock next to the warm `Engine::serve` amortized
//! per-inference wall-clock at batch 4 (and 16 with `--full`), plus the
//! setup / offline / online phase attribution from the reports — the
//! acceptance check that session reuse actually pays for itself.
//!
//! Run: `cargo run --release -p primer_bench --bin serving_table [--full]`

use primer_core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer_math::rng::seeded;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::time::Instant;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let batches: &[usize] = if full { &[4, 16] } else { &[4] };
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(550));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    let tokens = vec![3usize, 17, 0, 29];

    println!("# Amortized serving — measured wall-clock on the test profile (seconds/inference)");
    println!(
        "{:<12} {:>10} {:>14} {:>12} {:>12} {:>12}",
        "Variant", "one-shot", "batch", "amortized", "setup-share", "off+on"
    );
    for variant in [ProtocolVariant::F, ProtocolVariant::Fp, ProtocolVariant::Fpc] {
        let engine =
            Engine::new(sys.clone(), variant, fixed.clone(), GcMode::Simulated, 551);

        let start = Instant::now();
        let one_shot_report = engine.run(&tokens);
        let one_shot = start.elapsed().as_secs_f64();
        assert!(one_shot_report.matches_plaintext_reference());

        for &batch in batches {
            let queries = vec![tokens.clone(); batch];
            let start = Instant::now();
            let reports = engine.serve(&queries, batch);
            let amortized = start.elapsed().as_secs_f64() / batch as f64;
            assert!(reports.iter().all(|r| r.matches_plaintext_reference()));
            let phases = reports[0].phases();
            let setup_share = phases.setup.compute.as_secs_f64() / batch as f64;
            let off_on =
                phases.offline.compute.as_secs_f64() + phases.online.compute.as_secs_f64();
            println!(
                "{:<12} {:>10.2} {:>14} {:>12.2} {:>12.2} {:>12.2}",
                variant.name(),
                one_shot,
                batch,
                amortized,
                setup_share,
                off_on
            );
            // The acceptance criterion: warm amortized strictly below
            // one-shot for every variant with an offline phase.
            assert!(
                amortized < one_shot,
                "{}: amortized {amortized:.2}s/inference at batch {batch} should beat \
                 one-shot {one_shot:.2}s",
                variant.name()
            );
        }
    }
    println!();
    println!("# Warm sessions pay key generation, the Galois-key transfer and circuit");
    println!("# construction once per session; every amortized column must be strictly");
    println!("# below its one-shot column (asserted above).");
}
