//! Amortized serving benchmark: one persistent session serving a batch
//! through `Engine::serve`, at batch sizes 1 / 4 / 16.
//!
//! Throughput is reported in elements (inferences), so the printed rate
//! is the amortized per-inference figure: Setup (key generation, Galois
//! transfer, weight prep) and circuit construction are paid once per
//! batch and shrink per-query as the batch grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use primer_core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer_math::rng::seeded;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};

fn bench_serving(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving");
    group.sample_size(10);
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(540));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    // Full Primer (the headline variant); the serving_table bin sweeps
    // every variant with an offline phase.
    let engine = Engine::new(sys, ProtocolVariant::Fpc, fixed, GcMode::Simulated, 541);
    for batch in [1usize, 4, 16] {
        let queries: Vec<Vec<usize>> = (0..batch)
            .map(|i| vec![i % 32, (3 * i + 1) % 32, (7 * i + 5) % 32, (11 * i + 2) % 32])
            .collect();
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_function(BenchmarkId::new("warm_batch", batch), |b| {
            b.iter(|| {
                let reports = engine.serve(&queries, batch);
                assert!(reports.iter().all(|r| r.matches_plaintext_reference()));
                reports
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
