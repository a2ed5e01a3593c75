//! Shared helpers for the table/figure generator binaries.
//!
//! Each binary regenerates one table or figure of the paper: the latency
//! columns come from the calibrated cost model (`primer-core::costmodel`)
//! at paper-scale parameters, and the accuracy columns are measured on
//! scaled random-teacher tasks (the DESIGN.md §1 substitution); how the
//! latency columns are extrapolated is DESIGN.md §4.

pub mod benchjson;

use primer_math::rng::seeded;
use primer_math::{FixedSpec, Ring};
use primer_nn::{
    evaluate, AccuracyReport, Dataset, FixedTransformer, PipelineSpec, Task, Transformer,
    TransformerConfig, TransformerWeights,
};

/// Measured accuracy of the three pipelines on every Table III task,
/// using a scaled random-teacher model (see DESIGN.md substitutions).
pub fn measure_accuracy(seed: u64, samples: usize) -> Vec<(Task, AccuracyReport)> {
    let cfg = TransformerConfig::test_small();
    let weights = TransformerWeights::random(&cfg, &mut seeded(seed));
    let teacher = Transformer::new(cfg.clone(), weights.clone());
    let spec = PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12);
    let fixed = FixedTransformer::quantize(&cfg, &weights, spec);
    Task::all()
        .into_iter()
        .map(|task| {
            let ds = Dataset::generate(task, &teacher, samples, &mut seeded(seed + task as u64));
            (task, evaluate(&teacher, &fixed, &ds))
        })
        .collect()
}

/// Formats seconds the way the paper's tables do (e.g. `3094.4`).
pub fn fmt_s(v: f64) -> String {
    if v >= 1.0 {
        format!("{:.1}", v)
    } else {
        format!("{:.2}", v)
    }
}

/// Formats bytes as GB.
pub fn fmt_gb(bytes: f64) -> String {
    format!("{:.2}", bytes / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_measurement_produces_all_tasks() {
        let rows = measure_accuracy(42, 10);
        assert_eq!(rows.len(), 5);
        for (_, r) in rows {
            assert!(r.float_exact > 0.0);
            assert!(r.fixed_point >= 0.0 && r.fixed_point <= 100.0);
        }
    }
}
