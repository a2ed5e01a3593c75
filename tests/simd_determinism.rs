//! SIMD-tier determinism: the vector kernels under the NTT must be a
//! pure performance knob. For every protocol variant, end-to-end
//! private inference over a multi-bundle session must produce
//! **bit-identical** logits with the HE context pinned to the scalar,
//! AVX2 and AVX-512 tiers — and match the plaintext fixed-point
//! reference at every tier.
//!
//! This is the contract DESIGN.md §11 states: every vectorized kernel
//! produces the exact canonical residues of the scalar reference, so
//! wire bytes and logits never depend on the CPU the party runs on.
//! The per-kernel lane-level checks live in `primer_he`'s
//! `simd_bit_identity` suite; this test pins the property through the
//! full protocol stack. Tiers the host CPU lacks are skipped with a
//! logged note (never silently — a pinned tier the CPU lacks degrades
//! to the widest supported one, so running it anyway would just re-test
//! that tier).
//!
//! The tier is injected with `HeContext::with_simd`; nothing here reads
//! or writes the process environment.

use primer_core::{Engine, GcMode, ProtocolVariant, SystemConfig};
use primer_he::simd::{self, SimdLevel};
use primer_math::rng::seeded;
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};

fn engine_for(variant: ProtocolVariant, tier: SimdLevel) -> Engine {
    let cfg = TransformerConfig::test_tiny();
    let mut sys = SystemConfig::test_profile(&cfg).expect("profile");
    sys.he = sys.he.with_simd(tier);
    let weights = TransformerWeights::random(&cfg, &mut seeded(910));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    Engine::new(sys, variant, fixed, GcMode::Simulated, 911)
}

/// Three queries over a pool of two: one parallel refill batch of 2
/// bundles plus a remainder batch of 1, so both the fan-out and the
/// tail of the refill schedule run at each SIMD tier.
fn serve_logits(variant: ProtocolVariant, tier: SimdLevel) -> Vec<Vec<i64>> {
    let queries = vec![vec![3, 17, 0, 29], vec![5, 5, 30, 1], vec![9, 2, 31, 12]];
    let reports = engine_for(variant, tier).serve(&queries, 2);
    for (i, report) in reports.iter().enumerate() {
        assert!(
            report.matches_plaintext_reference(),
            "{} query {i} at tier {}: private {:?} != reference {:?}",
            variant.name(),
            tier.name(),
            report.logits,
            report.reference_logits
        );
    }
    reports.into_iter().map(|r| r.logits).collect()
}

#[test]
fn all_variants_bit_identical_across_simd_tiers() {
    // The vector tiers the host can genuinely exercise.
    let mut tiers = Vec::new();
    if simd::avx2_available() {
        tiers.push(SimdLevel::Avx2);
    } else {
        eprintln!("note: host lacks AVX2 — skipping the avx2 tier");
    }
    if simd::avx512_available() {
        tiers.push(SimdLevel::Avx512);
    } else {
        eprintln!("note: host lacks AVX-512 (F+DQ) — skipping the avx512 tier");
    }

    for variant in ProtocolVariant::all() {
        let scalar = serve_logits(variant, SimdLevel::Scalar);
        for &tier in &tiers {
            assert_eq!(
                serve_logits(variant, tier),
                scalar,
                "{} logits diverged between the scalar and {} tiers",
                variant.name(),
                tier.name()
            );
        }
    }
}
