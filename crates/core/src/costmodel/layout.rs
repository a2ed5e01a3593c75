//! Noise-budgeted layout selection: which rotation mode each weight
//! chain runs in, which packing each FHGS triple ships in, and the exact
//! Galois key list a session's choices require.
//!
//! Three layouts compete (DESIGN.md §12):
//!
//! * **output-rotation diagonals** (the default Horner chains) — safe on
//!   every profile, `O(block)` rotations per output ciphertext;
//! * **input-rotation diagonals** — one hoisted `rotate_many` per input
//!   ciphertext covering only the *occupied* diagonal levels, usually
//!   several times fewer rotations, but the key-switch noise lands
//!   *before* the mask multiply and gets amplified by it, so the mode is
//!   gated by [`NoiseModel`] per parameter profile;
//! * **zero-rotation replicated packing** (FHGS triples only) — no
//!   rotations at all, paid for in slots.
//!
//! Every function here is a pure function of *public shapes and
//! parameters* — both parties can (and do) evaluate them independently
//! and arrive at the same plan, which is what lets the client ship an
//! exact dedicated-key list at Setup ([`galois_steps`]) and the server
//! reject a mismatched plan before any offline work starts.
//!
//! The selector is the only layout policy: nothing overrides it, so two
//! parties built from the same source agree on every choice by
//! construction, and no profile can be steered into a layout its noise
//! budget cannot carry.

use crate::fhgs::{zr_layouts, FhgsDims, FhgsMode};
use crate::packing::{chain_steps, matmul_counts_mode, tf_chain_terms_max, Packing, RotationMode};
use crate::session::ProtocolVariant;
use crate::system::SystemConfig;
use primer_he::{HeParams, NoiseModel};

/// Whether the input-rotation chain for `Enc(X: rows × in_cols) · W
/// (in_cols × out_cols)` is guaranteed to decrypt correctly on this
/// profile: the worst-case bound of its longest accumulation chain —
/// every term a *rotated then masked* ciphertext, plus one plaintext
/// add of margin for the protocol's `±R_s` terms — must fit the budget.
pub fn input_mode_noise_safe(
    params: &HeParams,
    rows: usize,
    in_cols: usize,
    out_cols: usize,
) -> bool {
    let model = NoiseModel::new(params);
    let term = model.mul_plain_bits(model.rotated_bits(model.fresh_bits()));
    let terms = tf_chain_terms_max(rows, in_cols, out_cols, params.row_size());
    let chain = NoiseModel::sum_bits(term, terms);
    model.add_plain_bits(chain) <= model.budget_bits()
}

/// Selects the rotation mode for one weight-chain matmul. Input mode is
/// chosen only when (a) the layout is tokens-first, (b) the noise budget
/// provably carries the chain, and (c) it actually issues fewer
/// rotations than the Horner chain.
pub fn chain_mode(
    params: &HeParams,
    packing: Packing,
    rows: usize,
    in_cols: usize,
    out_cols: usize,
) -> RotationMode {
    if packing != Packing::TokensFirst || !input_mode_noise_safe(params, rows, in_cols, out_cols) {
        return RotationMode::Output;
    }
    let simd = params.row_size();
    let inp = matmul_counts_mode(packing, rows, in_cols, out_cols, simd, RotationMode::Input);
    let out = matmul_counts_mode(packing, rows, in_cols, out_cols, simd, RotationMode::Output);
    if inp.rotations < out.rotations {
        RotationMode::Input
    } else {
        RotationMode::Output
    }
}

/// What one shipped ciphertext costs in NTT-equivalents (serialization,
/// wire bytes, deserialization). Without this term the zero-rotation
/// layout — whose *compute* is linear in its ciphertext count — would
/// "win" paper-scale shapes on NTT units alone while ballooning traffic
/// by ~40×; with it, slot-hungry layouts only win when their ciphertext
/// counts are genuinely comparable.
const WIRE_NTT_EQUIV: u64 = 8;

/// Selects the triple packing for one FHGS product by comparing both
/// modes in NTT-op units (the dominant per-ciphertext cost) plus a
/// wire term ([`WIRE_NTT_EQUIV`] per shipped ciphertext): diagonal
/// pays `D + 3` NTTs per rotation plus a mask prep per multiply;
/// zero-rotation pays only encrypts, mask preps and decrypts, but on
/// `⌈n·m·k / slots⌉` ciphertexts per flight. Small products (one
/// ciphertext per flight) go zero-rotation; paper-scale attention stays
/// diagonal.
pub fn fhgs_mode(params: &HeParams, packing: Packing, dims: FhgsDims) -> FhgsMode {
    let d = NoiseModel::new(params).digit_total() as u64;
    let simd = params.row_size();
    // E1: Enc(R_a: n×k)·U_b (k×m); E2: Enc(R_bᵀ: m×k)·U_aᵀ (k×n).
    let c1 = matmul_counts_mode(packing, dims.n, dims.k, dims.m, simd, RotationMode::Output);
    let c2 = matmul_counts_mode(packing, dims.m, dims.k, dims.n, simd, RotationMode::Output);
    let diag_wire = (c1.in_cts + c2.in_cts + c1.out_cts) // offline triple
        + (c1.out_cts + c2.out_cts); // online replies
    let diag = 2 * (c1.in_cts + c2.in_cts + c1.out_cts)   // offline triple encrypts
        + (c1.rotations + c2.rotations) * (d + 3)         // online key switches
        + (c1.mul_plain + c2.mul_plain)                   // online mask preps
        + 3 * (c1.out_cts + c2.out_cts)                   // plain add/sub + decrypts
        + diag_wire * WIRE_NTT_EQUIV;
    let [la, lb] = zr_layouts(dims, params.slot_count());
    let (a, b) = (la.num_cts as u64, lb.num_cts as u64);
    let zr_wire = (2 * a + b) // offline triple
        + (a + b); // online replies
    let zr = 2 * (2 * a + b)   // offline triple encrypts (E1 side ×2: R_a and R_a·R_b)
        + (3 * a + 2 * b)      // online mask preps + plain add/sub
        + (a + b)              // decrypts
        + zr_wire * WIRE_NTT_EQUIV;
    if zr < diag {
        FhgsMode::ZeroRotation
    } else {
        FhgsMode::Diagonal(packing)
    }
}

/// Every weight-chain shape `(rows, in_cols, out_cols)` of a variant, in
/// the canonical plane order (embed, combined, per-block QKV/WO/W1/W2,
/// classifier) — mirrors `ModelPlane::prepare`.
fn chain_shapes(sys: &SystemConfig, variant: ProtocolVariant) -> Vec<(usize, usize, usize)> {
    let cfg = &sys.model;
    let n = cfg.n_tokens;
    let (d, dff) = (cfg.d_model, cfg.d_ff);
    let mut shapes = vec![(n, cfg.vocab, d)];
    if variant.combined() {
        shapes.extend([(n, cfg.vocab, d); 3]);
    }
    for b in 0..cfg.n_blocks {
        if b > 0 || !variant.combined() {
            shapes.extend([(n, d, d); 3]);
        }
        shapes.extend([(n, d, d), (n, d, dff), (n, dff, d)]);
    }
    shapes.push((1, d, cfg.n_classes));
    shapes
}

/// The two FHGS product shapes of a variant's attention (score, then
/// attention×value) — identical across blocks and heads.
fn fhgs_shapes(sys: &SystemConfig) -> [FhgsDims; 2] {
    let n = sys.model.n_tokens;
    let dh = sys.model.d_head();
    [FhgsDims { n, k: dh, m: n }, FhgsDims { n, k: n, m: dh }]
}

/// The **exact** Galois key list a session under this config and
/// variant requires: the union of every selected chain's
/// steps plus the FHGS online chains' steps (none in zero-rotation
/// mode). Client Setup generates dedicated keys for precisely this
/// list; server Setup verifies it covers the plane (including hoisted
/// steps, which admit no power-of-two fallback).
pub fn galois_steps(sys: &SystemConfig, variant: ProtocolVariant) -> Vec<usize> {
    let params = sys.he.params();
    let packing = variant.packing();
    let simd = params.row_size();
    let mut steps: Vec<usize> = Vec::new();
    let mut add = |list: Vec<usize>| {
        for s in list {
            let s = s % simd;
            if s != 0 && !steps.contains(&s) {
                steps.push(s);
            }
        }
    };
    for (rows, in_cols, out_cols) in chain_shapes(sys, variant) {
        let mode = chain_mode(params, packing, rows, in_cols, out_cols);
        add(chain_steps(packing, rows, in_cols, out_cols, simd, mode));
    }
    if variant.has_offline_phase() {
        for dims in fhgs_shapes(sys) {
            match fhgs_mode(params, packing, dims) {
                FhgsMode::ZeroRotation => {}
                FhgsMode::Diagonal(p) => {
                    // E1 rotates an (n × k) input, E2 an (m × k) input,
                    // both in output mode (fresh-mask chains).
                    let out = RotationMode::Output;
                    add(chain_steps(p, dims.n, dims.k, dims.m, simd, out));
                    add(chain_steps(p, dims.m, dims.k, dims.n, simd, out));
                }
            }
        }
    }
    steps.sort_unstable();
    steps
}

/// A compact identity of every layout choice the selector makes for
/// `(config, variant)` — one char per weight chain (`o`/`i`) plus one
/// per FHGS shape (`d`/`z`). Serving suspend images record it, so a
/// server rebuilt with a different selector refuses to resume a session
/// whose bundles were produced under the old plan.
pub fn fingerprint(sys: &SystemConfig, variant: ProtocolVariant) -> String {
    let params = sys.he.params();
    let packing = variant.packing();
    let mut out = String::new();
    for (rows, in_cols, out_cols) in chain_shapes(sys, variant) {
        out.push(match chain_mode(params, packing, rows, in_cols, out_cols) {
            RotationMode::Output => 'o',
            RotationMode::Input => 'i',
        });
    }
    out.push('/');
    if variant.has_offline_phase() {
        for dims in fhgs_shapes(sys) {
            out.push(match fhgs_mode(params, packing, dims) {
                FhgsMode::Diagonal(_) => 'd',
                FhgsMode::ZeroRotation => 'z',
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packing::tf_input_steps;
    use primer_nn::TransformerConfig;

    /// The selector's decisions on the test profile.
    #[test]
    fn selector_decisions_on_test_profile() {
        let sys = SystemConfig::test_profile(&TransformerConfig::test_tiny()).expect("profile");
        let params = sys.he.params();

        // The wide test profile carries the input-rotation chain; the
        // narrow toy profile must not.
        assert!(input_mode_noise_safe(params, 4, 32, 8));
        assert!(!input_mode_noise_safe(&primer_he::HeParams::toy(), 4, 32, 8));

        // Auto picks input mode for tokens-first weight chains at the
        // test shapes (fewer rotations, budget holds) …
        assert_eq!(
            chain_mode(params, Packing::TokensFirst, 4, 32, 8),
            RotationMode::Input
        );
        // … but never for feature-based layouts.
        assert_eq!(
            chain_mode(params, Packing::FeatureBased, 4, 32, 8),
            RotationMode::Output
        );
        // And never where the budget is too tight.
        assert_eq!(
            chain_mode(&primer_he::HeParams::toy(), Packing::TokensFirst, 4, 32, 8),
            RotationMode::Output
        );

        // Tiny FHGS products (one ciphertext per flight) go
        // zero-rotation; paper-scale attention stays diagonal.
        let tiny = FhgsDims { n: 4, k: 8, m: 4 };
        assert_eq!(fhgs_mode(params, Packing::TokensFirst, tiny), FhgsMode::ZeroRotation);
        let paper = FhgsDims { n: 128, k: 64, m: 128 };
        let paper_params = primer_he::HeParams::paper_8k();
        assert_eq!(
            fhgs_mode(&paper_params, Packing::TokensFirst, paper),
            FhgsMode::Diagonal(Packing::TokensFirst)
        );

        // The key plan is exact, deduped, sorted, and nonempty for every
        // variant; tokens-first plans include the hoisted input steps.
        for variant in ProtocolVariant::all() {
            let steps = galois_steps(&sys, variant);
            assert!(!steps.is_empty(), "{variant:?} key plan empty");
            assert!(steps.windows(2).all(|w| w[0] < w[1]), "{variant:?} not sorted/deduped");
        }
        let fp_steps = galois_steps(&sys, ProtocolVariant::Fp);
        let hoisted = tf_input_steps(4, 32, 8, params.row_size());
        assert!(
            hoisted.iter().all(|s| fp_steps.contains(s)),
            "plan must cover hoisted steps"
        );

        // Fingerprints are pinned: suspend images store them, so a
        // selector change that moves one must be deliberate.
        for (variant, want) in [
            (ProtocolVariant::Base, "oooooooo/"),
            (ProtocolVariant::F, "oooooooo/zz"),
            (ProtocolVariant::Fp, "iiiiiiii/zz"),
            (ProtocolVariant::Fpc, "iiiiiiii/zz"),
        ] {
            assert_eq!(fingerprint(&sys, variant), want, "{variant:?}");
        }
    }

    /// The selector's decisions on the paper profile: its noise budget
    /// does *not* carry the input-rotation chain at `test_tiny`'s shapes,
    /// so every tokens-first weight chain runs in output mode and pays
    /// one rotation per level up to the row's last — 1 023 at 4 096
    /// slots, against 14 in input mode.
    #[test]
    fn selector_decisions_on_paper_profile() {
        let sys = SystemConfig::paper_profile(&TransformerConfig::test_tiny()).expect("profile");
        let params = sys.he.params();
        assert!(!input_mode_noise_safe(params, 4, 8, 8));
        for (variant, want) in [
            (ProtocolVariant::Base, "oooooooo/"),
            (ProtocolVariant::F, "oooooooo/zz"),
            (ProtocolVariant::Fp, "oooooooo/zz"),
            (ProtocolVariant::Fpc, "oooooooo/zz"),
        ] {
            assert_eq!(fingerprint(&sys, variant), want, "{variant:?}");
        }
        let simd = params.row_size();
        let rotations =
            |mode| matmul_counts_mode(Packing::TokensFirst, 4, 8, 8, simd, mode).rotations;
        assert_eq!(rotations(RotationMode::Output), 1023);
        assert_eq!(rotations(RotationMode::Input), 14);
    }
}
