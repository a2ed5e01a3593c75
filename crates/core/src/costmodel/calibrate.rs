//! Cost calibration: per-operation prices (measured or paper defaults)
//! and the GC gate model fitted against real circuits.

use crate::gcmod::{build_step_circuit, GcStepKind};
use primer_gc::GcNumCfg;
use primer_he::{BatchEncoder, Encryptor, Evaluator, HeContext, HeParams, KeyGenerator};
use primer_math::rng::seeded;
use primer_math::{FixedSpec, Ring};
use primer_nn::PipelineSpec;
use std::time::Instant;

/// Per-operation costs in seconds (and wire sizes in bytes).
#[derive(Debug, Clone, Copy)]
pub struct OpCosts {
    /// One elementary Galois rotation (key switch).
    pub rotation: f64,
    /// One ciphertext × plaintext multiply(+accumulate).
    pub mul_plain: f64,
    /// One ciphertext/plaintext addition.
    pub add: f64,
    /// One fresh encryption.
    pub encrypt: f64,
    /// One decryption.
    pub decrypt: f64,
    /// One ciphertext × ciphertext multiply + relinearization (THE-X).
    pub mul_ct: f64,
    /// Garbling one AND gate.
    pub gc_garble_and: f64,
    /// Evaluating one AND gate.
    pub gc_eval_and: f64,
    /// Wire bytes of one (seed-compressed) fresh ciphertext.
    pub ct_fresh_bytes: u64,
    /// Wire bytes of one evaluated ciphertext.
    pub ct_full_bytes: u64,
}

impl OpCosts {
    /// Default cost table. HE numbers are Criterion measurements of this
    /// codebase at the paper profile (`N = 8192`, two 59-bit primes,
    /// single x86-64 core — see `bench_output.txt`). GC per-AND rates
    /// are JustGarble-class (hardware-AES garbling, the paper's tooling).
    /// This codebase on AES-NI measures 0.03 µs garble / 0.02 µs evaluate
    /// per AND in cache and 0.08 / 0.05 µs on a step circuit larger than
    /// L2 — 7–20× cheaper than these defaults; on a host without AES-NI
    /// the software body garbles at ~1.0 µs per AND, ~2× dearer. Pass
    /// `--measure` to the table binaries to price everything with this
    /// codebase's own rates instead.
    pub fn paper_defaults() -> Self {
        Self {
            rotation: 14.3e-3,
            mul_plain: 0.14e-3,
            add: 0.042e-3,
            encrypt: 4.0e-3,
            decrypt: 13.2e-3,
            mul_ct: 600.0e-3,
            gc_garble_and: 0.55e-6,
            gc_eval_and: 0.45e-6,
            ct_fresh_bytes: (2 * 8192 * 8 + 32 + 2) as u64,
            ct_full_bytes: (2 * 2 * 8192 * 8 + 2) as u64,
        }
    }

    /// Measures the HE costs on live paper-scale parameters (a few
    /// seconds). GC costs are measured on a mid-size adder circuit.
    pub fn measure() -> Self {
        let mut costs = Self::paper_defaults();
        let ctx = HeContext::new(HeParams::paper_8k());
        let encoder = BatchEncoder::new(&ctx);
        let mut rng = seeded(77);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 78);
        let eval = Evaluator::new(&ctx);
        let gk = kg.galois_keys(&[1], false, &mut rng);
        let vals: Vec<u64> = (0..100u64).collect();
        let pt = encoder.encode(&vals);

        let timed = |f: &mut dyn FnMut(), reps: u32| -> f64 {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() / reps as f64
        };
        let ct = encryptor.encrypt(&pt);
        costs.encrypt = timed(&mut || drop(encryptor.encrypt(&pt)), 5);
        costs.decrypt = timed(&mut || drop(encryptor.decrypt(&ct)), 5);
        let mp = eval.prepare_mul_plain(&pt);
        costs.mul_plain = timed(&mut || drop(eval.mul_plain(&ct, &mp)), 10);
        costs.add = timed(&mut || drop(eval.add(&ct, &ct)), 10);
        costs.rotation = timed(&mut || drop(eval.rotate_rows(&ct, 1, &gk)), 5);
        costs.ct_fresh_bytes = ct.serialized_size() as u64;
        costs.ct_full_bytes = eval.add(&ct, &ct).serialized_size() as u64;

        // GC per-AND costs from a real garble/eval of a multiplier.
        let mut b = primer_gc::CircuitBuilder::new();
        let x = b.garbler_input(32);
        let y = b.evaluator_input(32);
        let p = b.mul(&x, &y);
        let circuit = b.build(&p);
        let ands = circuit.and_count() as f64;
        let start = Instant::now();
        let (garbled, enc) = primer_gc::garble::garble(&circuit, &mut rng);
        costs.gc_garble_and = start.elapsed().as_secs_f64() / ands;
        let gl: Vec<u128> = (0..32).map(|i| enc.garbler_label(i, false)).collect();
        let el: Vec<u128> = (0..32).map(|i| enc.evaluator_pair(i).0).collect();
        let start = Instant::now();
        let _ = primer_gc::garble::evaluate(&circuit, &garbled, &gl, &el);
        costs.gc_eval_and = start.elapsed().as_secs_f64() / ands;
        costs
    }
}

/// AND-gate counts per element/row for each GC step kind, calibrated by
/// building real circuits at the paper's numeric widths.
#[derive(Debug, Clone, Copy)]
pub struct GcGateModel {
    trunc_per_elem: f64,
    relu_per_elem: f64,
    gelu_per_elem: f64,
    softmax_per_row_base: f64,
    softmax_per_elem: f64,
    ln_per_row_base: f64,
    ln_per_elem: f64,
}

impl GcGateModel {
    /// Calibrates against real circuits at the given numeric profile.
    pub fn calibrate(spec: &PipelineSpec, gc: GcNumCfg) -> Self {
        let ands = |kind: &GcStepKind| build_step_circuit(kind, spec, gc).and_count() as f64;
        let t1 = ands(&GcStepKind::TruncSat { elems: 4 });
        let t2 = ands(&GcStepKind::TruncSat { elems: 8 });
        let trunc_per_elem = (t2 - t1) / 4.0;
        let r1 = ands(&GcStepKind::Relu { elems: 4 });
        let r2 = ands(&GcStepKind::Relu { elems: 8 });
        let relu_per_elem = (r2 - r1) / 4.0;
        let g1 = ands(&GcStepKind::Gelu { elems: 2 });
        let g2 = ands(&GcStepKind::Gelu { elems: 4 });
        let gelu_per_elem = (g2 - g1) / 2.0;
        let prescale = primer_math::fxp::const_q(0.2, spec.gc_frac);
        let s4 = ands(&GcStepKind::Softmax { rows: 1, cols: 4, prescale });
        let s8 = ands(&GcStepKind::Softmax { rows: 1, cols: 8, prescale });
        let softmax_per_elem = (s8 - s4) / 4.0;
        let softmax_per_row_base = s4 - 4.0 * softmax_per_elem;
        let gamma4 = vec![1 << spec.gc_frac; 4];
        let beta4 = vec![0i64; 4];
        let gamma8 = vec![1 << spec.gc_frac; 8];
        let beta8 = vec![0i64; 8];
        let l4 = ands(&GcStepKind::LayerNormResidual {
            rows: 1,
            cols: 4,
            gamma: gamma4,
            beta: beta4,
        });
        let l8 = ands(&GcStepKind::LayerNormResidual {
            rows: 1,
            cols: 8,
            gamma: gamma8,
            beta: beta8,
        });
        let ln_per_elem = (l8 - l4) / 4.0;
        let ln_per_row_base = l4 - 4.0 * ln_per_elem;
        Self {
            trunc_per_elem,
            relu_per_elem,
            gelu_per_elem,
            softmax_per_row_base,
            softmax_per_elem,
            ln_per_row_base,
            ln_per_elem,
        }
    }

    /// The paper numeric profile: 43-bit ring, the paper's 15/7 fixed
    /// point, 32-bit GC words (15-bit values make 31-bit products;
    /// LayerNorm, whose variance accumulation needs more headroom, is
    /// calibrated at the 48-bit protocol width).
    pub fn paper() -> Self {
        let ring = Ring::new(primer_he::HeParams::paper_8k().t());
        let spec = PipelineSpec::new(ring, FixedSpec::paper(), 12);
        let narrow = Self::calibrate(&spec, GcNumCfg { width: 32, frac: 12 });
        let wide = Self::calibrate(&spec, GcNumCfg::protocol());
        Self { ln_per_row_base: wide.ln_per_row_base, ln_per_elem: wide.ln_per_elem, ..narrow }
    }

    pub(crate) fn trunc(&self, elems: usize) -> f64 {
        self.trunc_per_elem * elems as f64
    }

    pub(crate) fn relu(&self, elems: usize) -> f64 {
        self.relu_per_elem * elems as f64
    }

    pub(crate) fn gelu(&self, elems: usize) -> f64 {
        self.gelu_per_elem * elems as f64
    }

    pub(crate) fn softmax(&self, rows: usize, cols: usize) -> f64 {
        rows as f64 * (self.softmax_per_row_base + self.softmax_per_elem * cols as f64)
    }

    pub(crate) fn layer_norm(&self, rows: usize, cols: usize) -> f64 {
        rows as f64 * (self.ln_per_row_base + self.ln_per_elem * cols as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_model_is_linear_and_positive() {
        let ring = Ring::new((1 << 29) + 11);
        let spec = PipelineSpec::new(ring, FixedSpec::new(12, 5), 12);
        let g = GcGateModel::calibrate(&spec, GcNumCfg { width: 32, frac: 12 });
        assert!(g.trunc_per_elem > 50.0);
        assert!(g.gelu_per_elem > g.trunc_per_elem);
        assert!(g.softmax_per_elem > 0.0 && g.softmax_per_row_base > 0.0);
        assert!(g.ln_per_elem > 0.0);
        // Linearity check against a real circuit.
        let kind = GcStepKind::TruncSat { elems: 16 };
        let real = build_step_circuit(&kind, &spec, GcNumCfg { width: 32, frac: 12 })
            .and_count() as f64;
        assert!((g.trunc(16) - real).abs() / real < 0.01, "model {} real {real}", g.trunc(16));
    }
}
