//! Fixed-point transformer reference — the exact function the Primer
//! protocols compute.
//!
//! Every operation here has a one-to-one counterpart in the private
//! pipeline: ring-domain linear layers (HE/HGS/FHGS), the paper's
//! truncate-to-15-bits step and the GC non-linear modules (which call the
//! same `primer_math::fxp` algorithms bit-for-bit). Integration tests
//! assert that private inference output **equals** this reference
//! exactly — that is the paper's "no polynomial approximation" accuracy
//! claim in checkable form.

use crate::config::TransformerConfig;
use crate::model::argmax;
use crate::weights::TransformerWeights;
use primer_math::fxp;
use primer_math::{FixedSpec, Matrix, Ring};

/// A matrix of raw fixed-point values.
pub type MatI = Matrix<i64>;

/// Numeric pipeline: ring modulus, the paper's fixed-point format, and
/// the wider GC-internal fractional precision.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// The shared ring `Z_t`.
    pub ring: Ring,
    /// The paper's value format (15-bit / 7-frac at paper scale).
    pub fixed: FixedSpec,
    /// GC-internal fractional bits (≥ `fixed.frac()`).
    pub gc_frac: u32,
}

impl PipelineSpec {
    /// Creates a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if `gc_frac < fixed.frac()` or the ring is too small to
    /// hold double-scale products.
    pub fn new(ring: Ring, fixed: FixedSpec, gc_frac: u32) -> Self {
        assert!(gc_frac >= fixed.frac(), "gc_frac below pipeline frac");
        assert!(
            (ring.modulus() as f64).log2() > (2 * fixed.frac() + 2) as f64,
            "ring too small for products"
        );
        Self { ring, fixed, gc_frac }
    }

    /// Converts a value at pipeline scale to GC scale.
    #[inline]
    pub fn to_gc(&self, v: i64) -> i64 {
        v << (self.gc_frac - self.fixed.frac())
    }

    /// Converts a GC-scale value back to pipeline scale, saturating.
    #[inline]
    pub fn from_gc(&self, v: i64) -> i64 {
        self.fixed.saturate(v >> (self.gc_frac - self.fixed.frac()))
    }

    /// GELU at pipeline scale: the value lifted to GC scale, `fxp::gelu`
    /// there, and back down saturating. The one definition the
    /// reference model and the garbled GELU step (whose lookup table is
    /// computed from it) share.
    #[inline]
    pub fn gelu(&self, v: i64) -> i64 {
        self.from_gc(fxp::gelu(self.to_gc(v), self.gc_frac))
    }

    /// Converts a double-scale (product) value to GC scale — the entry
    /// conversion of the SoftMax module, whose inputs are untruncated
    /// `Q·Kᵀ` products at scale `2^(2·frac)`.
    #[inline]
    pub fn product_to_gc(&self, v: i64) -> i64 {
        fxp::shift_signed(v, self.gc_frac as i32 - 2 * self.fixed.frac() as i32)
    }
}

/// Quantized model weights (raw fixed-point values).
#[derive(Debug, Clone)]
pub struct QuantizedBlock {
    /// Q/K/V/O projections at pipeline scale.
    pub wq: MatI,
    /// Key projection.
    pub wk: MatI,
    /// Value projection.
    pub wv: MatI,
    /// Output projection.
    pub wo: MatI,
    /// LayerNorm 1 affine parameters at **GC** scale.
    pub ln1_gamma: Vec<i64>,
    /// LayerNorm 1 shift at GC scale.
    pub ln1_beta: Vec<i64>,
    /// Feed-forward weights at pipeline scale.
    pub w1: MatI,
    /// Feed-forward contraction.
    pub w2: MatI,
    /// LayerNorm 2 scale (GC scale).
    pub ln2_gamma: Vec<i64>,
    /// LayerNorm 2 shift (GC scale).
    pub ln2_beta: Vec<i64>,
}

/// CHGS pre-combined block-0 weights (`trunc(W_E·W_x)`, `trunc(λ·W_x)`).
#[derive(Debug, Clone)]
pub struct CombinedWeights {
    /// Combined query weights (vocab × d).
    pub a_q: MatI,
    /// Combined key weights.
    pub a_k: MatI,
    /// Combined value weights.
    pub a_v: MatI,
    /// Combined positional query term (n × d).
    pub lam_q: MatI,
    /// Combined positional key term.
    pub lam_k: MatI,
    /// Combined positional value term.
    pub lam_v: MatI,
}

/// Fully quantized transformer.
#[derive(Debug, Clone)]
pub struct FixedTransformer {
    cfg: TransformerConfig,
    spec: PipelineSpec,
    /// Word embedding.
    pub we: MatI,
    /// Positional embedding.
    pub pos: MatI,
    /// Encoder blocks.
    pub blocks: Vec<QuantizedBlock>,
    /// Classifier head.
    pub classifier: MatI,
    /// Attention pre-scale `1/√n` at GC scale.
    pub attn_prescale: i64,
}

impl FixedTransformer {
    /// Quantizes floating-point weights.
    pub fn quantize(cfg: &TransformerConfig, w: &TransformerWeights, spec: PipelineSpec) -> Self {
        let q = |m: &primer_math::MatF| m.map(|&v| spec.fixed.quantize(v));
        let qgc = |v: &[f64]| v.iter().map(|&x| fxp::const_q(x, spec.gc_frac)).collect();
        let blocks = w
            .blocks
            .iter()
            .map(|b| QuantizedBlock {
                wq: q(&b.wq),
                wk: q(&b.wk),
                wv: q(&b.wv),
                wo: q(&b.wo),
                ln1_gamma: qgc(&b.ln1_gamma),
                ln1_beta: qgc(&b.ln1_beta),
                w1: q(&b.w1),
                w2: q(&b.w2),
                ln2_gamma: qgc(&b.ln2_gamma),
                ln2_beta: qgc(&b.ln2_beta),
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            spec,
            we: q(&w.we),
            pos: q(&w.pos),
            blocks,
            classifier: q(&w.classifier),
            attn_prescale: fxp::const_q(cfg.attn_scale(), spec.gc_frac),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// The numeric spec.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Ring-domain matmul at double scale **without** truncation — the
    /// value the HE phase hands to the GC truncation module. Asserts the
    /// accumulation stays within the ring's centered range.
    pub fn matmul_raw(&self, a: &MatI, b: &MatI) -> MatI {
        let t_half = (self.spec.ring.modulus() / 2) as i64;
        let mut out = Matrix::filled(a.rows(), b.cols(), 0i64);
        for r in 0..a.rows() {
            for k in 0..a.cols() {
                let av = a[(r, k)];
                if av == 0 {
                    continue;
                }
                for c in 0..b.cols() {
                    out[(r, c)] += av * b[(k, c)];
                }
            }
        }
        for v in out.iter() {
            assert!(
                v.abs() < t_half,
                "ring overflow in linear layer: |{v}| >= t/2 — widen t"
            );
        }
        out
    }

    /// The paper's truncation module: `>> frac`, saturate to the format.
    pub fn trunc(&self, m: &MatI) -> MatI {
        m.map(|&v| self.spec.fixed.truncate_product(v))
    }

    /// Linear layer: matmul at double scale, then truncate.
    pub fn linear(&self, a: &MatI, w: &MatI) -> MatI {
        self.trunc(&self.matmul_raw(a, w))
    }

    /// SoftMax module on raw (double-scale) score rows, with the 1/√n
    /// pre-scale applied inside — mirrors the GC circuit exactly.
    pub fn softmax_rows(&self, scores_raw: &MatI) -> MatI {
        let spec = &self.spec;
        let mut out = Matrix::filled(scores_raw.rows(), scores_raw.cols(), 0i64);
        for r in 0..scores_raw.rows() {
            let row_gc: Vec<i64> = scores_raw
                .row(r)
                .iter()
                .map(|&v| fxp::mul_q(spec.product_to_gc(v), self.attn_prescale, spec.gc_frac))
                .collect();
            let probs = fxp::softmax(&row_gc, spec.gc_frac);
            for (c, p) in probs.into_iter().enumerate() {
                out[(r, c)] = spec.from_gc(p);
            }
        }
        out
    }

    /// GELU module (elementwise, pipeline scale in and out).
    pub fn gelu_mat(&self, m: &MatI) -> MatI {
        m.map(|&v| self.spec.gelu(v))
    }

    /// LayerNorm module over rows (pipeline scale in and out).
    pub fn layer_norm_rows(&self, m: &MatI, gamma: &[i64], beta: &[i64]) -> MatI {
        let spec = &self.spec;
        let inv_n = fxp::const_q(1.0 / m.cols() as f64, spec.gc_frac);
        let mut out = Matrix::filled(m.rows(), m.cols(), 0i64);
        for r in 0..m.rows() {
            let row_gc: Vec<i64> = m.row(r).iter().map(|&v| spec.to_gc(v)).collect();
            let normed = fxp::layer_norm(&row_gc, gamma, beta, inv_n, spec.gc_frac);
            for (c, v) in normed.into_iter().enumerate() {
                out[(r, c)] = spec.from_gc(v);
            }
        }
        out
    }

    /// Embedding: `trunc(onehot·W_E·2^f + λ·2^f) = row(W_E) + λ`,
    /// saturated. (The one-hot raw value is `2^frac`, so the HE product
    /// accumulates `2^frac · w` and truncation recovers `w` exactly.)
    pub fn embed(&self, tokens: &[usize]) -> MatI {
        assert_eq!(tokens.len(), self.cfg.n_tokens, "token count mismatch");
        let f = self.spec.fixed;
        Matrix::from_fn(self.cfg.n_tokens, self.cfg.d_model, |i, j| {
            assert!(tokens[i] < self.cfg.vocab, "token id out of vocabulary");
            f.saturate(self.we[(tokens[i], j)] + self.pos[(i, j)])
        })
    }

    /// One encoder block (exposed for layer-by-layer protocol tests).
    pub fn encoder_block(&self, x: &MatI, idx: usize) -> MatI {
        let b = &self.blocks[idx];
        let q = self.linear(x, &b.wq);
        let k = self.linear(x, &b.wk);
        let v = self.linear(x, &b.wv);
        self.encoder_block_with_qkv(x, &q, &k, &v, idx)
    }

    /// Full forward to hidden states.
    pub fn hidden_states(&self, tokens: &[usize]) -> MatI {
        let mut x = self.embed(tokens);
        for i in 0..self.blocks.len() {
            x = self.encoder_block(&x, i);
        }
        x
    }

    /// CHGS-combined weights: `Ā_x = trunc(W_E·W_x)` and positional terms
    /// `λ̄_x = trunc(λ·W_x)` for block 0's Q/K/V (the server pre-combines
    /// these in plaintext; see `primer-core`'s `chgs` module).
    pub fn combined_weights(&self) -> CombinedWeights {
        let b0 = &self.blocks[0];
        CombinedWeights {
            a_q: self.linear(&self.we, &b0.wq),
            a_k: self.linear(&self.we, &b0.wk),
            a_v: self.linear(&self.we, &b0.wv),
            lam_q: self.linear(&self.pos, &b0.wq),
            lam_k: self.linear(&self.pos, &b0.wk),
            lam_v: self.linear(&self.pos, &b0.wv),
        }
    }

    /// Block-0 Q/K/V under the combined semantics:
    /// `X_q = trunc(onehot·Ā_q·2^f + λ̄_q·2^f) = sat(row(Ā_q) + λ̄_q)`.
    pub fn combined_qkv(&self, tokens: &[usize], cw: &CombinedWeights) -> (MatI, MatI, MatI) {
        let f = self.spec.fixed;
        let pick = |a: &MatI, lam: &MatI| {
            Matrix::from_fn(self.cfg.n_tokens, self.cfg.d_model, |i, j| {
                f.saturate(a[(tokens[i], j)] + lam[(i, j)])
            })
        };
        (pick(&cw.a_q, &cw.lam_q), pick(&cw.a_k, &cw.lam_k), pick(&cw.a_v, &cw.lam_v))
    }

    /// Encoder block with externally supplied Q/K/V (used for block 0 in
    /// combined mode; `x` is the residual stream).
    pub fn encoder_block_with_qkv(
        &self,
        x: &MatI,
        q: &MatI,
        k: &MatI,
        v: &MatI,
        idx: usize,
    ) -> MatI {
        let b = &self.blocks[idx];
        let cfg = &self.cfg;
        let n = cfg.n_tokens;
        let dh = cfg.d_head();
        let mut concat = Matrix::filled(n, cfg.d_model, 0i64);
        for h in 0..cfg.n_heads {
            let c0 = h * dh;
            let qh = Matrix::from_fn(n, dh, |i, c| q[(i, c0 + c)]);
            let kh_t = Matrix::from_fn(dh, n, |c, j| k[(j, c0 + c)]);
            let scores_raw = self.matmul_raw(&qh, &kh_t);
            let probs = self.softmax_rows(&scores_raw);
            let vh = Matrix::from_fn(n, dh, |j, c| v[(j, c0 + c)]);
            let av = self.linear(&probs, &vh);
            for i in 0..n {
                for c in 0..dh {
                    concat[(i, c0 + c)] = av[(i, c)];
                }
            }
        }
        let attn = self.linear(&concat, &b.wo);
        let res1 = Matrix::from_fn(n, cfg.d_model, |i, j| {
            self.spec.fixed.saturate(x[(i, j)] + attn[(i, j)])
        });
        let x1 = self.layer_norm_rows(&res1, &b.ln1_gamma, &b.ln1_beta);
        let inner = self.linear(&x1, &b.w1);
        let act = self.gelu_mat(&inner);
        let ff = self.linear(&act, &b.w2);
        let res2 = Matrix::from_fn(n, cfg.d_model, |i, j| {
            self.spec.fixed.saturate(x1[(i, j)] + ff[(i, j)])
        });
        self.layer_norm_rows(&res2, &b.ln2_gamma, &b.ln2_beta)
    }

    /// Full forward under combined (Primer-FPC) semantics.
    pub fn hidden_states_combined(&self, tokens: &[usize]) -> MatI {
        let cw = self.combined_weights();
        let x0 = self.embed(tokens);
        let (q, k, v) = self.combined_qkv(tokens, &cw);
        let mut x = self.encoder_block_with_qkv(&x0, &q, &k, &v, 0);
        for i in 1..self.blocks.len() {
            x = self.encoder_block(&x, i);
        }
        x
    }

    /// Logits under combined semantics.
    pub fn logits_combined(&self, tokens: &[usize]) -> Vec<i64> {
        let h = self.hidden_states_combined(tokens);
        let pooled = Matrix::from_fn(1, self.cfg.d_model, |_, j| h[(0, j)]);
        self.linear(&pooled, &self.classifier).row(0).to_vec()
    }

    /// Classification logits (first-token pooling), pipeline scale.
    pub fn logits(&self, tokens: &[usize]) -> Vec<i64> {
        let h = self.hidden_states(tokens);
        let pooled = Matrix::from_fn(1, self.cfg.d_model, |_, j| h[(0, j)]);
        self.linear(&pooled, &self.classifier).row(0).to_vec()
    }

    /// Predicted class.
    pub fn classify(&self, tokens: &[usize]) -> usize {
        let logits: Vec<f64> = self.logits(tokens).iter().map(|&v| v as f64).collect();
        argmax(&logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ActivationMode, Transformer};
    use primer_math::rng::seeded;
    use rand::Rng;

    fn spec() -> PipelineSpec {
        PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12)
    }

    fn fixture() -> (Transformer, FixedTransformer) {
        let cfg = TransformerConfig::test_small();
        let w = TransformerWeights::random(&cfg, &mut seeded(160));
        let fixed = FixedTransformer::quantize(&cfg, &w, spec());
        (Transformer::new(cfg, w), fixed)
    }

    #[test]
    fn embed_equals_literal_onehot_matmul() {
        let (_, fx) = fixture();
        let cfg = fx.config().clone();
        let tokens = vec![3, 17, 0, 63, 9, 22];
        // Literal: one-hot row (value 2^frac) × W_E accumulated raw, then
        // truncated, plus λ in the raw domain.
        let f = fx.spec().fixed;
        let one = 1i64 << f.frac();
        let onehot = Matrix::from_fn(cfg.n_tokens, cfg.vocab, |i, j| {
            if tokens[i] == j {
                one
            } else {
                0
            }
        });
        let raw = fx.matmul_raw(&onehot, &fx.we);
        let with_pos = Matrix::from_fn(cfg.n_tokens, cfg.d_model, |i, j| {
            raw[(i, j)] + (fx.pos[(i, j)] << f.frac())
        });
        let literal = fx.trunc(&with_pos);
        assert_eq!(fx.embed(&tokens), literal);
    }

    #[test]
    fn fixed_forward_tracks_float_teacher() {
        let (float, fx) = fixture();
        let mut rng = seeded(161);
        let mut agree = 0;
        let total = 30;
        for _ in 0..total {
            let tokens: Vec<usize> =
                (0..6).map(|_| rng.gen_range(0..float.config().vocab)).collect();
            if float.classify(&tokens, ActivationMode::Exact) == fx.classify(&tokens) {
                agree += 1;
            }
        }
        // Fixed-point should track the f64 teacher closely (the paper's
        // 15-bit claim); demand strong but not perfect agreement.
        assert!(agree * 10 >= total * 7, "fixed-point agreement {agree}/{total}");
    }

    #[test]
    fn forward_is_deterministic_and_finite() {
        let (_, fx) = fixture();
        let tokens = vec![5, 4, 3, 2, 1, 0];
        let a = fx.logits(&tokens);
        assert_eq!(a, fx.logits(&tokens));
        let max = fx.spec().fixed.max_raw();
        assert!(a.iter().all(|&v| v.abs() <= max));
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn ring_overflow_is_detected() {
        let ring = Ring::new(4099); // far too small for 12-bit products
        let spec = PipelineSpec::new(ring, FixedSpec::new(5, 2), 5);
        let cfg = TransformerConfig::test_tiny();
        let w = TransformerWeights::random(&cfg, &mut seeded(162));
        let fx = FixedTransformer::quantize(&cfg, &w, spec);
        let big = Matrix::filled(4, 8, 100i64);
        let _ = fx.matmul_raw(&big, &Matrix::filled(8, 8, 100i64));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let (_, fx) = fixture();
        let f = fx.spec().fixed;
        let scores = Matrix::from_fn(4, 6, |i, j| ((i * 13 + j * 7) as i64 - 30) << f.frac());
        let probs = fx.softmax_rows(&scores);
        let one = 1i64 << f.frac();
        for r in 0..4 {
            let sum: i64 = probs.row(r).iter().sum();
            assert!((sum - one).abs() <= 6, "row {r} sums to {sum} vs {one}");
        }
    }
}
