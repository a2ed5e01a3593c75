//! The session-structured private-inference engine.
//!
//! The engine wires the protocol modules together exactly as Fig. 3
//! describes, with the load-bearing invariant that **every GC step's
//! re-sharing mask is the input mask of the protocol step that consumes
//! it**, so shares thread through the whole network without any extra
//! interaction. The output is checked bit-exactly against
//! [`primer_nn::FixedTransformer`].
//!
//! Work is organized into three phases (see DESIGN.md §5):
//!
//! * **Setup** — once per [`ClientSession`]/[`ServerSession`] pair: key
//!   generation, the real Galois-key transfer, encoder construction and
//!   server-side weight preparation.
//! * **Offline** — per query but input-independent: HGS/FHGS/CHGS
//!   precomputation and garbled-circuit material, produced into
//!   [`offline::OfflinePool`]s of `k` bundles ahead of time.
//! * **Online** — consumes exactly one pooled offline bundle per query.
//!
//! [`Engine::run`] is a one-shot compatibility wrapper (a session that
//! serves a single query); [`Engine::serve`] keeps one client/server
//! thread pair alive over a single transport and amortizes Setup across
//! a whole batch.

pub mod client;
pub mod offline;
pub mod online;
pub mod plane;
pub mod pool;
pub mod server;
pub mod suspend;

pub use client::{ClientOnline, ClientProducer, ClientSession, SuspendedClientSession};
pub use plane::ModelPlane;
pub use pool::{OfflinePool, PoolWatch};
pub use server::{ServeRound, ServerOnline, ServerProducer, ServerSession};
pub use suspend::{ServerSuspendImage, SuspendError, SUSPEND_FORMAT_VERSION};

use crate::gcmod::{build_step_circuit, GcMode, GcStepKind};
use crate::packing::Packing;
use crate::stats::{argmax_logits, InferenceReport};
use crate::system::SystemConfig;
use primer_gc::Circuit;
use primer_math::{MatZ, Ring};
use primer_net::run_two_party_persistent;
use primer_nn::fixedpoint::MatI;
use primer_nn::FixedTransformer;
use std::sync::Arc;

/// Which Primer variant to run (Table II rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolVariant {
    /// Hybrid protocol, everything online, feature-based packing.
    Base,
    /// +HGS/FHGS offline precomputation (feature-based packing).
    F,
    /// +Tokens-first packing.
    Fp,
    /// +CHGS (combined embed+QKV) — the full Primer.
    Fpc,
}

impl ProtocolVariant {
    /// The packing strategy this variant uses.
    pub fn packing(&self) -> Packing {
        match self {
            ProtocolVariant::Base | ProtocolVariant::F => Packing::FeatureBased,
            ProtocolVariant::Fp | ProtocolVariant::Fpc => Packing::TokensFirst,
        }
    }

    /// Whether the combined (CHGS) module replaces embed+QKV in block 0.
    pub fn combined(&self) -> bool {
        matches!(self, ProtocolVariant::Fpc)
    }

    /// Whether precomputation counts as offline (false only for Base).
    pub fn has_offline_phase(&self) -> bool {
        !matches!(self, ProtocolVariant::Base)
    }

    /// All variants in ablation order.
    pub fn all() -> [ProtocolVariant; 4] {
        [ProtocolVariant::Base, ProtocolVariant::F, ProtocolVariant::Fp, ProtocolVariant::Fpc]
    }

    /// The variant's byte on the wire and in suspend images.
    pub fn code(&self) -> u8 {
        match self {
            ProtocolVariant::Base => 0,
            ProtocolVariant::F => 1,
            ProtocolVariant::Fp => 2,
            ProtocolVariant::Fpc => 3,
        }
    }

    /// The variant [`ProtocolVariant::code`] maps to `c`, if any.
    pub fn from_code(c: u8) -> Option<Self> {
        Self::all().into_iter().find(|v| v.code() == c)
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolVariant::Base => "Primer-base",
            ProtocolVariant::F => "Primer-F",
            ProtocolVariant::Fp => "Primer-FP",
            ProtocolVariant::Fpc => "Primer-FPC",
        }
    }
}

/// The engine: system config + model + variant.
#[derive(Debug)]
pub struct Engine {
    sys: SystemConfig,
    variant: ProtocolVariant,
    mode: GcMode,
    fixed: Arc<FixedTransformer>,
    seed: u64,
}

impl Engine {
    /// Creates an engine for a quantized model.
    pub fn new(
        sys: SystemConfig,
        variant: ProtocolVariant,
        fixed: FixedTransformer,
        mode: GcMode,
        seed: u64,
    ) -> Self {
        Self { sys, variant, mode, fixed: Arc::new(fixed), seed }
    }

    /// The underlying fixed-point model.
    pub fn model(&self) -> &FixedTransformer {
        &self.fixed
    }

    /// Runs one private inference: a session that serves a single query.
    pub fn run(&self, tokens: &[usize]) -> InferenceReport {
        self.serve(std::slice::from_ref(&tokens.to_vec()), 1).pop().expect("one report per query")
    }

    /// Serves a batch of queries over one persistent client/server
    /// session: Setup runs once, and each query's online phase consumes
    /// one offline bundle. Both parties precompute bundles in lockstep
    /// batches of `pool` (never more than the queries remaining) and
    /// refill whenever the pool drains, so `pool` bounds how many bundles
    /// (per-query masks, HGS/FHGS shares, garbled material) are held in
    /// memory at once. Reports carry amortized setup attribution
    /// ([`InferenceReport::amortized_cost`]).
    ///
    /// # Panics
    ///
    /// Panics if `pool == 0` or a query's token count mismatches the
    /// model.
    pub fn serve(&self, queries: &[Vec<usize>], pool: usize) -> Vec<InferenceReport> {
        assert!(pool > 0, "offline pool must hold at least one bundle");
        let cfg = &self.sys.model;
        for q in queries {
            assert_eq!(q.len(), cfg.n_tokens, "token count mismatch");
        }
        let reference: Vec<Vec<i64>> = queries
            .iter()
            .map(|q| {
                if self.variant.combined() {
                    self.fixed.logits_combined(q)
                } else {
                    self.fixed.logits(q)
                }
            })
            .collect();

        let circuits = Arc::new(self.build_circuits());
        let gc_and_gates: u64 = circuits.iter().map(|c| c.and_count() as u64).sum();
        let total = queries.len();

        let sys_c = self.sys.clone();
        let sys_s = self.sys.clone();
        let fixed_c = Arc::clone(&self.fixed);
        let fixed_s = Arc::clone(&self.fixed);
        let circuits_c = Arc::clone(&circuits);
        let circuits_s = Arc::clone(&circuits);
        let variant = self.variant;
        let mode = self.mode;
        let seed = self.seed;

        let (logits_all, rounds, _meter) = run_two_party_persistent(
            queries.to_vec(),
            move |t| {
                ClientSession::setup(sys_c, variant, mode, fixed_c, circuits_c, seed, total, pool, t)
            },
            move |cs: &mut ClientSession, tokens: Vec<usize>, t| {
                cs.infer(&tokens, t).expect("in-process flight cannot be malformed")
            },
            move |t| {
                ServerSession::setup(sys_s, variant, mode, fixed_s, circuits_s, seed, total, pool, t)
                    .expect("in-process key transfer cannot be malformed")
            },
            move |ss: &mut ServerSession, _round, t| {
                ss.serve_one(t).expect("in-process flight cannot be malformed")
            },
        );

        logits_all
            .into_iter()
            .zip(rounds)
            .zip(reference)
            .map(|((logits, round), reference_logits)| {
                let mut steps = round.steps;
                if !self.variant.has_offline_phase() {
                    steps.fold_offline_into_online();
                }
                InferenceReport {
                    predicted: argmax_logits(&logits),
                    logits,
                    reference_logits,
                    steps,
                    he_ops_offline: round.he_offline,
                    he_ops_online: round.he_online,
                    gc_and_gates,
                    traffic: round.traffic,
                    session_queries: total,
                }
            })
            .collect()
    }

    /// Builds every GC step circuit in online consumption order.
    fn build_circuits(&self) -> Vec<Circuit> {
        build_session_circuits(&self.sys, self.variant, &self.fixed)
    }
}

/// Builds every GC step circuit a session for (`sys`, `variant`,
/// `fixed`) consumes, in online consumption order. Both parties must
/// build the identical list — the serving stack calls this on each side
/// after the model-config handshake.
pub fn build_session_circuits(
    sys: &SystemConfig,
    variant: ProtocolVariant,
    fixed: &FixedTransformer,
) -> Vec<Circuit> {
    let cfg = &sys.model;
    let spec = fixed.spec();
    let gc = sys.gc;
    let (n, d, dff, heads) = (cfg.n_tokens, cfg.d_model, cfg.d_ff, cfg.n_heads);
    let mut out = Vec::new();
    if variant.combined() {
        out.push(build_step_circuit(&GcStepKind::TruncSat { elems: 4 * n * d }, spec, gc));
    } else {
        out.push(build_step_circuit(&GcStepKind::TruncSat { elems: n * d }, spec, gc));
    }
    for b in 0..cfg.n_blocks {
        if b > 0 || !variant.combined() {
            out.push(build_step_circuit(&GcStepKind::TruncSat { elems: 3 * n * d }, spec, gc));
        }
        out.push(build_step_circuit(
            &GcStepKind::Softmax { rows: heads * n, cols: n, prescale: fixed.attn_prescale },
            spec,
            gc,
        ));
        out.push(build_step_circuit(&GcStepKind::TruncSat { elems: n * d }, spec, gc));
        let blk = &fixed.blocks[b];
        out.push(build_step_circuit(
            &GcStepKind::LayerNormResidual {
                rows: n,
                cols: d,
                gamma: blk.ln1_gamma.clone(),
                beta: blk.ln1_beta.clone(),
            },
            spec,
            gc,
        ));
        out.push(build_step_circuit(&GcStepKind::Gelu { elems: n * dff }, spec, gc));
        out.push(build_step_circuit(
            &GcStepKind::LayerNormResidual {
                rows: n,
                cols: d,
                gamma: blk.ln2_gamma.clone(),
                beta: blk.ln2_beta.clone(),
            },
            spec,
            gc,
        ));
    }
    out
}

/// Ring-domain view of a quantized matrix.
pub(crate) fn to_ring(ring: &Ring, m: &MatI) -> MatZ {
    MatZ::from_signed(ring, m)
}

/// λ̄ · 2^frac in the ring (the positional term added at product scale).
pub(crate) fn lambda_scaled(ring: &Ring, lam: &MatI, frac: u32) -> MatZ {
    MatZ::from_signed(ring, &lam.map(|&v| v << frac))
}

/// A contiguous column slice `[c0, c0 + width)` of a ring matrix.
pub(crate) fn column_slice(m: &MatZ, c0: usize, width: usize) -> MatZ {
    MatZ::from_fn(m.rows(), width, |i, j| m[(i, c0 + j)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StepCategory;
    use crate::system::SystemConfig;
    use primer_math::rng::seeded;
    use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};

    fn engine_for(variant: ProtocolVariant) -> Engine {
        let cfg = TransformerConfig::test_tiny();
        let sys = SystemConfig::test_profile(&cfg).expect("profile");
        let weights = TransformerWeights::random(&cfg, &mut seeded(400));
        let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
        Engine::new(sys, variant, fixed, GcMode::Simulated, 401)
    }

    #[test]
    fn fp_variant_matches_reference_bit_exactly() {
        let engine = engine_for(ProtocolVariant::Fp);
        let report = engine.run(&[3, 17, 0, 29]);
        assert!(
            report.matches_plaintext_reference(),
            "private {:?} != reference {:?}",
            report.logits,
            report.reference_logits
        );
        assert!(report.gc_and_gates > 0);
        assert!(report.traffic.total_bytes() > 0);
        // The one-time setup flight (real Galois-key bytes) is attributed
        // to the setup phase, not to any per-query category.
        assert!(report.steps.setup().bytes > 0, "setup must carry the key transfer");
        assert_eq!(report.session_queries, 1);
    }

    #[test]
    fn f_variant_matches_reference_bit_exactly() {
        let engine = engine_for(ProtocolVariant::F);
        let report = engine.run(&[5, 5, 30, 1]);
        assert!(report.matches_plaintext_reference());
        // Offline phase carries the heavy HE work; online must be light.
        assert!(report.he_ops_offline.rotations > 0);
        assert!(
            report.he_ops_online.rotations < report.he_ops_offline.rotations,
            "online rotations {} vs offline {}",
            report.he_ops_online.rotations,
            report.he_ops_offline.rotations
        );
    }

    #[test]
    fn fpc_variant_matches_combined_reference() {
        let engine = engine_for(ProtocolVariant::Fpc);
        let report = engine.run(&[9, 2, 31, 12]);
        assert!(
            report.matches_plaintext_reference(),
            "private {:?} != combined reference {:?}",
            report.logits,
            report.reference_logits
        );
        // CHGS removes the Embed and QKV offline categories entirely.
        let (embed_off, _) = report.steps.get(StepCategory::Embed);
        let (qkv_off, _) = report.steps.get(StepCategory::Qkv);
        assert_eq!(embed_off.bytes, 0, "embed bytes must fold into QxK");
        assert_eq!(qkv_off.bytes, 0, "qkv bytes must fold into QxK");
    }

    #[test]
    fn base_variant_folds_everything_online() {
        let engine = engine_for(ProtocolVariant::Base);
        let report = engine.run(&[1, 2, 3, 4]);
        assert!(report.matches_plaintext_reference());
        assert_eq!(report.steps.offline_total().bytes, 0);
        assert!(report.steps.online_total().bytes > 0);
    }
}
