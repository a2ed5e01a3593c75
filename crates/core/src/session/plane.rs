//! The server's session-constant model plane: ring-domain weights plus
//! (by default) the prepared NTT-form mask planes for every HGS/CHGS
//! matmul, built **once** and shared read-only.
//!
//! A [`ModelPlane`] is a pure function of `(system config, variant,
//! quantized model)` — no session randomness touches it — so it is
//! immutable after construction and `Sync`. The in-process engine
//! builds one per session during Setup; the TCP serving registry caches
//! one `Arc` per variant and hands it to every concurrent session of
//! the same model, amortizing the mask encoding across the whole fleet
//! (see DESIGN.md §10 for the lifecycle).

use super::server::{BlockRing, CombinedRing, ServerWeights};
use super::{lambda_scaled, to_ring, ProtocolVariant};
use crate::costmodel::layout;
use crate::packing::{MatmulWeights, Packing, PreparedMatmul, RotationMode};
use crate::system::SystemConfig;
use primer_he::{BatchEncoder, Evaluator};
use primer_math::MatZ;
use primer_nn::FixedTransformer;

/// Prepared mask planes for one encoder block's HGS matmuls.
pub(crate) struct PreparedBlock {
    /// Q/K/V projection planes (absent in block 0 under CHGS, where the
    /// combined module subsumes them).
    pub qkv: Option<[PreparedMatmul; 3]>,
    pub wo: PreparedMatmul,
    pub w1: PreparedMatmul,
    pub w2: PreparedMatmul,
}

/// Prepared mask planes for every session-constant matmul of a model.
pub(crate) struct PreparedWeights {
    /// Embedding (`W_E`, or `Ā_e` under CHGS) against the one-hot input.
    pub we: PreparedMatmul,
    /// CHGS combined projections `Ā_q`, `Ā_k`, `Ā_v` (Fpc only).
    pub combined: Option<[PreparedMatmul; 3]>,
    pub blocks: Vec<PreparedBlock>,
    pub classifier: PreparedMatmul,
}

/// The rotation mode the layout selector picked for each weight-chain
/// site (blocks share shapes, so one choice per site class). Computed
/// once at plane build from *public shapes*, so the fresh and prepared
/// arms — and the client's key plan — all agree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlaneModes {
    pub we: RotationMode,
    pub combined: RotationMode,
    pub qkv: RotationMode,
    pub wo: RotationMode,
    pub w1: RotationMode,
    pub w2: RotationMode,
    pub classifier: RotationMode,
}

impl PlaneModes {
    fn select(sys: &SystemConfig, variant: ProtocolVariant, w: &ServerWeights) -> Self {
        let packing = variant.packing();
        let params = sys.he.params();
        let n = sys.model.n_tokens;
        let pick = |rows: usize, wm: &MatZ| {
            layout::chain_mode(params, packing, rows, wm.rows(), wm.cols())
        };
        let blk = w.blocks.first();
        Self {
            we: pick(n, &w.we),
            combined: w
                .combined
                .as_ref()
                .map_or(RotationMode::Output, |c| pick(n, &c.a_q)),
            qkv: blk.map_or(RotationMode::Output, |b| pick(n, &b.wq)),
            wo: blk.map_or(RotationMode::Output, |b| pick(n, &b.wo)),
            w1: blk.map_or(RotationMode::Output, |b| pick(n, &b.w1)),
            w2: blk.map_or(RotationMode::Output, |b| pick(n, &b.w2)),
            classifier: pick(1, &w.classifier),
        }
    }
}

/// Ring weights + optional prepared mask planes for one (model,
/// variant). See the module docs.
pub struct ModelPlane {
    pub(crate) variant: ProtocolVariant,
    pub(crate) weights: ServerWeights,
    pub(crate) modes: PlaneModes,
    pub(crate) prepared: Option<PreparedWeights>,
}

impl ModelPlane {
    /// Builds the plane with prepared masks (the default, NTT-resident
    /// serving path). All mask encoding — the entire per-weight
    /// `mask_prep` budget — runs here, inside Setup.
    pub fn build(sys: &SystemConfig, variant: ProtocolVariant, fixed: &FixedTransformer) -> Self {
        Self::assemble(sys, variant, fixed, true)
    }

    /// Builds the plane **without** prepared masks: every matmul encodes
    /// its masks fresh, per call — the pre-refactor behaviour, kept as
    /// the reference arm of the prepared-vs-fresh equivalence suite.
    pub fn build_raw(
        sys: &SystemConfig,
        variant: ProtocolVariant,
        fixed: &FixedTransformer,
    ) -> Self {
        Self::assemble(sys, variant, fixed, false)
    }

    fn assemble(
        sys: &SystemConfig,
        variant: ProtocolVariant,
        fixed: &FixedTransformer,
        prepare: bool,
    ) -> Self {
        let ring = sys.ring();
        let frac = fixed.spec().fixed.frac();
        let combined = variant.combined().then(|| {
            let cw = fixed.combined_weights();
            CombinedRing {
                a_q: to_ring(&ring, &cw.a_q),
                a_k: to_ring(&ring, &cw.a_k),
                a_v: to_ring(&ring, &cw.a_v),
                lam_q: lambda_scaled(&ring, &cw.lam_q, frac),
                lam_k: lambda_scaled(&ring, &cw.lam_k, frac),
                lam_v: lambda_scaled(&ring, &cw.lam_v, frac),
            }
        });
        let weights = ServerWeights {
            we: to_ring(&ring, &fixed.we),
            lam: lambda_scaled(&ring, &fixed.pos, frac),
            combined,
            blocks: fixed
                .blocks
                .iter()
                .map(|blk| BlockRing {
                    wq: to_ring(&ring, &blk.wq),
                    wk: to_ring(&ring, &blk.wk),
                    wv: to_ring(&ring, &blk.wv),
                    wo: to_ring(&ring, &blk.wo),
                    w1: to_ring(&ring, &blk.w1),
                    w2: to_ring(&ring, &blk.w2),
                })
                .collect(),
            classifier: to_ring(&ring, &fixed.classifier),
        };
        let modes = PlaneModes::select(sys, variant, &weights);
        let prepared = prepare.then(|| Self::prepare(sys, variant, &weights, modes));
        Self { variant, weights, modes, prepared }
    }

    /// Encodes every session-constant mask once (a pure function of the
    /// weights, parallel across masks).
    fn prepare(
        sys: &SystemConfig,
        variant: ProtocolVariant,
        w: &ServerWeights,
        modes: PlaneModes,
    ) -> PreparedWeights {
        let packing = variant.packing();
        let n = sys.model.n_tokens;
        // Scratch evaluator/encoder: the `mask_prep` ops belong to plane
        // construction (Setup), not to any query's phase counters.
        let encoder = BatchEncoder::new(&sys.he);
        let eval = Evaluator::new(&sys.he);
        let plan = |rows: usize, wm: &MatZ, mode: RotationMode| {
            PreparedMatmul::new_with_mode(packing, rows, wm, &eval, &encoder, mode)
        };
        PreparedWeights {
            we: plan(n, &w.we, modes.we),
            combined: w.combined.as_ref().map(|cw| {
                [
                    plan(n, &cw.a_q, modes.combined),
                    plan(n, &cw.a_k, modes.combined),
                    plan(n, &cw.a_v, modes.combined),
                ]
            }),
            blocks: w
                .blocks
                .iter()
                .enumerate()
                .map(|(b, blk)| PreparedBlock {
                    qkv: (b > 0 || !variant.combined()).then(|| {
                        [
                            plan(n, &blk.wq, modes.qkv),
                            plan(n, &blk.wk, modes.qkv),
                            plan(n, &blk.wv, modes.qkv),
                        ]
                    }),
                    wo: plan(n, &blk.wo, modes.wo),
                    w1: plan(n, &blk.w1, modes.w1),
                    w2: plan(n, &blk.w2, modes.w2),
                })
                .collect(),
            classifier: plan(1, &w.classifier, modes.classifier),
        }
    }

    /// The variant this plane was built for.
    pub fn variant(&self) -> ProtocolVariant {
        self.variant
    }

    /// Whether the prepared mask planes are present (false only for the
    /// fresh-mask reference arm).
    pub fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }

    /// Every prepared matmul of the plane, in plane order (none when
    /// unprepared).
    fn prepared_matmuls(&self) -> impl Iterator<Item = &PreparedMatmul> {
        self.prepared.iter().flat_map(|p| {
            let blocks = p.blocks.iter().flat_map(|blk| {
                blk.qkv.iter().flatten().chain([&blk.wo, &blk.w1, &blk.w2])
            });
            std::iter::once(&p.we)
                .chain(p.combined.iter().flatten())
                .chain(blocks)
                .chain(std::iter::once(&p.classifier))
        })
    }

    /// The sorted, deduplicated union of one step list per prepared
    /// matmul.
    fn step_union<'a>(&'a self, steps: impl Fn(&'a PreparedMatmul) -> &'a [usize]) -> Vec<usize> {
        let mut all: Vec<usize> = self.prepared_matmuls().flat_map(steps).copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// Resident memory pinned by the prepared masks, in bytes (0 when
    /// unprepared). Surfaced in `ServerStats`.
    pub fn mask_bytes(&self) -> u64 {
        self.prepared_matmuls().map(PreparedMatmul::mask_bytes).sum()
    }

    /// Every rotation step the prepared chains will issue — the rotation
    /// plan Setup checks dedicated Galois keys against.
    pub fn rotation_steps(&self) -> Vec<usize> {
        self.step_union(PreparedMatmul::rotation_steps)
    }

    /// Every step the prepared chains issue through **hoisted**
    /// `rotate_many` calls (input-rotation planes). Hoisted steps cannot
    /// fall back to a power-of-two decomposition, so Setup must verify a
    /// dedicated key exists for each — see `ServerSession::setup`.
    pub fn hoisted_steps(&self) -> Vec<usize> {
        self.step_union(PreparedMatmul::hoisted_steps)
    }

    /// The embed-module matmul weights in reply order (1 flight for
    /// HGS, 4 for the CHGS combined module), prepared when available.
    pub(crate) fn embed_weights<'a>(
        &'a self,
        encoder: &'a BatchEncoder,
    ) -> Vec<MatmulWeights<'a>> {
        match (&self.prepared, &self.weights.combined) {
            (Some(p), Some(_)) => {
                let c = p.combined.as_ref().expect("combined planes prepared");
                vec![
                    MatmulWeights::Prepared(&p.we),
                    MatmulWeights::Prepared(&c[0]),
                    MatmulWeights::Prepared(&c[1]),
                    MatmulWeights::Prepared(&c[2]),
                ]
            }
            (Some(p), None) => vec![MatmulWeights::Prepared(&p.we)],
            (None, Some(cw)) => vec![
                MatmulWeights::Fresh { w: &self.weights.we, encoder, mode: self.modes.we },
                MatmulWeights::Fresh { w: &cw.a_q, encoder, mode: self.modes.combined },
                MatmulWeights::Fresh { w: &cw.a_k, encoder, mode: self.modes.combined },
                MatmulWeights::Fresh { w: &cw.a_v, encoder, mode: self.modes.combined },
            ],
            (None, None) => {
                vec![MatmulWeights::Fresh { w: &self.weights.we, encoder, mode: self.modes.we }]
            }
        }
    }

    /// Block `b`'s Q/K/V projection weights (only meaningful when the
    /// block runs the QKV HGS module).
    pub(crate) fn qkv_weights<'a>(
        &'a self,
        b: usize,
        encoder: &'a BatchEncoder,
    ) -> [MatmulWeights<'a>; 3] {
        if let Some(p) = &self.prepared {
            let qkv = p.blocks[b].qkv.as_ref().expect("qkv planes prepared for this block");
            [
                MatmulWeights::Prepared(&qkv[0]),
                MatmulWeights::Prepared(&qkv[1]),
                MatmulWeights::Prepared(&qkv[2]),
            ]
        } else {
            let blk = &self.weights.blocks[b];
            [
                MatmulWeights::Fresh { w: &blk.wq, encoder, mode: self.modes.qkv },
                MatmulWeights::Fresh { w: &blk.wk, encoder, mode: self.modes.qkv },
                MatmulWeights::Fresh { w: &blk.wv, encoder, mode: self.modes.qkv },
            ]
        }
    }

    /// Block `b`'s WO / W1 / W2 weights in module order.
    pub(crate) fn linear_weights<'a>(
        &'a self,
        b: usize,
        encoder: &'a BatchEncoder,
    ) -> [MatmulWeights<'a>; 3] {
        if let Some(p) = &self.prepared {
            let blk = &p.blocks[b];
            [
                MatmulWeights::Prepared(&blk.wo),
                MatmulWeights::Prepared(&blk.w1),
                MatmulWeights::Prepared(&blk.w2),
            ]
        } else {
            let blk = &self.weights.blocks[b];
            [
                MatmulWeights::Fresh { w: &blk.wo, encoder, mode: self.modes.wo },
                MatmulWeights::Fresh { w: &blk.w1, encoder, mode: self.modes.w1 },
                MatmulWeights::Fresh { w: &blk.w2, encoder, mode: self.modes.w2 },
            ]
        }
    }

    /// The classifier head's weights.
    pub(crate) fn classifier_weights<'a>(
        &'a self,
        encoder: &'a BatchEncoder,
    ) -> MatmulWeights<'a> {
        match &self.prepared {
            Some(p) => MatmulWeights::Prepared(&p.classifier),
            None => MatmulWeights::Fresh {
                w: &self.weights.classifier,
                encoder,
                mode: self.modes.classifier,
            },
        }
    }

    /// The packing the plane's prepared masks were laid out for.
    pub fn packing(&self) -> Packing {
        self.variant.packing()
    }
}

impl std::fmt::Debug for ModelPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelPlane")
            .field("variant", &self.variant)
            .field("prepared", &self.is_prepared())
            .field("mask_bytes", &self.mask_bytes())
            .finish_non_exhaustive()
    }
}
