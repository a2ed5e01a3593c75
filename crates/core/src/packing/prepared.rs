//! Setup-time prepared weight planes for encrypted matmul.
//!
//! Every mask an encrypted matmul multiplies by is a pure function of
//! the (session-constant) weight matrix and the packing layout — yet the
//! pre-refactor hot path re-encoded and re-NTT-lifted every one of them
//! on every query. A [`PreparedMatmul`] performs that work exactly once,
//! at session **Setup**, and hands the chains read-only NTT-form
//! [`MulPlain`] masks, one per key of the matmul's mask key list. Each
//! mask is built by the *same* slot dispatcher as the fresh path, so
//! prepared and fresh matmuls are bit-identical; the only difference is
//! where (and how often) `mask_prep` ops run.
//!
//! Planes are immutable after construction (`Sync` by construction), so
//! the serving registry can share one `Arc`'d plane set between every
//! concurrent session of the same model — see
//! `primer_serve::Server`'s prepared-plane cache.

use super::matmul::{
    chain_steps, mask_keys, mask_slots, matmul_out_layout, MaskKey, RotationMode,
};
use super::{Layout, Packing};
use primer_he::{BatchEncoder, Evaluator, MulPlain};
use primer_math::MatZ;
use std::collections::HashMap;

/// One weight matrix's masks, encoded + NTT-lifted once for a fixed
/// input shape `(packing, rows, in_cols)`, plus the rotation plan its
/// chains require.
pub struct PreparedMatmul {
    in_layout: Layout,
    out_layout: Layout,
    out_cols: usize,
    /// Every nonempty mask the chains ask for (empty tokens-first masks
    /// are absent: the chains skip those multiplications).
    masks: HashMap<MaskKey, MulPlain>,
    mask_bytes: u64,
    steps: Vec<usize>,
    mode: RotationMode,
}

impl PreparedMatmul {
    /// Builds the plane for `Enc(X: rows × w.rows()) · w` with chains in
    /// rotation mode `mode`, fanning the per-mask encoding across the
    /// thread pool (the build is a pure function of `(packing, rows, w,
    /// mode)`, so parallelism cannot change the masks). In input mode
    /// (tokens-first only) the stored masks are the slot-rotated
    /// `σ_{b·pad}(m')` forms and the rotation plan is the per-input-ct
    /// hoisted step list instead of the single Horner stride.
    pub fn new_with_mode(
        packing: Packing,
        rows: usize,
        w: &MatZ,
        eval: &Evaluator,
        encoder: &BatchEncoder,
        mode: RotationMode,
    ) -> Self {
        assert!(
            packing == Packing::TokensFirst || mode == RotationMode::Output,
            "input-rotation mode is a tokens-first layout"
        );
        let simd = encoder.row_size();
        let in_l = Layout::plan(packing, rows, w.rows(), simd);
        let out_cols = w.cols();
        let keys = mask_keys(&in_l, out_cols);
        let encoded = rayon::par_iter_chunks(keys.len(), |i| {
            mask_slots(&in_l, w, mode, keys[i])
                .map(|slots| eval.prepare_mul_plain(&encoder.encode(&slots)))
        });
        let masks: HashMap<MaskKey, MulPlain> =
            keys.into_iter().zip(encoded).filter_map(|(key, m)| Some((key, m?))).collect();
        let mask_bytes = masks.values().map(|m| m.resident_bytes() as u64).sum();
        let steps = chain_steps(packing, rows, w.rows(), out_cols, simd, mode);
        let out_layout = matmul_out_layout(packing, rows, w.rows(), out_cols, simd);
        Self { in_layout: in_l, out_layout, out_cols, masks, mask_bytes, steps, mode }
    }

    /// The input layout this plane was built for.
    pub fn in_layout(&self) -> &Layout {
        &self.in_layout
    }

    /// The layout of the product this plane yields.
    pub fn out_layout(&self) -> &Layout {
        &self.out_layout
    }

    /// Weight input width (`w.rows()`).
    pub fn in_cols(&self) -> usize {
        self.in_layout.cols
    }

    /// Weight output width (`w.cols()`).
    pub fn out_cols(&self) -> usize {
        self.out_cols
    }

    /// Resident memory pinned by the encoded masks, in bytes.
    pub fn mask_bytes(&self) -> u64 {
        self.mask_bytes
    }

    /// The rotation steps this plane's chains issue — the plan Setup
    /// uses to verify dedicated Galois keys exist for every step.
    pub fn rotation_steps(&self) -> &[usize] {
        &self.steps
    }

    /// The rotation mode this plane's chains run in.
    pub fn mode(&self) -> RotationMode {
        self.mode
    }

    /// The steps this plane issues through hoisted `rotate_many` calls.
    /// Unlike ordinary rotations, hoisted steps cannot fall back to a
    /// power-of-two decomposition mid-hoist, so Setup must verify a
    /// *dedicated* key exists for each — a mismatch here is the
    /// layout/key-plan bug class that must fail at Setup, never
    /// mid-offline.
    pub fn hoisted_steps(&self) -> &[usize] {
        match self.mode {
            RotationMode::Output => &[],
            RotationMode::Input => &self.steps,
        }
    }

    /// The mask `key` names; `None` for an empty tokens-first mask.
    pub(super) fn mask(&self, key: MaskKey) -> Option<&MulPlain> {
        self.masks.get(&key)
    }
}

impl std::fmt::Debug for PreparedMatmul {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedMatmul")
            .field("in_layout", &self.in_layout)
            .field("out_cols", &self.out_cols)
            .field("mask_bytes", &self.mask_bytes)
            .field("steps", &self.steps)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}
