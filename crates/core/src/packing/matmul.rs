//! Encrypted x plaintext matrix multiplication for both packings —
//! the rotation-count asymmetry of Fig. 6 in executable form.
//!
//! **One chain body.** Every output ciphertext of every encrypted matmul
//! is one Horner chain, run by the private `chain` function: it walks the
//! levels from the top down, rotates the accumulator once by the chain's
//! step before each level after the first, and multiplies in that
//! level's `(input ct, mask)` terms. The packings differ only in what
//! they feed it:
//!
//! | chain | step | level `ℓ`'s terms |
//! |---|---|---|
//! | tokens-first, output mode | `pad` | `m'_{r,ℓ,k}·x_k` for each input ct `k` |
//! | tokens-first, input mode | none | `σ_{ℓ·pad}(m'_{r,ℓ,k})·R_{ℓ·pad}(x_k)` off one hoist per input |
//! | feature-based, full width | `1` | `m'_{oc,ℓ,c}·x_{token,c}` for each chunk `c` |
//! | feature-based, grouped A | `1` | `m'_{oc,ℓ}·x_z` |
//! | feature-based, grouped B | `simd − 1` | `m'_{oc,ℓ}·x_z`, none at level 0 (the extra final rotation) |
//!
//! Tokens-first's one stride-`pad` rotation serves every token; the
//! feature-based diagonal method pays up to `simd` steps per chain. The
//! driver `debug_assert`s its live op counts against
//! [`matmul_counts_mode`], the closed-form formulas the analytic cost
//! model extrapolates from.
//!
//! **Weights** come in two forms ([`MatmulWeights`]): raw ring matrices
//! whose masks are encoded fresh inside the chain (the only option for
//! data-dependent operands like FHGS's online `U` matrices), or a
//! [`PreparedMatmul`] plane whose masks were encoded + NTT-lifted once
//! at session Setup. Every mask is named by one `MaskKey` and built by
//! one slot dispatcher (`mask_slots`) for both forms, so the output
//! ciphertexts are bit-identical — the prepared plane only moves the
//! per-mask `encode` + `prepare_mul_plain` work out of the hot path (the
//! `mask_prep` op counter proves where it ran).
//!
//! **Parallelism**: the chains fan out across the `rayon` pool (one task
//! per output ciphertext — "output chunks" in tokens-first, `(token,
//! chunk)` / `(group, chunk)` pairs in feature-based). The per-chain
//! reduction order is fixed, so every output ciphertext is
//! **bit-identical** to the sequential path at any `PRIMER_THREADS`.
//! Live op counts are tallied per chain (not via the shared evaluator
//! counters, whose deltas would interleave under concurrency) and summed
//! in chain order for the model check.

use super::prepared::PreparedMatmul;
use super::{Layout, MatmulCounts, Packing, PackedMatrix};
use primer_he::{BatchEncoder, Ciphertext, Evaluator, GaloisKeys, HeError, MulPlain};
use primer_math::MatZ;

/// Per-chain tally of the ops a matmul actually issued, kept separate
/// from the evaluator's (shared, atomic) counters so the model check
/// stays exact under concurrency.
#[derive(Debug, Clone, Copy, Default)]
struct LiveCounts {
    rotations: u64,
    mul_plain: u64,
}

impl LiveCounts {
    fn merge(&mut self, other: &LiveCounts) {
        self.rotations += other.rotations;
        self.mul_plain += other.mul_plain;
    }
}

/// How a tokens-first chain realizes its rotations. Feature-based
/// matmuls always use [`RotationMode::Output`]; the input-rotation form
/// has no win there (full-width chains touch every slot offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RotationMode {
    /// Horner accumulation: rotate the *accumulator* once per level, so
    /// every output ciphertext pays its own `b_max`-step chain. Noise
    /// stays off the multiplication (masks multiply fresh inputs), which
    /// makes this the mode that works on every parameter profile.
    #[default]
    Output,
    /// Input-rotation diagonals: rotate each *input* ciphertext once per
    /// used Horner level via a single hoisted [`Evaluator::rotate_many`],
    /// shared by every output chain, and multiply by slot-rotated masks.
    /// Rotations shrink from `Σ_r b_max(r)` to `Σ_k |used(k)|` and each
    /// costs one key-switch off a shared hoist — but the key-switch
    /// noise now passes *through* the mask multiplication, so this mode
    /// is only safe where the noise budget says so (the layout
    /// selector's job).
    Input,
}

/// Where an encrypted matmul gets its multiplication masks.
pub enum MatmulWeights<'a> {
    /// Raw ring weights: every mask is encoded and NTT-lifted inside the
    /// chain (per call). Required when the "weights" are query data
    /// (FHGS online); pure overhead for session-constant weights.
    Fresh {
        /// The `cols × out_cols` weight matrix.
        w: &'a MatZ,
        /// Encoder for the fresh masks.
        encoder: &'a BatchEncoder,
        /// Rotation mode of the chain (tokens-first only).
        mode: RotationMode,
    },
    /// Masks encoded once at Setup and reused read-only by every query
    /// (and, via the serving registry, by every concurrent session of
    /// the same model).
    Prepared(&'a PreparedMatmul),
}

/// A mask handed to the chain: borrowed from a prepared plane, or owned
/// because it was just encoded.
enum MaskRef<'a> {
    Borrowed(&'a MulPlain),
    Owned(MulPlain),
}

impl std::ops::Deref for MaskRef<'_> {
    type Target = MulPlain;

    fn deref(&self) -> &MulPlain {
        match self {
            MaskRef::Borrowed(m) => m,
            MaskRef::Owned(m) => m,
        }
    }
}

impl<'a> MatmulWeights<'a> {
    fn out_cols(&self) -> usize {
        match self {
            MatmulWeights::Fresh { w, .. } => w.cols(),
            MatmulWeights::Prepared(p) => p.out_cols(),
        }
    }

    fn in_rows(&self) -> usize {
        match self {
            MatmulWeights::Fresh { w, .. } => w.rows(),
            MatmulWeights::Prepared(p) => p.in_cols(),
        }
    }

    fn mode(&self) -> RotationMode {
        match self {
            MatmulWeights::Fresh { mode, .. } => *mode,
            MatmulWeights::Prepared(p) => p.mode(),
        }
    }

    /// The mask `key` names, or `None` when every slot is zero (the chain
    /// skips that multiplication; only tokens-first masks can be empty).
    fn mask(&self, eval: &Evaluator, in_l: &Layout, key: MaskKey) -> Option<MaskRef<'_>> {
        match self {
            MatmulWeights::Fresh { w, encoder, mode } => {
                let slots = mask_slots(in_l, w, *mode, key)?;
                Some(MaskRef::Owned(eval.prepare_mul_plain(&encoder.encode(&slots))))
            }
            MatmulWeights::Prepared(p) => p.mask(key).map(MaskRef::Borrowed),
        }
    }
}

// ---- masks: one key space, one slot dispatcher (shared by the fresh
// path and the prepared plane, so both produce bit-identical masks) ------

/// Names one multiplication mask of one matmul.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum MaskKey {
    /// Tokens-first: output ct `r`, Horner level `b`, input ct `k`.
    Tf { r: usize, b: usize, k: usize },
    /// Feature-based full width: output chunk `oc`, diagonal `delta`,
    /// input chunk `c`.
    FbFull { oc: usize, delta: usize, c: usize },
    /// Feature-based grouped chain A: output chunk `oc`, diagonal `delta`.
    FbA { oc: usize, delta: usize },
    /// Feature-based grouped chain B: output chunk `oc`, offset `k ≥ 1`.
    FbB { oc: usize, k: usize },
}

/// Every mask key a matmul of input layout `in_l` by a `_ × out_cols`
/// weight can ask for — the list a prepared plane encodes.
pub(super) fn mask_keys(in_l: &Layout, out_cols: usize) -> Vec<MaskKey> {
    let simd = in_l.simd;
    match in_l.packing {
        Packing::TokensFirst => {
            let out_cts = Layout::plan(Packing::TokensFirst, in_l.rows, out_cols, simd).num_cts;
            let (block, in_cts) = (in_l.block(), in_l.num_cts);
            (0..out_cts * block * in_cts)
                .map(|i| {
                    let (r, b, k) = (i / (block * in_cts), i / in_cts % block, i % in_cts);
                    MaskKey::Tf { r, b, k }
                })
                .collect()
        }
        Packing::FeatureBased if in_l.pad == simd => {
            let chunks = in_l.cols.div_ceil(simd);
            (0..out_cols.div_ceil(simd) * simd * chunks)
                .map(|i| {
                    let (oc, delta, c) = (i / (simd * chunks), i / chunks % simd, i % chunks);
                    MaskKey::FbFull { oc, delta, c }
                })
                .collect()
        }
        Packing::FeatureBased => {
            let fp = in_l.pad;
            (0..out_cols.div_ceil(fp))
                .flat_map(|oc| {
                    let a = (0..in_l.cols.min(fp)).map(move |delta| MaskKey::FbA { oc, delta });
                    let b = (1..fp.min(out_cols - oc * fp)).map(move |k| MaskKey::FbB { oc, k });
                    a.chain(b)
                })
                .collect()
        }
    }
}

/// The slot vector of the mask `key` names, for weight `w` against input
/// layout `in_l` — `None` when every slot is zero. Tokens-first masks
/// come slot-rotated in [`RotationMode::Input`].
pub(super) fn mask_slots(
    in_l: &Layout,
    w: &MatZ,
    mode: RotationMode,
    key: MaskKey,
) -> Option<Vec<u64>> {
    match key {
        MaskKey::Tf { r, b, k } => {
            let slots = tf_mask_slots(in_l, w, r, b, k)?;
            match mode {
                RotationMode::Output => Some(slots),
                // `σ_s(m)[i] = m[(i+s) mod simd]` with `s = b·pad`, so that
                // `σ_s(m')·R_s(x)` equals the Horner term `R_s(m'·x)`.
                RotationMode::Input => {
                    let (s, simd) = (b * in_l.pad, in_l.simd);
                    Some((0..simd).map(|i| slots[(i + s) % simd]).collect())
                }
            }
        }
        MaskKey::FbFull { oc, delta, c } => Some(fb_full_mask_slots(in_l, w, oc, delta, c)),
        MaskKey::FbA { oc, delta } => Some(fb_grouped_a_slots(in_l, w, oc, delta)),
        MaskKey::FbB { oc, k } => Some(fb_grouped_b_slots(in_l, w, oc, k)),
    }
}

/// Tokens-first pre-rotated mask `m'_b` for output ct `r`, Horner step
/// `b`, input ct `k`: feature block `u` contributes
/// `W[j = k·B+u][g = r·B + (u − b) mod B]`. `None` when every slot is
/// zero (the chain skips the multiplication entirely).
fn tf_mask_slots(in_l: &Layout, w: &MatZ, r: usize, b: usize, k: usize) -> Option<Vec<u64>> {
    if !tf_mask_nonempty(in_l, w.cols(), k, b, r) {
        return None;
    }
    let block = in_l.block();
    let pad = in_l.pad;
    let mut slots = vec![0u64; in_l.simd];
    for u in 0..block {
        let j = k * block + u;
        if j >= in_l.cols {
            continue;
        }
        let g = r * block + (u + block - b) % block;
        if g >= w.cols() {
            continue;
        }
        for i in 0..in_l.rows {
            slots[u * pad + i] = w[(j, g)];
        }
    }
    Some(slots)
}

/// The Horner levels `b` that input ciphertext `k` participates in — a
/// pure function of shapes, so client (planning Galois keys) and server
/// (building chains) always agree. The returned list is ascending and
/// may include `0` (a free "rotation": `rotate_many` clones).
pub fn tf_used_levels(rows: usize, cols: usize, out_cols: usize, simd: usize, k: usize) -> Vec<usize> {
    let in_l = Layout::plan(Packing::TokensFirst, rows, cols, simd);
    let out_cts = Layout::plan(Packing::TokensFirst, rows, out_cols, simd).num_cts;
    (0..in_l.block())
        .filter(|&b| (0..out_cts).any(|r| tf_mask_nonempty(&in_l, out_cols, k, b, r)))
        .collect()
}

/// The rotation steps a matmul's chains issue in `mode` — the plan a
/// prepared plane records and the selector's Galois key list unions.
/// Input mode (tokens-first only) lists the hoisted steps.
pub(crate) fn chain_steps(
    packing: Packing,
    rows: usize,
    cols: usize,
    out_cols: usize,
    simd: usize,
    mode: RotationMode,
) -> Vec<usize> {
    let in_l = Layout::plan(packing, rows, cols, simd);
    match (packing, mode) {
        (Packing::TokensFirst, RotationMode::Output) => vec![in_l.pad],
        (Packing::TokensFirst, RotationMode::Input) => tf_input_steps(rows, cols, out_cols, simd),
        (Packing::FeatureBased, _) if in_l.pad == simd => vec![1],
        (Packing::FeatureBased, _) => vec![1, simd - 1],
    }
}

/// All *nonzero* rotation steps (`b·pad`) an input-rotation tokens-first
/// matmul of these shapes issues, ascending and deduplicated — the
/// dedicated-key list `rotate_many` hoisting requires (composite steps
/// cannot be decomposed mid-hoist).
pub fn tf_input_steps(rows: usize, cols: usize, out_cols: usize, simd: usize) -> Vec<usize> {
    let in_l = Layout::plan(Packing::TokensFirst, rows, cols, simd);
    let mut steps: Vec<usize> = (0..in_l.num_cts)
        .flat_map(|k| tf_used_levels(rows, cols, out_cols, simd, k))
        .filter(|&b| b != 0)
        .map(|b| b * in_l.pad)
        .collect();
    steps.sort_unstable();
    steps.dedup();
    steps
}

/// The largest number of masked terms any single output ciphertext of a
/// tokens-first matmul accumulates — the multiplicity the noise model
/// multiplies one worst-case term by when gating input-rotation mode.
pub fn tf_chain_terms_max(rows: usize, cols: usize, out_cols: usize, simd: usize) -> u64 {
    let in_l = Layout::plan(Packing::TokensFirst, rows, cols, simd);
    let out_cts = Layout::plan(Packing::TokensFirst, rows, out_cols, simd).num_cts;
    let block = in_l.block();
    (0..out_cts)
        .map(|r| {
            (0..block)
                .flat_map(|b| (0..in_l.num_cts).map(move |k| (b, k)))
                .filter(|&(b, k)| tf_mask_nonempty(&in_l, out_cols, k, b, r))
                .count() as u64
        })
        .max()
        .unwrap_or(0)
}

/// Feature-based full-width mask:
/// `m'_delta[u] = W[c·simd + u][oc·simd + (u − delta) mod simd]`.
fn fb_full_mask_slots(
    in_l: &Layout,
    w: &MatZ,
    oc: usize,
    delta: usize,
    c: usize,
) -> Vec<u64> {
    let simd = in_l.simd;
    let base = c * simd;
    let mut slots = vec![0u64; simd];
    for (u, slot) in slots.iter_mut().enumerate() {
        let j = base + u;
        let g = oc * simd + (u + simd - delta) % simd;
        if j < in_l.cols && g < w.cols() {
            *slot = w[(j, g)];
        }
    }
    slots
}

/// Feature-based grouped chain-A mask:
/// `m'[u·fp + o] = W[o][oc·fp + o − delta]`.
fn fb_grouped_a_slots(in_l: &Layout, w: &MatZ, oc: usize, delta: usize) -> Vec<u64> {
    let fp = in_l.pad;
    let feats = in_l.cols;
    let dout_chunk = fp.min(w.cols() - oc * fp);
    let mut slots = vec![0u64; in_l.simd];
    for u in 0..in_l.group() {
        for o in delta..feats {
            let g = o - delta;
            if g < dout_chunk {
                slots[u * fp + o] = w[(o, oc * fp + g)];
            }
        }
    }
    slots
}

/// Feature-based grouped chain-B mask (inverse offsets):
/// `out[o+k] += in[o]·W[o][o+k]`.
fn fb_grouped_b_slots(in_l: &Layout, w: &MatZ, oc: usize, k: usize) -> Vec<u64> {
    let fp = in_l.pad;
    let feats = in_l.cols;
    let dout_chunk = fp.min(w.cols() - oc * fp);
    let mut slots = vec![0u64; in_l.simd];
    for u in 0..in_l.group() {
        for o in 0..feats {
            let g = o + k;
            if g < dout_chunk {
                slots[u * fp + o] = w[(o, oc * fp + g)];
            }
        }
    }
    slots
}

/// The layout that [`matmul_plain_weights`] produces for the given input
/// shape (needed by a decrypting party to interpret received products).
pub fn matmul_out_layout(
    packing: Packing,
    rows: usize,
    in_cols: usize,
    out_cols: usize,
    simd: usize,
) -> Layout {
    match packing {
        Packing::TokensFirst => Layout::plan(packing, rows, out_cols, simd),
        Packing::FeatureBased => {
            fb_out_layout(&Layout::plan(packing, rows, in_cols, simd), out_cols)
        }
    }
}

/// Output layout produced by a feature-based matmul (regions inherit the
/// input padding, so it differs from `Layout::plan` of a fresh matrix).
fn fb_out_layout(in_l: &Layout, out_cols: usize) -> Layout {
    let simd = in_l.simd;
    let fp = in_l.pad;
    let num_cts = if fp == simd {
        in_l.rows * out_cols.div_ceil(simd)
    } else {
        in_l.num_cts * out_cols.div_ceil(fp)
    };
    Layout {
        packing: Packing::FeatureBased,
        rows: in_l.rows,
        cols: out_cols,
        simd,
        pad: fp,
        num_cts,
    }
}

/// Predicts the op counts of [`matmul_plain_weights`] analytically.
/// The implementation `debug_assert`s that its real counts match; the
/// cost model extrapolates paper-scale latency from these formulas.
/// `mask_prep` mirrors `mul_plain` on the fresh path and is zero on the
/// prepared path — the "encode count model" of the prepared plane.
pub fn matmul_counts(
    packing: Packing,
    rows: usize,
    cols: usize,
    out_cols: usize,
    simd: usize,
) -> MatmulCounts {
    matmul_counts_mode(packing, rows, cols, out_cols, simd, RotationMode::Output)
}

/// [`matmul_counts`] for an explicit rotation mode. Input mode keeps the
/// identical `mul_plain` count (the same nonempty masks multiply) but
/// pays `Σ_k |used(k) \ {0}|` rotations instead of `Σ_r b_max(r)` — all
/// served off one hoist per input ciphertext.
pub fn matmul_counts_mode(
    packing: Packing,
    rows: usize,
    cols: usize,
    out_cols: usize,
    simd: usize,
    mode: RotationMode,
) -> MatmulCounts {
    let in_l = Layout::plan(packing, rows, cols, simd);
    let mut c = MatmulCounts { in_cts: in_l.num_cts as u64, ..Default::default() };
    match packing {
        Packing::TokensFirst => {
            let out_l = Layout::plan(packing, rows, out_cols, simd);
            c.out_cts = out_l.num_cts as u64;
            let block = in_l.block();
            for r in 0..out_l.num_cts {
                let mut b_max: Option<usize> = None;
                for b in (0..block).rev() {
                    let mut any = false;
                    for k in 0..in_l.num_cts {
                        if tf_mask_nonempty(&in_l, out_cols, k, b, r) {
                            any = true;
                            c.mul_plain += 1;
                        }
                    }
                    if any && b_max.is_none() {
                        b_max = Some(b);
                    }
                }
                if mode == RotationMode::Output {
                    c.rotations += b_max.unwrap_or(0) as u64;
                }
            }
            if mode == RotationMode::Input {
                for k in 0..in_l.num_cts {
                    c.rotations += tf_used_levels(rows, cols, out_cols, simd, k)
                        .iter()
                        .filter(|&&b| b != 0)
                        .count() as u64;
                }
            }
        }
        Packing::FeatureBased => {
            let out_l = fb_out_layout(&in_l, out_cols);
            c.out_cts = out_l.num_cts as u64;
            let fp = in_l.pad;
            if fp == simd {
                let chunks = cols.div_ceil(simd);
                let out_chunks = out_cols.div_ceil(simd);
                c.rotations += (rows * out_chunks * (simd - 1)) as u64;
                c.mul_plain += (rows * out_chunks * simd * chunks) as u64;
            } else {
                let out_chunks = out_cols.div_ceil(fp);
                let chain_a = cols.min(fp);
                for _z in 0..in_l.num_cts {
                    for oc in 0..out_chunks {
                        let dout_chunk = fp.min(out_cols - oc * fp);
                        c.rotations += (chain_a - 1) as u64;
                        c.mul_plain += chain_a as u64;
                        if dout_chunk > 1 {
                            c.rotations += (dout_chunk - 1) as u64;
                            c.mul_plain += (dout_chunk - 1) as u64;
                        }
                    }
                }
            }
        }
    }
    c
}

fn tf_mask_nonempty(
    in_l: &Layout,
    out_cols: usize,
    k: usize,
    b: usize,
    r: usize,
) -> bool {
    let block = in_l.block();
    for u in 0..block {
        let j = k * block + u;
        if j >= in_l.cols {
            continue;
        }
        let g = r * block + (u + block - b) % block;
        if g < out_cols {
            return true;
        }
    }
    false
}

/// Encrypted × plaintext matrix multiplication: `Enc(X) · W` where `X`
/// is `rows × cols` (packed) and `W` is `cols × out_cols`, with masks
/// encoded fresh per call.
///
/// Returns the packed product and the op counts actually spent.
///
/// # Errors
///
/// Propagates [`HeError`] if a required Galois key is missing.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matmul_plain_weights(
    x: &PackedMatrix,
    w: &MatZ,
    eval: &Evaluator,
    encoder: &BatchEncoder,
    keys: &GaloisKeys,
) -> Result<PackedMatrix, HeError> {
    matmul_weights(x, &MatmulWeights::Fresh { w, encoder, mode: RotationMode::Output }, eval, keys)
}

/// [`matmul_plain_weights`] against a [`PreparedMatmul`] plane: the
/// chain consumes setup-encoded NTT-form masks read-only, so the hot
/// path performs no mask encoding at all. Output ciphertexts are
/// bit-identical to the fresh path.
///
/// # Errors
///
/// Propagates [`HeError`] if a required Galois key is missing.
pub fn matmul_prepared(
    x: &PackedMatrix,
    prepared: &PreparedMatmul,
    eval: &Evaluator,
    keys: &GaloisKeys,
) -> Result<PackedMatrix, HeError> {
    matmul_weights(x, &MatmulWeights::Prepared(prepared), eval, keys)
}

/// The shared driver behind both mask sources.
///
/// # Errors
///
/// Propagates [`HeError`] if a required Galois key is missing.
///
/// # Panics
///
/// Panics on shape mismatch (including a prepared plane built for a
/// different input layout).
pub fn matmul_weights(
    x: &PackedMatrix,
    weights: &MatmulWeights<'_>,
    eval: &Evaluator,
    keys: &GaloisKeys,
) -> Result<PackedMatrix, HeError> {
    let in_l = &x.layout;
    assert_eq!(in_l.cols, weights.in_rows(), "inner dimension mismatch");
    if let MatmulWeights::Prepared(p) = weights {
        assert_eq!(in_l, p.in_layout(), "prepared plane built for a different layout");
    }
    let mode = weights.mode();
    let out_cols = weights.out_cols();
    let (cts, live) = match in_l.packing {
        Packing::TokensFirst => tf_matmul(x, weights, eval, keys)?,
        Packing::FeatureBased => fb_matmul(x, weights, eval, keys)?,
    };
    let predicted =
        matmul_counts_mode(in_l.packing, in_l.rows, in_l.cols, out_cols, in_l.simd, mode);
    debug_assert_eq!(
        live.rotations, predicted.rotations,
        "rotation count model diverged from implementation"
    );
    debug_assert_eq!(
        live.mul_plain, predicted.mul_plain,
        "mul_plain count model diverged from implementation"
    );
    let layout = matmul_out_layout(in_l.packing, in_l.rows, in_l.cols, out_cols, in_l.simd);
    debug_assert_eq!(layout.num_cts, cts.len());
    Ok(PackedMatrix { layout, cts })
}

/// The one Horner chain body behind every output ciphertext: walks levels
/// `top..=0` in descending order; before each level, rotates the
/// accumulator (once it exists) by `step`, if there is one; then
/// multiplies in `terms(level)`'s `(input ct, mask)` pairs. A chain with
/// no terms at all yields the zero ciphertext.
fn chain<'t, I>(
    eval: &Evaluator,
    keys: &GaloisKeys,
    top: usize,
    step: Option<usize>,
    terms: impl Fn(usize) -> I,
) -> Result<(Ciphertext, LiveCounts), HeError>
where
    I: IntoIterator<Item = (&'t Ciphertext, MaskRef<'t>)>,
{
    let mut live = LiveCounts::default();
    let mut acc: Option<Ciphertext> = None;
    for level in (0..=top).rev() {
        if let (Some(a), Some(s)) = (&acc, step) {
            acc = Some(eval.rotate_rows(a, s, keys)?);
            live.rotations += 1;
        }
        for (ct, mask) in terms(level) {
            live.mul_plain += 1;
            match &mut acc {
                None => acc = Some(eval.mul_plain(ct, &mask)),
                Some(a) => eval.mul_plain_accumulate(a, ct, &mask),
            }
        }
    }
    Ok((acc.unwrap_or_else(|| eval.zero_ciphertext()), live))
}

/// Collects per-task results of a parallel matmul stage in task order,
/// summing their live counts and propagating the first error.
fn collect_chains<T>(
    results: Vec<Result<(T, LiveCounts), HeError>>,
) -> Result<(Vec<T>, LiveCounts), HeError> {
    let mut out = Vec::with_capacity(results.len());
    let mut live = LiveCounts::default();
    for r in results {
        let (item, counts) = r?;
        live.merge(&counts);
        out.push(item);
    }
    Ok((out, live))
}

/// Tokens-first matmul, one chain per output ciphertext. In output mode
/// each chain rotates its accumulator by `pad` per level. In input mode
/// each input ciphertext is first hoisted once and rotated to every
/// level it is used at (one [`Evaluator::rotate_many`], shared by all
/// chains), and the chains multiply slot-rotated masks into those
/// pre-rotated inputs with no further rotation:
///
/// ```text
/// result_r = Σ_b R_{b·pad}(Σ_k m'_{r,b,k}·x_k)          (output mode)
///          = Σ_b Σ_k σ_{b·pad}(m'_{r,b,k})·R_{b·pad}(x_k)  (input mode)
/// ```
fn tf_matmul(
    x: &PackedMatrix,
    weights: &MatmulWeights<'_>,
    eval: &Evaluator,
    keys: &GaloisKeys,
) -> Result<(Vec<Ciphertext>, LiveCounts), HeError> {
    let in_l = &x.layout;
    let (block, pad) = (in_l.block(), in_l.pad);
    let out_cols = weights.out_cols();
    let out_cts = Layout::plan(Packing::TokensFirst, in_l.rows, out_cols, in_l.simd).num_cts;
    // Input mode: `rotated[k][b]` is `R_{b·pad}(x_k)` at every level `b`
    // input `k` is used at, all off one hoist (level 0 is a free clone).
    let (rotated, mut live) = match weights.mode() {
        RotationMode::Output => (None, LiveCounts::default()),
        RotationMode::Input => {
            let (rotated, hoists) = collect_chains(rayon::par_iter_chunks(in_l.num_cts, |k| {
                let used = tf_used_levels(in_l.rows, in_l.cols, out_cols, in_l.simd, k);
                let steps: Vec<usize> = used.iter().map(|&b| b * pad).collect();
                let rotations = steps.iter().filter(|&&s| s != 0).count() as u64;
                let mut at: Vec<Option<Ciphertext>> = (0..block).map(|_| None).collect();
                for (b, ct) in used.into_iter().zip(eval.rotate_many(&x.cts[k], &steps, keys)?) {
                    at[b] = Some(ct);
                }
                Ok((at, LiveCounts { rotations, mul_plain: 0 }))
            }))?;
            (Some(rotated), hoists)
        }
    };
    let src = |k: usize, b: usize| match &rotated {
        None => &x.cts[k],
        Some(rot) => rot[k][b].as_ref().expect("nonempty mask implies a used level"),
    };
    let step = rotated.is_none().then_some(pad);
    let results = rayon::par_iter_chunks(out_cts, |r| {
        chain(eval, keys, block - 1, step, |b| {
            (0..in_l.num_cts).filter_map(move |k| {
                let mask = weights.mask(eval, in_l, MaskKey::Tf { r, b, k })?;
                Some((src(k, b), mask))
            })
        })
    });
    let (cts, chains) = collect_chains(results)?;
    live.merge(&chains);
    Ok((cts, live))
}

/// Feature-based matmul (diagonal method). `pad == simd`: each input
/// ciphertext is one feature chunk of one token, and each `(token,
/// chunk)` output is one full `simd`-level chain. `pad < simd`: several
/// token regions share a ciphertext, output regions inherit the region
/// size `fp`, and each `(group, chunk)` output adds chain A (positive
/// feature-output offsets) to chain B (negative ones, realized as
/// inverse rotations).
fn fb_matmul(
    x: &PackedMatrix,
    weights: &MatmulWeights<'_>,
    eval: &Evaluator,
    keys: &GaloisKeys,
) -> Result<(Vec<Ciphertext>, LiveCounts), HeError> {
    let in_l = &x.layout;
    let (simd, fp) = (in_l.simd, in_l.pad);
    let out_cols = weights.out_cols();
    let mask = |key| weights.mask(eval, in_l, key).expect("feature-based masks are dense");
    let results = if fp == simd {
        let chunks = in_l.cols.div_ceil(simd);
        let out_chunks = out_cols.div_ceil(simd);
        rayon::par_iter_chunks(in_l.rows * out_chunks, |idx| {
            let (token, oc) = (idx / out_chunks, idx % out_chunks);
            chain(eval, keys, simd - 1, Some(1), |delta| {
                (0..chunks).map(move |c| {
                    (&x.cts[token * chunks + c], mask(MaskKey::FbFull { oc, delta, c }))
                })
            })
        })
    } else {
        let out_chunks = out_cols.div_ceil(fp);
        rayon::par_iter_chunks(in_l.num_cts * out_chunks, |idx| {
            let (z, oc) = (idx / out_chunks, idx % out_chunks);
            let ct = &x.cts[z];
            // Chain A: m'[u·fp + o] = W[o][oc·fp + o − delta].
            let a_top = in_l.cols.min(fp) - 1;
            let (a, mut live) = chain(eval, keys, a_top, Some(1), |delta| {
                [(ct, mask(MaskKey::FbA { oc, delta }))]
            })?;
            let dout_chunk = fp.min(out_cols - oc * fp);
            if dout_chunk == 1 {
                return Ok((a, live));
            }
            // Chain B: out[o+k] += in[o]·W[o][o+k]; level 0 has no term,
            // so the chain ends on one more inverse rotation.
            let (b, b_live) = chain(eval, keys, dout_chunk - 1, Some(simd - 1), |k| {
                (k > 0).then(|| (ct, mask(MaskKey::FbB { oc, k })))
            })?;
            live.merge(&b_live);
            Ok((eval.add(&a, &b), live))
        })
    };
    collect_chains(results)
}

#[cfg(test)]
mod tests {
    use super::super::prepared::PreparedMatmul;
    use super::super::testutil::{fixture, small_matrix};
    use super::super::{decrypt_matrix, encrypt_matrix};
    use super::*;

    fn check_matmul(packing: Packing, rows: usize, cols: usize, out_cols: usize) {
        let fx = fixture(rows.next_power_of_two());
        let x = small_matrix(&fx.ring, rows, cols, 220 + out_cols as u64);
        let w = small_matrix(&fx.ring, cols, out_cols, 221 + cols as u64);
        let packed = encrypt_matrix(packing, &x, &fx.encoder, &fx.encryptor);
        let product =
            matmul_plain_weights(&packed, &w, &fx.eval, &fx.encoder, &fx.keys).expect("keys");
        let got = decrypt_matrix(&product, &fx.encoder, &fx.encryptor);
        assert_eq!(got, x.matmul(&fx.ring, &w), "{packing:?} {rows}x{cols}x{out_cols}");
    }

    #[test]
    fn tokens_first_matmul_exact() {
        check_matmul(Packing::TokensFirst, 4, 8, 8);
        check_matmul(Packing::TokensFirst, 4, 8, 16);
        check_matmul(Packing::TokensFirst, 3, 10, 5);
    }

    #[test]
    fn feature_based_matmul_exact_grouped() {
        check_matmul(Packing::FeatureBased, 4, 8, 8);
        check_matmul(Packing::FeatureBased, 4, 8, 16);
        check_matmul(Packing::FeatureBased, 3, 10, 5);
    }

    #[test]
    fn feature_based_matmul_exact_full_width() {
        // cols padded to the full SIMD width (the big-vocab regime):
        // use a column count > simd/2 so pad == simd.
        check_matmul(Packing::FeatureBased, 2, 513, 6);
    }

    /// The prepared plane must produce **bit-identical output
    /// ciphertexts** to the fresh path (same chain, same masks, same
    /// arithmetic — the plane only moves the encoding to build time),
    /// while spending zero `mask_prep` ops in the chain itself.
    #[test]
    fn prepared_path_is_bit_identical_and_encode_free() {
        for (packing, rows, cols, out_cols) in [
            (Packing::TokensFirst, 4usize, 8usize, 16usize),
            (Packing::TokensFirst, 3, 10, 5),
            (Packing::FeatureBased, 4, 8, 16),
            (Packing::FeatureBased, 3, 10, 5),
            (Packing::FeatureBased, 2, 513, 6),
        ] {
            let fx = fixture(rows.next_power_of_two());
            let x = small_matrix(&fx.ring, rows, cols, 270 + out_cols as u64);
            let w = small_matrix(&fx.ring, cols, out_cols, 271 + cols as u64);
            let packed = encrypt_matrix(packing, &x, &fx.encoder, &fx.encryptor);

            let fresh =
                matmul_plain_weights(&packed, &w, &fx.eval, &fx.encoder, &fx.keys).expect("keys");

            let prepared = PreparedMatmul::new_with_mode(
                packing,
                rows,
                &w,
                &fx.eval,
                &fx.encoder,
                RotationMode::Output,
            );
            assert!(prepared.mask_bytes() > 0);
            let before = fx.eval.counts();
            let via_plane = matmul_prepared(&packed, &prepared, &fx.eval, &fx.keys).expect("keys");
            let spent = fx.eval.counts().since(&before);

            assert_eq!(via_plane.cts, fresh.cts, "{packing:?} {rows}x{cols}x{out_cols}");
            assert_eq!(via_plane.layout, fresh.layout);
            assert_eq!(spent.mask_prep, 0, "prepared chain must not encode masks");
            let predicted = matmul_counts(packing, rows, cols, out_cols, fx.encoder.row_size());
            assert_eq!(spent.mul_plain, predicted.mul_plain);
        }
    }

    /// The prepared plane's rotation plan names exactly the steps its
    /// chains issue, so Setup can provision dedicated Galois keys.
    #[test]
    fn rotation_plan_covers_used_steps() {
        let fx = fixture(4);
        let simd = fx.encoder.row_size();
        let w = small_matrix(&fx.ring, 8, 16, 280);
        let plane = |packing| {
            PreparedMatmul::new_with_mode(packing, 4, &w, &fx.eval, &fx.encoder, RotationMode::Output)
        };
        let tf = plane(Packing::TokensFirst);
        assert_eq!(tf.rotation_steps(), &[4]);
        let fb = plane(Packing::FeatureBased);
        assert_eq!(fb.rotation_steps(), &[1, simd - 1]);
    }

    /// Fixture on the wide test profile (whose noise budget carries the
    /// input-rotation chain) with dedicated keys for exactly the hoisted
    /// step list — the key plan client Setup would provision.
    fn input_mode_fixture(rows: usize, cols: usize, out_cols: usize) -> super::super::testutil::Fx {
        use primer_he::{Encryptor, HeContext, HeParams, KeyGenerator};
        use primer_math::rng::seeded;
        use primer_math::Ring;
        let ctx = HeContext::new(HeParams::test_2k_wide());
        let encoder = BatchEncoder::new(&ctx);
        let mut rng = seeded(300);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 301);
        let eval = Evaluator::new(&ctx);
        let steps = tf_input_steps(rows, cols, out_cols, encoder.row_size());
        let keys = kg.galois_keys(&steps, false, &mut rng);
        super::super::testutil::Fx {
            ring: Ring::new(ctx.params().t()),
            encoder,
            encryptor,
            eval,
            keys,
        }
    }

    /// Input-rotation chains decrypt to the exact ring matmul, spend
    /// exactly the rotations the count model predicts, and beat the
    /// Horner chain's rotation count at every tested shape.
    #[test]
    fn input_mode_matmul_exact_with_fewer_rotations() {
        for (rows, cols, out_cols) in [(4usize, 8usize, 16usize), (3, 10, 5), (4, 32, 8)] {
            let fx = input_mode_fixture(rows, cols, out_cols);
            let simd = fx.encoder.row_size();
            let x = small_matrix(&fx.ring, rows, cols, 310 + out_cols as u64);
            let w = small_matrix(&fx.ring, cols, out_cols, 311 + cols as u64);
            let packed = encrypt_matrix(Packing::TokensFirst, &x, &fx.encoder, &fx.encryptor);

            let before = fx.eval.counts();
            let weights = MatmulWeights::Fresh { w: &w, encoder: &fx.encoder, mode: RotationMode::Input };
            let product = matmul_weights(&packed, &weights, &fx.eval, &fx.keys).expect("hoist keys");
            let spent = fx.eval.counts().since(&before);

            let got = decrypt_matrix(&product, &fx.encoder, &fx.encryptor);
            assert_eq!(got, x.matmul(&fx.ring, &w), "{rows}x{cols}x{out_cols}");

            let inp = matmul_counts_mode(Packing::TokensFirst, rows, cols, out_cols, simd, RotationMode::Input);
            let out = matmul_counts_mode(Packing::TokensFirst, rows, cols, out_cols, simd, RotationMode::Output);
            assert_eq!(spent.rotations, inp.rotations, "rotation count model");
            assert_eq!(spent.mul_plain, inp.mul_plain, "mul_plain count model");
            assert_eq!(inp.mul_plain, out.mul_plain, "same masks multiply in both modes");
            assert!(
                inp.rotations < out.rotations,
                "{rows}x{cols}x{out_cols}: input {} vs output {} rotations",
                inp.rotations,
                out.rotations
            );
        }
    }

    /// An input-mode prepared plane is bit-identical to the fresh
    /// input-mode chain, spends zero mask preps, and names exactly the
    /// hoisted step list as its rotation plan.
    #[test]
    fn input_mode_prepared_bit_identical_and_plan_exact() {
        let (rows, cols, out_cols) = (4usize, 32usize, 8usize);
        let fx = input_mode_fixture(rows, cols, out_cols);
        let simd = fx.encoder.row_size();
        let x = small_matrix(&fx.ring, rows, cols, 320);
        let w = small_matrix(&fx.ring, cols, out_cols, 321);
        let packed = encrypt_matrix(Packing::TokensFirst, &x, &fx.encoder, &fx.encryptor);

        let weights = MatmulWeights::Fresh { w: &w, encoder: &fx.encoder, mode: RotationMode::Input };
        let fresh = matmul_weights(&packed, &weights, &fx.eval, &fx.keys).expect("hoist keys");

        let prepared = PreparedMatmul::new_with_mode(
            Packing::TokensFirst,
            rows,
            &w,
            &fx.eval,
            &fx.encoder,
            RotationMode::Input,
        );
        assert_eq!(prepared.hoisted_steps(), tf_input_steps(rows, cols, out_cols, simd));
        assert_eq!(prepared.mode(), RotationMode::Input);
        let before = fx.eval.counts();
        let via_plane = matmul_prepared(&packed, &prepared, &fx.eval, &fx.keys).expect("hoist keys");
        let spent = fx.eval.counts().since(&before);
        assert_eq!(via_plane.cts, fresh.cts, "prepared input-mode chain diverged");
        assert_eq!(spent.mask_prep, 0, "prepared chain must not encode masks");
    }

    /// Hoisted steps admit no power-of-two fallback: a key ring without a
    /// dedicated key for a composite hoist step fails with the typed
    /// error rather than decomposing (or silently corrupting the hoist).
    #[test]
    fn input_mode_without_dedicated_key_is_typed_error() {
        let (rows, cols, out_cols) = (3usize, 10usize, 5usize);
        let fx = fixture(rows.next_power_of_two()); // pow2 ladder + stride extras only
        let steps = tf_input_steps(rows, cols, out_cols, fx.encoder.row_size());
        assert!(
            steps.iter().any(|s| !fx.keys.steps().contains(s)),
            "shape must need a key the fixture lacks"
        );
        let x = small_matrix(&fx.ring, rows, cols, 330);
        let w = small_matrix(&fx.ring, cols, out_cols, 331);
        let packed = encrypt_matrix(Packing::TokensFirst, &x, &fx.encoder, &fx.encryptor);
        let weights = MatmulWeights::Fresh { w: &w, encoder: &fx.encoder, mode: RotationMode::Input };
        let err = matmul_weights(&packed, &weights, &fx.eval, &fx.keys).unwrap_err();
        assert!(matches!(err, HeError::MissingGaloisKey { .. }), "got {err:?}");
    }

    /// 64-bit FNV-1a — change detection for the golden digests, not a
    /// cryptographic hash.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// FNV-1a over every output ciphertext's wire bytes, in output
    /// order, for one matmul from either mask source.
    fn chain_digest(
        packing: Packing,
        (rows, cols, out_cols): (usize, usize, usize),
        mode: RotationMode,
        prepared: bool,
    ) -> u64 {
        let fx = match mode {
            RotationMode::Output => fixture(rows.next_power_of_two()),
            RotationMode::Input => input_mode_fixture(rows, cols, out_cols),
        };
        let x = small_matrix(&fx.ring, rows, cols, 340 + out_cols as u64);
        let w = small_matrix(&fx.ring, cols, out_cols, 341 + cols as u64);
        let packed = encrypt_matrix(packing, &x, &fx.encoder, &fx.encryptor);
        let product = if prepared {
            let plane =
                PreparedMatmul::new_with_mode(packing, rows, &w, &fx.eval, &fx.encoder, mode);
            matmul_prepared(&packed, &plane, &fx.eval, &fx.keys)
        } else {
            let weights = MatmulWeights::Fresh { w: &w, encoder: &fx.encoder, mode };
            matmul_weights(&packed, &weights, &fx.eval, &fx.keys)
        }
        .expect("keys");
        assert_eq!(
            decrypt_matrix(&product, &fx.encoder, &fx.encryptor),
            x.matmul(&fx.ring, &w),
            "{packing:?} {mode:?} {rows}x{cols}x{out_cols}"
        );
        let mut bytes = Vec::new();
        product.cts.iter().for_each(|ct| ct.write(&mut bytes));
        fnv1a(0xcbf2_9ce4_8422_2325, &bytes)
    }

    /// Every chain kind's output ciphertexts, hashed byte for byte and
    /// pinned: a refactor of the chain body or the mask store must not
    /// move one bit, from fresh or prepared weights.
    #[test]
    fn golden_chain_digests() {
        use Packing::{FeatureBased as Fb, TokensFirst as Tf};
        use RotationMode::{Input, Output};
        let golden = [
            (Tf, (4, 8, 16), Output, 0x5eb1_da6f_0d60_c2bf),
            (Tf, (3, 10, 5), Output, 0x473c_fad7_7372_46eb),
            (Tf, (4, 32, 8), Output, 0x22cf_ce9e_669b_9132),
            (Fb, (4, 8, 16), Output, 0x76b2_5d14_32a9_67a3),
            (Fb, (3, 10, 5), Output, 0x1f94_85c1_0624_ac4b),
            (Fb, (2, 513, 6), Output, 0xbe4f_4228_9c9a_a035),
            (Tf, (4, 8, 16), Input, 0x355c_a8b4_e546_5dd2),
            (Tf, (3, 10, 5), Input, 0x56e4_3ca9_7ef6_804c),
            (Tf, (4, 32, 8), Input, 0xce05_6fae_d57b_a486),
        ];
        for (packing, shape, mode, want) in golden {
            for prepared in [false, true] {
                let got = chain_digest(packing, shape, mode, prepared);
                assert_eq!(
                    got, want,
                    "{packing:?} {shape:?} {mode:?} prepared={prepared}: {got:#018x}"
                );
            }
        }
    }

    #[test]
    fn tokens_first_uses_far_fewer_rotations() {
        // The paper's headline packing claim at matched shapes.
        let rows = 4;
        let cols = 300;
        let out_cols = 16;
        let simd = 512;
        let tf = matmul_counts(Packing::TokensFirst, rows, cols, out_cols, simd);
        let fb = matmul_counts(Packing::FeatureBased, rows, cols, out_cols, simd);
        assert!(
            fb.rotations > tf.rotations * (rows as u64),
            "FB {} vs TF {} rotations",
            fb.rotations,
            tf.rotations
        );
    }
}
