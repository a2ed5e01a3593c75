//! The Online phase: the input-dependent part of one inference,
//! consuming exactly one offline bundle per query.

use super::client::ClientCore;
use super::column_slice;
use super::offline::{ClientBundle, StepTimer};
use super::server::ServerCore;
use crate::chgs;
use crate::fhgs;
use crate::gcmod::{bits_to_ring_words, ring_words_to_bits, GcClientStep, GcServerStep};
use crate::hgs;
use crate::stats::{StepBreakdown, StepCategory};
use crate::wire;
use primer_gc::arith::ring_bits;
use primer_he::{Evaluator, HeError};
use primer_math::MatZ;
use primer_net::{MeteredTransport, Transport, TrafficSnapshot};

/// The protocol material the server's online phase consumes (one
/// [`ServerBundle`] minus its cost attribution).
pub(crate) struct ServerOnlineInputs {
    pub embed_rs: Vec<MatZ>,
    pub bservers: Vec<super::offline::BlockServerPre>,
    pub cls_rs: MatZ,
    pub gc: Vec<GcServerStep>,
}

/// Client online phase: masks the one-hot input, walks every protocol
/// step consuming the bundle's shares and GC sessions, and reconstructs
/// the logits.
///
/// # Errors
///
/// [`HeError::Malformed`] on a corrupt or truncated mid-session flight.
pub(crate) fn client_online(
    core: &ClientCore,
    bundle: ClientBundle,
    tokens: &[usize],
    t: &dyn Transport,
) -> Result<Vec<i64>, HeError> {
    let _span = primer_obs::span!("online.infer", variant = core.variant.name());
    let cfg = &core.sys.model;
    let ring = core.sys.ring();
    let rb = ring_bits(ring.modulus());
    let (n, heads) = (cfg.n_tokens, cfg.n_heads);
    let dh = cfg.d_head();
    let frac = core.fixed.spec().fixed.frac();

    let ClientBundle { m_embed_in, m_x1, blocks, embed_shares, bclients, cls, gc } = bundle;
    let mut gc_sessions = gc.into_iter();
    let mut gc_circuits = core.circuits.iter();
    let mut run_gc = |t: &dyn Transport, vals: &[u64]| {
        let circuit = gc_circuits.next().expect("circuit per GC step");
        let session: GcClientStep = gc_sessions.next().expect("offline session per GC step");
        session.online(circuit, t, &ring_words_to_bits(vals, rb));
    };

    // One-hot input, masked.
    let one = 1i64 << frac;
    let x0 = MatZ::from_fn(n, cfg.vocab, |i, j| {
        if tokens[i] == j {
            ring.from_signed(one)
        } else {
            0
        }
    });
    wire::send_matrix(t, &x0.sub(&ring, &m_embed_in));

    // Embed / combined GC.
    if core.variant.combined() {
        let mut vals = Vec::new();
        for share in &embed_shares {
            vals.extend_from_slice(share.as_slice());
        }
        for m in [&m_x1, &blocks[0].q, &blocks[0].k, &blocks[0].v] {
            vals.extend_from_slice(m.as_slice());
        }
        run_gc(t, &vals);
    } else {
        let mut vals = embed_shares[0].as_slice().to_vec();
        vals.extend_from_slice(m_x1.as_slice());
        run_gc(t, &vals);
    }

    // Blocks.
    for b in 0..cfg.n_blocks {
        let bm = &blocks[b];
        let bc = &bclients[b];
        if let Some(shares) = &bc.qkv_shares {
            let mut vals = Vec::new();
            for s in shares {
                vals.extend_from_slice(s.as_slice());
            }
            for m in [&bm.q, &bm.k, &bm.v] {
                vals.extend_from_slice(m.as_slice());
            }
            run_gc(t, &vals);
        }
        // Scores per head, then softmax GC.
        let mut score_vals = Vec::new();
        for h in 0..heads {
            let share = fhgs::client_online(
                &bc.score_pre[h],
                &ring,
                &core.sys.he,
                &core.encoder,
                &core.encryptor,
                t,
            )?;
            score_vals.extend_from_slice(share.as_slice());
        }
        for h in 0..heads {
            score_vals.extend_from_slice(bm.probs[h].as_slice());
        }
        run_gc(t, &score_vals);
        // AV per head, then trunc GC.
        let mut av_vals = Vec::new();
        for h in 0..heads {
            let share = fhgs::client_online(
                &bc.av_pre[h],
                &ring,
                &core.sys.he,
                &core.encoder,
                &core.encryptor,
                t,
            )?;
            av_vals.extend_from_slice(share.as_slice());
        }
        // Mask ordering matches the per-head segment layout.
        for h in 0..heads {
            av_vals.extend_from_slice(column_slice(&bm.av, h * dh, dh).as_slice());
        }
        run_gc(t, &av_vals);
        // WO → LN1 (residual = block input).
        let residual_mask = if b == 0 { &m_x1 } else { &blocks[b - 1].ln2 };
        let mut ln1_vals = bc.wo.share.as_slice().to_vec();
        ln1_vals.extend_from_slice(residual_mask.as_slice());
        ln1_vals.extend_from_slice(bm.ln1.as_slice());
        run_gc(t, &ln1_vals);
        // W1 → GELU.
        let mut gelu_vals = bc.w1.share.as_slice().to_vec();
        gelu_vals.extend_from_slice(bm.gelu.as_slice());
        run_gc(t, &gelu_vals);
        // W2 → LN2 (residual = LN1 output, client share = its mask).
        let mut ln2_vals = bc.w2.share.as_slice().to_vec();
        ln2_vals.extend_from_slice(bm.ln1.as_slice());
        ln2_vals.extend_from_slice(bm.ln2.as_slice());
        run_gc(t, &ln2_vals);
    }

    // Classifier: reconstruct logits.
    let server_share = wire::recv_matrix(t)?;
    let raw: Vec<i64> = (0..cfg.n_classes)
        .map(|c| ring.to_signed(ring.add(server_share[(0, c)], cls.share[(0, c)])))
        .collect();
    Ok(raw.iter().map(|&v| core.fixed.spec().fixed.truncate_product(v)).collect())
}

/// Server online phase: pure-plaintext HGS shares, FHGS ct–pt matmuls
/// and GC evaluations, attributed per category into `steps` (online
/// slots). Returns the online traffic delta.
///
/// # Errors
///
/// [`HeError::Malformed`] on a corrupt or truncated mid-session flight.
pub(crate) fn server_online(
    core: &ServerCore,
    eval: &Evaluator,
    inputs: ServerOnlineInputs,
    steps: &mut StepBreakdown,
    t: &dyn MeteredTransport,
    wire_mark: &mut TrafficSnapshot,
) -> Result<TrafficSnapshot, HeError> {
    let cfg = &core.sys.model;
    let ring = core.sys.ring();
    let rb = ring_bits(ring.modulus());
    let (n, d, dff, heads) = (cfg.n_tokens, cfg.d_model, cfg.d_ff, cfg.n_heads);
    let dh = cfg.d_head();

    let ServerOnlineInputs { embed_rs, bservers, cls_rs, gc } = inputs;
    let mut gc_sessions = gc.into_iter();
    let mut gc_circuits = core.circuits.iter();
    // A client flight of the wrong length fails the query as malformed.
    let mut run_gc = |t: &dyn MeteredTransport, vals: &[u64]| -> Result<Vec<u64>, HeError> {
        let circuit = gc_circuits.next().expect("circuit per GC step");
        let session: GcServerStep = gc_sessions.next().expect("offline session per GC step");
        let out = session
            .try_online(circuit, t, &ring_words_to_bits(vals, rb))
            .map_err(|e| HeError::Malformed { what: e.what })?;
        Ok(bits_to_ring_words(&out, rb))
    };

    let mut timer = StepTimer::resume(t, *wire_mark);
    let start = timer.snapshot();
    let w = &core.plane.weights;

    let u0 = wire::recv_matrix(t)?;
    // Embed / combined online + GC.
    let (mut u_x, mut u_q, mut u_k, mut u_v);
    if core.variant.combined() {
        let cw = w.combined.as_ref().expect("combined weights prepared");
        let raw_e = chgs::server_online(&ring, &u0, &w.we, &embed_rs[0], &w.lam);
        let raw_q = chgs::server_online(&ring, &u0, &cw.a_q, &embed_rs[1], &cw.lam_q);
        let raw_k = chgs::server_online(&ring, &u0, &cw.a_k, &embed_rs[2], &cw.lam_k);
        let raw_v = chgs::server_online(&ring, &u0, &cw.a_v, &embed_rs[3], &cw.lam_v);
        let mut vals = Vec::new();
        for m in [&raw_e, &raw_q, &raw_k, &raw_v] {
            vals.extend_from_slice(m.as_slice());
        }
        let out = run_gc(t, &vals)?;
        let nd = n * d;
        u_x = MatZ::from_vec(n, d, out[..nd].to_vec());
        u_q = MatZ::from_vec(n, d, out[nd..2 * nd].to_vec());
        u_k = MatZ::from_vec(n, d, out[2 * nd..3 * nd].to_vec());
        u_v = MatZ::from_vec(n, d, out[3 * nd..].to_vec());
        timer.absorb(steps, StepCategory::QxK, false);
    } else {
        let raw = chgs::server_online(&ring, &u0, &w.we, &embed_rs[0], &w.lam);
        let out = run_gc(t, raw.as_slice())?;
        u_x = MatZ::from_vec(n, d, out);
        (u_q, u_k, u_v) = (u_x.clone(), u_x.clone(), u_x.clone()); // placeholders
        timer.absorb(steps, StepCategory::Embed, false);
    }

    for (bs, blk) in bservers.iter().zip(&w.blocks) {
        if let Some(rs) = &bs.qkv_rs {
            let raw_q = hgs::server_online(&ring, &u_x, &blk.wq, &rs[0]);
            let raw_k = hgs::server_online(&ring, &u_x, &blk.wk, &rs[1]);
            let raw_v = hgs::server_online(&ring, &u_x, &blk.wv, &rs[2]);
            let mut vals = Vec::new();
            for m in [&raw_q, &raw_k, &raw_v] {
                vals.extend_from_slice(m.as_slice());
            }
            let out = run_gc(t, &vals)?;
            let nd = n * d;
            u_q = MatZ::from_vec(n, d, out[..nd].to_vec());
            u_k = MatZ::from_vec(n, d, out[nd..2 * nd].to_vec());
            u_v = MatZ::from_vec(n, d, out[2 * nd..].to_vec());
            timer.absorb(steps, StepCategory::Qkv, false);
        }
        // Scores (FHGS) per head.
        let mut score_vals = Vec::new();
        for h in 0..heads {
            let ua = column_slice(&u_q, h * dh, dh);
            let ub = column_slice(&u_k, h * dh, dh).transpose();
            let share = fhgs::server_online(
                &bs.score_pre[h],
                &ring,
                &ua,
                &ub,
                &core.encoder,
                eval,
                &core.gk,
                t,
            );
            score_vals.extend_from_slice(share.as_slice());
        }
        timer.absorb(steps, StepCategory::QxK, false);
        let probs_out = run_gc(t, &score_vals)?;
        let mut u_probs: Vec<MatZ> = Vec::with_capacity(heads);
        for h in 0..heads {
            u_probs.push(MatZ::from_vec(n, n, probs_out[h * n * n..(h + 1) * n * n].to_vec()));
        }
        timer.absorb(steps, StepCategory::Softmax, false);
        // AV (FHGS) per head.
        let mut av_vals = Vec::new();
        for (h, probs) in u_probs.iter().enumerate() {
            let ub = column_slice(&u_v, h * dh, dh);
            let share = fhgs::server_online(
                &bs.av_pre[h],
                &ring,
                probs,
                &ub,
                &core.encoder,
                eval,
                &core.gk,
                t,
            );
            av_vals.extend_from_slice(share.as_slice());
        }
        let av_out = run_gc(t, &av_vals)?;
        // Reassemble per-head segments into (n × d).
        let mut u_av = MatZ::zeros(n, d);
        for h in 0..heads {
            let seg = &av_out[h * n * dh..(h + 1) * n * dh];
            for i in 0..n {
                for c in 0..dh {
                    u_av[(i, h * dh + c)] = seg[i * dh + c];
                }
            }
        }
        timer.absorb(steps, StepCategory::AttnValue, false);
        // WO → LN1.
        let raw_attn = hgs::server_online(&ring, &u_av, &blk.wo, &bs.wo_rs);
        let mut ln1_vals = raw_attn.as_slice().to_vec();
        ln1_vals.extend_from_slice(u_x.as_slice());
        let u_ln1 = MatZ::from_vec(n, d, run_gc(t, &ln1_vals)?);
        // W1 → GELU.
        let raw_ff1 = hgs::server_online(&ring, &u_ln1, &blk.w1, &bs.w1_rs);
        let u_gelu = MatZ::from_vec(n, dff, run_gc(t, raw_ff1.as_slice())?);
        // W2 → LN2.
        let raw_ff2 = hgs::server_online(&ring, &u_gelu, &blk.w2, &bs.w2_rs);
        let mut ln2_vals = raw_ff2.as_slice().to_vec();
        ln2_vals.extend_from_slice(u_ln1.as_slice());
        u_x = MatZ::from_vec(n, d, run_gc(t, &ln2_vals)?);
        timer.absorb(steps, StepCategory::Others, false);
    }

    // Classifier.
    let u_cls = MatZ::from_fn(1, d, |_, j| u_x[(0, j)]);
    let raw_cls = hgs::server_online(&ring, &u_cls, &w.classifier, &cls_rs);
    wire::send_matrix(t, &raw_cls);
    timer.absorb(steps, StepCategory::Others, false);

    *wire_mark = timer.snapshot();
    Ok(timer.snapshot().since(&start))
}
