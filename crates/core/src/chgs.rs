//! The Combined-HGS protocol (CHGS, Fig. 3d / Fig. 6c): the embedding and
//! the three QKV projections collapse into a single module.
//!
//! The server pre-combines weights in plaintext — `Ā_q = trunc(W_E·W_Q)`,
//! `Ā_k = trunc(W_E·W_K)`, `Ā_v = trunc(W_E·W_V)`, `Ā_e = W_E` — so one
//! client mask `R_c` over the one-hot input and **one** interaction
//! produce the shares of all four linear outputs (`X·Ā + λ̄·2^f`),
//! removing the separate Embed and QKV HGS modules entirely: their
//! offline HE work and their online interactions fold into the Q×K step,
//! exactly the cost migration Table II reports for Primer-FPC.
//!
//! Fixed-point note (documented in DESIGN.md): combining weight matrices
//! changes where truncation happens — `trunc(X·trunc(W_E·W_Q) + λ̄·2^f)`
//! instead of `trunc(trunc(X·W_E + λ·2^f)·W_Q)`. The reference model in
//! `primer-nn` exposes the same combined semantics so the protocol stays
//! bit-exact against its reference.

use crate::hgs::add_plain_matrix;
use crate::packing::{
    encrypt_matrix_with, matmul_out_layout, matmul_weights, Layout, MatmulWeights, Packing,
    PackedMatrix,
};
use primer_he::{BatchEncoder, Encryptor, Evaluator, GaloisKeys};
use primer_math::{MatZ, Ring};
use rand::rngs::StdRng;

/// Client state: one mask, one share per combined projection.
#[derive(Debug, Clone)]
pub struct ChgsClient {
    /// The single input mask `R_c` (rows × in_cols).
    pub rc: MatZ,
    /// Client shares `R_c·Ā_i + R_s,i`, one per projection.
    pub shares: Vec<MatZ>,
}

/// A client CHGS instance between its single request flight and the
/// per-projection replies (the pipelined form of the offline phase).
#[derive(Debug)]
pub struct ChgsPending {
    packing: Packing,
    rc: MatZ,
    out_cols: Vec<usize>,
}

impl ChgsPending {
    /// Layouts of the reply flights this instance expects, in wire order.
    pub fn reply_layouts(&self, simd: usize) -> Vec<Layout> {
        let (rows, in_cols) = self.rc.shape();
        self.out_cols
            .iter()
            .map(|&oc| matmul_out_layout(self.packing, rows, in_cols, oc, simd))
            .collect()
    }
}

/// Pipelined client half 1: encrypts the single combined mask into the
/// request flight. Pure local compute with explicit randomness.
pub fn client_request(
    packing: Packing,
    rc: MatZ,
    out_cols: &[usize],
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
    rng: &mut StdRng,
) -> (ChgsPending, PackedMatrix) {
    let request = encrypt_matrix_with(packing, &rc, encoder, encryptor, rng);
    (ChgsPending { packing, rc, out_cols: out_cols.to_vec() }, request)
}

/// Pipelined client half 2: decrypts one reply per combined projection.
///
/// # Panics
///
/// Panics if the reply count or layouts mismatch the request.
pub fn client_finish(
    pending: ChgsPending,
    replies: &[PackedMatrix],
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
) -> ChgsClient {
    let layouts = pending.reply_layouts(encoder.row_size());
    assert_eq!(replies.len(), layouts.len(), "CHGS reply count mismatch");
    let shares = replies
        .iter()
        .zip(&layouts)
        .map(|(reply, layout)| {
            assert_eq!(&reply.layout, layout, "CHGS reply layout mismatch");
            crate::packing::decrypt_matrix(reply, encoder, encryptor)
        })
        .collect();
    ChgsClient { rc: pending.rc, shares }
}

/// Pipelined server half: every combined projection's masked product
/// from the one received `Enc(R_c)` and pre-sampled correction masks.
/// Pure local compute, one reply flight per projection in weight order.
/// Each projection's weights are either raw (masks encoded per call) or
/// a Setup-prepared plane (no per-query mask encoding).
///
/// # Panics
///
/// Panics on shape mismatch or missing Galois keys (engine setup bugs).
pub fn server_compute(
    request: &PackedMatrix,
    combined_weights: &[MatmulWeights<'_>],
    rss: &[&MatZ],
    eval: &Evaluator,
    encoder: &BatchEncoder,
    keys: &GaloisKeys,
) -> Vec<PackedMatrix> {
    assert_eq!(combined_weights.len(), rss.len(), "one R_s per projection");
    combined_weights
        .iter()
        .zip(rss)
        .map(|(w, rs)| {
            let product = matmul_weights(request, w, eval, keys).expect("galois keys provisioned");
            add_plain_matrix(&product, rs, eval, encoder)
        })
        .collect()
}

/// Server online share for projection `i`: `U·Ā_i − R_s,i` plus the
/// public positional term `λ̄_i·2^f` (added to the server's share).
pub fn server_online(
    ring: &Ring,
    u: &MatZ,
    combined_w: &MatZ,
    rs: &MatZ,
    lambda_scaled: &MatZ,
) -> MatZ {
    u.matmul(ring, combined_w).sub(ring, rs).add(ring, lambda_scaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{recv_packed, send_packed};
    use primer_he::{HeContext, HeParams, KeyGenerator};
    use primer_math::rng::seeded;
    use primer_net::run_two_party;
    use std::sync::Arc;

    /// One interaction, four products: every projection's shares must
    /// reconstruct `X·Ā_i + λ̄_i·2^f`.
    #[test]
    fn chgs_reconstructs_all_projections() {
        let ctx = HeContext::new(HeParams::toy());
        let ring = Ring::new(ctx.params().t());
        let mut rng = seeded(260);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let sk = kg.secret_key().clone();
        let simd = ctx.params().row_size();
        let keys = Arc::new(kg.galois_keys_pow2(&[1, 4, simd - 1, simd - 4], false, &mut rng));

        let (rows, in_cols) = (4usize, 16usize);
        let out_cols = vec![6usize, 6, 6, 16];
        let x = MatZ::from_fn(rows, in_cols, |i, j| u64::from(j == (i * 3) % in_cols) * 32);
        let ws: Vec<MatZ> = out_cols
            .iter()
            .enumerate()
            .map(|(idx, &oc)| {
                MatZ::from_fn(in_cols, oc, |i, j| ((i * 3 + j * 5 + idx) % 25) as u64)
            })
            .collect();
        let lambdas: Vec<MatZ> = out_cols
            .iter()
            .map(|&oc| MatZ::from_fn(rows, oc, |i, j| ((i + j) % 10) as u64))
            .collect();

        let (ctx_c, ctx_s) = (ctx.clone(), ctx.clone());
        let (x_c, out_cols_c) = (x.clone(), out_cols.clone());
        let (ws_s, lambdas_s) = (ws.clone(), lambdas.clone());
        let keys_s = Arc::clone(&keys);

        let (client_shares, server_shares, meter) = run_two_party(
            move |t| {
                let encoder = BatchEncoder::new(&ctx_c);
                let encryptor = Encryptor::new(&ctx_c, sk, 261);
                let ring = Ring::new(ctx_c.params().t());
                let rc = MatZ::random(&ring, rows, in_cols, &mut seeded(262));
                let (pending, request) = client_request(
                    Packing::TokensFirst,
                    rc,
                    &out_cols_c,
                    &encoder,
                    &encryptor,
                    &mut seeded(264),
                );
                send_packed(&t, &request);
                let replies: Vec<PackedMatrix> = pending
                    .reply_layouts(encoder.row_size())
                    .into_iter()
                    .map(|layout| recv_packed(&t, &ctx_c, layout).expect("in-process flight"))
                    .collect();
                let pre = client_finish(pending, &replies, &encoder, &encryptor);
                let u = x_c.sub(&ring, &pre.rc);
                crate::wire::send_matrix(&t, &u);
                pre.shares
            },
            move |t| {
                let encoder = BatchEncoder::new(&ctx_s);
                let eval = Evaluator::new(&ctx_s);
                let ring = Ring::new(ctx_s.params().t());
                let layout = Layout::plan(Packing::TokensFirst, rows, in_cols, encoder.row_size());
                let request = recv_packed(&t, &ctx_s, layout).expect("in-process flight");
                let mut rng = seeded(263);
                let rss: Vec<MatZ> =
                    ws_s.iter().map(|w| MatZ::random(&ring, rows, w.cols(), &mut rng)).collect();
                let rs_refs: Vec<&MatZ> = rss.iter().collect();
                let weights: Vec<MatmulWeights<'_>> = ws_s
                    .iter()
                    .map(|w| MatmulWeights::Fresh {
                        w,
                        encoder: &encoder,
                        mode: crate::packing::RotationMode::Output,
                    })
                    .collect();
                for reply in server_compute(&request, &weights, &rs_refs, &eval, &encoder, &keys_s)
                {
                    send_packed(&t, &reply);
                }
                let u = crate::wire::recv_matrix(&t).expect("in-process flight");
                ws_s.iter()
                    .zip(rss.iter().zip(&lambdas_s))
                    .map(|(w, (rs, lam))| server_online(&ring, &u, w, rs, lam))
                    .collect::<Vec<_>>()
            },
        );
        for i in 0..out_cols.len() {
            let got = client_shares[i].add(&ring, &server_shares[i]);
            let want = x.matmul(&ring, &ws[i]).add(&ring, &lambdas[i]);
            assert_eq!(got, want, "projection {i}");
        }
        // Exactly one client→server encrypted flight (plus U) — the
        // merged-interaction property.
        assert_eq!(meter.c2s.messages(), 2);
    }
}
