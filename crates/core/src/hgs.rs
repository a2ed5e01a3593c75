//! The HGS protocol (Fig. 4): offline HE precomputation for
//! ciphertext–plaintext products `X·W`.
//!
//! Offline: the client samples a mask `R_c`, sends `Enc(R_c)`; the server
//! replies `Enc(R_c·W + R_s)`. Online: the server — which holds `U = X −
//! R_c` — computes `U·W − R_s` locally, so client (`R_c·W + R_s`) and
//! server (`U·W − R_s`) hold additive shares of `X·W` with **no encrypted
//! online computation at all**.

use crate::packing::{
    encode_matrix_in_layout, encrypt_matrix_with, matmul_out_layout, matmul_weights, Layout,
    MatmulWeights, Packing, PackedMatrix,
};
use primer_he::{BatchEncoder, Encryptor, Evaluator, GaloisKeys};
use primer_math::{MatZ, Ring};
use rand::rngs::StdRng;

/// Client-side result of one HGS offline run.
#[derive(Debug, Clone)]
pub struct HgsClient {
    /// The input mask `R_c` (`rows × in_cols`).
    pub rc: MatZ,
    /// The client's share `R_c·W + R_s` of the product.
    pub share: MatZ,
}

/// A client HGS instance between its request flight and the server's
/// reply — the pipelined form of the offline phase. The batched offline
/// producers build many requests in parallel, put them on the wire in
/// deterministic bundle order, and finish each instance once its reply
/// arrives ([`client_request`] / [`HgsPending::reply_layout`] /
/// [`client_finish`]).
#[derive(Debug)]
pub struct HgsPending {
    packing: Packing,
    rc: MatZ,
    out_cols: usize,
}

impl HgsPending {
    /// Layout of the reply flight this instance expects.
    pub fn reply_layout(&self, simd: usize) -> Layout {
        matmul_out_layout(self.packing, self.rc.rows(), self.rc.cols(), self.out_cols, simd)
    }
}

/// Pipelined client half 1: encrypts the mask into the request flight.
/// Pure local compute (no transport) with explicit encryption
/// randomness, so many requests can be prepared concurrently.
pub fn client_request(
    packing: Packing,
    rc: MatZ,
    out_cols: usize,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
    rng: &mut StdRng,
) -> (HgsPending, PackedMatrix) {
    let request = encrypt_matrix_with(packing, &rc, encoder, encryptor, rng);
    (HgsPending { packing, rc, out_cols }, request)
}

/// Pipelined client half 2: decrypts the server's reply into the share.
///
/// # Panics
///
/// Panics if the reply does not carry this instance's layout.
pub fn client_finish(
    pending: HgsPending,
    reply: &PackedMatrix,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
) -> HgsClient {
    assert_eq!(
        reply.layout,
        pending.reply_layout(encoder.row_size()),
        "HGS reply layout mismatch"
    );
    let share = crate::packing::decrypt_matrix(reply, encoder, encryptor);
    HgsClient { rc: pending.rc, share }
}

/// Pipelined server half: the masked product `Enc(R_c)·W + R_s` for a
/// received request and a pre-sampled correction mask. Pure local
/// compute (no transport, no rng), so many instances can run
/// concurrently on the pool. `w` is either a raw ring matrix (masks
/// encoded here, per call) or a Setup-prepared plane (the NTT-resident
/// hot path — zero mask encoding per query).
///
/// # Panics
///
/// Panics if a required Galois key is missing (engine setup bug).
pub fn server_compute(
    request: &PackedMatrix,
    w: &MatmulWeights<'_>,
    rs: &MatZ,
    eval: &Evaluator,
    encoder: &BatchEncoder,
    keys: &GaloisKeys,
) -> PackedMatrix {
    let product = matmul_weights(request, w, eval, keys).expect("galois keys provisioned");
    add_plain_matrix(&product, rs, eval, encoder)
}

/// Server online phase: the share `U·W − R_s` (pure plaintext work).
pub fn server_online(ring: &Ring, u: &MatZ, w: &MatZ, rs: &MatZ) -> MatZ {
    u.matmul(ring, w).sub(ring, rs)
}

/// `packed + encode(m)` slot-wise (layout-aligned plaintext addition).
pub fn add_plain_matrix(
    packed: &PackedMatrix,
    m: &MatZ,
    eval: &Evaluator,
    encoder: &BatchEncoder,
) -> PackedMatrix {
    let pts = encode_matrix_in_layout(&packed.layout, m, encoder);
    let cts = packed.cts.iter().zip(&pts).map(|(ct, pt)| eval.add_plain(ct, pt)).collect();
    PackedMatrix { layout: packed.layout.clone(), cts }
}

/// `packed − encode(m)` slot-wise.
pub fn sub_plain_matrix(
    packed: &PackedMatrix,
    m: &MatZ,
    eval: &Evaluator,
    encoder: &BatchEncoder,
) -> PackedMatrix {
    let pts = encode_matrix_in_layout(&packed.layout, m, encoder);
    let cts = packed.cts.iter().zip(&pts).map(|(ct, pt)| eval.sub_plain(ct, pt)).collect();
    PackedMatrix { layout: packed.layout.clone(), cts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{recv_packed, send_packed};
    use primer_he::{HeContext, HeParams, KeyGenerator};
    use primer_math::rng::seeded;
    use primer_net::run_two_party;
    use std::sync::Arc;

    /// Full HGS: offline + online shares must reconstruct X·W exactly,
    /// with zero online HE operations.
    #[test]
    fn hgs_shares_reconstruct_product() {
        for packing in [Packing::TokensFirst, Packing::FeatureBased] {
            let ctx = HeContext::new(HeParams::toy());
            let ring = Ring::new(ctx.params().t());
            let mut rng = seeded(240);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let sk = kg.secret_key().clone();
            let simd = ctx.params().row_size();
            let keys = Arc::new(kg.galois_keys_pow2(&[1, 4, simd - 1, simd - 4], false, &mut rng));

            let (rows, in_cols, out_cols) = (4usize, 8usize, 6usize);
            let x = MatZ::from_fn(rows, in_cols, |i, j| ((i * 31 + j * 7) % 40) as u64);
            let w = MatZ::from_fn(in_cols, out_cols, |i, j| ((i * 5 + j * 11) % 30) as u64);

            let ctx_c = ctx.clone();
            let ctx_s = ctx.clone();
            let (w_c, x_c) = (w.clone(), x.clone());
            let w_s = w.clone();
            let keys_s = Arc::clone(&keys);

            let (client_out, server_out, _) = run_two_party(
                move |t| {
                    let encoder = BatchEncoder::new(&ctx_c);
                    let encryptor = Encryptor::new(&ctx_c, sk, 241);
                    let ring = Ring::new(ctx_c.params().t());
                    let rc = MatZ::random(&ring, rows, in_cols, &mut seeded(242));
                    let (pending, request) = client_request(
                        packing, rc, out_cols, &encoder, &encryptor, &mut seeded(244),
                    );
                    send_packed(&t, &request);
                    let layout = pending.reply_layout(encoder.row_size());
                    let reply = recv_packed(&t, &ctx_c, layout).expect("in-process flight");
                    let hgs = client_finish(pending, &reply, &encoder, &encryptor);
                    // Online: client ships U = X − Rc to the server.
                    let u = x_c.sub(&ring, &hgs.rc);
                    crate::wire::send_matrix(&t, &u);
                    hgs.share
                },
                move |t| {
                    let encoder = BatchEncoder::new(&ctx_s);
                    let eval = Evaluator::new(&ctx_s);
                    let ring = Ring::new(ctx_s.params().t());
                    let layout = Layout::plan(packing, rows, in_cols, encoder.row_size());
                    let request = recv_packed(&t, &ctx_s, layout).expect("in-process flight");
                    let rs = MatZ::random(&ring, rows, out_cols, &mut seeded(243));
                    let weights = MatmulWeights::Fresh {
                        w: &w_s,
                        encoder: &encoder,
                        mode: crate::packing::RotationMode::Output,
                    };
                    let reply = server_compute(&request, &weights, &rs, &eval, &encoder, &keys_s);
                    send_packed(&t, &reply);
                    let offline_ops = eval.counts();
                    let u = crate::wire::recv_matrix(&t).expect("in-process flight");
                    let share = server_online(&ring, &u, &w_s, &rs);
                    let online_ops = eval.counts().since(&offline_ops);
                    (share, online_ops)
                },
            );
            let (server_share, online_ops) = server_out;
            let reconstructed = client_out.add(&ring, &server_share);
            assert_eq!(reconstructed, x.matmul(&ring, &w_c), "{packing:?}");
            // The paper's claim: the online phase has no HE operations.
            assert_eq!(online_ops.total(), 0, "online HE ops must be zero");
        }
    }
}
