//! The Fully-HGS (FHGS) protocol (Fig. 5): Beaver-style support for the
//! ciphertext–ciphertext products of attention (`X_Q·X_Kᵀ`,
//! `SoftMax·X_V`) using **additive-only** HE.
//!
//! For a product `A·B` (`A: n×k` client-masked by `R_a`, `B: k×m` masked
//! by `R_b`, server holding `U_a = A−R_a`, `U_b = B−R_b`):
//!
//! ```text
//! A·B = U_a·U_b + U_a·R_b + R_a·U_b + R_a·R_b
//! ```
//!
//! Offline, the client ships `Enc(R_a)`, `Enc(R_bᵀ)` and `Enc(R_a·R_b)`
//! (it knows both masks, so the "triple" needs no ct–ct multiply — the
//! paper's key observation). Online, the server computes
//!
//! * `E1 = matmul(Enc(R_a), U_b) + Enc(R_a·R_b) + encode(U_a·U_b) − R_s1`
//! * `E2 = matmul(Enc(R_bᵀ), U_aᵀ) − R_s2`  (the transpose of `U_a·R_b`)
//!
//! and sends both. The client decrypts and assembles its share as
//! `dec(E1) + dec(E2)ᵀ` — the transpose happens **in plaintext at the
//! client**, avoiding expensive slot-permuting rotations; the server's
//! share is `R_s1 + R_s2ᵀ`. Both decryptions are masked, so the client
//! learns nothing beyond its share.
//!
//! # Triple layouts ([`FhgsMode`])
//!
//! The two online matmuls can run in either of two packings:
//!
//! * [`FhgsMode::Diagonal`] — the triple is packed like every other
//!   encrypted matrix ([`crate::packing::Packing`]) and the online
//!   matmuls walk the usual rotation chains. Fewest ciphertexts; pays
//!   `O(pad)` rotations per product.
//! * [`FhgsMode::ZeroRotation`] — replicated column packing
//!   ([`crate::packing::ZrLayout`]): each online matmul is **one
//!   slot-wise plaintext multiply per ciphertext, zero rotations, zero
//!   Galois keys**, at the price of `n·m·k` slots per flight instead of
//!   `≈ n·max(k, m)`. The inner-product sums happen in plaintext: the
//!   client sums regions of its decryption, the server sums regions of
//!   its (full-slot) masks. The full-slot masks are a *security
//!   requirement*, not a convenience: region slots carry unsummed
//!   partials `R·U` that a narrower mask would leak to the client.
//!
//! The selector in `costmodel::layout` picks the mode per product shape;
//! small shapes (one ciphertext per flight) favour zero-rotation, while
//! paper-scale attention favours diagonal.

use crate::hgs::{add_plain_matrix, sub_plain_matrix};
use crate::packing::{
    encrypt_matrix_in_layout_with, encrypt_matrix_with, matmul_out_layout, matmul_plain_weights,
    Layout, Packing, PackedMatrix, ZrLayout,
};
use crate::wire::{recv_cts, recv_packed, send_cts, send_packed};
use primer_he::{BatchEncoder, Ciphertext, Encryptor, Evaluator, GaloisKeys, HeContext};
use primer_math::{MatZ, Ring};
use primer_net::Transport;
use rand::rngs::StdRng;
use rand::Rng;

/// Shapes of one FHGS product `A (n×k) · B (k×m)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FhgsDims {
    /// Rows of A.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B.
    pub m: usize,
}

/// How an FHGS triple is packed (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FhgsMode {
    /// Diagonal packing; online matmuls pay rotation chains.
    Diagonal(Packing),
    /// Replicated column packing; zero online rotations.
    ZeroRotation,
}

/// The two replicated layouts of a zero-rotation triple: `[E1-side
/// (R_a replicated m×), E2-side (R_bᵀ replicated n×)]`. `Enc(R_a·R_b)`
/// shares the E1-side layout (grid-origin encoded).
pub fn zr_layouts(dims: FhgsDims, slots: usize) -> [ZrLayout; 2] {
    [
        ZrLayout::plan(dims.n, dims.k, dims.m, slots),
        ZrLayout::plan(dims.m, dims.k, dims.n, slots),
    ]
}

/// One request flight of an FHGS triple: diagonal flights carry layout
/// metadata, zero-rotation flights are bare ciphertext batches (their
/// geometry is shape-derived on both sides).
#[derive(Debug, Clone)]
pub enum FhgsFlight {
    /// A diagonally packed matrix.
    Packed(PackedMatrix),
    /// Zero-rotation replicated ciphertexts.
    Raw(Vec<Ciphertext>),
}

impl FhgsFlight {
    /// Sends the flight.
    pub fn send(&self, transport: &dyn Transport) {
        match self {
            FhgsFlight::Packed(m) => send_packed(transport, m),
            FhgsFlight::Raw(cts) => send_cts(transport, cts),
        }
    }

    /// Total wire size of the ciphertexts.
    pub fn serialized_size(&self) -> usize {
        match self {
            FhgsFlight::Packed(m) => m.serialized_size(),
            FhgsFlight::Raw(cts) => cts.iter().map(Ciphertext::serialized_size).sum(),
        }
    }
}

/// Client-side precomputed state.
#[derive(Debug, Clone)]
pub struct FhgsClient {
    /// Mask for A.
    pub rc_a: MatZ,
    /// Mask for B.
    pub rc_b: MatZ,
    dims: FhgsDims,
    mode: FhgsMode,
}

/// The received triple plus whatever the output masking needs per mode.
#[derive(Debug)]
enum Triple {
    Diag {
        enc_rc_a: PackedMatrix,
        enc_rc_bt: PackedMatrix,
        enc_ab: PackedMatrix,
    },
    Zr {
        enc_a: Vec<Ciphertext>,
        enc_bt: Vec<Ciphertext>,
        enc_ab: Vec<Ciphertext>,
        /// Full-slot mask for E1 (`(n·m) × k`); `rs1` is its row sums.
        s1: MatZ,
        /// Full-slot mask for E2 (`(m·n) × k`); `rs2` is its row sums.
        s2: MatZ,
    },
}

/// Server-side precomputed state.
#[derive(Debug)]
pub struct FhgsServer {
    triple: Triple,
    rs1: MatZ,
    rs2: MatZ,
    dims: FhgsDims,
}

impl FhgsServer {
    /// Serializes this precomputed state into a suspend image (see
    /// `session::suspend`). The triple's ciphertexts reuse the wire
    /// codec; the output masks travel as plain ring matrices — the image
    /// holds one-time secrets either way, so it is only as private as
    /// the directory it lands in.
    pub(crate) fn suspend_write(&self, out: &mut Vec<u8>) {
        use crate::wire::{write_cts, write_packed};
        use primer_math::codec::{put_u32, write_matz};
        match &self.triple {
            Triple::Diag { enc_rc_a, enc_rc_bt, enc_ab } => {
                out.push(0);
                write_packed(out, enc_rc_a);
                write_packed(out, enc_rc_bt);
                write_packed(out, enc_ab);
            }
            Triple::Zr { enc_a, enc_bt, enc_ab, s1, s2 } => {
                out.push(1);
                write_cts(out, enc_a);
                write_cts(out, enc_bt);
                write_cts(out, enc_ab);
                write_matz(out, s1);
                write_matz(out, s2);
            }
        }
        write_matz(out, &self.rs1);
        write_matz(out, &self.rs2);
        put_u32(out, self.dims.n as u32);
        put_u32(out, self.dims.k as u32);
        put_u32(out, self.dims.m as u32);
    }

    /// Decodes state written by [`FhgsServer::suspend_write`].
    ///
    /// # Errors
    ///
    /// [`primer_he::HeError::Malformed`] on truncated or foreign bytes.
    pub(crate) fn suspend_read(
        r: &mut primer_math::codec::Rdr,
        ctx: &HeContext,
    ) -> Result<Self, primer_he::HeError> {
        use crate::wire::{read_cts, read_packed};
        use primer_math::codec::read_matz;
        let triple = match r.u8("fhgs triple tag")? {
            0 => Triple::Diag {
                enc_rc_a: read_packed(r, ctx)?,
                enc_rc_bt: read_packed(r, ctx)?,
                enc_ab: read_packed(r, ctx)?,
            },
            1 => Triple::Zr {
                enc_a: read_cts(r, ctx)?,
                enc_bt: read_cts(r, ctx)?,
                enc_ab: read_cts(r, ctx)?,
                s1: read_matz(r)?,
                s2: read_matz(r)?,
            },
            _ => return Err(primer_he::HeError::Malformed { what: "fhgs triple tag" }),
        };
        let rs1 = read_matz(r)?;
        let rs2 = read_matz(r)?;
        let dims = FhgsDims {
            n: r.u32("fhgs dims")? as usize,
            k: r.u32("fhgs dims")? as usize,
            m: r.u32("fhgs dims")? as usize,
        };
        Ok(Self { triple, rs1, rs2, dims })
    }
}

/// Pipelined client half: encrypts the whole FHGS triple — `Enc(R_a)`,
/// `Enc(R_bᵀ)`, `Enc(R_a·R_b)` — as three request flights without
/// touching the transport, with explicit encryption randomness so many
/// instances can be prepared concurrently. FHGS expects no offline
/// reply; the returned [`FhgsClient`] is complete.
pub fn client_request(
    ring: &Ring,
    mode: FhgsMode,
    rc_a: MatZ,
    rc_b: MatZ,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
    rng: &mut StdRng,
) -> (FhgsClient, [FhgsFlight; 3]) {
    assert_eq!(rc_a.cols(), rc_b.rows(), "mask inner dimensions");
    let dims = FhgsDims { n: rc_a.rows(), k: rc_a.cols(), m: rc_b.cols() };
    let flights = match mode {
        FhgsMode::Diagonal(packing) => {
            let simd = encoder.row_size();
            let enc_a = encrypt_matrix_with(packing, &rc_a, encoder, encryptor, rng);
            let enc_bt = encrypt_matrix_with(packing, &rc_b.transpose(), encoder, encryptor, rng);
            // Enc(R_a·R_b) must align slot-for-slot with the matmul
            // output of Enc(R_a)·U_b, so it is encrypted in that
            // product's layout.
            let prod_layout = matmul_out_layout(packing, dims.n, dims.k, dims.m, simd);
            let ab = rc_a.matmul(ring, &rc_b);
            let enc_ab = encrypt_matrix_in_layout_with(prod_layout, &ab, encoder, encryptor, rng);
            [FhgsFlight::Packed(enc_a), FhgsFlight::Packed(enc_bt), FhgsFlight::Packed(enc_ab)]
        }
        FhgsMode::ZeroRotation => {
            let [la, lb] = zr_layouts(dims, encoder.slot_count());
            let enc_a = la.encrypt(&la.replicated_slots(&rc_a), encoder, encryptor, rng);
            let enc_bt =
                lb.encrypt(&lb.replicated_slots(&rc_b.transpose()), encoder, encryptor, rng);
            let ab = rc_a.matmul(ring, &rc_b);
            // Already-summed values sit at region origins of E1's grid.
            let enc_ab = la.encrypt(&la.grid_origin_slots(&ab), encoder, encryptor, rng);
            [FhgsFlight::Raw(enc_a), FhgsFlight::Raw(enc_bt), FhgsFlight::Raw(enc_ab)]
        }
    };
    (FhgsClient { rc_a, rc_b, dims, mode }, flights)
}

/// Layouts of the three **diagonal** request flights a [`client_request`]
/// produces, in wire order — what the server's batched receiver expects.
pub fn request_layouts(packing: Packing, dims: FhgsDims, simd: usize) -> [Layout; 3] {
    [
        Layout::plan(packing, dims.n, dims.k, simd),
        Layout::plan(packing, dims.m, dims.k, simd),
        matmul_out_layout(packing, dims.n, dims.k, dims.m, simd),
    ]
}

/// Ciphertext counts of the three **zero-rotation** request flights, in
/// wire order.
pub fn zr_request_counts(dims: FhgsDims, slots: usize) -> [usize; 3] {
    let [la, lb] = zr_layouts(dims, slots);
    [la.num_cts, lb.num_cts, la.num_cts]
}

/// Pipelined server half for a **diagonal** triple with pre-sampled
/// output masks. No HE compute happens offline on the server side of
/// FHGS — the matmuls run online against `U_a`, `U_b`.
pub fn server_accept(
    dims: FhgsDims,
    [enc_rc_a, enc_rc_bt, enc_ab]: [PackedMatrix; 3],
    rs1: MatZ,
    rs2: MatZ,
) -> FhgsServer {
    assert_eq!(rs1.shape(), (dims.n, dims.m), "R_s1 shape");
    assert_eq!(rs2.shape(), (dims.m, dims.n), "R_s2 shape");
    FhgsServer { triple: Triple::Diag { enc_rc_a, enc_rc_bt, enc_ab }, rs1, rs2, dims }
}

/// Pipelined server half for a **zero-rotation** triple with pre-sampled
/// full-slot masks `s1: (n·m)×k`, `s2: (m·n)×k`. The server's share
/// masks `rs1`/`rs2` are the row sums of `s1`/`s2` (what the client's
/// region sums subtract).
pub fn server_accept_zr(
    ring: &Ring,
    dims: FhgsDims,
    [enc_a, enc_bt, enc_ab]: [Vec<Ciphertext>; 3],
    s1: MatZ,
    s2: MatZ,
) -> FhgsServer {
    assert_eq!(s1.shape(), (dims.n * dims.m, dims.k), "S1 shape");
    assert_eq!(s2.shape(), (dims.m * dims.n, dims.k), "S2 shape");
    let row_sums = |s: &MatZ, rows: usize, cols: usize| {
        MatZ::from_fn(rows, cols, |i, j| {
            s.row(i * cols + j).iter().fold(0u64, |acc, &v| ring.add(acc, v))
        })
    };
    let rs1 = row_sums(&s1, dims.n, dims.m);
    let rs2 = row_sums(&s2, dims.m, dims.n);
    FhgsServer { triple: Triple::Zr { enc_a, enc_bt, enc_ab, s1, s2 }, rs1, rs2, dims }
}

/// Server offline: receives the triple, samples output masks.
///
/// # Errors
///
/// [`primer_he::HeError::Malformed`] on a corrupt request flight.
pub fn server_offline<R: Rng + ?Sized>(
    ring: &Ring,
    mode: FhgsMode,
    dims: FhgsDims,
    ctx: &HeContext,
    encoder: &BatchEncoder,
    transport: &dyn Transport,
    rng: &mut R,
) -> Result<FhgsServer, primer_he::HeError> {
    match mode {
        FhgsMode::Diagonal(packing) => {
            let simd = encoder.row_size();
            let [l_a, l_bt, l_ab] = request_layouts(packing, dims, simd);
            let flights = [
                recv_packed(transport, ctx, l_a)?,
                recv_packed(transport, ctx, l_bt)?,
                recv_packed(transport, ctx, l_ab)?,
            ];
            let rs1 = MatZ::random(ring, dims.n, dims.m, rng);
            let rs2 = MatZ::random(ring, dims.m, dims.n, rng);
            Ok(server_accept(dims, flights, rs1, rs2))
        }
        FhgsMode::ZeroRotation => {
            let counts = zr_request_counts(dims, encoder.slot_count());
            let mut flights = Vec::with_capacity(3);
            for expect in counts {
                let cts = recv_cts(transport, ctx)?;
                if cts.len() != expect {
                    return Err(primer_he::HeError::Malformed { what: "zero-rotation flight count" });
                }
                flights.push(cts);
            }
            let [enc_a, enc_bt, enc_ab]: [Vec<Ciphertext>; 3] =
                flights.try_into().expect("three flights");
            let s1 = MatZ::random(ring, dims.n * dims.m, dims.k, rng);
            let s2 = MatZ::random(ring, dims.m * dims.n, dims.k, rng);
            Ok(server_accept_zr(ring, dims, [enc_a, enc_bt, enc_ab], s1, s2))
        }
    }
}

/// Server online: two ct–pt matmuls plus plaintext work; returns the
/// server's share `R_s1 + R_s2ᵀ`. In zero-rotation mode the "matmuls"
/// are one slot-wise plaintext multiply per ciphertext and no Galois
/// key is ever touched.
///
/// # Panics
///
/// Panics on shape mismatch or missing Galois keys (engine setup bugs).
#[allow(clippy::too_many_arguments)]
pub fn server_online(
    server: &FhgsServer,
    ring: &Ring,
    ua: &MatZ,
    ub: &MatZ,
    encoder: &BatchEncoder,
    eval: &Evaluator,
    keys: &GaloisKeys,
    transport: &dyn Transport,
) -> MatZ {
    let dims = server.dims;
    assert_eq!(ua.shape(), (dims.n, dims.k), "U_a shape");
    assert_eq!(ub.shape(), (dims.k, dims.m), "U_b shape");
    match &server.triple {
        Triple::Diag { enc_rc_a, enc_rc_bt, enc_ab } => {
            // E1 = Enc(R_a)·U_b + Enc(R_a·R_b) + encode(U_a·U_b) − R_s1.
            let t3 = matmul_plain_weights(enc_rc_a, ub, eval, encoder, keys)
                .expect("galois keys provisioned");
            assert_eq!(t3.layout, enc_ab.layout, "triple layout mismatch");
            let mut e1_cts = Vec::with_capacity(t3.cts.len());
            for (a, b) in t3.cts.iter().zip(&enc_ab.cts) {
                e1_cts.push(eval.add(a, b));
            }
            let e1 = PackedMatrix { layout: t3.layout.clone(), cts: e1_cts };
            let uaub = ua.matmul(ring, ub);
            let e1 = add_plain_matrix(&e1, &uaub, eval, encoder);
            let e1 = sub_plain_matrix(&e1, &server.rs1, eval, encoder);
            send_packed(transport, &e1);
            // E2 = Enc(R_bᵀ)·U_aᵀ − R_s2  (= (U_a·R_b)ᵀ − R_s2).
            let y = matmul_plain_weights(enc_rc_bt, &ua.transpose(), eval, encoder, keys)
                .expect("galois keys provisioned");
            let e2 = sub_plain_matrix(&y, &server.rs2, eval, encoder);
            send_packed(transport, &e2);
        }
        Triple::Zr { enc_a, enc_bt, enc_ab, s1, s2 } => {
            let [la, lb] = zr_layouts(dims, encoder.slot_count());
            // E1 region (i,j) partials: R_a[i,l]·U_b[l,j] — mask rows are
            // indexed by the replica j, so the mask matrix is U_bᵀ.
            let masks = la.mask_slots(&ub.transpose());
            let uaub = la.grid_origin_slots(&ua.matmul(ring, ub));
            let blind = la.flat_slots(s1);
            let e1 = rayon::par_iter_chunks(la.num_cts, |c| {
                let prod = eval
                    .mul_plain(&enc_a[c], &eval.prepare_mul_plain(&encoder.encode(&masks[c])));
                let sum = eval.add(&prod, &enc_ab[c]);
                let sum = eval.add_plain(&sum, &encoder.encode(&uaub[c]));
                eval.sub_plain(&sum, &encoder.encode(&blind[c]))
            });
            send_cts(transport, &e1);
            // E2 region (j,i) partials: R_bᵀ[j,l]·U_a[i,l] — replica-
            // indexed by i, so the mask matrix is U_a itself.
            let masks = lb.mask_slots(ua);
            let blind = lb.flat_slots(s2);
            let e2 = rayon::par_iter_chunks(lb.num_cts, |c| {
                let prod = eval
                    .mul_plain(&enc_bt[c], &eval.prepare_mul_plain(&encoder.encode(&masks[c])));
                eval.sub_plain(&prod, &encoder.encode(&blind[c]))
            });
            send_cts(transport, &e2);
        }
    }
    server.rs1.add(ring, &server.rs2.transpose())
}

/// Client online: decrypts both flights and assembles its share
/// `dec(E1) + dec(E2)ᵀ` (plaintext transpose; in zero-rotation mode the
/// decryption is a region-summing grid read).
///
/// # Errors
///
/// [`primer_he::HeError::Malformed`] on a corrupt reply flight.
pub fn client_online(
    client: &FhgsClient,
    ring: &Ring,
    ctx: &HeContext,
    encoder: &BatchEncoder,
    encryptor: &Encryptor,
    transport: &dyn Transport,
) -> Result<MatZ, primer_he::HeError> {
    let dims = client.dims;
    match client.mode {
        FhgsMode::Diagonal(packing) => {
            let simd = encoder.row_size();
            let e1 = recv_packed(
                transport,
                ctx,
                matmul_out_layout(packing, dims.n, dims.k, dims.m, simd),
            )?;
            let e2 = recv_packed(
                transport,
                ctx,
                matmul_out_layout(packing, dims.m, dims.k, dims.n, simd),
            )?;
            let a1 = crate::packing::decrypt_matrix(&e1, encoder, encryptor);
            let y = crate::packing::decrypt_matrix(&e2, encoder, encryptor);
            Ok(a1.add(ring, &y.transpose()))
        }
        FhgsMode::ZeroRotation => {
            let [la, lb] = zr_layouts(dims, encoder.slot_count());
            let e1 = recv_cts(transport, ctx)?;
            let e2 = recv_cts(transport, ctx)?;
            if e1.len() != la.num_cts || e2.len() != lb.num_cts {
                return Err(primer_he::HeError::Malformed { what: "zero-rotation reply count" });
            }
            let a1 = la.decrypt_grid(&e1, ring, encoder, encryptor);
            let y = lb.decrypt_grid(&e2, ring, encoder, encryptor);
            Ok(a1.add(ring, &y.transpose()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_he::{HeParams, KeyGenerator};
    use primer_math::rng::seeded;
    use primer_net::run_two_party;
    use std::sync::Arc;

    /// End-to-end FHGS: shares reconstruct A·B exactly with additive-only
    /// HE (no ct–ct multiplications ever issued), in every triple mode.
    #[test]
    fn fhgs_shares_reconstruct_ct_ct_product() {
        for mode in [
            FhgsMode::Diagonal(Packing::TokensFirst),
            FhgsMode::Diagonal(Packing::FeatureBased),
            FhgsMode::ZeroRotation,
        ] {
            let ctx = HeContext::new(HeParams::toy());
            let ring = Ring::new(ctx.params().t());
            let mut rng = seeded(250);
            let kg = KeyGenerator::new(&ctx, &mut rng);
            let sk = kg.secret_key().clone();
            let simd = ctx.params().row_size();
            let keys = Arc::new(kg.galois_keys_pow2(
                &[1, 4, 8, simd - 1, simd - 4, simd - 8],
                false,
                &mut rng,
            ));
            let dims = FhgsDims { n: 4, k: 6, m: 5 };
            let a = MatZ::from_fn(dims.n, dims.k, |i, j| ((i * 13 + j * 3) % 50) as u64);
            let b = MatZ::from_fn(dims.k, dims.m, |i, j| ((i * 7 + j * 17) % 50) as u64);

            let (ctx_c, ctx_s) = (ctx.clone(), ctx.clone());
            let (a_c, b_c) = (a.clone(), b.clone());
            let keys_s = Arc::clone(&keys);

            let (client_share, server_share, _) = run_two_party(
                move |t| {
                    let encoder = BatchEncoder::new(&ctx_c);
                    let encryptor = Encryptor::new(&ctx_c, sk, 251);
                    let ring = Ring::new(ctx_c.params().t());
                    let mut rng = seeded(252);
                    let rc_a = MatZ::random(&ring, dims.n, dims.k, &mut rng);
                    let rc_b = MatZ::random(&ring, dims.k, dims.m, &mut rng);
                    let (pre, flights) =
                        client_request(&ring, mode, rc_a, rc_b, &encoder, &encryptor, &mut rng);
                    for flight in &flights {
                        flight.send(&t);
                    }
                    // Online: server must hold U_a, U_b.
                    let ua = a_c.sub(&ring, &pre.rc_a);
                    let ub = b_c.sub(&ring, &pre.rc_b);
                    crate::wire::send_matrix(&t, &ua);
                    crate::wire::send_matrix(&t, &ub);
                    client_online(&pre, &ring, &ctx_c, &encoder, &encryptor, &t)
                        .expect("in-process flight")
                },
                move |t| {
                    let encoder = BatchEncoder::new(&ctx_s);
                    let eval = Evaluator::new(&ctx_s);
                    let ring = Ring::new(ctx_s.params().t());
                    let pre = server_offline(
                        &ring, mode, dims, &ctx_s, &encoder, &t, &mut seeded(253),
                    )
                    .expect("in-process flight");
                    let ua = crate::wire::recv_matrix(&t).expect("in-process flight");
                    let ub = crate::wire::recv_matrix(&t).expect("in-process flight");
                    let share =
                        server_online(&pre, &ring, &ua, &ub, &encoder, &eval, &keys_s, &t);
                    // FHGS never multiplies two ciphertexts.
                    assert_eq!(eval.counts().mul_ct, 0);
                    if mode == FhgsMode::ZeroRotation {
                        // …and the zero-rotation triple never rotates.
                        assert_eq!(eval.counts().rotations, 0, "ZR triple rotated");
                    }
                    share
                },
            );
            let got = client_share.add(&ring, &server_share);
            assert_eq!(got, a.matmul(&ring, &b), "{mode:?}");
        }
    }

    /// The server's share equals the row sums of the full-slot masks —
    /// i.e. the client's region sums are exactly cancelled.
    #[test]
    fn zr_share_masks_are_flat_row_sums() {
        let ring = Ring::new(97);
        let dims = FhgsDims { n: 2, k: 3, m: 2 };
        let s1 = MatZ::from_fn(dims.n * dims.m, dims.k, |i, j| ((i * 5 + j) % 97) as u64);
        let s2 = MatZ::from_fn(dims.m * dims.n, dims.k, |i, j| ((i * 7 + j * 2) % 97) as u64);
        let server =
            server_accept_zr(&ring, dims, [Vec::new(), Vec::new(), Vec::new()], s1.clone(), s2);
        assert_eq!(
            server.rs1[(1, 1)],
            s1.row(dims.m + 1).iter().fold(0u64, |acc, &v| ring.add(acc, v))
        );
    }
}
