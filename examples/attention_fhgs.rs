//! The FHGS protocol in isolation: a private attention-score product
//! `X_Q · X_Kᵀ` where **both** matrices are secret-shared — the
//! ciphertext–ciphertext case that plain HGS cannot handle — computed
//! with additive-only HE (zero ciphertext–ciphertext multiplications).
//!
//! Run: `cargo run --release --example attention_fhgs`

use primer::core::fhgs::{self, FhgsDims, FhgsMode};
use primer::core::{wire, Packing};
use primer::he::{BatchEncoder, Encryptor, Evaluator, HeContext, HeParams, KeyGenerator};
use primer::math::rng::seeded;
use primer::math::{MatZ, Ring};
use primer::net::run_two_party;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = HeContext::new(HeParams::toy());
    let ring = Ring::new(ctx.params().t());
    let mut rng = seeded(31);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key().clone();
    let simd = ctx.params().row_size();
    let keys = Arc::new(kg.galois_keys_pow2(&[1, 4, 8, simd - 1, simd - 4, simd - 8], false, &mut rng));

    // Q (4×6) and Kᵀ (6×4): attention scores for 4 tokens.
    let dims = FhgsDims { n: 4, k: 6, m: 4 };
    let q = MatZ::from_fn(4, 6, |i, j| ((i * 13 + j * 5) % 60) as u64);
    let kt = MatZ::from_fn(6, 4, |i, j| ((i * 7 + j * 11) % 60) as u64);
    let expected = q.matmul(&ring, &kt);

    let (ctx_c, ctx_s) = (ctx.clone(), ctx.clone());
    let (q_c, kt_c) = (q.clone(), kt.clone());
    let keys_s = Arc::clone(&keys);

    let (client_share, (server_share, ct_ct_mults), meter) = run_two_party(
        move |t| {
            let encoder = BatchEncoder::new(&ctx_c);
            let encryptor = Encryptor::new(&ctx_c, sk, 32);
            let ring = Ring::new(ctx_c.params().t());
            // Offline: mask both operands and ship the Beaver-style
            // encrypted triple.
            let mut rng = seeded(33);
            let rc_a = MatZ::random(&ring, dims.n, dims.k, &mut rng);
            let rc_b = MatZ::random(&ring, dims.k, dims.m, &mut rng);
            let mode = FhgsMode::Diagonal(Packing::TokensFirst);
            let (pre, flights) =
                fhgs::client_request(&ring, mode, rc_a, rc_b, &encoder, &encryptor, &mut rng);
            for flight in &flights {
                flight.send(&t);
            }
            // Online: the server works on masked operands only.
            wire::send_matrix(&t, &q_c.sub(&ring, &pre.rc_a));
            wire::send_matrix(&t, &kt_c.sub(&ring, &pre.rc_b));
            fhgs::client_online(&pre, &ring, &ctx_c, &encoder, &encryptor, &t)
                .expect("in-process flight")
        },
        move |t| {
            let encoder = BatchEncoder::new(&ctx_s);
            let eval = Evaluator::new(&ctx_s);
            let ring = Ring::new(ctx_s.params().t());
            let pre = fhgs::server_offline(
                &ring,
                FhgsMode::Diagonal(Packing::TokensFirst),
                dims,
                &ctx_s,
                &encoder,
                &t,
                &mut seeded(34),
            )
            .expect("in-process flight");
            let ua = wire::recv_matrix(&t).expect("in-process flight");
            let ub = wire::recv_matrix(&t).expect("in-process flight");
            let share = fhgs::server_online(&pre, &ring, &ua, &ub, &encoder, &eval, &keys_s, &t);
            (share, eval.counts().mul_ct)
        },
    );

    let got = client_share.add(&ring, &server_share);
    println!("X_Q · X_Kᵀ via FHGS:");
    println!("  shares reconstruct the exact product: {}", got == expected);
    println!("  ciphertext–ciphertext multiplications used: {ct_ct_mults}");
    println!("  total traffic: {:.1} KB", meter.total_bytes() as f64 / 1e3);
    assert_eq!(got, expected);
    assert_eq!(ct_ct_mults, 0, "FHGS is additive-only, as the paper claims");
    Ok(())
}
