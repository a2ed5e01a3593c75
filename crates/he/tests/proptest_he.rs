//! Property-based tests of the HE scheme's homomorphisms.

use primer_he::{BatchEncoder, Encryptor, Evaluator, HeContext, HeParams, KeyGenerator};
use primer_math::codec::decode;
use primer_math::rng::seeded;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

struct Fixture {
    ctx: HeContext,
    encoder: BatchEncoder,
    encryptor: Encryptor,
    eval: Evaluator,
    keys: primer_he::GaloisKeys,
}

thread_local! {
    static FX: Fixture = {
        let ctx = HeContext::new(HeParams::toy());
        let encoder = BatchEncoder::new(&ctx);
        let mut rng = seeded(900);
        let kg = KeyGenerator::new(&ctx, &mut rng);
        let encryptor = Encryptor::new(&ctx, kg.secret_key().clone(), 901);
        let eval = Evaluator::new(&ctx);
        let keys = kg.galois_keys_pow2(&[], false, &mut rng);
        Fixture { ctx, encoder, encryptor, eval, keys }
    };
}

fn with_fixture(
    body: impl FnOnce(&Fixture) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    FX.with(|fx| body(fx))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Enc/Dec is the identity on arbitrary slot vectors.
    #[test]
    fn encrypt_decrypt_roundtrip(seed in 0u64..10_000) {
        with_fixture(|f| {
            let t = f.ctx.params().t();
            let mut rng = seeded(seed);
            let vals: Vec<u64> =
                (0..64).map(|_| rand::Rng::gen_range(&mut rng, 0..t)).collect();
            let ct = f.encryptor.encrypt(&f.encoder.encode(&vals));
            let got = f.encoder.decode(&f.encryptor.decrypt(&ct));
            prop_assert_eq!(&got[..64], &vals[..]);
            Ok(())
        })?;
    }

    /// Dec(Enc(a) + Enc(b)) == a + b mod t, slot-wise.
    #[test]
    fn addition_homomorphism(seed in 0u64..10_000) {
        with_fixture(|f| {
            let t = f.ctx.params().t();
            let mut rng = seeded(seed ^ 0xA);
            let a: Vec<u64> = (0..32).map(|_| rand::Rng::gen_range(&mut rng, 0..t)).collect();
            let b: Vec<u64> = (0..32).map(|_| rand::Rng::gen_range(&mut rng, 0..t)).collect();
            let ca = f.encryptor.encrypt(&f.encoder.encode(&a));
            let cb = f.encryptor.encrypt(&f.encoder.encode(&b));
            let got = f.encoder.decode(&f.encryptor.decrypt(&f.eval.add(&ca, &cb)));
            for i in 0..32 {
                prop_assert_eq!(got[i], (a[i] + b[i]) % t);
            }
            Ok(())
        })?;
    }

    /// Dec(Enc(a) ⊙ pt) == a·w mod t for bounded weights.
    #[test]
    fn plain_mult_homomorphism(seed in 0u64..10_000) {
        with_fixture(|f| {
            let t = f.ctx.params().t();
            let mut rng = seeded(seed ^ 0xB);
            let a: Vec<u64> =
                (0..32).map(|_| rand::Rng::gen_range(&mut rng, 0..1000)).collect();
            let w: Vec<u64> =
                (0..32).map(|_| rand::Rng::gen_range(&mut rng, 0..1000)).collect();
            let ca = f.encryptor.encrypt(&f.encoder.encode(&a));
            let mp = f.eval.prepare_mul_plain(&f.encoder.encode(&w));
            let got = f.encoder.decode(&f.encryptor.decrypt(&f.eval.mul_plain(&ca, &mp)));
            for i in 0..32 {
                prop_assert_eq!(got[i], a[i] * w[i] % t);
            }
            Ok(())
        })?;
    }

    /// Rotation by any step permutes slots cyclically per row.
    #[test]
    fn rotation_permutes(step in 1usize..511) {
        with_fixture(|f| {
            let rs = f.encoder.row_size();
            let vals: Vec<u64> = (0..2 * rs as u64).map(|v| v % 997).collect();
            let ct = f.encryptor.encrypt(&f.encoder.encode(&vals));
            let rot = f.eval.rotate_rows(&ct, step, &f.keys).expect("pow2 coverage");
            let got = f.encoder.decode(&f.encryptor.decrypt(&rot));
            for i in 0..rs {
                prop_assert_eq!(got[i], vals[(i + step) % rs]);
                prop_assert_eq!(got[rs + i], vals[rs + (i + step) % rs]);
            }
            Ok(())
        })?;
    }

    /// Serialization roundtrips ciphertexts exactly (fresh + evaluated).
    #[test]
    fn ciphertext_serialization_roundtrip(seed in 0u64..10_000) {
        with_fixture(|f| {
            let mut rng = seeded(seed ^ 0xC);
            let t = f.ctx.params().t();
            let vals: Vec<u64> =
                (0..16).map(|_| rand::Rng::gen_range(&mut rng, 0..t)).collect();
            let fresh = f.encryptor.encrypt(&f.encoder.encode(&vals));
            let evaluated = f.eval.add(&fresh, &fresh);
            for ct in [fresh, evaluated] {
                let mut bytes = Vec::new();
                ct.write(&mut bytes);
                prop_assert_eq!(bytes.len(), ct.serialized_size());
                let back = decode(&bytes, |r| primer_he::Ciphertext::read(&f.ctx, r))
                    .expect("roundtrip");
                prop_assert_eq!(back, ct);
            }
            Ok(())
        })?;
    }

    /// Truncating serialized ciphertext bytes anywhere yields a decode
    /// error — never a panic (the serving boundary depends on this).
    #[test]
    fn truncated_ciphertext_bytes_error_cleanly(cut_seed in 0u64..10_000) {
        with_fixture(|f| {
            let ct = f.encryptor.encrypt(&f.encoder.encode(&[1, 2, 3]));
            let mut bytes = Vec::new();
            ct.write(&mut bytes);
            let mut rng = seeded(cut_seed);
            let cut = rand::Rng::gen_range(&mut rng, 0..bytes.len());
            prop_assert!(decode(&bytes[..cut], |r| primer_he::Ciphertext::read(&f.ctx, r)).is_err());
            Ok(())
        })?;
    }
}

/// NTT invariants per modulus profile (DESIGN.md §10): the evaluation
/// domain the whole pipeline now lives in is exactly the negacyclic
/// convolution algebra, for every RNS prime of every parameter profile.
mod ntt_invariants {
    use super::*;
    use primer_he::ntt::NttTables;

    fn profiles() -> [HeParams; 3] {
        [HeParams::toy(), HeParams::test_2k(), HeParams::test_2k_wide()]
    }

    fn tables_for(params: &HeParams) -> Vec<NttTables> {
        HeContext::new(params.clone()).ntt().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// forward ∘ inverse == id on random residue vectors, for every
        /// RNS prime of every profile.
        #[test]
        fn forward_inverse_roundtrip(seed in 0u64..10_000) {
            for params in profiles() {
                for tbl in tables_for(&params) {
                    let p = tbl.modulus().value();
                    let mut rng = seeded(seed ^ p);
                    let orig: Vec<u64> = (0..tbl.len())
                        .map(|_| rand::Rng::gen_range(&mut rng, 0..p))
                        .collect();
                    let mut a = orig.clone();
                    tbl.forward(&mut a);
                    tbl.inverse(&mut a);
                    prop_assert_eq!(a, orig, "profile n={} prime {}", params.n(), p);
                }
            }
        }

        /// NTT-domain pointwise multiplication equals the negacyclic
        /// coefficient convolution (`Z_p[x]/(x^n+1)`), checked against a
        /// schoolbook product on sparse polynomials so the check stays
        /// O(k·n) at full ring degree.
        #[test]
        fn pointwise_mul_is_negacyclic_convolution(seed in 0u64..10_000) {
            const TERMS: usize = 5;
            for params in profiles() {
                for tbl in tables_for(&params) {
                    let n = tbl.len();
                    let m = tbl.modulus();
                    let p = m.value();
                    let mut rng = seeded(seed ^ p ^ 0xD1);
                    let mut a = vec![0u64; n];
                    let mut b = vec![0u64; n];
                    for _ in 0..TERMS {
                        a[rand::Rng::gen_range(&mut rng, 0..n)] =
                            rand::Rng::gen_range(&mut rng, 0..p);
                        b[rand::Rng::gen_range(&mut rng, 0..n)] =
                            rand::Rng::gen_range(&mut rng, 0..p);
                    }
                    // Schoolbook negacyclic product over the sparse terms.
                    let mut want = vec![0u64; n];
                    for (i, &ai) in a.iter().enumerate().filter(|(_, &v)| v != 0) {
                        for (j, &bj) in b.iter().enumerate().filter(|(_, &v)| v != 0) {
                            let prod = m.mul(ai, bj);
                            let k = i + j;
                            if k < n {
                                want[k] = m.add(want[k], prod);
                            } else {
                                want[k - n] = m.sub(want[k - n], prod);
                            }
                        }
                    }
                    let (mut fa, mut fb) = (a.clone(), b.clone());
                    tbl.forward(&mut fa);
                    tbl.forward(&mut fb);
                    let mut fc: Vec<u64> =
                        fa.iter().zip(&fb).map(|(&x, &y)| m.mul(x, y)).collect();
                    tbl.inverse(&mut fc);
                    prop_assert_eq!(fc, want, "profile n={} prime {}", params.n(), p);
                }
            }
        }

        /// The NTT-domain Galois permutation equals the coefficient-form
        /// automorphism conjugated by the transform, for every profile
        /// and both row-rotation and column-swap elements — the exact
        /// invariant hoisted rotations rely on.
        #[test]
        fn galois_perm_conjugates_automorphism(step in 1usize..100) {
            use primer_he::poly::RnsPoly;
            for params in profiles() {
                let ctx = HeContext::new(params);
                let n = ctx.n();
                let s = step % (n / 2);
                prop_assume!(s != 0);
                let elements =
                    [primer_he::galois::element_for_row_step(n, s), 2 * n as u64 - 1];
                let mut rng = seeded(step as u64 ^ 0xE3);
                let poly = RnsPoly::uniform(&ctx, &mut rng);
                for g in elements {
                    let mut via_coeff = poly.apply_automorphism(&ctx, g);
                    via_coeff.to_ntt(&ctx);
                    let mut p_ntt = poly.clone();
                    p_ntt.to_ntt(&ctx);
                    let via_perm = p_ntt.permute_ntt(&ctx, &ctx.galois_perm(g));
                    prop_assert_eq!(&via_perm, &via_coeff, "n={} element {}", n, g);
                }
            }
        }
    }
}
