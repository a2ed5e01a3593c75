//! Chou–Orlandi "simplest OT" over a MODP group.
//!
//! Used only to bootstrap the IKNP extension: 128 base OTs per session,
//! batched into three flights (the sender's `A`, every `B`, every masked
//! pair), however many OTs the session then extends.

use crate::aes::Aes128;
use crate::ot::bignum::{BigUint, MontCtx};
use primer_net::Transport;
use rand::Rng;

/// A multiplicative group `Z_p^*` with generator `g` for the base OTs.
#[derive(Debug, Clone)]
pub struct OtGroup {
    ctx: MontCtx,
    g: BigUint,
    limbs: usize,
}

impl OtGroup {
    /// The RFC 3526 2048-bit MODP group (generator 2) — the
    /// production-parameter group.
    pub fn rfc3526_2048() -> Self {
        let hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
                   020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
                   4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
                   EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
                   98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
                   9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
                   E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
                   3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";
        let limbs = 32;
        Self {
            ctx: MontCtx::new(BigUint::from_hex(hex, limbs)),
            g: BigUint::from_u64(2, limbs),
            limbs,
        }
    }

    /// The RFC 2409 Oakley Group 1 768-bit MODP group — fast enough for
    /// unit tests (below today's security margin; test profile only).
    pub fn test_768() -> Self {
        let hex = "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
                   020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
                   4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF";
        let limbs = 12;
        Self {
            ctx: MontCtx::new(BigUint::from_hex(hex, limbs)),
            g: BigUint::from_u64(2, limbs),
            limbs,
        }
    }

    /// Bytes of one group element on the wire.
    pub fn element_bytes(&self) -> usize {
        self.limbs * 8
    }

    fn random_exponent<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<u8> {
        // Exponents one limb short of p keep values < p without bias
        // concerns that matter here.
        (0..(self.limbs - 1) * 8).map(|_| rng.gen()).collect()
    }

    fn pow_g(&self, exp: &[u8]) -> BigUint {
        self.ctx.pow_mod(&self.g, exp)
    }
}

/// Hashes a group element (plus an index tweak) to a 128-bit key with a
/// Matyas–Meyer–Oseas chain over fixed-key AES.
fn hash_to_key(aes: &Aes128, elem: &BigUint, tweak: u64) -> u128 {
    let mut h: u128 = tweak as u128;
    for chunk in elem.to_bytes_le().chunks(16) {
        let mut block = [0u8; 16];
        block[..chunk.len()].copy_from_slice(chunk);
        let m = u128::from_le_bytes(block);
        h = aes.encrypt_block(h ^ m) ^ h ^ m;
    }
    h
}

/// Bytes `count` base OTs put on the wire, both directions together: the
/// sender's `A`, then per OT the receiver's `B` and the two masked
/// messages.
pub fn base_ot_bytes(group: &OtGroup, count: usize) -> usize {
    group.element_bytes() * (1 + count) + 32 * count
}

/// Both keys of every OT on the sender's side: `k0 = H(B^a)` and
/// `k1 = H((B/A)^a)`, the latter as `B^a · (A^a)^{-1}` — one
/// exponentiation per OT, plus `A^a` and its inverse once per batch.
fn sender_keys(group: &OtGroup, a: &[u8], big_a: &BigUint, bs: &[BigUint]) -> Vec<(u128, u128)> {
    let aes = Aes128::fixed();
    let a_to_a_inv = group.ctx.inv_mod(&group.ctx.pow_mod(big_a, a));
    bs.iter()
        .enumerate()
        .map(|(i, big_b)| {
            let b_to_a = group.ctx.pow_mod(big_b, a);
            let k0 = hash_to_key(&aes, &b_to_a, i as u64);
            let k1 = hash_to_key(&aes, &group.ctx.mul_mod(&b_to_a, &a_to_a_inv), i as u64);
            (k0, k1)
        })
        .collect()
}

/// Sender side of `pairs.len()` base OTs; `pairs[i]` are the two 128-bit
/// messages of OT `i`. Three flights for the whole batch: `A` out, every
/// `B` in, every masked pair out.
///
/// # Panics
///
/// Panics if the receiver's flight is not one group element per OT.
pub fn base_ot_send<R: Rng + ?Sized>(
    group: &OtGroup,
    transport: &dyn Transport,
    pairs: &[(u128, u128)],
    rng: &mut R,
) {
    let a = group.random_exponent(rng);
    let big_a = group.pow_g(&a);
    transport.send_owned(big_a.to_bytes_le());
    let b_bytes = transport.recv();
    assert_eq!(b_bytes.len(), pairs.len() * group.element_bytes(), "base-OT B flight length");
    let bs: Vec<BigUint> = b_bytes
        .chunks_exact(group.element_bytes())
        .map(|b| BigUint::from_bytes_le(b, group.limbs))
        .collect();
    let mut payload = Vec::with_capacity(32 * pairs.len());
    for (&(m0, m1), (k0, k1)) in pairs.iter().zip(sender_keys(group, &a, &big_a, &bs)) {
        payload.extend_from_slice(&(m0 ^ k0).to_le_bytes());
        payload.extend_from_slice(&(m1 ^ k1).to_le_bytes());
    }
    transport.send_owned(payload);
}

/// Receiver side; returns message `choices[i] ? m1 : m0` for each OT.
/// Every `g^b` is computed before `A` arrives and every key before the
/// sender's reply, so each party's exponentiations overlap the other's.
///
/// # Panics
///
/// Panics if the sender's reply flight is not two messages per OT.
pub fn base_ot_receive<R: Rng + ?Sized>(
    group: &OtGroup,
    transport: &dyn Transport,
    choices: &[bool],
    rng: &mut R,
) -> Vec<u128> {
    let aes = Aes128::fixed();
    let exps: Vec<Vec<u8>> = choices.iter().map(|_| group.random_exponent(rng)).collect();
    let g_bs: Vec<BigUint> = exps.iter().map(|b| group.pow_g(b)).collect();
    let big_a = BigUint::from_bytes_le(&transport.recv(), group.limbs);
    let mut bs = Vec::with_capacity(choices.len() * group.element_bytes());
    for (g_b, &c) in g_bs.into_iter().zip(choices) {
        let big_b = if c { group.ctx.mul_mod(&g_b, &big_a) } else { g_b };
        bs.extend_from_slice(&big_b.to_bytes_le());
    }
    transport.send_owned(bs);
    let keys: Vec<u128> = exps
        .iter()
        .enumerate()
        .map(|(i, b)| hash_to_key(&aes, &group.ctx.pow_mod(&big_a, b), i as u64))
        .collect();
    let payload = transport.recv();
    assert_eq!(payload.len(), 32 * choices.len(), "base-OT reply flight length");
    keys.into_iter()
        .zip(choices)
        .zip(payload.chunks_exact(32))
        .map(|((key, &c), masked)| {
            let m = &masked[if c { 16 } else { 0 }..][..16];
            u128::from_le_bytes(m.try_into().expect("16 bytes")) ^ key
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_math::rng::seeded;
    use primer_net::run_two_party;

    #[test]
    fn base_ot_transfers_chosen_messages() {
        let pairs: Vec<(u128, u128)> = (0..8).map(|i| (100 + i as u128, 200 + i as u128)).collect();
        let choices: Vec<bool> = (0..8).map(|i| i % 3 == 0).collect();
        let pairs_c = pairs.clone();
        let choices_c = choices.clone();
        let (got, _, _) = run_two_party(
            move |t| {
                base_ot_receive(&OtGroup::test_768(), &t, &choices_c, &mut seeded(110))
            },
            move |t| base_ot_send(&OtGroup::test_768(), &t, &pairs_c, &mut seeded(111)),
        );
        for i in 0..8 {
            let want = if choices[i] { pairs[i].1 } else { pairs[i].0 };
            assert_eq!(got[i], want, "ot {i}");
        }
    }

    /// The whole batch is three flights, and its bytes are what
    /// `base_ot_bytes` says.
    #[test]
    fn base_ots_batch_into_three_flights() {
        let group = OtGroup::test_768();
        let (_, _, meter) = run_two_party(
            move |t| base_ot_receive(&OtGroup::test_768(), &t, &[true; 128], &mut seeded(112)),
            move |t| {
                base_ot_send(&OtGroup::test_768(), &t, &[(1, 2); 128], &mut seeded(113));
            },
        );
        assert_eq!(meter.total_messages(), 3);
        assert_eq!(meter.total_bytes() as usize, base_ot_bytes(&group, 128));
    }

    /// `B^a · (A^a)^{-1}` is `(B/A)^a`: the sender's keys match the
    /// two-exponentiation formula bit for bit, in both groups.
    #[test]
    fn sender_keys_match_the_two_pow_formula() {
        let mut rng = seeded(114);
        for group in [OtGroup::test_768(), OtGroup::rfc3526_2048()] {
            let aes = Aes128::fixed();
            let a = group.random_exponent(&mut rng);
            let big_a = group.pow_g(&a);
            let a_inv = group.ctx.inv_mod(&big_a);
            let bs: Vec<BigUint> = (0..4)
                .map(|i| {
                    let g_b = group.pow_g(&group.random_exponent(&mut rng));
                    if i % 2 == 1 {
                        group.ctx.mul_mod(&g_b, &big_a)
                    } else {
                        g_b
                    }
                })
                .collect();
            let want: Vec<(u128, u128)> = bs
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    let b_over_a = group.ctx.mul_mod(b, &a_inv);
                    (
                        hash_to_key(&aes, &group.ctx.pow_mod(b, &a), i as u64),
                        hash_to_key(&aes, &group.ctx.pow_mod(&b_over_a, &a), i as u64),
                    )
                })
                .collect();
            assert_eq!(sender_keys(&group, &a, &big_a, &bs), want, "{} limbs", group.limbs);
        }
    }

    #[test]
    fn group_inverse_sanity() {
        let g = OtGroup::test_768();
        let x = g.pow_g(&42u64.to_le_bytes());
        let xi = g.ctx.inv_mod(&x);
        let one = BigUint::from_u64(1, 12);
        assert_eq!(g.ctx.mul_mod(&x, &xi), one);
    }
}
