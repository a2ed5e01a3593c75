//! IKNP oblivious-transfer extension with precomputed random OTs.
//!
//! The garbler needs one OT per evaluator input wire per circuit; IKNP
//! turns 128 public-key base OTs into arbitrarily many symmetric-crypto
//! OTs. We expose them as *random* OTs generated offline plus the classic
//! one-message-each derandomization online — matching the paper's split
//! where garbling and OT precomputation are offline and the online phase
//! only ships corrections.

use crate::aes::Aes128;
use crate::label::Label;
use crate::ot::base::{base_ot_bytes, base_ot_receive, base_ot_send, OtGroup};
use primer_net::Transport;
use rand::Rng;

const KAPPA: usize = 128;

/// PRG: fills `out` with the AES-128 counter-mode keystream under `seed`
/// as the key (128 pseudorandom bits per block, LSB first).
fn prg_fill(seed: u128, out: &mut [u128]) {
    for (i, block) in out.iter_mut().enumerate() {
        *block = i as u128;
    }
    Aes128::new(seed.to_le_bytes()).encrypt_slice(out);
}

/// Transposes a 128×128 bit matrix in place: bit `c` of `m[r]` trades
/// places with bit `r` of `m[c]`. Seven rounds of masked block swaps
/// (64×64 blocks first, single bits last).
fn transpose_128(m: &mut [u128; KAPPA]) {
    let mut j = KAPPA / 2;
    let mut mask = u128::MAX >> j;
    while j != 0 {
        let mut k = 0;
        while k < KAPPA {
            let t = ((m[k] >> j) ^ m[k + j]) & mask;
            m[k + j] ^= t;
            m[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}

/// Turns the 128 extension columns (`cols` holds them back to back, each
/// `blocks` words long, row `j` at bit `j % 128` of word `j / 128`) into
/// the first `count` rows, column `i` at bit `i`.
fn transpose_columns(cols: &[u128], count: usize) -> Vec<u128> {
    let blocks = cols.len() / KAPPA;
    let mut rows = Vec::with_capacity(blocks * KAPPA);
    let mut m = [0u128; KAPPA];
    for b in 0..blocks {
        for (i, word) in m.iter_mut().enumerate() {
            *word = cols[i * blocks + b];
        }
        transpose_128(&mut m);
        rows.extend_from_slice(&m);
    }
    rows.truncate(count);
    rows
}

/// Correlation-robust hash input for row `j`: `H(j, q) = π(x) ⊕ x` at
/// `x = q ⊕ (j ≪ 64)`.
fn row_input(j: usize, q: u128) -> u128 {
    q ^ ((j as u128) << 64)
}

/// `π(x) ⊕ x` over every input: one fixed-key schedule, the batched
/// cipher.
fn row_hashes(xs: Vec<u128>) -> Vec<u128> {
    let mut hs = xs.clone();
    Aes128::fixed().encrypt_slice(&mut hs);
    for (h, x) in hs.iter_mut().zip(xs) {
        *h ^= x;
    }
    hs
}

/// The receiver's precomputed random OTs: for each index, a random
/// choice bit and the corresponding random message.
#[derive(Debug, Clone)]
pub struct RotReceiver {
    choices: Vec<bool>,
    received: Vec<Label>,
    used: usize,
}

/// The sender's precomputed random OTs: both random messages per index.
#[derive(Debug, Clone)]
pub struct RotSender {
    pairs: Vec<(Label, Label)>,
    used: usize,
}

/// Bytes the offline set-up of `count` random OTs ships, both directions
/// together: the 128 base OTs, then the 128 correction columns.
pub fn rot_offline_bytes(group: &OtGroup, count: usize) -> usize {
    base_ot_bytes(group, KAPPA) + KAPPA * count.div_ceil(128) * 16
}

/// Bytes derandomizing `count` OTs ships: the flip bits one way, two
/// masked labels per OT the other.
pub fn rot_online_bytes(count: usize) -> usize {
    count.div_ceil(8) + 32 * count
}

/// Offline: runs base OTs + IKNP to set up `count` random OTs.
/// `rot_sender_offline` runs on the party that will later *send* real
/// messages (the garbler).
pub fn rot_sender_offline<R: Rng + ?Sized>(
    group: &OtGroup,
    transport: &dyn Transport,
    count: usize,
    rng: &mut R,
) -> RotSender {
    // IKNP: extension sender acts as base-OT *receiver* with random s.
    let s_bits: Vec<bool> = (0..KAPPA).map(|_| rng.gen()).collect();
    let seeds = base_ot_receive(group, transport, &s_bits, rng);
    let mut s_word: u128 = 0;
    for (i, &b) in s_bits.iter().enumerate() {
        if b {
            s_word |= 1 << i;
        }
    }
    // Receive correction columns u_i; q_i = G(k_{s_i}) ⊕ s_i·u_i.
    let blocks = count.div_ceil(128);
    let mut q_cols = vec![0u128; KAPPA * blocks];
    for (i, &seed) in seeds.iter().enumerate() {
        let u_bytes = transport.recv();
        assert_eq!(u_bytes.len(), blocks * 16, "column length mismatch");
        let q = &mut q_cols[i * blocks..(i + 1) * blocks];
        prg_fill(seed, q);
        if s_bits[i] {
            for (q, u) in q.iter_mut().zip(u_bytes.chunks_exact(16)) {
                *q ^= u128::from_le_bytes(u.try_into().expect("16-byte block"));
            }
        }
    }
    // Rows: q_j; keys (H(j, q_j), H(j, q_j ⊕ s)).
    let inputs = transpose_columns(&q_cols, count)
        .into_iter()
        .enumerate()
        .flat_map(|(j, q)| [row_input(j, q), row_input(j, q ^ s_word)])
        .collect();
    let pairs = row_hashes(inputs).chunks_exact(2).map(|h| (h[0], h[1])).collect();
    RotSender { pairs, used: 0 }
}

/// Offline counterpart on the receiving party (the evaluator).
pub fn rot_receiver_offline<R: Rng + ?Sized>(
    group: &OtGroup,
    transport: &dyn Transport,
    count: usize,
    rng: &mut R,
) -> RotReceiver {
    let choices: Vec<bool> = (0..count).map(|_| rng.gen()).collect();
    let blocks = count.div_ceil(128);
    let mut r_word = vec![0u128; blocks];
    for (j, &c) in choices.iter().enumerate() {
        if c {
            r_word[j / 128] |= 1 << (j % 128);
        }
    }
    // Base OTs: we are the *sender*, offering seed pairs.
    let seed_pairs: Vec<(u128, u128)> = (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
    base_ot_send(group, transport, &seed_pairs, rng);
    // Send corrections u_i = G(k0) ⊕ G(k1) ⊕ r.
    let mut t_cols = vec![0u128; KAPPA * blocks];
    let mut g1 = vec![0u128; blocks];
    for (i, &(k0, k1)) in seed_pairs.iter().enumerate() {
        let t = &mut t_cols[i * blocks..(i + 1) * blocks];
        prg_fill(k0, t);
        prg_fill(k1, &mut g1);
        let bytes: Vec<u8> = t
            .iter()
            .zip(&g1)
            .zip(&r_word)
            .flat_map(|((t, g), r)| (t ^ g ^ r).to_le_bytes())
            .collect();
        transport.send_owned(bytes);
    }
    let inputs = transpose_columns(&t_cols, count)
        .into_iter()
        .enumerate()
        .map(|(j, t)| row_input(j, t))
        .collect();
    let received = row_hashes(inputs);
    RotReceiver { choices, received, used: 0 }
}

impl RotSender {
    /// Remaining precomputed OTs.
    pub fn remaining(&self) -> usize {
        self.pairs.len() - self.used
    }

    /// Online derandomization: transfers `messages[i] = (m0, m1)` so the
    /// receiver learns its chosen message. One receive + one send.
    ///
    /// # Panics
    ///
    /// Panics if fewer precomputed OTs remain than messages.
    pub fn send_chosen(&mut self, transport: &dyn Transport, messages: &[(Label, Label)]) {
        assert!(self.remaining() >= messages.len(), "ROTs exhausted");
        let flips = transport.recv();
        assert_eq!(flips.len(), messages.len().div_ceil(8), "flip length");
        let mut payload = Vec::with_capacity(messages.len() * 32);
        for (k, &(m0, m1)) in messages.iter().enumerate() {
            let (r0, r1) = self.pairs[self.used + k];
            let e = (flips[k / 8] >> (k % 8)) & 1 == 1;
            // Receiver knows r_d; e = c ⊕ d.
            let (f0, f1) = if e { (m0 ^ r1, m1 ^ r0) } else { (m0 ^ r0, m1 ^ r1) };
            payload.extend_from_slice(&f0.to_le_bytes());
            payload.extend_from_slice(&f1.to_le_bytes());
        }
        self.used += messages.len();
        transport.send_owned(payload);
    }
}

impl RotReceiver {
    /// Remaining precomputed OTs.
    pub fn remaining(&self) -> usize {
        self.choices.len() - self.used
    }

    /// Online derandomization: learns `m_{choices[i]}` for each index.
    ///
    /// # Panics
    ///
    /// Panics if fewer precomputed OTs remain than choices.
    pub fn receive_chosen(&mut self, transport: &dyn Transport, choices: &[bool]) -> Vec<Label> {
        assert!(self.remaining() >= choices.len(), "ROTs exhausted");
        let mut flips = vec![0u8; choices.len().div_ceil(8)];
        for (k, &c) in choices.iter().enumerate() {
            let d = self.choices[self.used + k];
            if c ^ d {
                flips[k / 8] |= 1 << (k % 8);
            }
        }
        transport.send_owned(flips);
        let payload = transport.recv();
        let out = choices
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let base = k * 32;
                let f0 = u128::from_le_bytes(payload[base..base + 16].try_into().expect("f0"));
                let f1 =
                    u128::from_le_bytes(payload[base + 16..base + 32].try_into().expect("f1"));
                let rd = self.received[self.used + k];
                if c {
                    f1 ^ rd
                } else {
                    f0 ^ rd
                }
            })
            .collect();
        self.used += choices.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use primer_math::rng::seeded;
    use primer_net::run_two_party;

    /// The block transpose against a bit-by-bit gather, on random
    /// matrices whose row count is not a multiple of 128.
    #[test]
    fn block_transpose_matches_naive_gather() {
        use rand::Rng;
        let mut rng = seeded(124);
        for count in [1usize, 127, 129, 300, 1000] {
            let blocks = count.div_ceil(128);
            let cols: Vec<u128> = (0..KAPPA * blocks).map(|_| rng.gen()).collect();
            let get_bit = |i: usize, j: usize| (cols[i * blocks + j / 128] >> (j % 128)) & 1;
            let want: Vec<u128> =
                (0..count).map(|j| (0..KAPPA).fold(0, |row, i| row | get_bit(i, j) << i)).collect();
            assert_eq!(transpose_columns(&cols, count), want, "{count} rows");
        }
        assert!(transpose_columns(&[], 0).is_empty());
    }

    /// The PRG is AES-CTR keyed by the seed: block `i` is `AES_seed(i)`,
    /// and a longer expansion extends a shorter one.
    #[test]
    fn prg_is_counter_mode_under_the_seed() {
        let seed = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        let mut long = [0u128; 11];
        prg_fill(seed, &mut long);
        let aes = Aes128::new_software(seed.to_le_bytes());
        for (i, &block) in long.iter().enumerate() {
            assert_eq!(block, aes.encrypt_block(i as u128), "block {i}");
        }
        let mut short = [0u128; 3];
        prg_fill(seed, &mut short);
        assert_eq!(short[..], long[..3]);
    }

    #[test]
    fn extension_transfers_many_chosen_messages() {
        let count = 300usize;
        let messages: Vec<(Label, Label)> =
            (0..count).map(|i| ((2 * i) as u128, (2 * i + 1) as u128)).collect();
        let choices: Vec<bool> = (0..count).map(|i| (i * 7) % 3 == 1).collect();
        let msgs = messages.clone();
        let chs = choices.clone();
        let (got, _, meter) = run_two_party(
            move |t| {
                let mut rot =
                    rot_receiver_offline(&OtGroup::test_768(), &t, count, &mut seeded(120));
                rot.receive_chosen(&t, &chs)
            },
            move |t| {
                let mut rot =
                    rot_sender_offline(&OtGroup::test_768(), &t, count, &mut seeded(121));
                rot.send_chosen(&t, &msgs);
            },
        );
        for i in 0..count {
            let want = if choices[i] { messages[i].1 } else { messages[i].0 };
            assert_eq!(got[i], want, "ot {i}");
        }
        // Online phase is 2 messages; the rest is offline setup.
        assert!(meter.total_messages() > 2);
    }

    #[test]
    fn rots_can_be_consumed_in_batches() {
        let (got, _, _) = run_two_party(
            move |t| {
                let mut rot =
                    rot_receiver_offline(&OtGroup::test_768(), &t, 10, &mut seeded(122));
                let mut all = rot.receive_chosen(&t, &[true, false]);
                all.extend(rot.receive_chosen(&t, &[true]));
                all
            },
            move |t| {
                let mut rot = rot_sender_offline(&OtGroup::test_768(), &t, 10, &mut seeded(123));
                rot.send_chosen(&t, &[(1, 2), (3, 4)]);
                rot.send_chosen(&t, &[(5, 6)]);
            },
        );
        assert_eq!(got, vec![2, 3, 6]);
    }
}
