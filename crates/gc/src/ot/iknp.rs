//! IKNP oblivious-transfer extension with precomputed random OTs.
//!
//! The garbler needs one OT per evaluator input wire per circuit; IKNP
//! turns 128 public-key base OTs into arbitrarily many symmetric-crypto
//! OTs. The base OTs run once per session ([`IknpSender::setup`] /
//! [`IknpReceiver::setup`]); each circuit then takes one *extension
//! window* of a single session-long extension: its rows are the next
//! unused 128-row blocks of every seed's counter-mode PRG, each row is
//! hashed with its session-global index as the tweak, and its 128
//! correction columns travel in one flight. We expose the window as
//! *random* OTs generated offline plus the classic one-message-each
//! derandomization online — matching the paper's split where garbling
//! and OT precomputation are offline and the online phase only ships
//! corrections.

use crate::aes::Aes128;
use crate::label::Label;
use crate::ot::base::{base_ot_bytes, base_ot_receive, base_ot_send, OtGroup};
use crate::protocol::FlightError;
use primer_net::Transport;
use rand::Rng;

const KAPPA: usize = 128;

/// PRG: fills `out` with blocks `[start, start + out.len())` of the
/// AES-128 counter-mode keystream under `seed` as the key (128
/// pseudorandom bits per block, LSB first).
fn prg_fill(seed: u128, start: u64, out: &mut [u128]) {
    for (i, block) in out.iter_mut().enumerate() {
        *block = (start + i as u64) as u128;
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

/// Correlation-robust hash input for row `j` (its session-global index):
/// `H(j, q) = π(x) ⊕ x` at `x = q ⊕ (j ≪ 64)`.
fn row_input(j: u64, q: u128) -> u128 {
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

/// Bytes a session's IKNP set-up ships, both directions together: the
/// 128 base OTs.
pub fn iknp_setup_bytes(group: &OtGroup) -> usize {
    base_ot_bytes(group, KAPPA)
}

/// Bytes one extension window of `count` random OTs ships: its 128
/// correction columns, one flight.
pub fn rot_extension_bytes(count: usize) -> usize {
    KAPPA * count.div_ceil(128) * 16
}

/// Bytes derandomizing `count` OTs ships: the flip bits one way, two
/// masked labels per OT the other.
pub fn rot_online_bytes(count: usize) -> usize {
    count.div_ceil(8) + 32 * count
}

/// The IKNP sender's session state, held by the party that will later
/// *send* real messages (the garbler). It is the base-OT *receiver*: it
/// keeps its secret `s` and the 128 seeds `k_{s_i}` it chose, plus the
/// next unused 128-row block of the session-long extension.
#[derive(Debug)]
pub struct IknpSender {
    s: u128,
    seeds: Vec<u128>,
    next_block: u64,
}

/// The IKNP receiver's session state (the evaluator). It is the base-OT
/// *sender*: it keeps both seeds of every base OT, plus the next unused
/// 128-row block.
#[derive(Debug)]
pub struct IknpReceiver {
    seed_pairs: Vec<(u128, u128)>,
    next_block: u64,
}

/// Claims the next `count.div_ceil(128)` blocks of a session's
/// extension: returns the window's first block and advances the counter,
/// so no (seed, block) pair and no row tweak is ever used twice.
fn claim_window(next_block: &mut u64, count: usize) -> (u64, usize) {
    let blocks = count.div_ceil(128);
    let start = *next_block;
    *next_block += blocks as u64;
    (start, blocks)
}

impl IknpSender {
    /// Runs the session's 128 base OTs (three flights) as their
    /// receiver, with a random `s` as the choice bits.
    pub fn setup<R: Rng + ?Sized>(group: &OtGroup, transport: &dyn Transport, rng: &mut R) -> Self {
        let s: u128 = rng.gen();
        let s_bits: Vec<bool> = (0..KAPPA).map(|i| (s >> i) & 1 == 1).collect();
        let seeds = base_ot_receive(group, transport, &s_bits, rng);
        Self { s, seeds, next_block: 0 }
    }

    /// Sets up `count` random OTs as the next extension window: receives
    /// the window's correction columns `u_i` (one flight) and keys row
    /// `j` as `(H(j, q_j), H(j, q_j ⊕ s))`, with
    /// `q_i = G(k_{s_i}) ⊕ s_i·u_i` over the window's blocks.
    ///
    /// # Panics
    ///
    /// Panics if the column flight is not 128 columns of the window's
    /// length.
    pub fn extend(&mut self, transport: &dyn Transport, count: usize) -> RotSender {
        let (start, blocks) = claim_window(&mut self.next_block, count);
        let u_bytes = transport.recv();
        assert_eq!(u_bytes.len(), rot_extension_bytes(count), "column flight length");
        let mut q_cols = vec![0u128; KAPPA * blocks];
        for (i, &seed) in self.seeds.iter().enumerate() {
            let q = &mut q_cols[i * blocks..(i + 1) * blocks];
            prg_fill(seed, start, q);
            if (self.s >> i) & 1 == 1 {
                let u = &u_bytes[i * blocks * 16..(i + 1) * blocks * 16];
                for (q, u) in q.iter_mut().zip(u.chunks_exact(16)) {
                    *q ^= u128::from_le_bytes(u.try_into().expect("16-byte block"));
                }
            }
        }
        let first_row = start * 128;
        let inputs = transpose_columns(&q_cols, count)
            .into_iter()
            .zip(first_row..)
            .flat_map(|(q, j)| [row_input(j, q), row_input(j, q ^ self.s)])
            .collect();
        let pairs = row_hashes(inputs).chunks_exact(2).map(|h| (h[0], h[1])).collect();
        RotSender { pairs, used: 0 }
    }
}

impl IknpReceiver {
    /// Runs the session's 128 base OTs (three flights) as their sender,
    /// offering a random seed pair per OT.
    pub fn setup<R: Rng + ?Sized>(group: &OtGroup, transport: &dyn Transport, rng: &mut R) -> Self {
        let seed_pairs: Vec<(u128, u128)> = (0..KAPPA).map(|_| (rng.gen(), rng.gen())).collect();
        base_ot_send(group, transport, &seed_pairs, rng);
        Self { seed_pairs, next_block: 0 }
    }

    /// Sets up `count` random OTs with random choice bits as the next
    /// extension window.
    pub fn extend<R: Rng + ?Sized>(
        &mut self,
        transport: &dyn Transport,
        count: usize,
        rng: &mut R,
    ) -> RotReceiver {
        let choices = (0..count).map(|_| rng.gen()).collect();
        self.extend_chosen(transport, choices)
    }

    /// [`IknpReceiver::extend`] with the choice bits given: sends the
    /// window's corrections `u_i = G(k0_i) ⊕ G(k1_i) ⊕ r` (one flight)
    /// and keys row `j` as `H(j, t_j)`, with `t_i = G(k0_i)`.
    fn extend_chosen(&mut self, transport: &dyn Transport, choices: Vec<bool>) -> RotReceiver {
        let (start, blocks) = claim_window(&mut self.next_block, choices.len());
        let mut r_word = vec![0u128; blocks];
        for (j, &c) in choices.iter().enumerate() {
            if c {
                r_word[j / 128] |= 1 << (j % 128);
            }
        }
        let mut t_cols = vec![0u128; KAPPA * blocks];
        let mut g1 = vec![0u128; blocks];
        let mut u_bytes = Vec::with_capacity(rot_extension_bytes(choices.len()));
        for (i, &(k0, k1)) in self.seed_pairs.iter().enumerate() {
            let t = &mut t_cols[i * blocks..(i + 1) * blocks];
            prg_fill(k0, start, t);
            prg_fill(k1, start, &mut g1);
            for ((t, g), r) in t.iter().zip(&g1).zip(&r_word) {
                u_bytes.extend_from_slice(&(t ^ g ^ r).to_le_bytes());
            }
        }
        transport.send_owned(u_bytes);
        let first_row = start * 128;
        let inputs = transpose_columns(&t_cols, choices.len())
            .into_iter()
            .zip(first_row..)
            .map(|(t, j)| row_input(j, t))
            .collect();
        let received = row_hashes(inputs);
        RotReceiver { choices, received, used: 0 }
    }
}

/// A one-window session on the sending side: fresh base OTs, then one
/// extension of `count` random OTs.
pub fn rot_sender_offline<R: Rng + ?Sized>(
    group: &OtGroup,
    transport: &dyn Transport,
    count: usize,
    rng: &mut R,
) -> RotSender {
    IknpSender::setup(group, transport, rng).extend(transport, count)
}

/// A one-window session on the receiving side (the evaluator).
pub fn rot_receiver_offline<R: Rng + ?Sized>(
    group: &OtGroup,
    transport: &dyn Transport,
    count: usize,
    rng: &mut R,
) -> RotReceiver {
    IknpReceiver::setup(group, transport, rng).extend(transport, count, rng)
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
    /// # Errors
    ///
    /// [`FlightError`] if the sender's corrections are not 32 bytes per
    /// choice.
    ///
    /// # Panics
    ///
    /// Panics if fewer precomputed OTs remain than choices.
    pub fn receive_chosen(
        &mut self,
        transport: &dyn Transport,
        choices: &[bool],
    ) -> Result<Vec<Label>, FlightError> {
        assert!(self.remaining() >= choices.len(), "ROTs exhausted");
        let mut flips = vec![0u8; choices.len().div_ceil(8)];
        for (k, &c) in choices.iter().enumerate() {
            let d = self.choices[self.used + k];
            if c ^ d {
                flips[k / 8] |= 1 << (k % 8);
            }
        }
        transport.send_owned(flips);
        let payload = FlightError::check("OT correction", transport.recv(), 32 * choices.len())?;
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
        Ok(out)
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
    /// a longer expansion extends a shorter one, and a window starting
    /// at block `b` is the keystream from block `b` on.
    #[test]
    fn prg_is_counter_mode_under_the_seed() {
        let seed = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        let mut long = [0u128; 11];
        prg_fill(seed, 0, &mut long);
        let aes = Aes128::new_software(seed.to_le_bytes());
        for (i, &block) in long.iter().enumerate() {
            assert_eq!(block, aes.encrypt_block(i as u128), "block {i}");
        }
        let mut short = [0u128; 3];
        prg_fill(seed, 0, &mut short);
        assert_eq!(short[..], long[..3]);
        let mut window = [0u128; 4];
        prg_fill(seed, 5, &mut window);
        assert_eq!(window[..], long[5..9]);
    }

    /// Corrections one block short of the choices end the transfer with
    /// a typed error before any of them is read.
    #[test]
    fn short_corrections_are_a_flight_error() {
        let (got, _, _) = run_two_party(
            move |t| {
                let mut rot =
                    rot_receiver_offline(&OtGroup::test_768(), &t, 4, &mut seeded(126));
                rot.receive_chosen(&t, &[true, false, true])
            },
            move |t| {
                drop(rot_sender_offline(&OtGroup::test_768(), &t, 4, &mut seeded(127)));
                let _flips = t.recv();
                t.send(&[0u8; 32 * 3 - 16]);
            },
        );
        assert_eq!(got, Err(FlightError { what: "OT correction", expected: 96, got: 80 }));
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
                rot.receive_chosen(&t, &chs).expect("well-formed corrections")
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
        // Base OTs 3, the column flight 1, online 2.
        assert_eq!(meter.total_messages(), 6);
    }

    /// Extension-window counts for the session tests: empty, one row,
    /// just under, just over and several blocks.
    const WINDOWS: [usize; 5] = [0, 1, 127, 129, 300];

    /// One session's base OTs, then one extension per `counts` entry with
    /// the receiver's choice bits `choices(k, count)`. Returns both
    /// parties' windows with each one's first block, and the flights.
    #[allow(clippy::type_complexity)]
    fn session_windows(
        counts: Vec<usize>,
        choices: fn(usize, usize) -> Vec<bool>,
    ) -> (Vec<(u64, RotReceiver)>, Vec<(u64, RotSender)>, u64) {
        let counts_s = counts.clone();
        let (received, sent, meter) = run_two_party(
            move |t| {
                let mut ext = IknpReceiver::setup(&OtGroup::test_768(), &t, &mut seeded(125));
                let mut out = Vec::new();
                for (k, &count) in counts.iter().enumerate() {
                    let start = ext.next_block;
                    out.push((start, ext.extend_chosen(&t, choices(k, count))));
                    assert_eq!(ext.next_block, start + count.div_ceil(128) as u64);
                }
                out
            },
            move |t| {
                let mut ext = IknpSender::setup(&OtGroup::test_768(), &t, &mut seeded(126));
                let mut out = Vec::new();
                for &count in &counts_s {
                    let start = ext.next_block;
                    out.push((start, ext.extend(&t, count)));
                }
                out
            },
        );
        (received, sent, meter.total_messages())
    }

    fn window_choices(k: usize, count: usize) -> Vec<bool> {
        (0..count).map(|j| (j * 5 + k).is_multiple_of(3)).collect()
    }

    /// Five windows of one session: the base OTs are three flights and
    /// each window one; the windows' block ranges (so their (seed, block)
    /// pairs and their row tweaks) are disjoint and back to back, on both
    /// sides alike; no label repeats across or within windows; and every
    /// window still transfers.
    #[test]
    fn session_windows_are_disjoint_and_one_flight_each() {
        let (received, sent, flights) = session_windows(WINDOWS.to_vec(), window_choices);
        assert_eq!(flights, 3 + WINDOWS.len() as u64);
        let mut next = 0;
        for (((start_r, rr), (start_s, rs)), count) in received.iter().zip(&sent).zip(WINDOWS) {
            assert_eq!((*start_r, *start_s), (next, next), "window of {count}");
            next += count.div_ceil(128) as u64;
            assert_eq!((rr.remaining(), rs.remaining()), (count, count));
        }
        let mut labels = std::collections::HashSet::new();
        for (_, rot) in &sent {
            for &(m0, m1) in &rot.pairs {
                assert!(labels.insert(m0) && labels.insert(m1), "a label repeats");
            }
        }
        for ((_, rr), (_, rs)) in received.iter().zip(&sent) {
            for ((&c, &got), &(m0, m1)) in rr.choices.iter().zip(&rr.received).zip(&rs.pairs) {
                assert_eq!(got, if c { m1 } else { m0 });
            }
        }
    }

    /// Windows are slices of one long extension: the five windows match,
    /// row for row, one extension over their concatenated block range
    /// with the same choice bits (the unused tail of each window's last
    /// block chooses 0).
    #[test]
    fn chunked_windows_equal_one_long_extension() {
        let (received, sent, _) = session_windows(WINDOWS.to_vec(), window_choices);
        let blocks: usize = WINDOWS.iter().map(|c| c.div_ceil(128)).sum();
        let long_choices = |_: usize, _: usize| -> Vec<bool> {
            let mut all = Vec::new();
            for (k, count) in WINDOWS.into_iter().enumerate() {
                all.extend(window_choices(k, count));
                all.resize(all.len().next_multiple_of(128), false);
            }
            all
        };
        let (long_r, long_s, _) = session_windows(vec![blocks * 128], long_choices);
        let (long_r, long_s) = (&long_r[0].1, &long_s[0].1);
        for (((start, rr), (_, rs)), count) in received.iter().zip(&sent).zip(WINDOWS) {
            let first = *start as usize * 128;
            assert_eq!(rr.choices[..], long_r.choices[first..first + count], "window of {count}");
            assert_eq!(rr.received[..], long_r.received[first..first + count]);
            assert_eq!(rs.pairs[..], long_s.pairs[first..first + count]);
        }
    }

    #[test]
    fn rots_can_be_consumed_in_batches() {
        let (got, _, _) = run_two_party(
            move |t| {
                let mut rot =
                    rot_receiver_offline(&OtGroup::test_768(), &t, 10, &mut seeded(122));
                let mut all = rot.receive_chosen(&t, &[true, false]).expect("corrections");
                all.extend(rot.receive_chosen(&t, &[true]).expect("corrections"));
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
