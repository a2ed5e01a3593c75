//! Half-gates garbling (Zahur–Rosulek–Evans) with free XOR and free NOT.

use crate::circuit::{Circuit, Gate, OutBit};
use crate::label::{color, sample_delta, sample_label, GarbleHash, Label};
use rand::Rng;
use std::fmt;
use std::mem::MaybeUninit;

/// Frame header: the AND-gate count and the output count, each a
/// little-endian `u64`.
const HEADER_BYTES: usize = 16;
/// Two 16-byte ciphertexts per AND gate.
const TABLE_BYTES: usize = 32;

/// The garbled tables plus output decode bytes — everything shipped to
/// the evaluator besides input labels — held as the wire frame itself:
/// the header, then `[tg, te]` per AND gate (little-endian) — instance by
/// instance of the circuit's unit, in gate order within each — then one
/// decode byte per output (`0`/`1`: the color of the wire's FALSE label;
/// `2`/`3`: a constant folded at build time). The garbler writes tables
/// straight into the frame and the evaluator reads them in place, so no
/// copy stands between garbling and the transport.
#[derive(Debug, Clone)]
pub struct GarbledCircuit {
    /// Always `frame_len` of the circuit it was garbled or checked for.
    frame: Vec<u8>,
}

/// Why a received frame is not a garbling of the expected circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is not `16 + 32·and_count + outputs` bytes long.
    Length {
        /// Bytes the circuit calls for.
        expected: usize,
        /// Bytes received.
        got: usize,
    },
    /// The header's gate or output count disagrees with the circuit.
    Counts {
        /// `(and_count, outputs)` of the circuit.
        expected: (u64, u64),
        /// `(and_count, outputs)` the header claims.
        got: (u64, u64),
    },
    /// A decode byte does not fit its output (a color for a constant, a
    /// constant for a wire, the wrong constant, or no known code).
    Decode {
        /// Index of the output.
        output: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Length { expected, got } => {
                write!(f, "garbled frame is {got} bytes, circuit calls for {expected}")
            }
            Self::Counts { expected, got } => {
                write!(f, "garbled frame header claims {got:?} (ANDs, outputs), circuit has {expected:?}")
            }
            Self::Decode { output } => write!(f, "decode byte of output {output} does not fit it"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Length of the frame a garbling of `circuit` is: header, two
/// ciphertexts per AND gate, one decode byte per output.
pub fn frame_len(circuit: &Circuit) -> usize {
    HEADER_BYTES + TABLE_BYTES * circuit.and_count() + circuit.num_outputs()
}

impl GarbledCircuit {
    /// Takes a received frame as the garbling of `circuit`. The length is
    /// checked first — nothing is indexed before it holds — then the
    /// header counts and the decode bytes.
    pub fn from_frame(frame: Vec<u8>, circuit: &Circuit) -> Result<Self, FrameError> {
        let expected = frame_len(circuit);
        if frame.len() != expected {
            return Err(FrameError::Length { expected, got: frame.len() });
        }
        let header = |at: usize| {
            u64::from_le_bytes(frame[at..at + 8].try_into().expect("8 header bytes"))
        };
        let counts = (circuit.and_count() as u64, circuit.num_outputs() as u64);
        if (header(0), header(8)) != counts {
            return Err(FrameError::Counts { expected: counts, got: (header(0), header(8)) });
        }
        let decode = &frame[expected - circuit.num_outputs()..];
        // `cycle` pairs every instance's decode bytes with the unit's
        // outputs; `zip` stops at the last decode byte.
        for (output, (o, &d)) in circuit.unit_outputs().iter().cycle().zip(decode).enumerate() {
            let fits = match *o {
                OutBit::Wire(_) => d <= 1,
                OutBit::Const(c) => d == 2 + u8::from(c),
            };
            if !fits {
                return Err(FrameError::Decode { output });
            }
        }
        Ok(Self { frame })
    }

    /// The wire frame.
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// The wire frame, by value — what the garbler hands the transport.
    pub fn into_frame(self) -> Vec<u8> {
        self.frame
    }
}

/// The garbler's secrets: zero-labels for every input wire and the global
/// offset Δ (label-for-true = label-for-false ⊕ Δ).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputEncoding {
    /// Zero-labels of the garbler's input wires.
    pub garbler_zero: Vec<Label>,
    /// Zero-labels of the evaluator's input wires.
    pub evaluator_zero: Vec<Label>,
    /// Global free-XOR offset.
    pub delta: Label,
}

impl InputEncoding {
    /// Label for a garbler input bit.
    pub fn garbler_label(&self, index: usize, bit: bool) -> Label {
        self.garbler_zero[index] ^ if bit { self.delta } else { 0 }
    }

    /// Label pair `(false, true)` for an evaluator input wire (fed to OT).
    pub fn evaluator_pair(&self, index: usize) -> (Label, Label) {
        let zero = self.evaluator_zero[index];
        (zero, zero ^ self.delta)
    }
}

/// Lane counts a pass runs at: [`Pass<2>`] for each pair of instances,
/// [`Pass<1>`] for an odd last one. Instances are independent, so one
/// pass walks the unit's gates once for all its lanes and every AND
/// issues a single hash batch across them — the AES rounds of one lane
/// hide behind the other's instead of each batch waiting on the gate
/// before it.
trait Lanes<const L: usize> {
    /// The four garbling hashes of one AND gate on every lane.
    fn garble_hashes(hash: &GarbleHash, x: [[(Label, u64); 4]; L]) -> [[Label; 4]; L];
    /// The two evaluation hashes of one AND gate on every lane.
    fn eval_hashes(hash: &GarbleHash, x: [[(Label, u64); 2]; L]) -> [[Label; 2]; L];
}

/// A pass over `L` instances of a unit.
struct Pass<const L: usize>;

impl Lanes<1> for Pass<1> {
    #[inline(always)]
    fn garble_hashes(hash: &GarbleHash, [x]: [[(Label, u64); 4]; 1]) -> [[Label; 4]; 1] {
        [hash.hash_batch(x)]
    }

    #[inline(always)]
    fn eval_hashes(hash: &GarbleHash, [x]: [[(Label, u64); 2]; 1]) -> [[Label; 2]; 1] {
        [hash.hash_batch(x)]
    }
}

impl Lanes<2> for Pass<2> {
    #[inline(always)]
    fn garble_hashes(hash: &GarbleHash, [x, y]: [[(Label, u64); 4]; 2]) -> [[Label; 4]; 2] {
        let [a0, a1, a2, a3, b0, b1, b2, b3] =
            hash.hash_batch([x[0], x[1], x[2], x[3], y[0], y[1], y[2], y[3]]);
        [[a0, a1, a2, a3], [b0, b1, b2, b3]]
    }

    #[inline(always)]
    fn eval_hashes(hash: &GarbleHash, [x, y]: [[(Label, u64); 2]; 2]) -> [[Label; 2]; 2] {
        let [a0, a1, b0, b1] = hash.hash_batch([x[0], x[1], y[0], y[1]]);
        [[a0, a1], [b0, b1]]
    }
}

/// Fills lane `l` of a pass's input wires with instance `r`'s labels,
/// through a unit-input-sized scratch array.
#[inline(always)]
fn gather_lane<const L: usize>(
    circuit: &Circuit,
    r: usize,
    l: usize,
    (garbler, evaluator): (&[Label], &[Label]),
    scratch: &mut [Label],
    wires: &mut [[Label; L]],
) {
    circuit.gather_inputs(r, garbler, evaluator, scratch);
    for (w, &x) in wires.iter_mut().zip(scratch.iter()) {
        w[l] = x;
    }
}

/// Garbles a circuit; returns the material for the evaluator and the
/// garbler's input encoding secrets.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> (GarbledCircuit, InputEncoding) {
    garble_with(circuit, &GarbleHash::new(), rng)
}

/// [`garble`] under a caller-built hash.
pub fn garble_with<R: Rng + ?Sized>(
    circuit: &Circuit,
    hash: &GarbleHash,
    rng: &mut R,
) -> (GarbledCircuit, InputEncoding) {
    garble_into(circuit, hash, rng, Vec::new())
}

/// [`garble_with`] into `buf`'s allocation — a recycled frame (see
/// `primer_net::Transport::buffer`) keeps its pages, so the garbler does
/// not fault in fresh memory for every frame. Whatever `buf` holds is
/// discarded, not cleared: every byte of the frame is written before it
/// is handed out. Byte-identical to garbling into a fresh vector.
pub fn garble_into<R: Rng + ?Sized>(
    circuit: &Circuit,
    hash: &GarbleHash,
    rng: &mut R,
    mut buf: Vec<u8>,
) -> (GarbledCircuit, InputEncoding) {
    let delta = sample_delta(rng);
    let mut sample = |n: u32| (0..n).map(|_| sample_label(rng)).collect::<Vec<Label>>();
    let garbler_zero = sample(circuit.garbler_inputs);
    let evaluator_zero = sample(circuit.evaluator_inputs);

    let len = frame_len(circuit);
    buf.clear();
    buf.reserve(len);
    let frame = &mut buf.spare_capacity_mut()[..len];
    let (header, body) = frame.split_at_mut(HEADER_BYTES);
    header[..8].write_copy_of_slice(&(circuit.and_count() as u64).to_le_bytes());
    header[8..].write_copy_of_slice(&(circuit.num_outputs() as u64).to_le_bytes());
    let (tables, decode) = body.split_at_mut(TABLE_BYTES * circuit.and_count());
    let inputs = (&garbler_zero[..], &evaluator_zero[..]);
    let mut scratch = vec![0 as Label; circuit.unit_inputs()];
    let (repeat, wires) = (circuit.repeat(), circuit.unit_wires());
    // Every pass runs inside the cipher's tier, so each gate's hash batch
    // inlines here rather than being a call per gate.
    hash.in_tier(|| {
        if repeat >= 2 {
            let pair = &mut vec![[0 as Label; 2]; wires];
            for r in (0..repeat - 1).step_by(2) {
                garble_pass(circuit, hash, delta, r, inputs, &mut scratch, pair, tables, decode);
            }
        }
        if repeat % 2 == 1 {
            let single = &mut vec![[0 as Label; 1]; wires];
            let r = repeat - 1;
            garble_pass(circuit, hash, delta, r, inputs, &mut scratch, single, tables, decode);
        }
    });
    // SAFETY: the header is written above, and every pass writes each of
    // its instances' table and decode regions in full — `garble_pass`
    // asserts it wrote one table per unit AND gate on every lane, and the
    // passes cover instances `0..repeat` once each. So `frame[..len]` is
    // initialized.
    unsafe { buf.set_len(len) };

    let encoding = InputEncoding { garbler_zero, evaluator_zero, delta };
    (GarbledCircuit { frame: buf }, encoding)
}

/// Garbles instances `r..r+L` in one walk of the unit's gates. AND `j`
/// of instance `r + l` hashes under tweaks `2((r+l)·unit_ands + j)` and
/// `+1` and writes its `[tg, te]` to table `j` of lane `l`'s region of
/// `tables` — the instance-by-instance layout of a one-lane garbling.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn garble_pass<const L: usize>(
    circuit: &Circuit,
    hash: &GarbleHash,
    delta: Label,
    r: usize,
    inputs: (&[Label], &[Label]),
    scratch: &mut [Label],
    zero: &mut [[Label; L]],
    tables: &mut [MaybeUninit<u8>],
    decode: &mut [MaybeUninit<u8>],
) where
    Pass<L>: Lanes<L>,
{
    let unit_ands = circuit.unit_and_count();
    let outputs = circuit.unit_outputs();
    let first = circuit.unit_inputs();
    for l in 0..L {
        gather_lane(circuit, r + l, l, inputs, scratch, zero);
    }
    let inst = TABLE_BYTES * unit_ands;
    let (tables, _) = tables[r * inst..(r + L) * inst].as_chunks_mut::<TABLE_BYTES>();
    let mut j = 0usize;
    for (k, gate) in circuit.unit_gates().iter().enumerate() {
        let mut w = [0 as Label; L];
        match *gate {
            Gate::Xor(a, b) => {
                let (a, b) = (zero[a as usize], zero[b as usize]);
                for l in 0..L {
                    w[l] = a[l] ^ b[l];
                }
            }
            Gate::Inv(a) => {
                let a = zero[a as usize];
                for l in 0..L {
                    w[l] = a[l] ^ delta;
                }
            }
            Gate::And(a, b) => {
                let (a0, b0) = (zero[a as usize], zero[b as usize]);
                let mut x = [[(0 as Label, 0u64); 4]; L];
                for l in 0..L {
                    let j0 = 2 * ((r + l) * unit_ands + j) as u64;
                    let j1 = j0 + 1;
                    x[l] = [(a0[l], j0), (a0[l] ^ delta, j0), (b0[l], j1), (b0[l] ^ delta, j1)];
                }
                let h = Pass::<L>::garble_hashes(hash, x);
                for l in 0..L {
                    let [ha0, ha1, hb0, hb1] = h[l];
                    let (pa, pb) = (color(a0[l]), color(b0[l]));
                    // Garbler half gate.
                    let tg = ha0 ^ ha1 ^ if pb { delta } else { 0 };
                    let wg = ha0 ^ if pa { tg } else { 0 };
                    // Evaluator half gate.
                    let te = hb0 ^ hb1 ^ a0[l];
                    let we = hb0 ^ if pb { te ^ a0[l] } else { 0 };
                    let table = &mut tables[l * unit_ands + j];
                    table[..16].write_copy_of_slice(&tg.to_le_bytes());
                    table[16..].write_copy_of_slice(&te.to_le_bytes());
                    w[l] = wg ^ we;
                }
                j += 1;
            }
        }
        zero[first + k] = w;
    }
    assert_eq!(j, unit_ands, "a table region left unwritten");
    let decode = &mut decode[r * outputs.len()..(r + L) * outputs.len()];
    for (l, lane) in decode.chunks_exact_mut(outputs.len().max(1)).enumerate() {
        for (d, o) in lane.iter_mut().zip(outputs) {
            d.write(match *o {
                OutBit::Wire(w) => u8::from(color(zero[w as usize][l])),
                OutBit::Const(c) => 2 + u8::from(c),
            });
        }
    }
}

/// Evaluates a garbled circuit given one label per input wire.
/// Returns the decoded plaintext outputs.
///
/// # Panics
///
/// Panics if label counts don't match the circuit, or if `garbled` is a
/// garbling of a circuit of another shape.
pub fn evaluate(
    circuit: &Circuit,
    garbled: &GarbledCircuit,
    garbler_labels: &[Label],
    evaluator_labels: &[Label],
) -> Vec<bool> {
    evaluate_with(circuit, &GarbleHash::new(), garbled, garbler_labels, evaluator_labels)
}

/// [`evaluate`] under a caller-built hash.
pub fn evaluate_with(
    circuit: &Circuit,
    hash: &GarbleHash,
    garbled: &GarbledCircuit,
    garbler_labels: &[Label],
    evaluator_labels: &[Label],
) -> Vec<bool> {
    assert_eq!(garbler_labels.len(), circuit.garbler_inputs as usize, "garbler labels");
    assert_eq!(evaluator_labels.len(), circuit.evaluator_inputs as usize, "evaluator labels");
    // The one check the table reads below rest on: with the frame at this
    // length, every instance's region holds one table per unit AND gate.
    assert_eq!(garbled.frame.len(), frame_len(circuit), "garbled frame is for another circuit");
    let (tables, decode) =
        garbled.frame[HEADER_BYTES..].split_at(TABLE_BYTES * circuit.and_count());
    let inputs = (garbler_labels, evaluator_labels);
    let mut scratch = vec![0 as Label; circuit.unit_inputs()];
    let mut out = Vec::with_capacity(circuit.num_outputs());
    let (repeat, wires) = (circuit.repeat(), circuit.unit_wires());
    hash.in_tier(|| {
        if repeat >= 2 {
            let pair = &mut vec![[0 as Label; 2]; wires];
            for r in (0..repeat - 1).step_by(2) {
                let out = &mut out;
                evaluate_pass(circuit, hash, r, inputs, &mut scratch, pair, tables, decode, out);
            }
        }
        if repeat % 2 == 1 {
            let single = &mut vec![[0 as Label; 1]; wires];
            let r = repeat - 1;
            evaluate_pass(circuit, hash, r, inputs, &mut scratch, single, tables, decode, &mut out);
        }
    });
    out
}

/// Evaluates instances `r..r+L` in one walk of the unit's gates — the
/// mirror of [`garble_pass`]: same tweaks, same table regions. Pushes
/// the lanes' decoded outputs in instance order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn evaluate_pass<const L: usize>(
    circuit: &Circuit,
    hash: &GarbleHash,
    r: usize,
    inputs: (&[Label], &[Label]),
    scratch: &mut [Label],
    wires: &mut [[Label; L]],
    tables: &[u8],
    decode: &[u8],
    out: &mut Vec<bool>,
) where
    Pass<L>: Lanes<L>,
{
    let unit_ands = circuit.unit_and_count();
    let outputs = circuit.unit_outputs();
    let first = circuit.unit_inputs();
    for l in 0..L {
        gather_lane(circuit, r + l, l, inputs, scratch, wires);
    }
    let inst = TABLE_BYTES * unit_ands;
    let (tables, _) = tables[r * inst..(r + L) * inst].as_chunks::<TABLE_BYTES>();
    let mut j = 0usize;
    for (k, gate) in circuit.unit_gates().iter().enumerate() {
        let mut w = [0 as Label; L];
        match *gate {
            Gate::Xor(a, b) => {
                let (a, b) = (wires[a as usize], wires[b as usize]);
                for l in 0..L {
                    w[l] = a[l] ^ b[l];
                }
            }
            Gate::Inv(a) => w = wires[a as usize],
            Gate::And(a, b) => {
                let (la, lb) = (wires[a as usize], wires[b as usize]);
                let mut x = [[(0 as Label, 0u64); 2]; L];
                for l in 0..L {
                    let tweak = 2 * ((r + l) * unit_ands + j) as u64;
                    x[l] = [(la[l], tweak), (lb[l], tweak + 1)];
                }
                let h = Pass::<L>::eval_hashes(hash, x);
                for l in 0..L {
                    let table = &tables[l * unit_ands + j];
                    let tg = u128::from_le_bytes(table[..16].try_into().expect("16 bytes"));
                    let te = u128::from_le_bytes(table[16..].try_into().expect("16 bytes"));
                    let [ha, hb] = h[l];
                    let wg = ha ^ if color(la[l]) { tg } else { 0 };
                    let we = hb ^ if color(lb[l]) { te ^ la[l] } else { 0 };
                    w[l] = wg ^ we;
                }
                j += 1;
            }
        }
        wires[first + k] = w;
    }
    let decode = &decode[r * outputs.len()..(r + L) * outputs.len()];
    for (l, lane) in decode.chunks_exact(outputs.len().max(1)).enumerate() {
        out.extend(outputs.iter().zip(lane).map(|(o, &d)| match *o {
            OutBit::Wire(w) => color(wires[w as usize][l]) ^ (d & 1 == 1),
            OutBit::Const(c) => c,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_bits_signed, to_bits, CircuitBuilder};
    use primer_math::rng::seeded;

    /// The labels the evaluator holds for the given input bits.
    fn labels(enc: &InputEncoding, gi: &[bool], ei: &[bool]) -> (Vec<Label>, Vec<Label>) {
        let gl = gi.iter().enumerate().map(|(i, &v)| enc.garbler_label(i, v)).collect();
        let el = ei
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (l0, l1) = enc.evaluator_pair(i);
                if v {
                    l1
                } else {
                    l0
                }
            })
            .collect();
        (gl, el)
    }

    /// Garbled evaluation must agree with plain evaluation on every input
    /// combination for a 1-bit AND/XOR/INV mix.
    #[test]
    fn garbled_equals_plain_exhaustive_small() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(2);
        let y = b.evaluator_input(2);
        let a = b.and(x[0], y[0]);
        let o = b.or(x[1], y[1]);
        let n = b.not(a);
        let m = b.mux(a, o, n);
        let circuit = b.build(&[a, o, n, m]);

        let mut rng = seeded(100);
        let (garbled, enc) = garble(&circuit, &mut rng);
        for bits in 0..16u32 {
            let gi = [(bits & 1) != 0, (bits & 2) != 0];
            let ei = [(bits & 4) != 0, (bits & 8) != 0];
            let want = circuit.eval_plain(&gi, &ei);
            let (gl, el) = labels(&enc, &gi, &ei);
            let got = evaluate(&circuit, &garbled, &gl, &el);
            assert_eq!(got, want, "inputs {bits:04b}");
        }
    }

    #[test]
    fn garbled_adder_matches_reference() {
        let width = 12;
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(width);
        let y = b.evaluator_input(width);
        let s = b.add(&x, &y);
        let circuit = b.build(&s);
        let mut rng = seeded(101);
        let (garbled, enc) = garble(&circuit, &mut rng);
        for (a, c) in [(100i64, 200i64), (-1000, 999), (2047, 2047), (-2048, -1)] {
            let gi = to_bits(a, width);
            let ei = to_bits(c, width);
            let (gl, el) = labels(&enc, &gi, &ei);
            let got = from_bits_signed(&evaluate(&circuit, &garbled, &gl, &el));
            let m = 1i64 << width;
            let want = (((a + c) % m) + m) % m;
            let want = if want >= m / 2 { want - m } else { want };
            assert_eq!(got, want, "{a}+{c}");
        }
    }

    #[test]
    fn table_count_equals_and_count() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(8);
        let y = b.evaluator_input(8);
        let p = b.mul(&x, &y);
        let circuit = b.build(&p);
        let mut rng = seeded(102);
        let (garbled, _) = garble(&circuit, &mut rng);
        let frame = garbled.as_bytes();
        assert_eq!(frame[..8], (circuit.and_count() as u64).to_le_bytes());
        assert_eq!(frame.len(), 16 + circuit.garbled_size_bytes() + circuit.num_outputs());
    }
    /// A frame that is short, over-long or lies about its counts is turned
    /// away by `from_frame` — the evaluator's loop never sees it.
    #[test]
    fn malformed_frames_are_rejected_at_the_length_check() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(8);
        let y = b.evaluator_input(8);
        let p = b.mul(&x, &y);
        let circuit = b.build(&p);
        let ands = circuit.and_count();
        let (garbled, _) = garble(&circuit, &mut seeded(103));
        let good = garbled.into_frame();
        let expected = good.len();
        assert!(GarbledCircuit::from_frame(good.clone(), &circuit).is_ok());

        let length = |got: usize| Err(FrameError::Length { expected, got });
        for cut in [0, 7, 16, expected - 32, expected - 1] {
            let got = GarbledCircuit::from_frame(good[..cut].to_vec(), &circuit).map(drop);
            assert_eq!(got, length(cut), "frame cut to {cut} bytes");
        }
        let mut long = good.clone();
        long.push(0);
        assert_eq!(GarbledCircuit::from_frame(long, &circuit).map(drop), length(expected + 1));

        // A header claiming one gate fewer: at full length the counts
        // give it away, and trimmed to the length it claims it is short.
        let mut forged = good.clone();
        forged[..8].copy_from_slice(&(ands as u64 - 1).to_le_bytes());
        let outputs = circuit.num_outputs() as u64;
        assert_eq!(
            GarbledCircuit::from_frame(forged.clone(), &circuit).map(drop),
            Err(FrameError::Counts {
                expected: (ands as u64, outputs),
                got: (ands as u64 - 1, outputs)
            })
        );
        forged.drain(16..48);
        assert_eq!(GarbledCircuit::from_frame(forged, &circuit).map(drop), length(expected - 32));

        // A wire output whose decode byte says "constant".
        let wire_out = circuit
            .unit_outputs()
            .iter()
            .position(|o| matches!(o, OutBit::Wire(_)))
            .expect("a multiplier has wire outputs");
        let mut bad_decode = good;
        bad_decode[expected - circuit.num_outputs() + wire_out] = 2;
        assert_eq!(
            GarbledCircuit::from_frame(bad_decode, &circuit).map(drop),
            Err(FrameError::Decode { output: wire_out })
        );
    }

    /// A frame garbled for the same unit at another `repeat` is not a
    /// garbling of this circuit: its length gives it away, and cut or
    /// padded to the right length its header does.
    #[test]
    fn a_frame_for_another_repeat_is_rejected() {
        let adder = |repeat: usize| {
            let mut b = CircuitBuilder::new();
            let x = b.garbler_input(4);
            let y = b.evaluator_input(4);
            let s = b.add(&x, &y);
            b.build(&s).repeated(repeat, &[4], &[4])
        };
        let (two, three) = (adder(2), adder(3));
        let frame = garble(&three, &mut seeded(105)).0.into_frame();
        assert!(GarbledCircuit::from_frame(frame.clone(), &three).is_ok());
        let expected = frame_len(&two);
        assert_eq!(
            GarbledCircuit::from_frame(frame.clone(), &two).map(drop),
            Err(FrameError::Length { expected, got: frame_len(&three) })
        );
        let mut cut = frame;
        cut.truncate(expected);
        let counts = |c: &Circuit| (c.and_count() as u64, c.num_outputs() as u64);
        assert_eq!(
            GarbledCircuit::from_frame(cut, &two).map(drop),
            Err(FrameError::Counts { expected: counts(&two), got: counts(&three) })
        );
    }

    /// Every instance of a repeated unit is garbled under its own tweaks
    /// and labels, and evaluates to the plain result for its own inputs.
    #[test]
    fn repeated_unit_garbles_each_instance_for_its_own_inputs() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(6);
        let m = b.garbler_input(6);
        let y = b.evaluator_input(6);
        let p = b.mul(&x, &y);
        let out = b.xor_word(&p, &m);
        let circuit = b.build(&out).repeated(5, &[6, 6], &[6]);
        let mut rng = seeded(106);
        let gi: Vec<bool> = (0..circuit.garbler_inputs).map(|_| rng.gen()).collect();
        let ei: Vec<bool> = (0..circuit.evaluator_inputs).map(|_| rng.gen()).collect();
        let (garbled, enc) = garble(&circuit, &mut rng);
        // Same unit, same Δ — but no two instances share a table.
        let tables = &garbled.as_bytes()[HEADER_BYTES..][..TABLE_BYTES * circuit.and_count()];
        let per_instance = TABLE_BYTES * circuit.unit_and_count();
        let mut seen: Vec<&[u8]> = tables.chunks(per_instance).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 5);
        let (gl, el) = labels(&enc, &gi, &ei);
        assert_eq!(evaluate(&circuit, &garbled, &gl, &el), circuit.eval_plain(&gi, &ei));
    }

    /// A recycled buffer — stale bytes, more room than the frame needs —
    /// garbles to the frame a fresh vector gets, at every lane shape: one
    /// instance, a pair, and pairs plus an odd last instance.
    #[test]
    fn garbling_into_a_dirty_buffer_matches_a_fresh_one() {
        for repeat in [1, 2, 5] {
            let mut b = CircuitBuilder::new();
            let x = b.garbler_input(6);
            let y = b.evaluator_input(6);
            let p = b.mul(&x, &y);
            let circuit = b.build(&p).repeated(repeat, &[6], &[6]);
            let hash = GarbleHash::new();
            let (fresh, enc) = garble_with(&circuit, &hash, &mut seeded(107));
            let dirty = vec![0xAA_u8; 2 * frame_len(&circuit) + 7];
            let ptr = dirty.as_ptr();
            let (reused, enc_reused) = garble_into(&circuit, &hash, &mut seeded(107), dirty);
            assert!(fresh.as_bytes() == reused.as_bytes(), "repeat {repeat}: frames differ");
            assert_eq!(enc, enc_reused, "repeat {repeat}");
            assert_eq!(reused.as_bytes().as_ptr(), ptr, "repeat {repeat}: not garbled in place");
        }
    }

    /// `evaluate` refuses a garbling of a circuit of another shape.
    #[test]
    #[should_panic(expected = "garbled frame is for another circuit")]
    fn evaluate_refuses_another_circuits_garbling() {
        let build = |width| {
            let mut b = CircuitBuilder::new();
            let x = b.garbler_input(width);
            let y = b.evaluator_input(width);
            let s = b.add(&x, &y);
            b.build(&s)
        };
        let (small, big) = (build(4), build(5));
        let (garbled, _) = garble(&small, &mut seeded(104));
        evaluate(&big, &garbled, &[0; 5], &[0; 5]);
    }
}
