//! Half-gates garbling (Zahur–Rosulek–Evans) with free XOR and free NOT.

use crate::circuit::{Circuit, Gate, OutBit};
use crate::label::{color, sample_delta, sample_label, GarbleHash, Label};
use rand::Rng;
use std::fmt;

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
    let delta = sample_delta(rng);
    let mut sample = |n: u32| (0..n).map(|_| sample_label(rng)).collect::<Vec<Label>>();
    let garbler_zero = sample(circuit.garbler_inputs);
    let evaluator_zero = sample(circuit.evaluator_inputs);

    let mut frame = Vec::with_capacity(frame_len(circuit));
    frame.extend_from_slice(&(circuit.and_count() as u64).to_le_bytes());
    frame.extend_from_slice(&(circuit.num_outputs() as u64).to_le_bytes());
    let mut decode = Vec::with_capacity(circuit.num_outputs());
    let first = circuit.unit_inputs();
    // One unit's worth of zero-labels, overwritten instance after
    // instance; Δ and the tweak counter run across all of them.
    let mut zero = vec![0 as Label; circuit.unit_wires()];
    let mut tweak: u64 = 0;
    // The whole gate loop runs inside the cipher's tier, so each gate's
    // hash batch inlines here rather than being a call per gate.
    hash.in_tier(|| {
        for r in 0..circuit.repeat() {
            circuit.gather_inputs(r, &garbler_zero, &evaluator_zero, &mut zero);
            for (k, gate) in circuit.unit_gates().iter().enumerate() {
                zero[first + k] = match *gate {
                    Gate::Xor(a, b) => zero[a as usize] ^ zero[b as usize],
                    Gate::Inv(a) => zero[a as usize] ^ delta,
                    Gate::And(a, b) => {
                        let (a0, b0) = (zero[a as usize], zero[b as usize]);
                        let pa = color(a0);
                        let pb = color(b0);
                        let j0 = tweak;
                        let j1 = tweak + 1;
                        tweak += 2;
                        let [ha0, ha1, hb0, hb1] = hash.hash_batch([
                            (a0, j0),
                            (a0 ^ delta, j0),
                            (b0, j1),
                            (b0 ^ delta, j1),
                        ]);
                        // Garbler half gate.
                        let tg = ha0 ^ ha1 ^ if pb { delta } else { 0 };
                        let wg = ha0 ^ if pa { tg } else { 0 };
                        // Evaluator half gate.
                        let te = hb0 ^ hb1 ^ a0;
                        let we = hb0 ^ if pb { te ^ a0 } else { 0 };
                        frame.extend_from_slice(&tg.to_le_bytes());
                        frame.extend_from_slice(&te.to_le_bytes());
                        wg ^ we
                    }
                };
            }
            decode.extend(circuit.unit_outputs().iter().map(|o| match *o {
                OutBit::Wire(w) => u8::from(color(zero[w as usize])),
                OutBit::Const(c) => 2 + u8::from(c),
            }));
        }
    });
    frame.extend_from_slice(&decode);

    let encoding = InputEncoding { garbler_zero, evaluator_zero, delta };
    (GarbledCircuit { frame }, encoding)
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
    // length, `chunks_exact` yields exactly one table per AND gate.
    assert_eq!(garbled.frame.len(), frame_len(circuit), "garbled frame is for another circuit");
    let (tables, decode) =
        garbled.frame[HEADER_BYTES..].split_at(TABLE_BYTES * circuit.and_count());
    let mut tables = tables.chunks_exact(TABLE_BYTES);
    let mut decode = decode.iter();
    let first = circuit.unit_inputs();
    let mut wires = vec![0 as Label; circuit.unit_wires()];
    let mut out = Vec::with_capacity(circuit.num_outputs());

    let mut tweak: u64 = 0;
    hash.in_tier(|| {
        for r in 0..circuit.repeat() {
            circuit.gather_inputs(r, garbler_labels, evaluator_labels, &mut wires);
            for (k, gate) in circuit.unit_gates().iter().enumerate() {
                wires[first + k] = match *gate {
                    Gate::Xor(a, b) => wires[a as usize] ^ wires[b as usize],
                    Gate::Inv(a) => wires[a as usize],
                    Gate::And(a, b) => {
                        let (la, lb) = (wires[a as usize], wires[b as usize]);
                        let sa = color(la);
                        let sb = color(lb);
                        let (tg, te) =
                            tables.next().expect("one table per AND gate").split_at(16);
                        let tg = u128::from_le_bytes(tg.try_into().expect("16-byte ciphertext"));
                        let te = u128::from_le_bytes(te.try_into().expect("16-byte ciphertext"));
                        let j0 = tweak;
                        let j1 = tweak + 1;
                        tweak += 2;
                        let [ha, hb] = hash.hash_batch([(la, j0), (lb, j1)]);
                        let wg = ha ^ if sa { tg } else { 0 };
                        let we = hb ^ if sb { te ^ la } else { 0 };
                        wg ^ we
                    }
                };
            }
            out.extend(circuit.unit_outputs().iter().zip(&mut decode).map(|(o, &d)| match *o {
                OutBit::Wire(w) => color(wires[w as usize]) ^ (d & 1 == 1),
                OutBit::Const(c) => c,
            }));
        }
    });
    out
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
