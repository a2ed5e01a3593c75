//! Two-party garbled-circuit execution with an offline/online split.
//!
//! Roles follow the Primer layout: the **client garbles** (it knows its
//! own masks, which enter as garbler inputs for free) and the **server
//! evaluates** (its shares enter via precomputed OTs; the server learns
//! the decoded output, which is the re-masked next-layer share).
//!
//! Offline: garbling, table transfer, and one window of the session's
//!          IKNP extension (the base OTs behind it run once per session).
//! Online:  garbler input labels + OT derandomization (two flights), then
//!          local evaluation — matching the paper's "only unencrypted
//!          computations online" property for the GC phase.

use crate::circuit::Circuit;
use crate::garble::{evaluate, frame_len, garble, GarbledCircuit, InputEncoding};
use crate::label::Label;
use crate::ot::{
    rot_extension_bytes, rot_online_bytes, IknpReceiver, IknpSender, RotReceiver, RotSender,
};
use primer_net::Transport;
use rand::Rng;

/// Bytes the offline phase of `circuit` ships, both directions together:
/// the garbled frame and the extension window for the evaluator's inputs
/// (the session's base OTs are not in it — see `ot::iknp_setup_bytes`).
pub fn offline_bytes(circuit: &Circuit) -> usize {
    frame_len(circuit) + rot_extension_bytes(circuit.evaluator_inputs as usize)
}

/// Bytes the online phase of `circuit` ships, both directions together:
/// one label per garbler input and the OT derandomization.
pub fn online_bytes(circuit: &Circuit) -> usize {
    16 * circuit.garbler_inputs as usize + rot_online_bytes(circuit.evaluator_inputs as usize)
}

/// Client-side (garbler) session state after the offline phase.
#[derive(Debug)]
pub struct GarblerSession {
    encoding: InputEncoding,
    rots: RotSender,
}

impl GarblerSession {
    /// Offline phase: garbles `circuit`, ships tables + output decode
    /// info, and takes the next window of the session's extension `ot`
    /// as random OTs for the evaluator's inputs.
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        ot: &mut IknpSender,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        let (garbled, encoding) = garble(circuit, rng);
        transport.send_owned(garbled.into_frame());
        let rots = ot.extend(transport, circuit.evaluator_inputs as usize);
        Self { encoding, rots }
    }

    /// Online phase: sends the garbler's input labels and derandomizes
    /// the evaluator's input OTs.
    pub fn online(mut self, transport: &dyn Transport, garbler_inputs: &[bool]) {
        let labels: Vec<u8> = garbler_inputs
            .iter()
            .enumerate()
            .flat_map(|(i, &b)| self.encoding.garbler_label(i, b).to_le_bytes())
            .collect();
        transport.send_owned(labels);
        let pairs: Vec<(Label, Label)> = (0..self.encoding.evaluator_zero.len())
            .map(|i| self.encoding.evaluator_pair(i))
            .collect();
        self.rots.send_chosen(transport, &pairs);
    }
}

/// Server-side (evaluator) session state after the offline phase.
#[derive(Debug)]
pub struct EvaluatorSession {
    garbled: GarbledCircuit,
    rots: RotReceiver,
}

impl EvaluatorSession {
    /// Offline phase: receives the garbled tables and takes the next
    /// window of the session's extension `ot`. The received frame is kept
    /// as it arrived and evaluated in place.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not a garbling of `circuit` (wrong length,
    /// counts or decode bytes) — checked here, before anything indexes it.
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        ot: &mut IknpReceiver,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        let garbled = GarbledCircuit::from_frame(transport.recv(), circuit)
            .unwrap_or_else(|e| panic!("garbler sent a bad frame: {e}"));
        let rots = ot.extend(transport, circuit.evaluator_inputs as usize, rng);
        Self { garbled, rots }
    }

    /// Online phase: obtains labels and evaluates; returns the decoded
    /// output bits (the evaluator learns the output, per the protocol).
    pub fn online(
        mut self,
        circuit: &Circuit,
        transport: &dyn Transport,
        evaluator_inputs: &[bool],
    ) -> Vec<bool> {
        let garbler_bytes = transport.recv();
        let garbler_labels: Vec<Label> = garbler_bytes
            .chunks(16)
            .map(|c| u128::from_le_bytes(c.try_into().expect("16-byte label")))
            .collect();
        assert_eq!(garbler_labels.len(), circuit.garbler_inputs as usize, "garbler labels");
        let my_labels = self.rots.receive_chosen(transport, evaluator_inputs);
        evaluate(circuit, &self.garbled, &garbler_labels, &my_labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_bits_signed, to_bits, CircuitBuilder};
    use crate::ot::OtGroup;
    use primer_math::rng::seeded;
    use primer_net::run_two_party;

    /// Full two-party execution of a multiplier: client provides x,
    /// server provides y, server learns x·y.
    #[test]
    fn two_party_multiplier() {
        let width = 10;
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(width);
        let y = b.evaluator_input(width);
        let p = b.mul(&x, &y);
        let circuit = b.build(&p);
        let circuit_c = circuit.clone();
        let circuit_s = circuit.clone();

        let (_, result, meter) = run_two_party(
            move |t| {
                let mut rng = seeded(130);
                let mut ot = IknpSender::setup(&OtGroup::test_768(), &t, &mut rng);
                let sess = GarblerSession::offline(&circuit_c, &mut ot, &t, &mut rng);
                sess.online(&t, &to_bits(-23, width));
            },
            move |t| {
                let mut rng = seeded(131);
                let mut ot = IknpReceiver::setup(&OtGroup::test_768(), &t, &mut rng);
                let sess = EvaluatorSession::offline(&circuit_s, &mut ot, &t, &mut rng);
                sess.online(&circuit_s, &t, &to_bits(17, width))
            },
        );
        assert_eq!(from_bits_signed(&result), -23 * 17);
        assert!(meter.total_bytes() > 0);
    }

    /// The online phase must be cheap: only 4 flights (labels, flips,
    /// corrections, plus the garbler-labels message).
    #[test]
    fn online_phase_is_constant_rounds() {
        let mut b = CircuitBuilder::new();
        let x = b.garbler_input(4);
        let y = b.evaluator_input(4);
        let s = b.add(&x, &y);
        let circuit = b.build(&s);
        let (c1, c2) = (circuit.clone(), circuit.clone());

        let (_, (result, online_msgs), _) = run_two_party(
            move |t| {
                let mut rng = seeded(132);
                let mut ot = IknpSender::setup(&OtGroup::test_768(), &t, &mut rng);
                let sess = GarblerSession::offline(&c1, &mut ot, &t, &mut rng);
                sess.online(&t, &to_bits(3, 4));
            },
            move |t| {
                let mut rng = seeded(133);
                let mut ot = IknpReceiver::setup(&OtGroup::test_768(), &t, &mut rng);
                let sess = EvaluatorSession::offline(&c2, &mut ot, &t, &mut rng);
                let before = t.meter().total_messages();
                let out = sess.online(&c2, &t, &to_bits(4, 4));
                let after = t.meter().total_messages();
                (out, after - before)
            },
        );
        assert_eq!(from_bits_signed(&result), 7);
        assert!(online_msgs <= 3, "online flights: {online_msgs}");
    }
}
