//! Execution of garbled step circuits: the client (garbler) and server
//! (evaluator) halves of one step, in both real-garbled and simulated
//! modes. Simulated mode ships, per phase, one client → server flight as
//! long as everything the garbled phase moves in both directions — the
//! sizes come from `primer_gc::protocol`, which the garbled path runs.

use super::GcMode;
use primer_gc::protocol::{offline_bytes, online_bytes};
use primer_gc::{Circuit, EvaluatorSession, GarblerSession, OtGroup};
use rand::Rng;
use primer_net::Transport;

fn pack_bools(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

fn unpack_bools(bytes: &[u8], len: usize) -> Vec<bool> {
    (0..len).map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1).collect()
}

/// Client (garbler) half of one step execution.
#[derive(Debug)]
pub struct GcClientStep {
    mode: GcMode,
    session: Option<GarblerSession>,
}

impl GcClientStep {
    /// An already-consumed placeholder (for take-and-replace patterns).
    pub fn offline_noop() -> Self {
        Self { mode: GcMode::Simulated, session: None }
    }

    /// Offline phase: garble (or ship placeholder traffic).
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        mode: GcMode,
        group: &OtGroup,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        match mode {
            GcMode::Garbled => {
                let session = GarblerSession::offline(circuit, group, transport, rng);
                Self { mode, session: Some(session) }
            }
            GcMode::Simulated => {
                crate::wire::send_placeholder(transport, offline_bytes(circuit, group));
                Self { mode, session: None }
            }
        }
    }

    /// Online phase: provide the client's input bits.
    pub fn online(self, circuit: &Circuit, transport: &dyn Transport, bits: &[bool]) {
        assert_eq!(bits.len(), circuit.garbler_inputs as usize, "garbler input width");
        match self.mode {
            GcMode::Garbled => {
                self.session.expect("offline ran").online(transport, bits);
            }
            GcMode::Simulated => {
                // The bits ride at the head of a payload the size of the
                // real online traffic (a label per bit alone is longer).
                let mut payload = pack_bools(bits);
                payload.resize(online_bytes(circuit), 0);
                transport.send_owned(payload);
            }
        }
    }
}

/// Server (evaluator) half of one step execution.
#[derive(Debug)]
pub struct GcServerStep {
    mode: GcMode,
    session: Option<EvaluatorSession>,
}

impl GcServerStep {
    /// An already-consumed placeholder (for take-and-replace patterns).
    pub fn offline_noop() -> Self {
        Self { mode: GcMode::Simulated, session: None }
    }

    /// Offline phase.
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        mode: GcMode,
        group: &OtGroup,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        match mode {
            GcMode::Garbled => {
                let session = EvaluatorSession::offline(circuit, group, transport, rng);
                Self { mode, session: Some(session) }
            }
            GcMode::Simulated => {
                let _ = transport.recv();
                Self { mode, session: None }
            }
        }
    }

    /// Online phase: provide the server's input bits; returns outputs.
    pub fn online(
        self,
        circuit: &Circuit,
        transport: &dyn Transport,
        bits: &[bool],
    ) -> Vec<bool> {
        assert_eq!(bits.len(), circuit.evaluator_inputs as usize, "evaluator input width");
        match self.mode {
            GcMode::Garbled => {
                self.session.expect("offline ran").online(circuit, transport, bits)
            }
            GcMode::Simulated => {
                let payload = transport.recv();
                let g_bits =
                    unpack_bools(&payload, circuit.garbler_inputs as usize);
                circuit.eval_plain(&g_bits, bits)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        build_step_circuit, reference_step, ring_words_to_bits, bits_to_ring_words, GcStepKind,
    };
    use super::*;
    use primer_gc::arith::ring_bits;
    use primer_gc::GcNumCfg;
    use primer_math::rng::seeded;
    use primer_math::{fxp, FixedSpec, MatZ, Ring};
    use primer_net::run_two_party;
    use primer_nn::PipelineSpec;
    use primer_ss::share_vec;

    fn spec() -> PipelineSpec {
        PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12)
    }

    /// Runs a step both in the simulated and garbled modes and checks
    /// the result against the reference semantics.
    fn check_step(kind: GcStepKind, raw: Vec<i64>, residual: Vec<i64>, mode: GcMode) {
        let spec = spec();
        let gc = GcNumCfg { width: 32, frac: 12 };
        let ring = spec.ring;
        let t = ring.modulus();
        let rb = ring_bits(t);
        let circuit = build_step_circuit(&kind, &spec, gc);
        let n = kind.elems();

        // Share the raw inputs (and residuals) between the parties.
        let mut rng = seeded(300);
        let raw_ring: Vec<u64> = raw.iter().map(|&v| ring.from_signed(v)).collect();
        let (c_share, s_share) = share_vec(&ring, &raw_ring, &mut rng);
        let res_ring: Vec<u64> = residual.iter().map(|&v| ring.from_signed(v)).collect();
        let (rc_share, rs_share) = share_vec(&ring, &res_ring, &mut rng);
        let masks = MatZ::random(&ring, 1, n, &mut rng).into_vec();

        // Client bits: shares, [residual shares], masks.
        let mut client_vals = c_share.clone();
        if kind.has_residual() {
            client_vals.extend_from_slice(&rc_share);
        }
        client_vals.extend_from_slice(&masks);
        let client_bits = ring_words_to_bits(&client_vals, rb);
        let mut server_vals = s_share.clone();
        if kind.has_residual() {
            server_vals.extend_from_slice(&rs_share);
        }
        let server_bits = ring_words_to_bits(&server_vals, rb);

        let (c1, c2) = (circuit.clone(), circuit.clone());
        let (_, out_bits, _) = run_two_party(
            move |tr| {
                let mut rng = seeded(301);
                let step =
                    GcClientStep::offline(&c1, mode, &OtGroup::test_768(), &tr, &mut rng);
                step.online(&c1, &tr, &client_bits);
            },
            move |tr| {
                let mut rng = seeded(302);
                let step =
                    GcServerStep::offline(&c2, mode, &OtGroup::test_768(), &tr, &mut rng);
                step.online(&c2, &tr, &server_bits)
            },
        );
        let server_out = bits_to_ring_words(&out_bits, rb);
        // Reconstruct: server share + client mask must equal reference.
        let want = reference_step(&kind, &spec, &raw, &residual);
        for i in 0..n {
            let got = ring.to_signed(ring.add(server_out[i], masks[i]));
            assert_eq!(got, want[i], "elem {i} ({kind:?}, {mode:?})");
        }
    }

    #[test]
    fn trunc_sat_step_simulated() {
        let raw: Vec<i64> = vec![0, 1, -1, 1000, -1000, 123_456, -99_999, 32 << 5];
        check_step(GcStepKind::TruncSat { elems: 8 }, raw, vec![], GcMode::Simulated);
    }

    #[test]
    fn trunc_sat_step_garbled() {
        let raw: Vec<i64> = vec![700, -4096, 88_888, -3];
        check_step(GcStepKind::TruncSat { elems: 4 }, raw, vec![], GcMode::Garbled);
    }

    #[test]
    fn relu_and_gelu_steps_simulated() {
        let raw: Vec<i64> = vec![5000, -5000, 64, -64, 0, 20_000];
        check_step(GcStepKind::Relu { elems: 6 }, raw.clone(), vec![], GcMode::Simulated);
        check_step(GcStepKind::Gelu { elems: 6 }, raw, vec![], GcMode::Simulated);
    }

    #[test]
    fn softmax_step_simulated() {
        // Raw scores at double scale (2·frac = 10 bits).
        let raw: Vec<i64> =
            vec![1 << 10, 2 << 10, 0, -(1 << 10), 3 << 10, 1 << 9, -(1 << 9), 1 << 10];
        let prescale = fxp::const_q(0.5, 12);
        check_step(
            GcStepKind::Softmax { rows: 2, cols: 4, prescale },
            raw,
            vec![],
            GcMode::Simulated,
        );
    }

    #[test]
    fn layer_norm_residual_step_simulated() {
        let raw: Vec<i64> = (0..8).map(|i| (i - 4) << 10).collect();
        let residual: Vec<i64> = (0..8).map(|i| (8 - i) << 4).collect();
        check_step(layer_norm_kind(2), raw, residual, GcMode::Simulated);
    }

    fn layer_norm_kind(rows: usize) -> GcStepKind {
        let gamma: Vec<i64> = (0..4).map(|i| fxp::const_q(1.0 + i as f64 / 8.0, 12)).collect();
        let beta: Vec<i64> = (0..4).map(|i| fxp::const_q(i as f64 / 4.0 - 0.5, 12)).collect();
        GcStepKind::LayerNormResidual { rows, cols: 4, gamma, beta }
    }

    /// Every kind, three instances of its unit, in both modes, on inputs
    /// that differ per element (`check_step` draws every share, residual
    /// share and mask at random): an instance reading another's slice of
    /// a plane, or outputs leaving in another order, cannot pass.
    #[test]
    fn every_kind_repeated_matches_reference_in_both_modes() {
        let scores: Vec<i64> = (0..12).map(|i| (i * 7 % 5 - 2) << 9).collect();
        let products: Vec<i64> = (0..12).map(|i| (i * 1237 % 4001 - 2000) << 3).collect();
        let residual: Vec<i64> = (0..12).map(|i| (i * 53 % 97 - 40) << 2).collect();
        let kinds = [
            (GcStepKind::TruncSat { elems: 3 }, &products[..3], &[][..]),
            (GcStepKind::Relu { elems: 3 }, &products[3..6], &[][..]),
            (GcStepKind::Gelu { elems: 3 }, &products[6..9], &[][..]),
            (
                GcStepKind::Softmax { rows: 3, cols: 4, prescale: fxp::const_q(0.5, 12) },
                &scores[..],
                &[][..],
            ),
            (layer_norm_kind(3), &products[..], &residual[..]),
        ];
        for (kind, raw, residual) in kinds {
            let circuit = build_step_circuit(&kind, &spec(), GcNumCfg { width: 32, frac: 12 });
            assert_eq!(circuit.repeat(), 3, "{kind:?}");
            assert_eq!(circuit.unreachable_gates(), 0, "{kind:?}");
            for mode in [GcMode::Simulated, GcMode::Garbled] {
                check_step(kind.clone(), raw.to_vec(), residual.to_vec(), mode);
            }
        }
    }

    /// What one phase of one step puts on the wire: `(client → server,
    /// server → client)` bytes and the flights, offline alone when
    /// `online` is false.
    fn step_traffic(circuit: &Circuit, mode: GcMode, online: bool) -> (u64, u64, u64) {
        let (c1, c2) = (circuit.clone(), circuit.clone());
        let (_, _, meter) = run_two_party(
            move |tr| {
                let step =
                    GcClientStep::offline(&c1, mode, &OtGroup::test_768(), &tr, &mut seeded(303));
                if online {
                    step.online(&c1, &tr, &vec![false; c1.garbler_inputs as usize]);
                }
            },
            move |tr| {
                let step =
                    GcServerStep::offline(&c2, mode, &OtGroup::test_768(), &tr, &mut seeded(304));
                if online {
                    step.online(&c2, &tr, &vec![true; c2.evaluator_inputs as usize]);
                }
            },
        );
        (meter.c2s.bytes(), meter.s2c.bytes(), meter.total_messages())
    }

    /// Simulated mode meters what garbled mode ships, phase by phase. It
    /// keeps each phase to its one client → server flight, so the bytes
    /// the garbled phase sends back (base-OT replies, IKNP columns, flip
    /// bits) ride in that flight too: the phase totals agree, not each
    /// direction's share.
    #[test]
    fn simulated_steps_meter_the_garbled_bytes() {
        let gc = GcNumCfg { width: 32, frac: 12 };
        for kind in [
            GcStepKind::TruncSat { elems: 5 },
            GcStepKind::Softmax { rows: 2, cols: 4, prescale: fxp::const_q(0.5, 12) },
        ] {
            let circuit = build_step_circuit(&kind, &spec(), gc);
            let mut phases = [[0u64; 2]; 2];
            for (m, mode) in [GcMode::Simulated, GcMode::Garbled].into_iter().enumerate() {
                let (off_c2s, off_s2c, off_flights) = step_traffic(&circuit, mode, false);
                let (all_c2s, all_s2c, all_flights) = step_traffic(&circuit, mode, true);
                phases[m] = [off_c2s + off_s2c, all_c2s + all_s2c - off_c2s - off_s2c];
                if mode == GcMode::Simulated {
                    assert_eq!((off_s2c, all_s2c), (0, 0), "{kind:?}");
                    assert_eq!((off_flights, all_flights), (1, 2), "{kind:?}");
                } else {
                    assert!(off_s2c > 0 && all_s2c > off_s2c, "{kind:?}");
                }
            }
            assert_eq!(phases[0], phases[1], "{kind:?}: [offline, online] simulated vs garbled");
        }
    }

    #[test]
    fn softmax_step_garbled_matches_simulated_circuit() {
        let raw: Vec<i64> = vec![1 << 10, 0, -(1 << 9), 2 << 10];
        let prescale = fxp::const_q(0.5, 12);
        check_step(
            GcStepKind::Softmax { rows: 1, cols: 4, prescale },
            raw,
            vec![],
            GcMode::Garbled,
        );
    }
}
