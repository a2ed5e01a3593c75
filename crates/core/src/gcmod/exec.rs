//! Execution of garbled step circuits: the client (garbler) and server
//! (evaluator) halves of one step, in both real-garbled and simulated
//! modes. Simulated mode ships, per phase, one client → server flight as
//! long as everything the garbled phase moves in both directions — the
//! sizes come from `primer_gc::protocol` and `primer_gc::ot`, which the
//! garbled path runs.
//!
//! A session's steps share one [`GcSessionOt`]: the 128 IKNP base OTs run
//! the first time a step needs them, and every step is one window of a
//! single session-long extension. Simulated mode mirrors that: the first
//! step's offline placeholder carries the base OTs' bytes, once.

use super::GcMode;
use primer_gc::ot::{iknp_setup_bytes, IknpReceiver, IknpSender};
use primer_gc::protocol::{offline_bytes, online_bytes};
use primer_gc::{Circuit, EvaluatorSession, GarblerSession, OtGroup};
use primer_math::rng::seeded;
use primer_net::Transport;
use rand::rngs::StdRng;
use rand::Rng;

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

/// Where a session's base OTs stand.
#[derive(Debug)]
enum BaseOts<E> {
    /// Not run yet: the domain-separated rng they will draw from.
    Pending(StdRng),
    /// Run (garbled mode): the session's extension state.
    Ready(E),
    /// Carried by a placeholder (simulated mode): nothing to keep.
    Metered,
}

/// One party's session-long OT state for its GC steps: the IKNP
/// extension state `E` ([`IknpSender`] on the garbling client,
/// [`IknpReceiver`] on the evaluating server) once the base OTs have run.
/// Steps advance it in offline production order, which both parties
/// share, so their extension windows line up.
#[derive(Debug)]
pub struct GcSessionOt<E> {
    mode: GcMode,
    group: OtGroup,
    base: BaseOts<E>,
}

/// The client's (garbler's) session OT state.
pub type GcClientOt = GcSessionOt<IknpSender>;
/// The server's (evaluator's) session OT state.
pub type GcServerOt = GcSessionOt<IknpReceiver>;

impl<E> GcSessionOt<E> {
    /// A session's OT state before its first step: the base OTs will run
    /// in `group`, drawing from `base_rng` (never from a bundle rng).
    pub fn new(mode: GcMode, group: OtGroup, base_rng: StdRng) -> Self {
        Self { mode, group, base: BaseOts::Pending(base_rng) }
    }

    /// The extension state, running the base OTs with `setup` first if
    /// this is the session's first garbled step.
    fn extension(&mut self, setup: impl FnOnce(&OtGroup, &mut StdRng) -> E) -> &mut E {
        if let BaseOts::Pending(rng) = &mut self.base {
            self.base = BaseOts::Ready(setup(&self.group, rng));
        }
        match &mut self.base {
            BaseOts::Ready(ext) => ext,
            _ => unreachable!("a garbled step in a simulated session"),
        }
    }

    /// The base-OT bytes a simulated step's offline placeholder carries:
    /// all of them on the session's first step, none after.
    fn metered_base_bytes(&mut self) -> usize {
        match self.base {
            BaseOts::Pending(_) => {
                self.base = BaseOts::Metered;
                iknp_setup_bytes(&self.group)
            }
            _ => 0,
        }
    }
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

    /// Offline phase of a one-step session: fresh session OT state (its
    /// base-OT rng drawn from `rng`) and this step's window of it.
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        mode: GcMode,
        group: &OtGroup,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        let mut ot = GcClientOt::new(mode, group.clone(), seeded(rng.gen()));
        Self::offline_in(circuit, &mut ot, transport, rng)
    }

    /// Offline phase of one step of a session: garble and take the next
    /// window of the session's extension (or ship placeholder traffic).
    pub fn offline_in<R: Rng + ?Sized>(
        circuit: &Circuit,
        ot: &mut GcClientOt,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        let mode = ot.mode;
        match mode {
            GcMode::Garbled => {
                let ext =
                    ot.extension(|group, base_rng| IknpSender::setup(group, transport, base_rng));
                let session = GarblerSession::offline(circuit, ext, transport, rng);
                Self { mode, session: Some(session) }
            }
            GcMode::Simulated => {
                let bytes = offline_bytes(circuit) + ot.metered_base_bytes();
                crate::wire::send_placeholder(transport, bytes);
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

    /// Offline phase of a one-step session (the mirror of
    /// [`GcClientStep::offline`]).
    pub fn offline<R: Rng + ?Sized>(
        circuit: &Circuit,
        mode: GcMode,
        group: &OtGroup,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        let mut ot = GcServerOt::new(mode, group.clone(), seeded(rng.gen()));
        Self::offline_in(circuit, &mut ot, transport, rng)
    }

    /// Offline phase of one step of a session: receive the garbled step
    /// and take the next window of the session's extension (simulated:
    /// receive the placeholder).
    pub fn offline_in<R: Rng + ?Sized>(
        circuit: &Circuit,
        ot: &mut GcServerOt,
        transport: &dyn Transport,
        rng: &mut R,
    ) -> Self {
        let mode = ot.mode;
        match mode {
            GcMode::Garbled => {
                let ext =
                    ot.extension(|group, base_rng| IknpReceiver::setup(group, transport, base_rng));
                let session = EvaluatorSession::offline(circuit, ext, transport, rng);
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

    /// What a session running `steps` copies of `circuit` puts on the
    /// wire: total bytes, server → client bytes and flights, offline
    /// alone when `online` is false.
    fn session_traffic(circuit: &Circuit, mode: GcMode, steps: usize, online: bool) -> [u64; 3] {
        let (c1, c2) = (circuit.clone(), circuit.clone());
        let (_, _, meter) = run_two_party(
            move |tr| {
                let mut ot = GcClientOt::new(mode, OtGroup::test_768(), seeded(305));
                let mut rng = seeded(303);
                for _ in 0..steps {
                    let step = GcClientStep::offline_in(&c1, &mut ot, &tr, &mut rng);
                    if online {
                        step.online(&c1, &tr, &vec![false; c1.garbler_inputs as usize]);
                    }
                }
            },
            move |tr| {
                let mut ot = GcServerOt::new(mode, OtGroup::test_768(), seeded(306));
                let mut rng = seeded(304);
                for _ in 0..steps {
                    let step = GcServerStep::offline_in(&c2, &mut ot, &tr, &mut rng);
                    if online {
                        step.online(&c2, &tr, &vec![true; c2.evaluator_inputs as usize]);
                    }
                }
            },
        );
        [meter.total_bytes(), meter.s2c.bytes(), meter.total_messages()]
    }

    /// Simulated mode meters what garbled mode ships, phase by phase: a
    /// step costs its frame and extension window offline and its labels
    /// and derandomization online in both modes, and the session's first
    /// step adds the 128 base OTs once. Simulated mode keeps each phase
    /// to its one client → server flight, so the bytes the garbled phase
    /// sends back (base-OT replies, IKNP columns, flip bits) ride in that
    /// flight too: the phase totals agree, not each direction's share.
    #[test]
    fn simulated_steps_meter_the_garbled_bytes() {
        let gc = GcNumCfg { width: 32, frac: 12 };
        let base = iknp_setup_bytes(&OtGroup::test_768()) as u64;
        for kind in [
            GcStepKind::TruncSat { elems: 5 },
            GcStepKind::Softmax { rows: 2, cols: 4, prescale: fxp::const_q(0.5, 12) },
        ] {
            let circuit = build_step_circuit(&kind, &spec(), gc);
            let per_step = [offline_bytes(&circuit) as u64, online_bytes(&circuit) as u64];
            for mode in [GcMode::Simulated, GcMode::Garbled] {
                let [off1, ..] = session_traffic(&circuit, mode, 1, false);
                let [off2, off2_s2c, off2_flights] = session_traffic(&circuit, mode, 2, false);
                let [all1, ..] = session_traffic(&circuit, mode, 1, true);
                let [all2, all2_s2c, all2_flights] = session_traffic(&circuit, mode, 2, true);
                let second_step = [off2 - off1, (all2 - off2) - (all1 - off1)];
                assert_eq!(second_step, per_step, "{kind:?} {mode:?}: [offline, online]");
                assert_eq!(off1, base + per_step[0], "{kind:?} {mode:?}: first step");
                if mode == GcMode::Simulated {
                    assert_eq!((off2_s2c, all2_s2c), (0, 0), "{kind:?}");
                    assert_eq!((off2_flights, all2_flights), (2, 4), "{kind:?}");
                } else {
                    assert!(off2_s2c > 0 && all2_s2c > off2_s2c, "{kind:?}");
                    // Base OTs 3 once; frame + columns per step; labels,
                    // flips and corrections per step online.
                    assert_eq!((off2_flights, all2_flights), (3 + 2 * 2, 3 + 2 * 2 + 2 * 3));
                }
            }
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
