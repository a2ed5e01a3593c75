//! Session suspend/resume: park a pipelined session with zero threads.
//!
//! A suspended session is the set of facts needed to serve its
//! remaining queries later — possibly in another process:
//!
//! * the client's Galois keys (received once during Setup),
//! * every **unconsumed offline bundle** (masked-share matrices, FHGS
//!   triples, per-step accounting), and
//! * the accumulated cost/traffic marks, so a resumed session's summary
//!   equals an uninterrupted run's.
//!
//! Suspension happens only **between** online queries — the wire is
//! fully quiescent there — and only after the offline phase has run to
//! completion: draining the bounded pool releases the producer's
//! backpressure, so it produces every booked bundle in the normal
//! lockstep wire schedule and exits. Nothing mid-protocol (rng state,
//! half-sent flights) ever needs to be captured, which is what keeps a
//! resumed session's logits bit-identical to an uninterrupted run.
//!
//! The server image serializes to bytes (`primer_serve` writes it to
//! the suspend directory); the client side stays in memory, because the
//! client is the party that *chooses* to suspend and keeps its secret
//! key either way. Garbled-mode sessions cannot suspend: an
//! [`EvaluatorSession`](primer_gc) holds live IKNP OT state that is not
//! serializable, and the typed [`SuspendError::GarbledUnsupported`]
//! says so instead of corrupting the session.
//!
//! **Privacy note:** a server suspend image holds one-time mask
//! material. It must be consumed at most once — resuming twice from the
//! same image would reuse masks across queries — so the serving layer
//! deletes the file as part of loading it.

use super::offline::{BlockServerPre, ServerBundle};
use super::plane::ModelPlane;
use super::pool::SharedPool;
use super::server::{ServerCore, ServerOnline};
use super::ProtocolVariant;
use crate::gcmod::{GcMode, GcServerStep};
use crate::stats::{PhaseCost, StepBreakdown, StepCategory};
use crate::system::SystemConfig;
use crate::wire::{put_phase_cost, put_traffic, read_phase_cost, read_traffic};
use primer_math::codec::{
    decode, put_bytes, put_u32, put_u64, read_matz, write_matz, Rdr, WireError,
};
use primer_gc::Circuit;
use primer_he::{BatchEncoder, Evaluator, GaloisKeys, HeContext, HeError, OpCounts};
use primer_net::TrafficSnapshot;
use std::sync::Arc;

/// Suspend-image format version (bump on any layout change; resume
/// rejects versions it does not know instead of misreading them).
pub const SUSPEND_FORMAT_VERSION: u32 = 1;

/// Why a session could not be suspended or resumed.
#[derive(Debug)]
pub enum SuspendError {
    /// Garbled-mode sessions hold live OT state that cannot be
    /// serialized; only `GcMode::Simulated` sessions suspend.
    GarbledUnsupported,
    /// The image bytes are truncated, foreign or corrupt.
    Malformed(HeError),
    /// The image is structurally valid but inconsistent with this
    /// server (wrong format version, variant, or model plane).
    BadImage(&'static str),
}

impl std::fmt::Display for SuspendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuspendError::GarbledUnsupported => {
                write!(f, "garbled-mode sessions cannot suspend (live OT state)")
            }
            SuspendError::Malformed(e) => write!(f, "malformed suspend image: {e}"),
            SuspendError::BadImage(what) => write!(f, "inconsistent suspend image: {what}"),
        }
    }
}

impl std::error::Error for SuspendError {}

impl From<HeError> for SuspendError {
    fn from(e: HeError) -> Self {
        SuspendError::Malformed(e)
    }
}

impl From<WireError> for SuspendError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Short { .. } => SuspendError::Malformed(e.into()),
            WireError::Trailing => SuspendError::BadImage("trailing bytes"),
        }
    }
}

/// A server session parked between queries: everything needed to build
/// a fresh [`ServerOnline`] that serves the remaining queries with
/// bit-identical wire bytes, in this process or after a restart.
pub struct ServerSuspendImage {
    pub(crate) variant: ProtocolVariant,
    pub(crate) setup_cost: PhaseCost,
    pub(crate) wire_mark: TrafficSnapshot,
    pub(crate) gk_bytes: Vec<u8>,
    pub(crate) bundles: Vec<ServerBundle>,
}

impl ServerSuspendImage {
    /// The suspended session's protocol variant.
    pub fn variant(&self) -> ProtocolVariant {
        self.variant
    }

    /// Unconsumed offline bundles — the queries this image can still
    /// serve.
    pub fn remaining(&self) -> usize {
        self.bundles.len()
    }

    /// Serializes the image (see the module docs for the privacy
    /// contract: these bytes hold one-time mask material).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, SUSPEND_FORMAT_VERSION);
        out.push(self.variant.code());
        put_phase_cost(&mut out, &self.setup_cost);
        put_traffic(&mut out, &self.wire_mark);
        put_bytes(&mut out, &self.gk_bytes);
        put_u32(&mut out, self.bundles.len() as u32);
        for b in &self.bundles {
            write_bundle(&mut out, b);
        }
        out
    }

    /// Decodes an image serialized by [`ServerSuspendImage::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SuspendError`] on an unknown format version or corrupt bytes.
    pub fn from_bytes(ctx: &HeContext, bytes: &[u8]) -> Result<Self, SuspendError> {
        decode(bytes, |r| {
            if r.u32("suspend version")? != SUSPEND_FORMAT_VERSION {
                return Err(SuspendError::BadImage("unknown suspend format version"));
            }
            let variant = ProtocolVariant::from_code(r.u8("suspend variant")?)
                .ok_or(SuspendError::BadImage("variant code"))?;
            let setup_cost = read_phase_cost(r)?;
            let wire_mark = read_traffic(r)?;
            let gk_bytes = r.bytes("galois keys")?.to_vec();
            let count = r.u32("bundle count")?;
            let bundles = (0..count).map(|_| read_bundle(r, ctx)).collect::<Result<_, _>>()?;
            Ok(Self { variant, setup_cost, wire_mark, gk_bytes, bundles })
        })
    }

    /// Rebuilds a servable online half from this image: a fresh
    /// evaluator and encoder, the deserialized Galois keys, and a
    /// pre-filled, closed bundle pool (no producer thread — the offline
    /// phase already completed before suspension).
    ///
    /// # Errors
    ///
    /// [`SuspendError::BadImage`] when the plane's variant does not
    /// match the image's; [`SuspendError::Malformed`] when the stored
    /// Galois keys do not decode under `sys`.
    pub fn into_online(
        self,
        sys: SystemConfig,
        circuits: Arc<Vec<Circuit>>,
        plane: Arc<ModelPlane>,
    ) -> Result<ServerOnline, SuspendError> {
        if plane.variant() != self.variant {
            return Err(SuspendError::BadImage("plane variant mismatch"));
        }
        let gk = decode(&self.gk_bytes, |r| GaloisKeys::read(&sys.he, r))?;
        let encoder = BatchEncoder::new(&sys.he);
        let eval = Evaluator::new(&sys.he);
        let core = Arc::new(ServerCore {
            sys,
            variant: self.variant,
            // Only simulated-mode sessions can have been suspended.
            mode: GcMode::Simulated,
            circuits,
            encoder,
            gk,
            plane,
        });
        let pool = Arc::new(SharedPool::new(self.bundles.len().max(1)));
        for b in self.bundles {
            pool.put_blocking(b);
        }
        // Closed: `take_blocking` yields the restored bundles then None,
        // exactly like a finished producer.
        pool.close();
        Ok(ServerOnline::assemble(core, eval, pool, self.setup_cost, self.wire_mark))
    }
}

/// Drains and parks a server online half (the implementation behind
/// [`ServerOnline::suspend`]).
pub(crate) fn suspend_server_online(
    online: ServerOnline,
) -> Result<ServerSuspendImage, SuspendError> {
    let (core, pool, setup_cost, wire_mark) = online.suspend_parts();
    if core.mode == GcMode::Garbled {
        return Err(SuspendError::GarbledUnsupported);
    }
    // Draining releases the producer's backpressure: it produces every
    // remaining booked bundle in the normal lockstep schedule, closes
    // the pool, and exits — after which `take_blocking` returns None.
    let mut bundles = Vec::new();
    while let Some(b) = pool.take_blocking() {
        bundles.push(b);
    }
    let mut gk_bytes = Vec::with_capacity(core.gk.serialized_size());
    core.gk.write(&mut gk_bytes);
    Ok(ServerSuspendImage { variant: core.variant, setup_cost, wire_mark, gk_bytes, bundles })
}

fn write_steps(out: &mut Vec<u8>, steps: &StepBreakdown) {
    // Fixed category order (`StepCategory::all`): codes are positional.
    for cat in StepCategory::all() {
        let (off, on) = steps.get(cat);
        put_phase_cost(out, &off);
        put_phase_cost(out, &on);
    }
    put_phase_cost(out, &steps.setup());
}

fn read_steps(r: &mut Rdr) -> Result<StepBreakdown, WireError> {
    let mut steps = StepBreakdown::new();
    for cat in StepCategory::all() {
        let off = read_phase_cost(r)?;
        let on = read_phase_cost(r)?;
        let (o, n) = steps.entry(cat);
        *o = off;
        *n = on;
    }
    steps.set_setup(read_phase_cost(r)?);
    Ok(steps)
}

fn write_he(out: &mut Vec<u8>, h: &OpCounts) {
    for v in [
        h.rotations, h.mul_plain, h.add, h.add_plain, h.encrypt, h.decrypt, h.mul_ct, h.relin,
        h.mask_prep, h.ntt,
    ] {
        put_u64(out, v);
    }
}

fn read_he(r: &mut Rdr) -> Result<OpCounts, WireError> {
    Ok(OpCounts {
        rotations: r.u64("he ops")?,
        mul_plain: r.u64("he ops")?,
        add: r.u64("he ops")?,
        add_plain: r.u64("he ops")?,
        encrypt: r.u64("he ops")?,
        decrypt: r.u64("he ops")?,
        mul_ct: r.u64("he ops")?,
        relin: r.u64("he ops")?,
        mask_prep: r.u64("he ops")?,
        ntt: r.u64("he ops")?,
    })
}

fn write_matz_vec(out: &mut Vec<u8>, ms: &[primer_math::MatZ]) {
    put_u32(out, ms.len() as u32);
    for m in ms {
        write_matz(out, m);
    }
}

fn read_matz_vec(r: &mut Rdr) -> Result<Vec<primer_math::MatZ>, WireError> {
    let count = r.u32("matrix count")? as usize;
    (0..count).map(|_| read_matz(r)).collect()
}

fn write_block(out: &mut Vec<u8>, b: &BlockServerPre) {
    match &b.qkv_rs {
        Some([q, k, v]) => {
            out.push(1);
            write_matz(out, q);
            write_matz(out, k);
            write_matz(out, v);
        }
        None => out.push(0),
    }
    put_u32(out, b.score_pre.len() as u32);
    for f in &b.score_pre {
        f.suspend_write(out);
    }
    put_u32(out, b.av_pre.len() as u32);
    for f in &b.av_pre {
        f.suspend_write(out);
    }
    write_matz(out, &b.wo_rs);
    write_matz(out, &b.w1_rs);
    write_matz(out, &b.w2_rs);
}

fn read_block(r: &mut Rdr, ctx: &HeContext) -> Result<BlockServerPre, HeError> {
    let qkv_rs = match r.u8("qkv tag")? {
        0 => None,
        1 => Some([read_matz(r)?, read_matz(r)?, read_matz(r)?]),
        _ => return Err(HeError::Malformed { what: "qkv tag" }),
    };
    let score_n = r.u32("score count")? as usize;
    let score_pre = (0..score_n)
        .map(|_| crate::fhgs::FhgsServer::suspend_read(r, ctx))
        .collect::<Result<Vec<_>, _>>()?;
    let av_n = r.u32("av count")? as usize;
    let av_pre = (0..av_n)
        .map(|_| crate::fhgs::FhgsServer::suspend_read(r, ctx))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BlockServerPre {
        qkv_rs,
        score_pre,
        av_pre,
        wo_rs: read_matz(r)?,
        w1_rs: read_matz(r)?,
        w2_rs: read_matz(r)?,
    })
}

fn write_bundle(out: &mut Vec<u8>, b: &ServerBundle) {
    write_matz_vec(out, &b.embed_rs);
    put_u32(out, b.bservers.len() as u32);
    for blk in &b.bservers {
        write_block(out, blk);
    }
    write_matz(out, &b.cls_rs);
    // Simulated-mode GC steps carry no state beyond their count (the
    // placeholder exchange already happened offline); garbled steps
    // never reach here — `suspend_server_online` rejects them.
    put_u32(out, b.gc.len() as u32);
    write_steps(out, &b.steps);
    write_he(out, &b.he);
    put_traffic(out, &b.traffic);
}

fn read_bundle(r: &mut Rdr, ctx: &HeContext) -> Result<ServerBundle, HeError> {
    let embed_rs = read_matz_vec(r)?;
    let blocks = r.u32("block count")? as usize;
    let bservers =
        (0..blocks).map(|_| read_block(r, ctx)).collect::<Result<Vec<_>, _>>()?;
    let cls_rs = read_matz(r)?;
    let gc_n = r.u32("gc count")? as usize;
    let gc = (0..gc_n).map(|_| GcServerStep::offline_noop()).collect();
    Ok(ServerBundle {
        embed_rs,
        bservers,
        cls_rs,
        gc,
        steps: read_steps(r)?,
        he: read_he(r)?,
        traffic: read_traffic(r)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{build_session_circuits, ClientSession, ServerSession};
    use primer_math::rng::seeded;
    use primer_net::MemTransport;
    use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
    use std::time::Duration;

    const QUERIES: usize = 4;
    const SUSPEND_AT: usize = 2;
    const POOL: usize = 2;

    #[allow(clippy::type_complexity)]
    fn fixture(variant: ProtocolVariant) -> (SystemConfig, Arc<FixedTransformer>, Arc<Vec<Circuit>>, Vec<Vec<usize>>) {
        let model = TransformerConfig::test_tiny();
        let sys = SystemConfig::test_profile(&model).expect("profile");
        let weights = TransformerWeights::random(&model, &mut seeded(7));
        let fixed = Arc::new(FixedTransformer::quantize(&model, &weights, sys.pipeline));
        let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
        let mut rng = seeded(0x5eed);
        use rand::Rng;
        let queries = (0..QUERIES)
            .map(|_| (0..model.n_tokens).map(|_| rng.gen_range(0..model.vocab)).collect())
            .collect();
        (sys, fixed, circuits, queries)
    }

    /// 64-bit FNV-1a of an image's bytes with its measured accounting
    /// zeroed: the setup's compute time, and each bundle's per-step
    /// costs and traffic (a pipelined bundle's byte attribution depends
    /// on how the two producers interleave). The rest of the image is a
    /// function of the session's seeds alone.
    fn accounting_free_digest(ctx: &HeContext, bytes: &[u8]) -> u64 {
        let mut image = ServerSuspendImage::from_bytes(ctx, bytes).expect("decode");
        image.setup_cost.compute = Duration::ZERO;
        for b in &mut image.bundles {
            b.steps = StepBreakdown::new();
            b.traffic = TrafficSnapshot::default();
        }
        image.to_bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Runs a pipelined two-party session over in-memory channels,
    /// optionally suspending both halves after `SUSPEND_AT` queries —
    /// the server through a full image byte roundtrip (simulating a
    /// restart), the client in memory — and resuming for the rest.
    /// Returns the logits and, when interrupted, the image's
    /// [`accounting_free_digest`].
    fn run(variant: ProtocolVariant, interrupt: bool) -> (Vec<Vec<i64>>, Option<u64>) {
        let (sys, fixed, circuits, queries) = fixture(variant);
        let (c_on, s_on, _) = MemTransport::pair();
        let (c_off, s_off, _) = MemTransport::pair();

        let server = {
            let (sys, circuits) = (sys.clone(), Arc::clone(&circuits));
            let fixed = Arc::clone(&fixed);
            std::thread::spawn(move || {
                let plane = Arc::new(ModelPlane::build(&sys, variant, &fixed));
                let session = ServerSession::setup_with_plane(
                    sys.clone(), variant, GcMode::Simulated, Arc::clone(&circuits),
                    Arc::clone(&plane), 40, QUERIES, POOL, &s_on,
                ).expect("server setup");
                let (producer, mut online) = session.into_pipelined(POOL);
                let producer = std::thread::spawn(move || producer.run(&s_off));
                for _ in 0..SUSPEND_AT {
                    online.serve_one(&s_on).expect("serve");
                }
                if interrupt {
                    let image = online.suspend().expect("suspend");
                    producer.join().expect("producer thread").expect("producer");
                    let bytes = image.to_bytes();
                    let digest = accounting_free_digest(&sys.he, &bytes);
                    let image = ServerSuspendImage::from_bytes(&sys.he, &bytes).expect("decode");
                    assert_eq!(image.remaining(), QUERIES - SUSPEND_AT);
                    let mut online =
                        image.into_online(sys, circuits, plane).expect("resume");
                    for _ in SUSPEND_AT..QUERIES {
                        online.serve_one(&s_on).expect("serve resumed");
                    }
                    Some(digest)
                } else {
                    for _ in SUSPEND_AT..QUERIES {
                        online.serve_one(&s_on).expect("serve");
                    }
                    producer.join().expect("producer thread").expect("producer");
                    None
                }
            })
        };

        let session = ClientSession::setup(
            sys, variant, GcMode::Simulated, fixed, circuits, 99, QUERIES, POOL, &c_on,
        );
        let (producer, mut online) = session.into_pipelined(POOL);
        let producer = std::thread::spawn(move || producer.run(&c_off));
        let mut logits = Vec::new();
        for q in &queries[..SUSPEND_AT] {
            logits.push(online.infer(q, &c_on).expect("infer"));
        }
        if interrupt {
            let parked = online.suspend();
            producer.join().expect("producer thread").expect("producer");
            assert_eq!(parked.remaining(), QUERIES - SUSPEND_AT);
            let mut online = parked.into_online();
            for q in &queries[SUSPEND_AT..] {
                logits.push(online.infer(q, &c_on).expect("infer resumed"));
            }
        } else {
            for q in &queries[SUSPEND_AT..] {
                logits.push(online.infer(q, &c_on).expect("infer"));
            }
            producer.join().expect("producer thread").expect("producer");
        }
        let digest = server.join().expect("server thread");
        (logits, digest)
    }

    #[test]
    fn suspend_resume_is_bit_identical_f() {
        assert_eq!(run(ProtocolVariant::F, true).0, run(ProtocolVariant::F, false).0);
    }

    #[test]
    fn suspend_resume_is_bit_identical_fpc() {
        assert_eq!(run(ProtocolVariant::Fpc, true).0, run(ProtocolVariant::Fpc, false).0);
    }

    /// The image's bytes, pinned (up to its measured durations): a codec
    /// refactor must not move one.
    #[test]
    fn image_matches_golden_digest() {
        assert_eq!(run(ProtocolVariant::Fpc, true).1, Some(0x5490_d7b3_257c_46b1));
    }

    #[test]
    fn garbled_sessions_refuse_to_suspend() {
        let variant = ProtocolVariant::F;
        let (sys, fixed, circuits, _) = fixture(variant);
        let (c_on, s_on, _) = MemTransport::pair();
        let (_c_off, s_off, _) = MemTransport::pair();
        let client = std::thread::spawn(move || {
            // Only Setup runs: generate + ship keys, then hang up.
            let _ = ClientSession::setup(
                sys, variant, GcMode::Garbled, fixed, circuits, 99, 1, 1, &c_on,
            );
        });
        let model = TransformerConfig::test_tiny();
        let sys = SystemConfig::test_profile(&model).expect("profile");
        let weights = TransformerWeights::random(&model, &mut seeded(7));
        let fixed = Arc::new(FixedTransformer::quantize(&model, &weights, sys.pipeline));
        let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
        let plane = Arc::new(ModelPlane::build(&sys, variant, &fixed));
        let session = ServerSession::setup_with_plane(
            sys, variant, GcMode::Garbled, circuits, plane, 40, 1, 1, &s_on,
        ).expect("server setup");
        let (_producer, online) = session.into_pipelined(1);
        drop(s_off);
        match online.suspend() {
            Err(SuspendError::GarbledUnsupported) => {}
            other => panic!("expected GarbledUnsupported, got {:?}", other.map(|_| ())),
        }
        client.join().expect("client thread");
    }

    #[test]
    fn foreign_bytes_fail_resume_cleanly() {
        let model = TransformerConfig::test_tiny();
        let sys = SystemConfig::test_profile(&model).expect("profile");
        assert!(matches!(
            ServerSuspendImage::from_bytes(&sys.he, b"not a suspend image"),
            Err(SuspendError::BadImage(_) | SuspendError::Malformed(_))
        ));
        let mut bytes = Vec::new();
        put_u32(&mut bytes, SUSPEND_FORMAT_VERSION + 1);
        assert!(matches!(
            ServerSuspendImage::from_bytes(&sys.he, &bytes),
            Err(SuspendError::BadImage(_))
        ));
    }
}
