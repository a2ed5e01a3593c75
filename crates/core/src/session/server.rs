//! The server side of a persistent two-party session.

use super::offline::{produce_server_bundles, ServerBundle};
use super::plane::ModelPlane;
use super::pool::{refill_quota, OfflinePool, PoolWatch, SharedPool, SharedPoolGuard};
use super::{online, ProtocolVariant};
use crate::gcmod::{GcMode, GcServerOt};
use crate::stats::{PhaseCost, StepBreakdown};
use crate::system::SystemConfig;
use primer_gc::Circuit;
use primer_he::{BatchEncoder, Evaluator, GaloisKeys, HeError, OpCounters, OpCounts};
use primer_math::rng::derive;
use primer_math::MatZ;
use primer_net::{MeteredTransport, TrafficSnapshot};
use primer_nn::FixedTransformer;
use rand::rngs::StdRng;
use std::sync::Arc;
use std::time::Instant;

/// Ring-domain weights, converted once per [`ModelPlane`] (the old
/// per-inference `to_ring` conversions were pure setup waste).
pub(crate) struct ServerWeights {
    /// Embedding table (`Ā_e` under CHGS).
    pub we: MatZ,
    /// Positional term at product scale.
    pub lam: MatZ,
    /// CHGS pre-combined projections (Fpc only).
    pub combined: Option<CombinedRing>,
    /// Per-block projection weights.
    pub blocks: Vec<BlockRing>,
    /// Classifier head.
    pub classifier: MatZ,
}

/// Ring-domain CHGS combined weights and positional terms.
pub(crate) struct CombinedRing {
    pub a_q: MatZ,
    pub a_k: MatZ,
    pub a_v: MatZ,
    pub lam_q: MatZ,
    pub lam_k: MatZ,
    pub lam_v: MatZ,
}

/// Ring-domain weights of one encoder block.
pub(crate) struct BlockRing {
    pub wq: MatZ,
    pub wk: MatZ,
    pub wv: MatZ,
    pub wo: MatZ,
    pub w1: MatZ,
    pub w2: MatZ,
}

/// What one served round hands back to the engine.
pub struct ServeRound {
    /// Per-category offline+online costs, with the session setup cost
    /// attached.
    pub steps: StepBreakdown,
    /// HE ops spent producing this query's offline bundle.
    pub he_offline: OpCounts,
    /// HE ops spent in this query's online phase.
    pub he_online: OpCounts,
    /// This query's offline + online traffic.
    pub traffic: TrafficSnapshot,
}

/// Everything Setup establishes once on the server, shareable between
/// the offline-producer thread and the online thread: the received
/// Galois keys, encoder, step circuits and the ring-domain weights. All
/// methods on these take `&self`.
pub(crate) struct ServerCore {
    pub(crate) sys: SystemConfig,
    pub(crate) variant: ProtocolVariant,
    pub(crate) mode: GcMode,
    pub(crate) circuits: Arc<Vec<Circuit>>,
    pub(crate) encoder: BatchEncoder,
    pub(crate) gk: GaloisKeys,
    /// Ring weights + prepared mask planes — possibly shared with other
    /// concurrent sessions of the same model (serving registry cache).
    pub(crate) plane: Arc<ModelPlane>,
}

/// Long-lived server session state: the shared [`ServerCore`] plus the
/// evaluator (HE op counters), correction rng, the GC steps' session OT
/// state, offline pool and cost accounting.
pub struct ServerSession {
    core: Arc<ServerCore>,
    eval: Evaluator,
    rng: StdRng,
    ot: GcServerOt,
    pool: OfflinePool<ServerBundle>,
    pool_target: usize,
    total_queries: usize,
    produced: usize,
    setup_cost: PhaseCost,
    /// Running wire snapshot chaining phase deltas together (see
    /// [`super::offline::StepTimer::resume`]): everything the protocol
    /// has put on the wire up to the end of the last attributed phase.
    wire_mark: TrafficSnapshot,
}

impl ServerSession {
    /// Setup phase: receives the client's serialized Galois keys (the
    /// wall-clock spent blocked here *is* the client's key generation,
    /// so the recorded setup cost covers both parties serialized) and
    /// builds the model plane — ring-domain weights plus the prepared
    /// NTT-form mask planes — once.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] when the peer's key flight is truncated or
    /// corrupt (the serving boundary maps this to a failed session).
    #[allow(clippy::too_many_arguments)]
    pub fn setup(
        sys: SystemConfig,
        variant: ProtocolVariant,
        mode: GcMode,
        fixed: Arc<FixedTransformer>,
        circuits: Arc<Vec<Circuit>>,
        seed: u64,
        total_queries: usize,
        pool_target: usize,
        t: &dyn MeteredTransport,
    ) -> Result<Self, HeError> {
        // The quantized model is not needed after the plane is built.
        let build_start = Instant::now();
        let plane = Arc::new(ModelPlane::build(&sys, variant, &fixed));
        drop(fixed);
        let build_elapsed = build_start.elapsed();
        let mut session = Self::setup_with_plane(
            sys,
            variant,
            mode,
            circuits,
            plane,
            seed,
            total_queries,
            pool_target,
            t,
        )?;
        // A session that owns its plane pays the build inside its own
        // Setup phase (the serving path shares planes across sessions
        // and meters the one build in `PreparedPlaneStats` instead).
        session.setup_cost.compute += build_elapsed;
        Ok(session)
    }

    /// [`ServerSession::setup`] against a pre-built (possibly shared)
    /// [`ModelPlane`] — the serving registry caches one plane per
    /// (model, variant) and passes the same `Arc` to every concurrent
    /// session, so the mask encoding amortizes across the fleet.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] when the peer's key flight is truncated or
    /// corrupt; [`HeError::MissingGaloisKey`] when the received keys
    /// cannot realize a step of the plane's rotation plan (the failure
    /// would otherwise surface as a mid-offline panic).
    ///
    /// # Panics
    ///
    /// Panics if the plane was built for a different variant.
    #[allow(clippy::too_many_arguments)]
    pub fn setup_with_plane(
        sys: SystemConfig,
        variant: ProtocolVariant,
        mode: GcMode,
        circuits: Arc<Vec<Circuit>>,
        plane: Arc<ModelPlane>,
        seed: u64,
        total_queries: usize,
        pool_target: usize,
        t: &dyn MeteredTransport,
    ) -> Result<Self, HeError> {
        assert_eq!(plane.variant(), variant, "model plane built for a different variant");
        let _span = primer_obs::span!("session.setup", side = "server", variant = variant.name());
        let start = Instant::now();
        let rng = derive(seed, "server");
        let encoder = BatchEncoder::new(&sys.he);
        let eval = Evaluator::new(&sys.he);
        let ot = GcServerOt::new(mode, sys.ot_group.group(), derive(seed, "server-gc-base-ot"));
        let key_bytes = t.recv();
        let gk = GaloisKeys::from_bytes(&sys.he, &key_bytes)?;
        // Rotation plan check: every step the prepared chains will issue
        // must be realizable with the received keys (directly or via
        // power-of-two hops), so an under-provisioned peer fails Setup
        // cleanly instead of panicking mid-offline.
        let half = sys.he.params().row_size();
        for step in plane.rotation_steps() {
            let s = step % half; // mirror rotate_rows: 0 is the identity
            if s != 0 && primer_he::galois::decompose_step(s, gk.steps()).is_none() {
                return Err(HeError::MissingGaloisKey { step: s });
            }
        }
        // Hoisted steps are stricter: `rotate_many` shares one digit
        // decomposition across its whole step list, so a composite step
        // cannot be realized by chaining power-of-two hops mid-hoist —
        // each one needs its own dedicated key. Checking here turns a
        // layout/key-plan mismatch into a clean Setup error instead of a
        // mid-offline failure deep inside a refill batch.
        for step in plane.hoisted_steps() {
            let s = step % half;
            if s != 0 && !gk.steps().contains(&s) {
                return Err(HeError::MissingGaloisKey { step: s });
            }
        }
        // Setup traffic is exactly the key flight (the server sends
        // nothing during Setup), so it is constructed from the received
        // length instead of a meter capture — the pipelining client may
        // already have sent its first offline flights by now, and a
        // capture would swallow them. The same snapshot seeds
        // `wire_mark`, so the first bundle's delta starts exactly where
        // Setup ended and no bytes escape attribution.
        let setup_traffic = TrafficSnapshot {
            c2s_bytes: key_bytes.len() as u64,
            c2s_messages: 1,
            ..Default::default()
        };
        let mut setup_cost = PhaseCost::default();
        setup_cost.absorb(start.elapsed(), setup_traffic);
        Ok(Self {
            core: Arc::new(ServerCore {
                sys,
                variant,
                mode,
                circuits,
                encoder,
                gk,
                plane,
            }),
            eval,
            rng,
            ot,
            pool: OfflinePool::new(),
            pool_target: pool_target.max(1),
            total_queries,
            produced: 0,
            setup_cost,
            wire_mark: setup_traffic,
        })
    }

    /// The session's one-time setup cost: key transfer, plus the model
    /// plane build when this session built its own (shared serving
    /// planes are metered in `PreparedPlaneStats` instead).
    pub fn setup_cost(&self) -> PhaseCost {
        self.setup_cost
    }

    /// Unconsumed offline bundles waiting in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Produces `k` offline bundles into the pool as **one batch** (the
    /// mirror of [`super::ClientSession::refill`] — the batch size
    /// shapes the wire schedule and must match the client's).
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated request flight —
    /// the session is unusable past this point (the wire is out of
    /// lockstep), so callers fail the whole session.
    pub fn refill(&mut self, t: &dyn MeteredTransport, k: usize) -> Result<(), HeError> {
        let bundles = produce_server_bundles(
            &self.core,
            &self.eval,
            &mut self.rng,
            &mut self.ot,
            t,
            &mut self.wire_mark,
            k,
        )?;
        for bundle in bundles {
            self.pool.put(bundle);
            self.produced += 1;
        }
        Ok(())
    }

    /// Serves one query's online phase, consuming one pooled offline
    /// bundle (refilling first — with the same quota formula as the
    /// client — if the pool has drained).
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated mid-session
    /// flight.
    pub fn serve_one(&mut self, t: &dyn MeteredTransport) -> Result<ServeRound, HeError> {
        if self.pool.is_empty() {
            let k = refill_quota(self.pool_target, self.total_queries, self.produced);
            self.refill(t, k)?;
        }
        let bundle = self.pool.take().expect("pool refilled above");
        serve_round(&self.core, &self.eval, bundle, self.setup_cost, t, &mut self.wire_mark)
    }

    /// Splits a freshly set-up session into a pipelined producer /
    /// online pair connected by a bounded blocking pool of `capacity`
    /// bundles. The producer gets its **own** evaluator, so the
    /// per-query offline/online HE op attribution stays exact even while
    /// the two halves run concurrently; its wire mark starts at zero
    /// because the offline phase runs on its own (fresh) transport
    /// channel.
    ///
    /// # Panics
    ///
    /// Panics if the session already produced bundles sequentially.
    pub fn into_pipelined(self, capacity: usize) -> (ServerProducer, ServerOnline) {
        assert!(self.pool.is_empty() && self.produced == 0, "split before any sequential use");
        let pool = Arc::new(SharedPool::new(capacity.max(1)));
        let producer_eval = Evaluator::new(&self.core.sys.he);
        (
            ServerProducer {
                core: Arc::clone(&self.core),
                eval: producer_eval,
                rng: self.rng,
                ot: self.ot,
                pool: Arc::clone(&pool),
                remaining: self.total_queries,
                chunk: self.pool_target,
                wire_mark: TrafficSnapshot::default(),
            },
            ServerOnline {
                core: self.core,
                eval: self.eval,
                pool,
                setup_cost: self.setup_cost,
                wire_mark: self.wire_mark,
            },
        )
    }
}

/// Consumes one bundle: runs the online phase and assembles the round's
/// cost report (shared by the sequential and pipelined paths).
fn serve_round(
    core: &ServerCore,
    eval: &Evaluator,
    bundle: ServerBundle,
    setup_cost: PhaseCost,
    t: &dyn MeteredTransport,
    wire_mark: &mut TrafficSnapshot,
) -> Result<ServeRound, HeError> {
    let _span = primer_obs::span!("online.serve", variant = core.variant.name());
    let ServerBundle { embed_rs, bservers, cls_rs, gc, mut steps, he, traffic } = bundle;
    let he_before = eval.counts();
    let online_traffic = online::server_online(
        core,
        eval,
        online::ServerOnlineInputs { embed_rs, bservers, cls_rs, gc },
        &mut steps,
        t,
        wire_mark,
    )?;
    let he_online = eval.counts().since(&he_before);
    steps.set_setup(setup_cost);
    Ok(ServeRound { steps, he_offline: he, he_online, traffic: traffic.plus(&online_traffic) })
}

/// The offline half of a pipelined server session: produces every
/// bundle the session will serve, in lockstep with the client's
/// producer on the same transport channel.
pub struct ServerProducer {
    core: Arc<ServerCore>,
    eval: Evaluator,
    rng: StdRng,
    ot: GcServerOt,
    pool: Arc<SharedPool<ServerBundle>>,
    remaining: usize,
    /// Production batch size (= the session's pool target). Shapes the
    /// wire schedule, so both parties must derive the identical value —
    /// the serving handshake negotiates it (`ServerWelcome::pool`).
    chunk: usize,
    wire_mark: TrafficSnapshot,
}

impl ServerProducer {
    /// Produces all bundles in batches of the negotiated chunk size
    /// (parallel production, lockstep wire order), blocking on the pool
    /// bound for backpressure between hand-offs. Closes the pool on exit
    /// (including panic — e.g. a worker panic propagated out of a
    /// parallel refill, or an early return on a malformed flight), so
    /// the online half can never deadlock on a dead producer.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated request flight;
    /// the pool is closed first, so the online half fails loudly rather
    /// than blocking forever.
    pub fn run(mut self, t: &dyn MeteredTransport) -> Result<(), HeError> {
        let _guard = SharedPoolGuard(&self.pool);
        let mut produced = 0;
        while produced < self.remaining {
            let k = refill_quota(self.chunk, self.remaining, produced);
            let bundles = produce_server_bundles(
                &self.core,
                &self.eval,
                &mut self.rng,
                &mut self.ot,
                t,
                &mut self.wire_mark,
                k,
            )?;
            for bundle in bundles {
                self.pool.put_blocking(bundle);
            }
            produced += k;
        }
        Ok(())
    }

    /// A handle on this producer evaluator's HE op counters, for live
    /// `/stats` reads while the producer thread runs.
    pub fn he_counters(&self) -> Arc<OpCounters> {
        self.eval.counters_handle()
    }
}

/// The online half of a pipelined server session.
pub struct ServerOnline {
    core: Arc<ServerCore>,
    eval: Evaluator,
    pool: Arc<SharedPool<ServerBundle>>,
    setup_cost: PhaseCost,
    wire_mark: TrafficSnapshot,
}

impl ServerOnline {
    /// The session's one-time setup cost: key transfer, plus the model
    /// plane build when this session built its own (shared serving
    /// planes are metered in `PreparedPlaneStats` instead).
    pub fn setup_cost(&self) -> PhaseCost {
        self.setup_cost
    }

    /// A type-erased live view of the shared offline-pool depth, for
    /// the `/stats` admin surface.
    pub fn pool_watch(&self) -> PoolWatch {
        PoolWatch::new(Arc::clone(&self.pool))
    }

    /// A handle on the online evaluator's HE op counters, for live
    /// `/stats` reads while the session serves.
    pub fn he_counters(&self) -> Arc<OpCounters> {
        self.eval.counters_handle()
    }

    /// Serves one query's online phase, blocking until the producer has
    /// a bundle ready.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated mid-session
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if the producer closed the pool before delivering enough
    /// bundles (a producer crash, surfaced loudly here).
    pub fn serve_one(&mut self, t: &dyn MeteredTransport) -> Result<ServeRound, HeError> {
        let bundle = self
            .pool
            .take_blocking()
            .expect("offline producer died before delivering this query's bundle");
        serve_round(&self.core, &self.eval, bundle, self.setup_cost, t, &mut self.wire_mark)
    }

    /// Re-baselines phase traffic attribution for a brand-new
    /// connection, whose meter counts from zero. The suspend image
    /// carries the old connection's cumulative mark (correct when the
    /// resumed half keeps serving the same transport, as the in-process
    /// tests do); against a fresh meter that mark would underflow the
    /// first phase delta.
    pub fn reset_wire_mark(&mut self) {
        self.wire_mark = TrafficSnapshot::default();
    }

    /// Suspends this online half between queries: drains the pool
    /// (letting the producer finish all booked offline production in
    /// the normal lockstep wire schedule) and packs the session into a
    /// serializable [`super::suspend::ServerSuspendImage`]. The caller
    /// must still join the producer thread — by the time the drain
    /// completes it has closed the pool and is exiting.
    ///
    /// # Errors
    ///
    /// [`super::suspend::SuspendError::GarbledUnsupported`] for
    /// garbled-mode sessions (live OT state is not serializable).
    pub fn suspend(self) -> Result<super::suspend::ServerSuspendImage, super::suspend::SuspendError> {
        super::suspend::suspend_server_online(self)
    }

    /// Decomposes into the parts the suspend path needs.
    pub(crate) fn suspend_parts(
        self,
    ) -> (Arc<ServerCore>, Arc<SharedPool<ServerBundle>>, PhaseCost, TrafficSnapshot) {
        (self.core, self.pool, self.setup_cost, self.wire_mark)
    }

    /// Reassembles an online half from restored parts (the resume path).
    pub(crate) fn assemble(
        core: Arc<ServerCore>,
        eval: Evaluator,
        pool: Arc<SharedPool<ServerBundle>>,
        setup_cost: PhaseCost,
        wire_mark: TrafficSnapshot,
    ) -> Self {
        Self { core, eval, pool, setup_cost, wire_mark }
    }
}
