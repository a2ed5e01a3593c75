//! The client side of a persistent two-party session.

use super::offline::{produce_client_bundles, ClientBundle};
use super::pool::{refill_quota, OfflinePool, SharedPool, SharedPoolGuard};
use super::{online, ProtocolVariant};
use crate::gcmod::{GcClientOt, GcMode};
use crate::system::SystemConfig;
use crate::wire;
use primer_gc::Circuit;
use primer_he::{BatchEncoder, Encryptor, HeError, KeyGenerator};
use primer_math::rng::derive;
use primer_net::Transport;
use primer_nn::FixedTransformer;
use rand::rngs::StdRng;
use std::sync::Arc;

/// Everything Setup establishes once on the client, shareable between
/// the offline-producer thread and the online thread: the secret key
/// (inside the encryptor), encoder and step circuits. All methods on
/// these take `&self`; the only mutable per-session state is the mask
/// rng and the GC steps' OT state, which live with whichever half
/// produces bundles.
pub(crate) struct ClientCore {
    pub(crate) sys: SystemConfig,
    pub(crate) variant: ProtocolVariant,
    pub(crate) fixed: Arc<FixedTransformer>,
    pub(crate) circuits: Arc<Vec<Circuit>>,
    pub(crate) encoder: BatchEncoder,
    pub(crate) encryptor: Encryptor,
}

/// Long-lived client session state: the shared [`ClientCore`] plus the
/// mask rng, the GC steps' session OT state and a pool of precomputed
/// offline bundles.
///
/// The Galois keys generated here are shipped to the server as real
/// serialized bytes during [`ClientSession::setup`]; the client itself
/// never rotates, so it keeps only the secret key.
pub struct ClientSession {
    core: Arc<ClientCore>,
    rng: StdRng,
    ot: GcClientOt,
    pool: OfflinePool<ClientBundle>,
    pool_target: usize,
    total_queries: usize,
    produced: usize,
}

impl ClientSession {
    /// Setup phase: derives the client RNG, generates the secret and
    /// Galois keys, and ships the Galois keys to the server (the one
    /// Setup flight). Runs once per session.
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
        t: &dyn Transport,
    ) -> Self {
        let _span = primer_obs::span!("session.setup", side = "client", variant = variant.name());
        let mut rng = derive(seed, "client");
        let encoder = BatchEncoder::new(&sys.he);
        let keygen = KeyGenerator::new(&sys.he, &mut rng);
        let encryptor = Encryptor::new(&sys.he, keygen.secret_key().clone(), seed ^ 0x5eed);
        // The base OTs are offline work: the first refill runs them, from
        // their own stream, so no bundle's randomness shifts with them.
        let ot = GcClientOt::new(mode, sys.ot_group.group(), derive(seed, "client-gc-base-ot"));
        // Exact key plan: a dedicated key for every step the selected
        // layouts will rotate by — including the hoisted input-rotation
        // steps, which admit no power-of-two fallback. Both parties
        // derive the same plan from public shapes
        // (`costmodel::layout::galois_steps`); the server verifies it at
        // its own Setup before any offline work starts.
        let steps = crate::costmodel::layout::galois_steps(&sys, variant);
        let gk = keygen.galois_keys(&steps, false, &mut rng);
        wire::send_galois_keys(t, &gk);
        Self {
            core: Arc::new(ClientCore {
                sys,
                variant,
                fixed,
                circuits,
                encoder,
                encryptor,
            }),
            rng,
            ot,
            pool: OfflinePool::new(),
            pool_target: pool_target.max(1),
            total_queries,
            produced: 0,
        }
    }

    /// Unconsumed offline bundles waiting in the pool.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// Produces `k` offline bundles into the pool — as **one batch**, so
    /// the heavy HE work fans out across the thread pool (DESIGN.md §9).
    /// The server must run the matching [`super::ServerSession::refill`]
    /// with the same `k` — both sessions derive the same refill schedule
    /// from the shared (total, pool) parameters, keeping the wire in
    /// lockstep; the batch size shapes the wire schedule, so it must
    /// match on both sides.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated reply flight —
    /// the session is unusable past this point (the wire is out of
    /// lockstep), so callers fail the whole session.
    pub fn refill(&mut self, t: &dyn Transport, k: usize) -> Result<(), HeError> {
        for bundle in produce_client_bundles(&self.core, &mut self.rng, &mut self.ot, t, k)? {
            self.pool.put(bundle);
            self.produced += 1;
        }
        Ok(())
    }

    /// Runs one online inference, consuming one pooled offline bundle
    /// (refilling the pool first if it has drained).
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated mid-session
    /// flight.
    pub fn infer(&mut self, tokens: &[usize], t: &dyn Transport) -> Result<Vec<i64>, HeError> {
        if self.pool.is_empty() {
            let k = refill_quota(self.pool_target, self.total_queries, self.produced);
            self.refill(t, k)?;
        }
        let bundle = self.pool.take().expect("pool refilled above");
        online::client_online(&self.core, bundle, tokens, t)
    }

    /// Splits a freshly set-up session into a pipelined producer /
    /// online pair connected by a bounded blocking pool of `capacity`
    /// bundles: the producer thread runs the whole offline phase on its
    /// own transport channel while the online half serves queries
    /// concurrently on another.
    ///
    /// # Panics
    ///
    /// Panics if the session already produced bundles sequentially
    /// (mixing the two modes would fork the mask-rng schedule between
    /// parties).
    pub fn into_pipelined(self, capacity: usize) -> (ClientProducer, ClientOnline) {
        assert!(self.pool.is_empty() && self.produced == 0, "split before any sequential use");
        let pool = Arc::new(SharedPool::new(capacity.max(1)));
        (
            ClientProducer {
                core: Arc::clone(&self.core),
                rng: self.rng,
                ot: self.ot,
                pool: Arc::clone(&pool),
                remaining: self.total_queries,
                chunk: self.pool_target,
            },
            ClientOnline { core: self.core, pool },
        )
    }
}

/// The offline half of a pipelined client session: produces every
/// bundle the session will consume, in lockstep with the server's
/// producer on the same transport channel.
pub struct ClientProducer {
    core: Arc<ClientCore>,
    rng: StdRng,
    ot: GcClientOt,
    pool: Arc<SharedPool<ClientBundle>>,
    remaining: usize,
    /// Production batch size (= the session's pool target). Shapes the
    /// wire schedule, so both parties must derive the identical value —
    /// the serving handshake negotiates it (`ServerWelcome::pool`).
    chunk: usize,
}

impl ClientProducer {
    /// Produces all bundles in batches of the negotiated chunk size
    /// (parallel production, lockstep wire order), blocking on the pool
    /// bound for backpressure between hand-offs. Closes the pool on exit
    /// (including panic — e.g. a worker panic propagated out of a
    /// parallel refill, or an early return on a malformed flight), so
    /// the online half can never deadlock on a dead producer.
    ///
    /// # Errors
    ///
    /// [`HeError::Malformed`] on a corrupt or truncated reply flight;
    /// the pool is closed first, so the online half fails loudly rather
    /// than blocking forever.
    pub fn run(mut self, t: &dyn Transport) -> Result<(), HeError> {
        let _guard = SharedPoolGuard(&self.pool);
        let mut produced = 0;
        while produced < self.remaining {
            let k = refill_quota(self.chunk, self.remaining, produced);
            for bundle in produce_client_bundles(&self.core, &mut self.rng, &mut self.ot, t, k)? {
                self.pool.put_blocking(bundle);
            }
            produced += k;
        }
        Ok(())
    }
}

/// The online half of a pipelined client session.
pub struct ClientOnline {
    core: Arc<ClientCore>,
    pool: Arc<SharedPool<ClientBundle>>,
}

impl ClientOnline {
    /// Runs one online inference, blocking until the producer has a
    /// bundle ready. Takes `&mut self` (like its server mirror) so two
    /// threads cannot interleave queries on one lockstep wire.
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
    pub fn infer(&mut self, tokens: &[usize], t: &dyn Transport) -> Result<Vec<i64>, HeError> {
        let bundle = self
            .pool
            .take_blocking()
            .expect("offline producer died before delivering this query's bundle");
        online::client_online(&self.core, bundle, tokens, t)
    }

    /// Suspends this online half between queries: drains the pool
    /// (letting the producer finish all booked offline production in
    /// the normal lockstep wire schedule — the server must drain
    /// symmetrically) and parks the session in memory. The caller must
    /// still join the producer thread. Unlike the server side this
    /// never serializes: the client keeps its secret key and masks
    /// in-process, so garbled-mode sessions can park too.
    pub fn suspend(self) -> SuspendedClientSession {
        let mut bundles = Vec::new();
        while let Some(b) = self.pool.take_blocking() {
            bundles.push(b);
        }
        SuspendedClientSession { core: self.core, bundles }
    }
}

/// A client session parked between queries: the long-lived core (keys,
/// encoder, circuits) plus every unconsumed offline bundle, costing
/// zero threads until resumed. Transports are per-call parameters
/// throughout the session API, so the resumed half works over a brand
/// new connection.
pub struct SuspendedClientSession {
    core: Arc<ClientCore>,
    bundles: Vec<ClientBundle>,
}

impl SuspendedClientSession {
    /// Unconsumed offline bundles — the queries this session can still
    /// run.
    pub fn remaining(&self) -> usize {
        self.bundles.len()
    }

    /// The session's protocol variant.
    pub fn variant(&self) -> ProtocolVariant {
        self.core.variant
    }

    /// Rebuilds a runnable online half: a fresh pool pre-filled with
    /// the parked bundles and closed (no producer thread — the offline
    /// phase completed before suspension), consumed in the original
    /// production order so logits stay bit-identical.
    pub fn into_online(self) -> ClientOnline {
        let pool = Arc::new(SharedPool::new(self.bundles.len().max(1)));
        for b in self.bundles {
            pool.put_blocking(b);
        }
        pool.close();
        ClientOnline { core: self.core, pool }
    }
}
