//! The event-driven serving side.
//!
//! One **event loop** thread owns every connection that has not been
//! admitted to a session worker: it accepts non-blockingly, polls each
//! pre-admission connection for its first control frame ([`NbConn`] —
//! no thread per connection), answers `/stats` polls inline, applies
//! admission control ([`ShedPolicy`] — a typed busy reply instead of
//! silent queueing when configured), and hands admitted sessions to
//! worker threads bounded by the worker cap. Sessions move through an
//! explicit state machine (`Handshake → Setup → Offline → Serving →
//! Suspended | Completed | Failed`) visible over `/stats`, and a
//! serving session can be **suspended** between queries: its keys and
//! unconsumed offline bundles are serialized to the suspend directory,
//! the worker exits, and a later connection (same process or a
//! restarted server) resumes the session by token with bit-identical
//! remaining logits.
//!
//! CPU-heavy work (HE ops, bundle production) stays on the rayon pool
//! and per-session worker/producer threads exactly as before — the
//! event loop only ever does frame plumbing.

use crate::cache::LruPlaneCache;
use crate::error::{ServeError, SessionOutcome};
use crate::proto::{
    ClientHello, PhaseStat, Profile, ServerWelcome, SessionState, SessionSummary, StatsRequest,
    StatsSnapshot, SuspendReply, SuspendRequest,
};
use crate::registry::{LiveSession, Registry, ServerStats, SessionRecord};
use crate::suspend::{decode_file, encode_file, file_name, parse_file_name, SuspendHeader};
use crate::{maybe_shaped, phase_summary, system_for, CH_CONTROL, CH_OFFLINE, CH_ONLINE};
use primer_core::{
    build_session_circuits, GcMode, ModelPlane, PhaseTotals, ProtocolVariant, ServerOnline,
    ServerSession, ServerSuspendImage, SystemConfig,
};
use primer_gc::Circuit;
use primer_he::{HeError, OpCounts};
use primer_math::rng::seeded;
use primer_net::nonblock::NbConn;
use primer_net::tcp::TcpConnection;
use primer_net::{MeteredTransport, NetworkModel, PollRecv, TrafficSnapshot};
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// What the server does with a session hello that arrives while every
/// worker slot is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Queue every hello until a slot frees (the pre-v4 behavior): no
    /// client is ever turned away, but a burst can wait unboundedly.
    #[default]
    QueueUnbounded,
    /// Keep at most `max_waiting` hellos queued; beyond that, answer
    /// with a typed busy frame ([`crate::ProtoError::Busy`] on the
    /// client) and close — the client knows immediately and can retry,
    /// instead of blocking invisibly.
    Shed {
        /// Hellos allowed to wait for a slot before shedding starts.
        max_waiting: usize,
    },
}

/// Everything a server instance is configured with. Prefer
/// [`Server::builder`] over filling this in by hand.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The model every session serves.
    pub model: TransformerConfig,
    /// Numeric profile (HE parameters, fixed format, OT group).
    pub profile: Profile,
    /// Seed the deterministic model weights are drawn from; shipped to
    /// clients in the welcome so both parties quantize the same model.
    pub weight_seed: u64,
    /// Base seed for per-session server randomness (each session derives
    /// its own stream from this and its session id).
    pub seed: u64,
    /// Concurrent session cap: hellos beyond it wait (or are shed, per
    /// [`ServerConfig::shed`]).
    pub max_workers: usize,
    /// Per-session offline pool bound. This is a **cap**: a client may
    /// ask for a smaller pool in its hello, but never a larger one —
    /// precomputed bundles are the server's memory commitment.
    pub pool: usize,
    /// Upper bound on queries a single session may book; hellos beyond
    /// it are rejected (the query count sizes the session's offline
    /// production, so it must not be client-unbounded).
    pub max_queries_per_session: usize,
    /// Optional traffic shaping applied to every session's channels
    /// (measured LAN/WAN serving instead of loopback speed). Each
    /// connection gets one shared link shaper covering all channels.
    pub shape: Option<NetworkModel>,
    /// Admission control once every worker slot is taken.
    pub shed: ShedPolicy,
    /// Where suspended sessions park their images. `None` disables
    /// suspension (suspend requests are refused, sessions keep serving).
    pub suspend_dir: Option<PathBuf>,
    /// Pre-admission deadline: a connection that has not produced its
    /// hello within this window is dropped, and the whole Setup
    /// exchange of an admitted session must also complete within it.
    pub idle_timeout: Duration,
    /// Prepared-plane cache bound (LRU eviction beyond it; evicted
    /// planes rebuild on next use).
    pub plane_cache: usize,
}

impl ServerConfig {
    /// A test-profile config with sane defaults.
    pub fn test_default(model: TransformerConfig) -> Self {
        Self {
            model,
            profile: Profile::Test,
            weight_seed: 7,
            seed: 40,
            max_workers: 4,
            pool: 2,
            max_queries_per_session: 10_000,
            shape: None,
            shed: ShedPolicy::QueueUnbounded,
            suspend_dir: None,
            idle_timeout: Duration::from_secs(30),
            plane_cache: 4,
        }
    }
}

/// Chainable constructor for [`Server`] — the v4 serving API.
///
/// ```no_run
/// # use primer_serve::{Server, ShedPolicy};
/// # use primer_nn::TransformerConfig;
/// let server = Server::builder(TransformerConfig::test_tiny())
///     .workers(4)
///     .pool(2)
///     .shed(ShedPolicy::Shed { max_waiting: 8 })
///     .suspend_dir("/var/lib/primer/suspend")
///     .bind("127.0.0.1:0")
///     .expect("bind");
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl ServerBuilder {
    fn new(model: TransformerConfig) -> Self {
        Self { config: ServerConfig::test_default(model) }
    }

    /// Builds on an existing, fully spelled-out config.
    pub fn from_config(config: ServerConfig) -> Self {
        Self { config }
    }

    /// Numeric profile (HE parameters, fixed format, OT group).
    pub fn profile(mut self, profile: Profile) -> Self {
        self.config.profile = profile;
        self
    }

    /// Seed the deterministic model weights are drawn from.
    pub fn weight_seed(mut self, seed: u64) -> Self {
        self.config.weight_seed = seed;
        self
    }

    /// Base seed for per-session server randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Concurrent session worker cap.
    pub fn workers(mut self, cap: usize) -> Self {
        self.config.max_workers = cap;
        self
    }

    /// Per-session offline pool cap.
    pub fn pool(mut self, pool: usize) -> Self {
        self.config.pool = pool;
        self
    }

    /// Upper bound on queries a single session may book.
    pub fn max_queries_per_session(mut self, cap: usize) -> Self {
        self.config.max_queries_per_session = cap;
        self
    }

    /// Traffic shaping applied to every session's channels.
    pub fn shape(mut self, shape: Option<NetworkModel>) -> Self {
        self.config.shape = shape;
        self
    }

    /// Admission control once every worker slot is taken.
    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.config.shed = shed;
        self
    }

    /// Enables session suspension, parking images under `dir`.
    pub fn suspend_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config.suspend_dir = Some(dir.into());
        self
    }

    /// Pre-admission hello deadline and Setup-exchange deadline.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.config.idle_timeout = timeout;
        self
    }

    /// Prepared-plane cache bound (LRU beyond it).
    pub fn plane_cache(mut self, capacity: usize) -> Self {
        self.config.plane_cache = capacity;
        self
    }

    /// Binds a listener and prepares the shared model state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on socket/suspend-directory errors,
    /// [`ServeError::Config`] when the model cannot be packed under the
    /// profile's HE parameters.
    pub fn bind<A: ToSocketAddrs>(self, addr: A) -> Result<Server, ServeError> {
        Server::bind_config(addr, self.config)
    }
}

/// State shared by the event loop and every session worker.
struct ServerShared {
    config: ServerConfig,
    sys: SystemConfig,
    fixed: Arc<FixedTransformer>,
    /// Per-variant circuit cache (variant code → circuits); sessions of
    /// the same variant share one immutable circuit list.
    circuits: Mutex<HashMap<u8, Arc<Vec<Circuit>>>>,
    /// Bounded prepared-weights plane cache (see [`LruPlaneCache`]).
    planes: LruPlaneCache,
    registry: Registry,
    /// Worker occupancy / hello backlog, mirrored from the event loop
    /// into the observability plane each tick.
    occupancy: Arc<primer_obs::Gauge>,
    backlog: Arc<primer_obs::Gauge>,
    /// Sessions shed at admission (typed busy replies sent).
    shed: Arc<primer_obs::Counter>,
    /// Suspended sessions resumed.
    resumed: Arc<primer_obs::Counter>,
    /// Session ids. Starts above every token parked in the suspend
    /// directory, and resuming a token bumps it past that token, so a
    /// fresh session can never collide with a parked one.
    next_session_id: AtomicU64,
}

/// A bound serving instance, redesigned around a non-blocking event
/// loop in v4: pre-admission connections cost zero threads, sessions
/// are explicit state machines, and serving sessions can suspend to
/// disk and resume — in this process or after a restart.
pub struct Server {
    listener: TcpListener,
    shared: Arc<ServerShared>,
}

impl Server {
    /// Starts building a server for `model` (test-profile defaults).
    pub fn builder(model: TransformerConfig) -> ServerBuilder {
        ServerBuilder::new(model)
    }

    fn bind_config<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let sys =
            system_for(config.profile, &config.model).map_err(|e| ServeError::Config(e.to_string()))?;
        let weights = TransformerWeights::random(&config.model, &mut seeded(config.weight_seed));
        let fixed = Arc::new(FixedTransformer::quantize(&config.model, &weights, sys.pipeline));
        // Fresh session ids must stay above every parked token, or a new
        // session could overwrite (or be confused with) a parked one.
        let mut first_id = 0u64;
        if let Some(dir) = &config.suspend_dir {
            std::fs::create_dir_all(dir)?;
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if let Some(token) = entry.file_name().to_str().and_then(parse_file_name) {
                    first_id = first_id.max(token + 1);
                }
            }
        }
        let registry = Registry::default();
        let occupancy = registry.obs().gauge("workers.active");
        let backlog = registry.obs().gauge("workers.backlog");
        let shed = registry.obs().counter("serve.shed");
        let resumed = registry.obs().counter("serve.resumed");
        let planes = LruPlaneCache::new(config.plane_cache);
        Ok(Self {
            listener,
            shared: Arc::new(ServerShared {
                config,
                sys,
                fixed,
                circuits: Mutex::new(HashMap::new()),
                planes,
                registry,
                occupancy,
                backlog,
                shed,
                resumed,
                next_session_id: AtomicU64::new(first_id),
            }),
        })
    }

    /// The bound address (use with port 0 to serve on an OS-picked
    /// port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the event loop until exactly `n` sessions have **concluded**
    /// (completed or failed — a suspended session has not concluded, and
    /// neither have shed hellos or `/stats` polls), then returns the
    /// aggregated stats. Worker panics fail their session (logged to
    /// stderr), not the server.
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot be switched to non-blocking mode.
    pub fn serve_sessions(self, n: usize) -> ServerStats {
        self.listener.set_nonblocking(true).expect("listener into non-blocking mode");
        let mut ev = EventLoop::new(&self.shared);
        while !(ev.concluded >= n && ev.workers.is_empty()) {
            let progress = ev.tick(&self.listener, Some(n));
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(ev);
        drop(self.listener);
        Arc::try_unwrap(self.shared)
            .map(|s| s.registry.into_stats())
            .unwrap_or_else(|shared| shared.registry.snapshot())
    }

    /// Serves forever.
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot be switched to non-blocking mode.
    pub fn run_forever(self) -> io::Result<()> {
        self.listener.set_nonblocking(true).expect("listener into non-blocking mode");
        let mut ev = EventLoop::new(&self.shared);
        loop {
            let progress = ev.tick(&self.listener, None);
            if !progress {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// The non-blocking poll loop over every pre-admission connection.
struct EventLoop<'a> {
    shared: &'a Arc<ServerShared>,
    /// Accepted, hello not yet decoded. Subject to the hello deadline.
    fresh: Vec<NbConn>,
    /// Reply queued (stats answer, reject, busy); flush then close.
    closing: Vec<NbConn>,
    /// Hello decoded, waiting for a worker slot (FIFO). Exempt from the
    /// hello deadline — a correct client blocks silently here.
    waiting: VecDeque<(NbConn, ClientHello)>,
    /// Admitted sessions: worker threads to reap.
    workers: Vec<(u64, JoinHandle<Result<SessionOutcome, ServeError>>)>,
    /// Sessions that concluded (completed or failed).
    concluded: usize,
}

impl<'a> EventLoop<'a> {
    fn new(shared: &'a Arc<ServerShared>) -> Self {
        Self {
            shared,
            fresh: Vec::new(),
            closing: Vec::new(),
            waiting: VecDeque::new(),
            workers: Vec::new(),
            concluded: 0,
        }
    }

    /// One pass over every readiness source. Returns whether anything
    /// happened (callers sleep briefly when idle).
    fn tick(&mut self, listener: &TcpListener, budget: Option<usize>) -> bool {
        let mut progress = false;
        progress |= self.accept_ready(listener);
        progress |= self.poll_fresh();
        progress |= self.poll_waiting();
        progress |= self.admit_ready(budget);
        progress |= self.reap_finished();
        progress |= self.flush_closing();
        self.shared.occupancy.set(self.workers.len() as i64);
        self.shared.backlog.set(self.waiting.len() as i64);
        progress
    }

    fn accept_ready(&mut self, listener: &TcpListener) -> bool {
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => match NbConn::new(stream) {
                    Ok(nb) => {
                        self.fresh.push(nb);
                        progress = true;
                    }
                    Err(e) => eprintln!("accepted socket unusable: {e}"),
                },
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
        progress
    }

    /// Polls connections still waiting for their first control frame.
    fn poll_fresh(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.fresh.len() {
            match self.fresh[i].poll_frame() {
                // EOF or corrupt framing before any frame: drop
                // silently — port probes and vanished peers are not
                // session attempts.
                Err(_) => {
                    self.fresh.swap_remove(i);
                    progress = true;
                }
                Ok(None) => {
                    if self.fresh[i].opened().elapsed() > self.shared.config.idle_timeout {
                        self.fresh.swap_remove(i);
                        progress = true;
                    } else {
                        i += 1;
                    }
                }
                Ok(Some((channel, frame))) => {
                    let nb = self.fresh.swap_remove(i);
                    self.classify(nb, channel, &frame);
                    progress = true;
                }
            }
        }
        progress
    }

    /// Routes a connection's first control frame: stats poll, session
    /// hello, or garbage.
    fn classify(&mut self, mut nb: NbConn, channel: u8, frame: &[u8]) {
        if channel as usize != CH_CONTROL {
            // The first frame must be control-channel; anything else is
            // not this protocol.
            return;
        }
        if crate::proto::is_stats_frame(frame) {
            let reply = match StatsRequest::decode(frame) {
                Ok(_) => stats_snapshot(
                    self.shared,
                    self.workers.len() as u64,
                    self.waiting.len() as u64,
                )
                .encode(),
                Err(e) => StatsSnapshot::encode_reject(&e.to_string()),
            };
            nb.queue_frame(CH_CONTROL as u8, &reply);
            self.closing.push(nb);
            return;
        }
        match ClientHello::decode(frame) {
            Err(e) => {
                // A malformed hello is a failed session attempt — it
                // consumes a session conclusion exactly as it always
                // did, so bounded runs terminate the same way.
                eprintln!("session hello rejected: {e}");
                nb.queue_frame(CH_CONTROL as u8, &ServerWelcome::encode_reject(&e.to_string()));
                self.closing.push(nb);
                self.concluded += 1;
            }
            Ok(hello) => {
                let cap = self.shared.config.max_workers.max(1);
                let shed_now = self.workers.len() >= cap
                    && match self.shared.config.shed {
                        ShedPolicy::QueueUnbounded => false,
                        ShedPolicy::Shed { max_waiting } => self.waiting.len() >= max_waiting,
                    };
                if shed_now {
                    self.shared.shed.inc();
                    nb.queue_frame(
                        CH_CONTROL as u8,
                        &ServerWelcome::encode_busy(self.workers.len() as u64, cap as u64),
                    );
                    self.closing.push(nb);
                } else {
                    self.waiting.push_back((nb, hello));
                }
            }
        }
    }

    /// Drops waiters whose client vanished (or spoke out of turn — a
    /// correct client sends nothing until the welcome).
    fn poll_waiting(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.waiting.len() {
            match self.waiting[i].0.poll_frame() {
                Ok(None) => i += 1,
                _ => {
                    self.waiting.remove(i);
                    progress = true;
                }
            }
        }
        progress
    }

    /// Admits queued hellos while worker slots are free.
    fn admit_ready(&mut self, budget: Option<usize>) -> bool {
        let cap = self.shared.config.max_workers.max(1);
        let mut progress = false;
        while self.workers.len() < cap {
            let Some((nb, hello)) = self.waiting.pop_front() else { break };
            progress = true;
            // A met budget stops admissions — the run is winding down.
            if budget.is_some_and(|n| self.concluded >= n) {
                continue;
            }
            if let Err(e) = self.admit(nb, hello) {
                eprintln!("admission failed: {e}");
                self.concluded += 1;
            }
        }
        progress
    }

    /// Switches one admitted connection back to blocking mode and
    /// spawns its session worker.
    fn admit(&mut self, nb: NbConn, hello: ClientHello) -> io::Result<()> {
        let (stream, leftover) = nb.into_blocking()?;
        let conn = TcpConnection::from_stream_with_preface(stream, false, leftover)?;
        let id = match hello.resume {
            Some(token) => {
                self.shared.next_session_id.fetch_max(token + 1, Ordering::Relaxed);
                token
            }
            None => self.shared.next_session_id.fetch_add(1, Ordering::Relaxed),
        };
        let shared = Arc::clone(self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("session-worker-{id}"))
            .spawn(move || session_worker(&shared, conn, hello, id))
            .expect("spawn session worker");
        self.workers.push((id, handle));
        Ok(())
    }

    /// Joins finished workers and accounts their conclusions.
    fn reap_finished(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.workers.len() {
            if !self.workers[i].1.is_finished() {
                i += 1;
                continue;
            }
            let (id, handle) = self.workers.swap_remove(i);
            progress = true;
            match handle.join() {
                Ok(Ok(SessionOutcome::Completed)) => self.concluded += 1,
                // A suspended session has not concluded: it parked, and
                // its remaining queries belong to a future resume.
                Ok(Ok(SessionOutcome::Suspended)) => {}
                Ok(Err(e)) => {
                    eprintln!("session {id} failed: {e}");
                    self.concluded += 1;
                }
                Err(_) => {
                    eprintln!("session {id} worker panicked");
                    self.concluded += 1;
                }
            }
        }
        progress
    }

    /// Drains queued replies; a fully flushed closing connection drops
    /// (which closes it).
    fn flush_closing(&mut self) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.closing.len() {
            match self.closing[i].flush() {
                Ok(false) => i += 1,
                Ok(true) | Err(_) => {
                    self.closing.swap_remove(i);
                    progress = true;
                }
            }
        }
        progress
    }
}

/// Assembles the live `/stats` answer from the shared state: event-loop
/// occupancy, plane cache, churn counters, the live session table,
/// cumulative HE op counts, per-phase latency percentiles and
/// per-channel traffic.
fn stats_snapshot(shared: &ServerShared, active: u64, backlog: u64) -> StatsSnapshot {
    let live = shared.registry.live_sessions();
    let he = live.iter().fold(OpCounts::default(), |acc, s| acc.plus(&s.he_counts()));
    let obs = shared.registry.obs().snapshot();
    let prepared = shared.registry.prepared_snapshot();
    let mut b = StatsSnapshot::builder()
        .workers(active, shared.config.max_workers.max(1) as u64, backlog)
        .planes(
            prepared.built,
            prepared.reused,
            prepared.evictions,
            prepared.resident_mask_bytes,
            prepared.build_ms,
        )
        .churn(shared.shed.get(), shared.registry.suspended_now(), shared.resumed.get());
    for s in &live {
        b = b.session(s.stat());
    }
    for (name, v) in he.as_named() {
        if v != 0 {
            b = b.he_op(name, v);
        }
    }
    for p in ["setup", "offline", "online"] {
        if let Some(h) = obs.histogram(&format!("phase.{p}.ns")) {
            b = b.phase(
                p,
                PhaseStat {
                    count: h.count,
                    sum_ns: h.sum,
                    min_ns: h.min,
                    max_ns: h.max,
                    p50_ns: h.p50,
                    p95_ns: h.p95,
                    p99_ns: h.p99,
                },
            );
        }
    }
    let mut channels: BTreeMap<&'static str, TrafficSnapshot> = BTreeMap::new();
    for s in &live {
        for (name, snap) in s.channel_traffic() {
            let acc = channels.entry(name).or_default();
            *acc = acc.plus(&snap);
        }
    }
    for (name, t) in channels {
        b = b.channel(name, t);
    }
    b.build()
}

/// A session's three transport endpoints.
struct SessionChannels {
    online_t: Box<dyn MeteredTransport + Send>,
    offline_t: Box<dyn MeteredTransport + Send>,
    control: Box<dyn MeteredTransport + Send>,
}

/// Fetches (building if needed) the circuits and prepared plane for a
/// variant, accounting cache hits, misses and LRU evictions.
fn circuits_and_plane(
    shared: &ServerShared,
    variant: ProtocolVariant,
) -> (Arc<Vec<Circuit>>, Arc<ModelPlane>) {
    let key = crate::proto::variant_code(variant);
    let circuits = {
        let mut cache = shared.circuits.lock().expect("circuit cache mutex poisoned");
        Arc::clone(cache.entry(key).or_insert_with(|| {
            Arc::new(build_session_circuits(&shared.sys, variant, &shared.fixed))
        }))
    };
    let (cell, evicted) = shared.planes.touch(key);
    for plane in evicted {
        shared.registry.record_plane_evicted(plane.mask_bytes());
    }
    let mut built = false;
    let plane = cell.get_or_init(|| {
        let started = std::time::Instant::now();
        let plane = Arc::new(ModelPlane::build(&shared.sys, variant, &shared.fixed));
        shared.registry.record_plane_built(plane.mask_bytes(), started.elapsed().as_millis() as u64);
        built = true;
        plane
    });
    if !built {
        shared.registry.record_plane_reused();
    }
    (circuits, Arc::clone(plane))
}

/// Running totals a serving loop accumulates (and a resumed session
/// restores from its suspend header).
struct ServeProgress {
    phases: PhaseTotals,
    traffic: TrafficSnapshot,
    served: u64,
    booked: u64,
}

/// Everything the mid-session suspend path needs to validate and write
/// an image.
struct SuspendCtx {
    garbled: bool,
    fingerprint: String,
    pool: u32,
}

/// One admitted session, end to end. Returns how it ended; every error
/// is a typed [`ServeError`] carrying the session id.
fn session_worker(
    shared: &ServerShared,
    mut conn: TcpConnection,
    hello: ClientHello,
    id: u64,
) -> Result<SessionOutcome, ServeError> {
    let peer = conn.peer_addr();
    let shaper = shared.config.shape.map(primer_net::LinkShaper::new);
    let channels = SessionChannels {
        online_t: maybe_shaped(conn.take_channel(CH_ONLINE), shaper.as_ref()),
        offline_t: maybe_shaped(conn.take_channel(CH_OFFLINE), shaper.as_ref()),
        control: maybe_shaped(conn.take_channel(CH_CONTROL), shaper.as_ref()),
    };
    match hello.resume {
        None => fresh_session(shared, &conn, channels, &hello, peer, id),
        Some(token) => resume_session(shared, &conn, channels, &hello, peer, token),
    }
}

/// The fresh-session path: welcome, Setup (under the idle deadline —
/// the whole key exchange, not just the hello), pipelined offline
/// production, and the suspendable serving loop.
fn fresh_session(
    shared: &ServerShared,
    conn: &TcpConnection,
    channels: SessionChannels,
    hello: &ClientHello,
    peer: std::net::SocketAddr,
    id: u64,
) -> Result<SessionOutcome, ServeError> {
    let SessionChannels { online_t, offline_t, control } = channels;
    if hello.queries as usize > shared.config.max_queries_per_session {
        let reason = format!(
            "session booked {} queries, server caps at {}",
            hello.queries, shared.config.max_queries_per_session
        );
        control.send(&ServerWelcome::encode_reject(&reason));
        return Err(ServeError::Protocol { session: id, detail: reason });
    }
    // The hello's pool is a request; the server's configured bound caps
    // it (bundle memory is the server's commitment, not the client's
    // choice). The *negotiated* value is announced in the welcome: the
    // parallel producers batch bundle production by it, which shapes the
    // wire schedule, so both parties must run the identical pool.
    let pool = (hello.pool as usize).clamp(1, shared.config.pool.max(1));
    control.send(
        &ServerWelcome {
            session_id: id,
            profile: shared.config.profile,
            weight_seed: shared.config.weight_seed,
            pool: pool as u32,
            model: shared.config.model.clone(),
        }
        .encode(),
    );

    // From here the session is visible to `/stats`: its live entry
    // carries shared handles (state, channel meters, pool watch, HE
    // counters) a poll reads without touching this worker.
    let live = shared.registry.open_session(id, hello.variant, hello.queries as u64);
    live.watch_channel("online", Arc::clone(online_t.meter()));
    live.watch_channel("offline", Arc::clone(offline_t.meter()));
    live.watch_channel("control", Arc::clone(control.meter()));
    let result = run_fresh(
        shared,
        &live,
        SessionChannels { online_t, offline_t, control },
        conn,
        hello,
        pool,
        peer,
        id,
    );
    match &result {
        Ok(SessionOutcome::Completed) => live.set_state(SessionState::Completed),
        Ok(SessionOutcome::Suspended) => {} // state already stamped
        Err(_) => live.set_state(SessionState::Failed),
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn run_fresh(
    shared: &ServerShared,
    live: &LiveSession,
    channels: SessionChannels,
    conn: &TcpConnection,
    hello: &ClientHello,
    pool: usize,
    peer: std::net::SocketAddr,
    id: u64,
) -> Result<SessionOutcome, ServeError> {
    let SessionChannels { online_t, offline_t, control } = channels;
    let obs = shared.registry.obs();
    let (circuits, plane) = circuits_and_plane(shared, hello.variant);

    // Per-session server randomness: a distinct stream per session id.
    let session_seed = shared.config.seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let queries = hello.queries as usize;
    live.set_state(SessionState::Setup);
    // The idle deadline covers the whole Setup exchange — pre-v4 only
    // the hello read was guarded, so a client that sent its hello and
    // then stalled mid-key-flight pinned the worker forever.
    conn.set_read_timeout(Some(shared.config.idle_timeout))?;
    let session = ServerSession::setup_with_plane(
        shared.sys.clone(),
        hello.variant,
        hello.mode,
        circuits,
        plane,
        session_seed,
        queries,
        pool,
        &*online_t,
    )
    // A malformed (or timed-out) key flight is a protocol failure from
    // this peer — fail the session cleanly, never panic.
    .map_err(|e| ServeError::Protocol { session: id, detail: e.to_string() })?;
    conn.set_read_timeout(None)?;
    let (producer, online) = session.into_pipelined(pool);
    let setup_cost = online.setup_cost();
    setup_cost.publish(obs, "setup");
    // HE counter handles are grabbed before the producer moves into its
    // thread; the cells are shared, so `/stats` totals keep tracking
    // both evaluators while the session runs.
    live.watch_he(producer.he_counters());
    live.watch_he(online.he_counters());
    live.watch_pool(online.pool_watch());

    // The offline producer pipelines bundle production on its own
    // channel while the serving loop overlaps online queries. It
    // returns a `Result`: a malformed offline flight closes the pool
    // (so the serving loop fails loudly) and surfaces at join.
    let producer_handle = std::thread::Builder::new()
        .name(format!("offline-producer-{id}"))
        .spawn(move || producer.run(&*offline_t))
        .expect("spawn offline producer");
    live.set_state(SessionState::Offline);

    let mut progress = ServeProgress {
        phases: PhaseTotals { setup: setup_cost, ..Default::default() },
        traffic: TrafficSnapshot::default(),
        served: 0,
        booked: queries as u64,
    };
    let ctx = SuspendCtx {
        garbled: matches!(hello.mode, GcMode::Garbled),
        fingerprint: primer_core::costmodel::layout::fingerprint(&shared.sys, hello.variant),
        pool: pool as u32,
    };
    let end = serve_queries(
        shared,
        live,
        id,
        online,
        Some(producer_handle),
        &*online_t,
        &*control,
        &mut progress,
        &ctx,
    )?;
    if matches!(end, SessionOutcome::Completed) {
        conclude(shared, live, id, peer, hello.variant, ctx.garbled, &progress, &*control);
    }
    Ok(end)
}

/// The resume path: validate the parked image against the hello and the
/// server's current config, consume the file, and serve the remaining
/// queries (themselves re-suspendable).
fn resume_session(
    shared: &ServerShared,
    _conn: &TcpConnection,
    channels: SessionChannels,
    hello: &ClientHello,
    peer: std::net::SocketAddr,
    token: u64,
) -> Result<SessionOutcome, ServeError> {
    let SessionChannels { online_t, offline_t, control } = channels;
    drop(offline_t); // no offline phase on resume — production completed before parking
    let fail = |control: &dyn MeteredTransport, reason: String| {
        control.send(&ServerWelcome::encode_reject(&reason));
        Err(ServeError::Suspend { session: token, detail: reason })
    };
    let Some(dir) = shared.config.suspend_dir.clone() else {
        return fail(&*control, "server has no suspend directory".into());
    };
    let path = dir.join(file_name(token));
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(_) => return fail(&*control, format!("unknown resume token {token}")),
    };
    let (header, image_bytes) = match decode_file(&bytes) {
        Ok(parsed) => parsed,
        Err(e) => return fail(&*control, format!("corrupt suspend image: {e}")),
    };
    let remaining = header.booked - header.served;
    let fingerprint = primer_core::costmodel::layout::fingerprint(&shared.sys, header.variant);
    let mismatch = if header.session_id != token {
        Some("token does not match the image")
    } else if header.model != shared.config.model
        || header.profile != shared.config.profile
        || header.weight_seed != shared.config.weight_seed
    {
        Some("server model/profile changed since suspension")
    } else if header.fingerprint != fingerprint {
        Some("layout plan changed since suspension")
    } else if hello.variant != header.variant {
        Some("hello variant does not match the suspended session")
    } else if !matches!(hello.mode, GcMode::Simulated) {
        Some("suspended sessions are always simulated-mode")
    } else if u64::from(hello.queries) != remaining {
        Some("hello must book exactly the remaining queries")
    } else {
        None
    };
    if let Some(reason) = mismatch {
        return fail(&*control, reason.into());
    }
    let image = match ServerSuspendImage::from_bytes(&shared.sys.he, &image_bytes) {
        Ok(img) => img,
        Err(e) => return fail(&*control, format!("corrupt suspend image: {e}")),
    };
    if image.remaining() as u64 != remaining {
        return fail(&*control, "image bundle count disagrees with its header".into());
    }
    // Consume-once: the image holds one-time mask material, so it must
    // never serve twice. Delete *before* serving — a crash mid-resume
    // loses the session rather than ever replaying masks.
    std::fs::remove_file(&path)
        .map_err(|e| ServeError::Suspend { session: token, detail: e.to_string() })?;

    control.send(
        &ServerWelcome {
            session_id: token,
            profile: shared.config.profile,
            weight_seed: shared.config.weight_seed,
            pool: header.pool,
            model: shared.config.model.clone(),
        }
        .encode(),
    );

    // Same-process resumes reuse the suspended live entry (so `/stats`
    // shows one line per session and the suspended gauge drops);
    // post-restart resumes create it fresh.
    let live = shared.registry.reopen_session(token, header.variant, header.booked);
    live.restore_progress(header.served);
    live.watch_channel("online", Arc::clone(online_t.meter()));
    live.watch_channel("control", Arc::clone(control.meter()));
    shared.resumed.inc();

    let (circuits, plane) = circuits_and_plane(shared, header.variant);
    let mut online = image
        .into_online(shared.sys.clone(), circuits, plane)
        .map_err(|e| ServeError::Suspend { session: token, detail: e.to_string() })?;
    // The image's traffic mark belongs to the old connection; this one
    // meters from zero.
    online.reset_wire_mark();
    live.watch_he(online.he_counters());
    live.watch_pool(online.pool_watch());
    live.set_state(SessionState::Serving);

    let mut progress = ServeProgress {
        // The restored setup cost rides in the image; do not re-publish
        // setup observability on resume (no setup work happened).
        phases: PhaseTotals {
            setup: online.setup_cost(),
            offline: header.offline,
            online: header.online,
        },
        traffic: header.traffic,
        served: header.served,
        booked: header.booked,
    };
    let ctx = SuspendCtx { garbled: false, fingerprint: header.fingerprint.clone(), pool: header.pool };
    let result = serve_queries(
        shared,
        &live,
        token,
        online,
        None,
        &*online_t,
        &*control,
        &mut progress,
        &ctx,
    );
    match &result {
        Ok(SessionOutcome::Completed) => {
            conclude(shared, &live, token, peer, header.variant, false, &progress, &*control);
            live.set_state(SessionState::Completed);
        }
        Ok(SessionOutcome::Suspended) => {}
        Err(_) => live.set_state(SessionState::Failed),
    }
    result
}

/// The suspendable serving loop: overlaps online queries with the
/// offline producer, and between queries polls the control channel for
/// a suspend request. Returns how the session ended.
#[allow(clippy::too_many_arguments)]
fn serve_queries(
    shared: &ServerShared,
    live: &LiveSession,
    id: u64,
    online: ServerOnline,
    producer: Option<JoinHandle<Result<(), HeError>>>,
    online_t: &dyn MeteredTransport,
    control: &dyn MeteredTransport,
    progress: &mut ServeProgress,
    ctx: &SuspendCtx,
) -> Result<SessionOutcome, ServeError> {
    let obs = shared.registry.obs();
    let mut online = online;
    let mut producer = producer;
    while progress.served < progress.booked {
        match control.try_recv() {
            PollRecv::Frame(frame) => {
                if !crate::proto::is_suspend_frame(&frame) || SuspendRequest::decode(&frame).is_err()
                {
                    return Err(ServeError::Protocol {
                        session: id,
                        detail: "unexpected control frame mid-session".into(),
                    });
                }
                let refusal = if ctx.garbled {
                    Some("garbled sessions cannot suspend (one-time labels are not serializable)")
                } else if shared.config.suspend_dir.is_none() {
                    Some("server has no suspend directory")
                } else {
                    None
                };
                if let Some(reason) = refusal {
                    control.send(&SuspendReply::Refused(reason.into()).encode());
                    continue;
                }
                // Ack FIRST: the client blocks on this reply before it
                // starts draining its own pipeline, and the drain below
                // needs both producers running lockstep — ack-after-
                // drain would deadlock.
                let remaining = progress.booked - progress.served;
                control.send(&SuspendReply::Ack { token: id, remaining }.encode());
                let outcome = suspend_to_disk(shared, live, id, online, producer, progress, ctx)?;
                // The client waits for this after its own drain: once it
                // sees Parked, the image is durably on disk and a resume
                // — even against a restarted server — cannot race the
                // park.
                control.send(&SuspendReply::Parked.encode());
                return Ok(outcome);
            }
            PollRecv::Disconnected => {
                return Err(ServeError::Protocol {
                    session: id,
                    detail: "client disconnected mid-session".into(),
                });
            }
            PollRecv::Empty | PollRecv::Unsupported => {
                // Serve only once the client's next online flight has
                // started arriving; otherwise `serve_one`'s blocking
                // recv would make suspend requests wait a full query.
                if online_t.pending() == Some(0) {
                    std::thread::sleep(Duration::from_micros(300));
                    continue;
                }
                live.set_state(SessionState::Serving);
                let round = online
                    .serve_one(online_t)
                    .map_err(|e| ServeError::Protocol { session: id, detail: e.to_string() })?;
                progress.traffic = progress.traffic.plus(&round.traffic);
                let totals = round.steps.phase_totals();
                totals.offline.publish(obs, "offline");
                totals.online.publish(obs, "online");
                progress.phases.offline.merge(&totals.offline);
                progress.phases.online.merge(&totals.online);
                live.query_done();
                progress.served += 1;
            }
        }
    }
    join_producer(&mut producer, id)?;
    Ok(SessionOutcome::Completed)
}

/// Drains the session (the producer completes every booked bundle in
/// the normal lockstep schedule, mirrored by the client) and parks the
/// image atomically (temp file + rename) in the suspend directory.
fn suspend_to_disk(
    shared: &ServerShared,
    live: &LiveSession,
    id: u64,
    online: ServerOnline,
    mut producer: Option<JoinHandle<Result<(), HeError>>>,
    progress: &ServeProgress,
    ctx: &SuspendCtx,
) -> Result<SessionOutcome, ServeError> {
    let image = online
        .suspend()
        .map_err(|e| ServeError::Suspend { session: id, detail: e.to_string() })?;
    join_producer(&mut producer, id)?;
    let header = SuspendHeader {
        session_id: id,
        profile: shared.config.profile,
        weight_seed: shared.config.weight_seed,
        model: shared.config.model.clone(),
        fingerprint: ctx.fingerprint.clone(),
        variant: live.variant,
        pool: ctx.pool,
        booked: progress.booked,
        served: progress.served,
        offline: progress.phases.offline,
        online: progress.phases.online,
        traffic: progress.traffic,
    };
    let bytes = encode_file(&header, &image.to_bytes());
    let dir = shared.config.suspend_dir.as_ref().expect("checked before acking");
    let suspend_io = |e: io::Error| ServeError::Suspend { session: id, detail: e.to_string() };
    std::fs::create_dir_all(dir).map_err(suspend_io)?;
    let tmp = dir.join(format!(".{}.tmp", file_name(id)));
    std::fs::write(&tmp, &bytes).map_err(suspend_io)?;
    std::fs::rename(&tmp, dir.join(file_name(id))).map_err(suspend_io)?;
    live.set_state(SessionState::Suspended);
    Ok(SessionOutcome::Suspended)
}

fn join_producer(
    producer: &mut Option<JoinHandle<Result<(), HeError>>>,
    id: u64,
) -> Result<(), ServeError> {
    if let Some(handle) = producer.take() {
        handle
            .join()
            .map_err(|_| ServeError::ProducerPanic { session: id })?
            .map_err(|e| ServeError::Protocol { session: id, detail: e.to_string() })?;
    }
    Ok(())
}

/// Sends the end-of-session summary and files the registry record.
#[allow(clippy::too_many_arguments)]
fn conclude(
    shared: &ServerShared,
    live: &LiveSession,
    id: u64,
    peer: std::net::SocketAddr,
    variant: ProtocolVariant,
    garbled: bool,
    progress: &ServeProgress,
    control: &dyn MeteredTransport,
) {
    let _ = live;
    let threads = rayon::current_num_threads();
    control.send(
        &SessionSummary {
            session_id: id,
            queries: progress.booked,
            threads: threads as u64,
            setup: phase_summary(&progress.phases.setup),
            offline: phase_summary(&progress.phases.offline),
            online: phase_summary(&progress.phases.online),
            traffic: progress.traffic,
        }
        .encode(),
    );
    shared.registry.record(SessionRecord {
        id,
        peer,
        variant,
        garbled,
        queries: progress.booked as usize,
        threads,
        phases: progress.phases,
        traffic: progress.traffic,
    });
}
