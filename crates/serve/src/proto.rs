//! The serving handshake and stats frames (control-channel protocol).
//!
//! All frames ride the control channel ([`crate::CH_CONTROL`]) so the
//! online channel's meter sees exactly the traffic the session engine
//! attributes (setup + per-query online), nothing else.
//!
//! Sequence, client speaks first:
//!
//! 1. client → server: [`ClientHello`] — protocol version, requested
//!    variant, GC mode, query count and offline pool bound.
//! 2. server → client: [`ServerWelcome`] — assigned session id, the
//!    **negotiated offline pool** (both parties batch their offline
//!    production by it, which shapes the wire schedule), plus the
//!    served model's full configuration, numeric profile and weight
//!    seed, so the client can reconstruct the identical quantized model
//!    (the GC step circuits embed LayerNorm constants, which the client
//!    garbles). A version/config problem yields a reject frame instead.
//! 3. (the two-party session runs: Setup + queries on the online
//!    channel, offline bundle production on the offline channel.)
//! 4. server → client: [`SessionSummary`] — the server's per-session
//!    phase totals and traffic attribution.
//!
//! Encoding is the same dependency-free little-endian style the wire
//! helpers use; strings are length-prefixed UTF-8.

use primer_core::{GcMode, ProtocolVariant};
use primer_net::TrafficSnapshot;
use primer_nn::TransformerConfig;

/// Version of the handshake + framing described above.
///
/// v2: [`ServerWelcome`] carries the negotiated offline pool (the
/// parallel producers batch bundle production by it, which shapes the
/// wire schedule — both parties must use the identical value), and
/// [`SessionSummary`] records the server's thread count.
///
/// v3: the control channel's first frame may be a [`StatsRequest`]
/// (magic `PRST`) instead of a hello — a live admin poll answered with
/// a [`StatsSnapshot`] that never consumes a session worker slot.
///
/// v4: the serving plane went event-driven. A [`ClientHello`] may
/// **resume** a suspended session (kind byte + token), the server may
/// answer a hello with a typed **busy** frame instead of queueing it
/// forever (admission control / load shedding), mid-session control
/// frames negotiate suspension ([`SuspendRequest`] / [`SuspendReply`]),
/// and the stats snapshot grows shed/suspend/eviction counters. Polls
/// at any other version, v3 included, get a typed version-mismatch
/// rejection.
pub const PROTOCOL_VERSION: u32 = 4;

/// Magic prefix of every hello frame.
pub const MAGIC: [u8; 4] = *b"PRMR";

/// Magic prefix of a stats-poll frame (discriminates the connection's
/// first control frame from a [`ClientHello`]).
pub const STATS_MAGIC: [u8; 4] = *b"PRST";

/// Magic prefix of a mid-session suspend request on the control
/// channel.
pub const SUSPEND_MAGIC: [u8; 4] = *b"PRSU";

/// Errors raised while decoding a peer's frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame shorter than its fixed layout or length prefixes claim.
    Truncated,
    /// Bad magic bytes — the peer is not speaking this protocol.
    BadMagic,
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version the peer announced.
        theirs: u32,
    },
    /// An enum code outside the known range.
    BadCode(u8),
    /// A complete frame that is not well formed: bytes left over after
    /// its last field, or a string that is not UTF-8.
    Malformed(&'static str),
    /// The server rejected the hello; the payload explains why.
    Rejected(String),
    /// The server is at capacity and shed this session (admission
    /// control) — retry later, nothing about this session was kept.
    Busy {
        /// Session workers active when the hello was shed.
        active: u64,
        /// The server's configured worker cap.
        cap: u64,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadMagic => write!(f, "bad magic (peer is not a primer endpoint)"),
            ProtoError::VersionMismatch { theirs } => {
                write!(f, "protocol version mismatch (ours {PROTOCOL_VERSION}, theirs {theirs})")
            }
            ProtoError::BadCode(c) => write!(f, "unknown enum code {c}"),
            ProtoError::Malformed(why) => write!(f, "malformed frame: {why}"),
            ProtoError::Rejected(msg) => write!(f, "server rejected session: {msg}"),
            ProtoError::Busy { active, cap } => {
                write!(f, "server busy ({active}/{cap} workers), session shed — retry later")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

// ---- primitive cursor ----------------------------------------------------

pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Decodes one whole frame with `f`. Input that `f` leaves unread is
    /// malformed, not ignored.
    pub(crate) fn decode<T>(
        bytes: &'a [u8],
        f: impl FnOnce(&mut Self) -> Result<T, ProtoError>,
    ) -> Result<T, ProtoError> {
        let mut c = Self { bytes, pos: 0 };
        let value = f(&mut c)?;
        if c.pos != c.bytes.len() {
            return Err(ProtoError::Malformed("trailing bytes"));
        }
        Ok(value)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.pos + n > self.bytes.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::Malformed("string is not UTF-8"))
    }

    /// Checks a `[magic] [version u32]` prelude written by [`put_prelude`].
    pub(crate) fn prelude(&mut self, magic: [u8; 4], version: u32) -> Result<(), ProtoError> {
        if self.take(4)? != magic {
            return Err(ProtoError::BadMagic);
        }
        match self.u32()? {
            v if v == version => Ok(()),
            theirs => Err(ProtoError::VersionMismatch { theirs }),
        }
    }

    /// Reads what [`put_model`] writes.
    pub(crate) fn model(&mut self) -> Result<TransformerConfig, ProtoError> {
        let name = self.string()?;
        let mut dims = [0usize; 7];
        for d in &mut dims {
            *d = self.u32()? as usize;
        }
        let [vocab, n_blocks, d_model, n_heads, n_tokens, d_ff, n_classes] = dims;
        Ok(TransformerConfig { name, vocab, n_blocks, d_model, n_heads, n_tokens, d_ff, n_classes })
    }

    /// Reads what [`put_traffic`] writes.
    pub(crate) fn traffic(&mut self) -> Result<TrafficSnapshot, ProtoError> {
        Ok(TrafficSnapshot {
            c2s_bytes: self.u64()?,
            s2c_bytes: self.u64()?,
            c2s_messages: self.u64()?,
            s2c_messages: self.u64()?,
        })
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// The `[magic] [version u32]` prelude of a versioned frame or file.
pub(crate) fn put_prelude(out: &mut Vec<u8>, magic: [u8; 4], version: u32) {
    out.extend_from_slice(&magic);
    put_u32(out, version);
}

/// A model as its name and seven dimensions.
pub(crate) fn put_model(out: &mut Vec<u8>, m: &TransformerConfig) {
    put_string(out, &m.name);
    for dim in [m.vocab, m.n_blocks, m.d_model, m.n_heads, m.n_tokens, m.d_ff, m.n_classes] {
        put_u32(out, dim as u32);
    }
}

/// A traffic snapshot as its four counters.
pub(crate) fn put_traffic(out: &mut Vec<u8>, t: &TrafficSnapshot) {
    for v in [t.c2s_bytes, t.s2c_bytes, t.c2s_messages, t.s2c_messages] {
        put_u64(out, v);
    }
}

// ---- enum codes ----------------------------------------------------------

pub(crate) fn variant_code(v: ProtocolVariant) -> u8 {
    match v {
        ProtocolVariant::Base => 0,
        ProtocolVariant::F => 1,
        ProtocolVariant::Fp => 2,
        ProtocolVariant::Fpc => 3,
    }
}

pub(crate) fn variant_from_code(c: u8) -> Result<ProtocolVariant, ProtoError> {
    Ok(match c {
        0 => ProtocolVariant::Base,
        1 => ProtocolVariant::F,
        2 => ProtocolVariant::Fp,
        3 => ProtocolVariant::Fpc,
        _ => return Err(ProtoError::BadCode(c)),
    })
}

pub(crate) fn mode_code(m: GcMode) -> u8 {
    match m {
        GcMode::Simulated => 0,
        GcMode::Garbled => 1,
    }
}

pub(crate) fn mode_from_code(c: u8) -> Result<GcMode, ProtoError> {
    Ok(match c {
        0 => GcMode::Simulated,
        1 => GcMode::Garbled,
        _ => return Err(ProtoError::BadCode(c)),
    })
}

/// Numeric profile negotiated for a session (which
/// [`primer_core::SystemConfig`] constructor both parties run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `SystemConfig::test_profile` (n = 2048 ring, fast tests).
    Test,
    /// `SystemConfig::paper_profile` (n = 8192, paper parameters).
    Paper,
}

pub(crate) fn profile_code(p: Profile) -> u8 {
    match p {
        Profile::Test => 0,
        Profile::Paper => 1,
    }
}

pub(crate) fn profile_from_code(c: u8) -> Result<Profile, ProtoError> {
    Ok(match c {
        0 => Profile::Test,
        1 => Profile::Paper,
        _ => return Err(ProtoError::BadCode(c)),
    })
}

// ---- frames --------------------------------------------------------------

/// The client's opening frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// Requested protocol variant (Table II row).
    pub variant: ProtocolVariant,
    /// Requested GC execution mode (must match on both sides — the two
    /// modes put different bytes on the wire).
    pub mode: GcMode,
    /// How many queries this session will run.
    pub queries: u32,
    /// Offline pool bound the client will pipeline with.
    pub pool: u32,
    /// `Some(token)` resumes a previously suspended session instead of
    /// opening a fresh one: the server reloads the session's parked
    /// image (keys + unconsumed offline bundles) from its suspend
    /// directory and serves the remaining `queries` from it. The token
    /// is the session id the suspend ack handed back.
    pub resume: Option<u64>,
}

impl ClientHello {
    /// Encodes the hello frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_prelude(&mut out, MAGIC, PROTOCOL_VERSION);
        out.push(variant_code(self.variant));
        out.push(mode_code(self.mode));
        put_u32(&mut out, self.queries);
        put_u32(&mut out, self.pool);
        match self.resume {
            None => out.push(0),
            Some(token) => {
                out.push(1);
                put_u64(&mut out, token);
            }
        }
        out
    }

    /// Decodes a hello frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, bad magic, version or code.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        Cursor::decode(bytes, |c| {
            c.prelude(MAGIC, PROTOCOL_VERSION)?;
            let variant = variant_from_code(c.u8()?)?;
            let mode = mode_from_code(c.u8()?)?;
            let queries = c.u32()?;
            let pool = c.u32()?;
            let resume = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                other => return Err(ProtoError::BadCode(other)),
            };
            Ok(Self { variant, mode, queries, pool, resume })
        })
    }
}

const STATUS_OK: u8 = 0;
const STATUS_REJECT: u8 = 1;
const STATUS_BUSY: u8 = 2;

/// The server's accept frame: everything the client needs to
/// reconstruct the identical quantized model and system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerWelcome {
    /// Server-assigned session id (stable in logs/registry).
    pub session_id: u64,
    /// Numeric profile to instantiate.
    pub profile: Profile,
    /// Seed the server's deterministic weights were drawn from.
    pub weight_seed: u64,
    /// The **negotiated** offline pool: the client's request clamped by
    /// the server's cap. Both parties batch their offline bundle
    /// production by this value, and the batch size shapes the wire
    /// schedule, so the session must run with exactly this pool on both
    /// sides.
    pub pool: u32,
    /// The served model's hyper-parameters.
    pub model: TransformerConfig,
}

impl ServerWelcome {
    /// Encodes the welcome (status-OK) frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![STATUS_OK];
        put_u64(&mut out, self.session_id);
        out.push(profile_code(self.profile));
        put_u64(&mut out, self.weight_seed);
        put_u32(&mut out, self.pool);
        put_model(&mut out, &self.model);
        out
    }

    /// Encodes a rejection with a reason.
    pub fn encode_reject(reason: &str) -> Vec<u8> {
        let mut out = vec![STATUS_REJECT];
        put_string(&mut out, reason);
        out
    }

    /// Encodes a typed busy (shed) reply: the server is at capacity and
    /// kept nothing about this session.
    pub fn encode_busy(active: u64, cap: u64) -> Vec<u8> {
        let mut out = vec![STATUS_BUSY];
        put_u64(&mut out, active);
        put_u64(&mut out, cap);
        out
    }

    /// Decodes a welcome, rejection or busy frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Rejected`] when the server declined,
    /// [`ProtoError::Busy`] when it shed the session, other
    /// [`ProtoError`]s on malformed frames.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        // The inner result is the server's answer; the outer one is
        // whether the frame carrying it was well formed.
        Cursor::decode(bytes, |c| {
            Ok(match c.u8()? {
                STATUS_OK => Ok(Self {
                    session_id: c.u64()?,
                    profile: profile_from_code(c.u8()?)?,
                    weight_seed: c.u64()?,
                    pool: c.u32()?,
                    model: c.model()?,
                }),
                STATUS_REJECT => Err(ProtoError::Rejected(c.string()?)),
                STATUS_BUSY => Err(ProtoError::Busy { active: c.u64()?, cap: c.u64()? }),
                other => return Err(ProtoError::BadCode(other)),
            })
        })?
    }
}

/// One phase's cost as the summary frame carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Server-side compute nanoseconds.
    pub compute_ns: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Message flights.
    pub messages: u64,
}

/// The server's end-of-session stats frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Session id (matches the welcome).
    pub session_id: u64,
    /// Queries served.
    pub queries: u64,
    /// Thread-pool size the server ran this session with
    /// (`PRIMER_THREADS` / `--threads`) — serving numbers are not
    /// interpretable without it.
    pub threads: u64,
    /// One-time session setup.
    pub setup: PhaseSummary,
    /// Sum of per-query offline phases.
    pub offline: PhaseSummary,
    /// Sum of per-query online phases.
    pub online: PhaseSummary,
    /// Total per-query traffic (offline + online, both directions).
    pub traffic: TrafficSnapshot,
}

fn put_phase(out: &mut Vec<u8>, p: &PhaseSummary) {
    put_u64(out, p.compute_ns);
    put_u64(out, p.bytes);
    put_u64(out, p.messages);
}

fn get_phase(c: &mut Cursor<'_>) -> Result<PhaseSummary, ProtoError> {
    Ok(PhaseSummary { compute_ns: c.u64()?, bytes: c.u64()?, messages: c.u64()? })
}

impl SessionSummary {
    /// Encodes the summary frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.session_id);
        put_u64(&mut out, self.queries);
        put_u64(&mut out, self.threads);
        for p in [&self.setup, &self.offline, &self.online] {
            put_phase(&mut out, p);
        }
        put_traffic(&mut out, &self.traffic);
        out
    }

    /// Decodes a summary frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed frames.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        Cursor::decode(bytes, |c| {
            Ok(Self {
                session_id: c.u64()?,
                queries: c.u64()?,
                threads: c.u64()?,
                setup: get_phase(c)?,
                offline: get_phase(c)?,
                online: get_phase(c)?,
                traffic: c.traffic()?,
            })
        })
    }
}

// ---- suspend / resume ----------------------------------------------------

/// Whether a control frame is a mid-session suspend request.
pub fn is_suspend_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == SUSPEND_MAGIC
}

/// A mid-session suspend request, sent by the client on the control
/// channel **between queries** (the only wire-consistent point). The
/// server answers with a [`SuspendReply`]; on an ack, both sides drain
/// their offline pipelines in the normal lockstep schedule and the
/// server parks the session's image on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuspendRequest;

impl SuspendRequest {
    /// Encodes the suspend-request frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_prelude(&mut out, SUSPEND_MAGIC, PROTOCOL_VERSION);
        out
    }

    /// Decodes a suspend-request frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, bad magic or version.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        Cursor::decode(bytes, |c| c.prelude(SUSPEND_MAGIC, PROTOCOL_VERSION)).map(|()| Self)
    }
}

/// The server's answer to a [`SuspendRequest`] — two frames on an
/// accepted suspension. The [`SuspendReply::Ack`] is sent **before**
/// either side drains its offline pipeline — the client blocks on it,
/// so an ack-after-drain ordering would deadlock the lockstep
/// producers. Once the image is durably on disk the server follows up
/// with [`SuspendReply::Parked`]; the client waits for it after its own
/// drain, so a returned `suspend()` implies the session is resumable
/// even against a server that crashes the next instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuspendReply {
    /// Suspension accepted; drain now. `token` resumes the session in a
    /// later hello ([`ClientHello::resume`]); `remaining` is how many
    /// booked queries are still unserved.
    Ack {
        /// Resume token (the session id).
        token: u64,
        /// Booked queries still unserved.
        remaining: u64,
    },
    /// The server cannot park this session (e.g. no suspend directory
    /// configured, or a garbled-mode session whose one-time labels
    /// cannot be serialized). The session keeps serving normally.
    Refused(String),
    /// The drain finished and the image is durably on disk; sent after
    /// the [`SuspendReply::Ack`] on the same control channel.
    Parked,
}

/// Frame-local code for [`SuspendReply::Parked`] (0 and 1 are
/// `STATUS_OK` / `STATUS_REJECT`).
const SUSPEND_PARKED: u8 = 2;

impl SuspendReply {
    /// Encodes the reply frame.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            SuspendReply::Ack { token, remaining } => {
                let mut out = vec![STATUS_OK];
                put_u64(&mut out, *token);
                put_u64(&mut out, *remaining);
                out
            }
            SuspendReply::Refused(reason) => {
                let mut out = vec![STATUS_REJECT];
                put_string(&mut out, reason);
                out
            }
            SuspendReply::Parked => vec![SUSPEND_PARKED],
        }
    }

    /// Decodes a reply frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on malformed frames.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        Cursor::decode(bytes, |c| match c.u8()? {
            STATUS_OK => Ok(SuspendReply::Ack { token: c.u64()?, remaining: c.u64()? }),
            STATUS_REJECT => Ok(SuspendReply::Refused(c.string()?)),
            SUSPEND_PARKED => Ok(SuspendReply::Parked),
            other => Err(ProtoError::BadCode(other)),
        })
    }
}

// ---- stats polling -------------------------------------------------------

/// Whether a control frame opens a stats poll (vs a session hello).
/// Only the magic is inspected; version problems surface in
/// [`StatsRequest::decode`] so the server can answer with a reasoned
/// rejection instead of dropping the connection.
pub fn is_stats_frame(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == STATS_MAGIC
}

/// A live stats poll: sent as the connection's **first** control frame
/// in place of a [`ClientHello`]. The server answers with one
/// [`StatsSnapshot`] frame and closes; the poll never acquires a
/// session worker slot and never counts toward a bounded accept run.
///
/// The poll carries the poller's protocol version; the server answers
/// only [`PROTOCOL_VERSION`] polls and rejects any other version with a
/// reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRequest {
    /// Protocol version the poller speaks.
    pub version: u32,
}

impl StatsRequest {
    /// A poll at the current protocol version.
    pub fn new() -> Self {
        Self { version: PROTOCOL_VERSION }
    }

    /// Encodes the poll frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_prelude(&mut out, STATS_MAGIC, self.version);
        out
    }

    /// Decodes a poll frame at [`PROTOCOL_VERSION`].
    ///
    /// # Errors
    ///
    /// [`ProtoError`] on truncation, bad magic or any other version.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        Cursor::decode(bytes, |c| c.prelude(STATS_MAGIC, PROTOCOL_VERSION)).map(|()| Self::new())
    }
}

impl Default for StatsRequest {
    fn default() -> Self {
        Self::new()
    }
}

/// Where one session stands, as the stats frame reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Hello decoded, welcome not yet sent.
    Handshake,
    /// Setup phase: key flight + plane wiring.
    Setup,
    /// Serving queries.
    Serving,
    /// All booked queries served, summary sent.
    Completed,
    /// Failed partway (protocol error, timeout, worker panic).
    Failed,
    /// Setup done, offline pipeline spinning up (v4; first query not
    /// yet served).
    Offline,
    /// Parked on disk between queries (v4); resumable by token.
    Suspended,
}

pub(crate) fn state_code(s: SessionState) -> u8 {
    match s {
        SessionState::Handshake => 0,
        SessionState::Setup => 1,
        SessionState::Serving => 2,
        SessionState::Completed => 3,
        SessionState::Failed => 4,
        SessionState::Offline => 5,
        SessionState::Suspended => 6,
    }
}

pub(crate) fn state_from_code(c: u8) -> Result<SessionState, ProtoError> {
    Ok(match c {
        0 => SessionState::Handshake,
        1 => SessionState::Setup,
        2 => SessionState::Serving,
        3 => SessionState::Completed,
        4 => SessionState::Failed,
        5 => SessionState::Offline,
        6 => SessionState::Suspended,
        _ => return Err(ProtoError::BadCode(c)),
    })
}

impl SessionState {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SessionState::Handshake => "handshake",
            SessionState::Setup => "setup",
            SessionState::Serving => "serving",
            SessionState::Completed => "completed",
            SessionState::Failed => "failed",
            SessionState::Offline => "offline",
            SessionState::Suspended => "suspended",
        }
    }
}

/// One session's live line in a [`StatsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStat {
    /// Server-assigned session id.
    pub id: u64,
    /// Variant the session runs.
    pub variant: ProtocolVariant,
    /// Where the session stands right now.
    pub state: SessionState,
    /// Queries already served.
    pub queries_done: u64,
    /// Queries the hello booked.
    pub queries_booked: u64,
    /// Offline bundles currently waiting in the session's shared pool
    /// (an instantaneous racy reading; 0 before the pipeline starts).
    pub pool_depth: u64,
    /// The negotiated pool bound (0 before the pipeline starts).
    pub pool_capacity: u64,
}

/// One phase-latency histogram summary (nanoseconds), carried per phase
/// name in a [`StatsSnapshot`]. Percentiles are the registry
/// histogram's log-bucket interpolations, not exact sample percentiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples, ns.
    pub sum_ns: u64,
    /// Smallest sample, ns.
    pub min_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 95th percentile, ns.
    pub p95_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
}

/// The server's answer to a [`StatsRequest`]: a consistent-enough
/// point-in-time picture of the whole serving plane. Counters are
/// cumulative since server start (completed sessions keep counting);
/// gauges and per-session lines are instantaneous.
///
/// Fields are private — construct with [`StatsSnapshot::builder`], read
/// through the getters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    workers_active: u64,
    workers_cap: u64,
    backlog: u64,
    planes_built: u64,
    planes_reused: u64,
    plane_resident_mask_bytes: u64,
    plane_build_ms: u64,
    sessions: Vec<SessionStat>,
    he_ops: Vec<(String, u64)>,
    phases: Vec<(String, PhaseStat)>,
    channels: Vec<(String, TrafficSnapshot)>,
    shed_total: u64,
    suspended: u64,
    resumed_total: u64,
    plane_evictions: u64,
}

/// Step-by-step constructor for [`StatsSnapshot`] (its fields are
/// private so the wire encoding can evolve without breaking callers).
#[derive(Debug, Default)]
pub struct StatsSnapshotBuilder {
    snap: StatsSnapshot,
}

impl StatsSnapshotBuilder {
    /// Worker gauges: slots held, the configured cap, and
    /// session-intent connections waiting for a slot.
    pub fn workers(mut self, active: u64, cap: u64, backlog: u64) -> Self {
        self.snap.workers_active = active;
        self.snap.workers_cap = cap;
        self.snap.backlog = backlog;
        self
    }

    /// Prepared-plane cache counters.
    pub fn planes(
        mut self,
        built: u64,
        reused: u64,
        evictions: u64,
        resident_mask_bytes: u64,
        build_ms: u64,
    ) -> Self {
        self.snap.planes_built = built;
        self.snap.planes_reused = reused;
        self.snap.plane_evictions = evictions;
        self.snap.plane_resident_mask_bytes = resident_mask_bytes;
        self.snap.plane_build_ms = build_ms;
        self
    }

    /// Admission/suspension counters: sessions shed at admission,
    /// sessions currently parked on disk, resumes served.
    pub fn churn(mut self, shed_total: u64, suspended: u64, resumed_total: u64) -> Self {
        self.snap.shed_total = shed_total;
        self.snap.suspended = suspended;
        self.snap.resumed_total = resumed_total;
        self
    }

    /// Appends one session line (call in id order).
    pub fn session(mut self, s: SessionStat) -> Self {
        self.snap.sessions.push(s);
        self
    }

    /// Appends one cumulative HE op counter.
    pub fn he_op(mut self, name: impl Into<String>, value: u64) -> Self {
        self.snap.he_ops.push((name.into(), value));
        self
    }

    /// Appends one phase-latency summary.
    pub fn phase(mut self, name: impl Into<String>, p: PhaseStat) -> Self {
        self.snap.phases.push((name.into(), p));
        self
    }

    /// Appends one channel traffic line.
    pub fn channel(mut self, name: impl Into<String>, t: TrafficSnapshot) -> Self {
        self.snap.channels.push((name.into(), t));
        self
    }

    /// Finishes the snapshot.
    pub fn build(self) -> StatsSnapshot {
        self.snap
    }
}

impl StatsSnapshot {
    /// Starts building a snapshot.
    pub fn builder() -> StatsSnapshotBuilder {
        StatsSnapshotBuilder::default()
    }

    /// Session workers currently holding a slot.
    pub fn workers_active(&self) -> u64 {
        self.workers_active
    }

    /// The configured worker cap.
    pub fn workers_cap(&self) -> u64 {
        self.workers_cap
    }

    /// Session-intent connections waiting for a worker slot.
    pub fn backlog(&self) -> u64 {
        self.backlog
    }

    /// Prepared planes built (cache misses).
    pub fn planes_built(&self) -> u64 {
        self.planes_built
    }

    /// Sessions served from an already-encoded plane (cache hits).
    pub fn planes_reused(&self) -> u64 {
        self.planes_reused
    }

    /// Planes dropped by LRU eviction.
    pub fn plane_evictions(&self) -> u64 {
        self.plane_evictions
    }

    /// Bytes pinned by cached planes' NTT-form masks.
    pub fn plane_resident_mask_bytes(&self) -> u64 {
        self.plane_resident_mask_bytes
    }

    /// Wall-clock spent encoding planes, milliseconds.
    pub fn plane_build_ms(&self) -> u64 {
        self.plane_build_ms
    }

    /// Sessions shed at admission (typed busy replies sent).
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// Sessions currently parked on disk.
    pub fn suspended(&self) -> u64 {
        self.suspended
    }

    /// Suspended sessions resumed since server start.
    pub fn resumed_total(&self) -> u64 {
        self.resumed_total
    }

    /// One line per session the server has seen, in id order.
    pub fn sessions(&self) -> &[SessionStat] {
        &self.sessions
    }

    /// Cumulative HE op counts across all sessions (`he.*` names; zero
    /// counts are omitted).
    pub fn he_ops(&self) -> &[(String, u64)] {
        &self.he_ops
    }

    /// Per-phase latency summaries (`setup`, `offline`, `online`).
    pub fn phases(&self) -> &[(String, PhaseStat)] {
        &self.phases
    }

    /// Per-channel traffic totals (`online`, `offline`, `control`).
    pub fn channels(&self) -> &[(String, TrafficSnapshot)] {
        &self.channels
    }

    /// Encodes the snapshot (status-OK) frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![STATUS_OK];
        for v in [
            self.workers_active,
            self.workers_cap,
            self.backlog,
            self.planes_built,
            self.planes_reused,
            self.plane_resident_mask_bytes,
            self.plane_build_ms,
        ] {
            put_u64(&mut out, v);
        }
        put_u32(&mut out, self.sessions.len() as u32);
        for s in &self.sessions {
            put_u64(&mut out, s.id);
            out.push(variant_code(s.variant));
            out.push(state_code(s.state));
            put_u64(&mut out, s.queries_done);
            put_u64(&mut out, s.queries_booked);
            put_u64(&mut out, s.pool_depth);
            put_u64(&mut out, s.pool_capacity);
        }
        put_u32(&mut out, self.he_ops.len() as u32);
        for (name, v) in &self.he_ops {
            put_string(&mut out, name);
            put_u64(&mut out, *v);
        }
        put_u32(&mut out, self.phases.len() as u32);
        for (name, p) in &self.phases {
            put_string(&mut out, name);
            for v in [p.count, p.sum_ns, p.min_ns, p.max_ns, p.p50_ns, p.p95_ns, p.p99_ns] {
                put_u64(&mut out, v);
            }
        }
        put_u32(&mut out, self.channels.len() as u32);
        for (name, t) in &self.channels {
            put_string(&mut out, name);
            put_traffic(&mut out, t);
        }
        for v in [self.shed_total, self.suspended, self.resumed_total, self.plane_evictions] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Encodes a rejection with a reason (e.g. a version-mismatched
    /// poll).
    pub fn encode_reject(reason: &str) -> Vec<u8> {
        let mut out = vec![STATUS_REJECT];
        put_string(&mut out, reason);
        out
    }

    /// Decodes a snapshot or rejection frame.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Rejected`] when the server declined the poll,
    /// other [`ProtoError`]s on malformed frames.
    pub fn decode(bytes: &[u8]) -> Result<Self, ProtoError> {
        Cursor::decode(bytes, |c| {
            Ok(match c.u8()? {
                STATUS_OK => Ok(Self::read(c)?),
                STATUS_REJECT => Err(ProtoError::Rejected(c.string()?)),
                other => return Err(ProtoError::BadCode(other)),
            })
        })?
    }

    fn read(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let workers_active = c.u64()?;
        let workers_cap = c.u64()?;
        let backlog = c.u64()?;
        let planes_built = c.u64()?;
        let planes_reused = c.u64()?;
        let plane_resident_mask_bytes = c.u64()?;
        let plane_build_ms = c.u64()?;
        let n = c.u32()? as usize;
        let mut sessions = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            sessions.push(SessionStat {
                id: c.u64()?,
                variant: variant_from_code(c.u8()?)?,
                state: state_from_code(c.u8()?)?,
                queries_done: c.u64()?,
                queries_booked: c.u64()?,
                pool_depth: c.u64()?,
                pool_capacity: c.u64()?,
            });
        }
        let n = c.u32()? as usize;
        let mut he_ops = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            he_ops.push((c.string()?, c.u64()?));
        }
        let n = c.u32()? as usize;
        let mut phases = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = c.string()?;
            phases.push((
                name,
                PhaseStat {
                    count: c.u64()?,
                    sum_ns: c.u64()?,
                    min_ns: c.u64()?,
                    max_ns: c.u64()?,
                    p50_ns: c.u64()?,
                    p95_ns: c.u64()?,
                    p99_ns: c.u64()?,
                },
            ));
        }
        let n = c.u32()? as usize;
        let mut channels = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            channels.push((c.string()?, c.traffic()?));
        }
        let (shed_total, suspended, resumed_total, plane_evictions) =
            (c.u64()?, c.u64()?, c.u64()?, c.u64()?);
        Ok(Self {
            workers_active,
            workers_cap,
            backlog,
            planes_built,
            planes_reused,
            plane_resident_mask_bytes,
            plane_build_ms,
            sessions,
            he_ops,
            phases,
            channels,
            shed_total,
            suspended,
            resumed_total,
            plane_evictions,
        })
    }

    /// Human-readable rendering (what `primer-client --stats` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workers: {}/{} active, {} backlogged",
            self.workers_active, self.workers_cap, self.backlog
        );
        let _ = writeln!(
            out,
            "prepared planes: {} built ({} ms), {} reused, {} evicted, {:.1} MiB resident masks",
            self.planes_built,
            self.plane_build_ms,
            self.planes_reused,
            self.plane_evictions,
            self.plane_resident_mask_bytes as f64 / (1024.0 * 1024.0),
        );
        let _ = writeln!(
            out,
            "admission: {} shed; suspended: {} parked, {} resumed",
            self.shed_total, self.suspended, self.resumed_total
        );
        let _ = writeln!(
            out,
            "{:>4}  {:<11} {:<10} {:>9}  {:>11}",
            "id", "variant", "state", "queries", "pool"
        );
        for s in &self.sessions {
            let _ = writeln!(
                out,
                "{:>4}  {:<11} {:<10} {:>4}/{:<4}  {:>5}/{:<5}",
                s.id,
                s.variant.name(),
                s.state.name(),
                s.queries_done,
                s.queries_booked,
                s.pool_depth,
                s.pool_capacity,
            );
        }
        for (name, p) in &self.phases {
            let _ = writeln!(
                out,
                "phase {:<8} n={:<5} p50={:.2}ms p95={:.2}ms p99={:.2}ms max={:.2}ms",
                name,
                p.count,
                p.p50_ns as f64 / 1e6,
                p.p95_ns as f64 / 1e6,
                p.p99_ns as f64 / 1e6,
                p.max_ns as f64 / 1e6,
            );
        }
        for (name, t) in &self.channels {
            let _ = writeln!(
                out,
                "channel {:<8} c2s {} B / {} msgs, s2c {} B / {} msgs",
                name, t.c2s_bytes, t.c2s_messages, t.s2c_bytes, t.s2c_messages
            );
        }
        if !self.he_ops.is_empty() {
            let ops: Vec<String> = self
                .he_ops
                .iter()
                .map(|(n, v)| format!("{}={v}", n.strip_prefix("he.").unwrap_or(n)))
                .collect();
            let _ = writeln!(out, "he ops: {}", ops.join(" "));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip() {
        let h = ClientHello {
            variant: ProtocolVariant::Fpc,
            mode: GcMode::Garbled,
            queries: 12,
            pool: 3,
            resume: None,
        };
        assert_eq!(ClientHello::decode(&h.encode()).expect("decode"), h);
        let r = ClientHello { resume: Some(41), ..h };
        assert_eq!(ClientHello::decode(&r.encode()).expect("decode"), r);
    }

    #[test]
    fn hello_rejects_bad_magic_and_version() {
        let mut bytes = ClientHello {
            variant: ProtocolVariant::F,
            mode: GcMode::Simulated,
            queries: 1,
            pool: 1,
            resume: None,
        }
        .encode();
        bytes[0] = b'X';
        assert_eq!(ClientHello::decode(&bytes), Err(ProtoError::BadMagic));
        let mut bytes2 = ClientHello {
            variant: ProtocolVariant::F,
            mode: GcMode::Simulated,
            queries: 1,
            pool: 1,
            resume: None,
        }
        .encode();
        bytes2[4] = 99;
        assert!(matches!(
            ClientHello::decode(&bytes2),
            Err(ProtoError::VersionMismatch { theirs: 99 })
        ));
    }

    #[test]
    fn busy_reply_is_typed() {
        let bytes = ServerWelcome::encode_busy(4, 4);
        assert_eq!(ServerWelcome::decode(&bytes), Err(ProtoError::Busy { active: 4, cap: 4 }));
        assert!(ProtoError::Busy { active: 4, cap: 4 }.to_string().contains("busy"));
    }

    #[test]
    fn suspend_frames_roundtrip() {
        let req = SuspendRequest.encode();
        assert!(is_suspend_frame(&req));
        assert!(!is_stats_frame(&req));
        assert_eq!(SuspendRequest::decode(&req), Ok(SuspendRequest));

        let ack = SuspendReply::Ack { token: 9, remaining: 3 };
        assert_eq!(SuspendReply::decode(&ack.encode()).expect("decode"), ack);
        let refused = SuspendReply::Refused("garbled sessions cannot park".into());
        assert_eq!(SuspendReply::decode(&refused.encode()).expect("decode"), refused);
        let parked = SuspendReply::Parked;
        assert_eq!(SuspendReply::decode(&parked.encode()).expect("decode"), parked);
    }

    #[test]
    fn welcome_roundtrip_carries_model() {
        let w = ServerWelcome {
            session_id: 7,
            profile: Profile::Test,
            weight_seed: 1234,
            pool: 3,
            model: TransformerConfig::test_small(),
        };
        let got = ServerWelcome::decode(&w.encode()).expect("decode");
        assert_eq!(got, w);
        assert_eq!(got.pool, 3);
        assert_eq!(got.model.d_ff, 4 * got.model.d_model);
    }

    #[test]
    fn reject_surfaces_reason() {
        let bytes = ServerWelcome::encode_reject("over capacity");
        assert_eq!(
            ServerWelcome::decode(&bytes),
            Err(ProtoError::Rejected("over capacity".into()))
        );
    }

    #[test]
    fn stats_request_is_discriminated_from_hello() {
        let req = StatsRequest::new().encode();
        assert!(is_stats_frame(&req));
        assert_eq!(StatsRequest::decode(&req), Ok(StatsRequest::new()));
        let hello = ClientHello {
            variant: ProtocolVariant::Fp,
            mode: GcMode::Simulated,
            queries: 1,
            pool: 1,
            resume: None,
        }
        .encode();
        assert!(!is_stats_frame(&hello));
        assert!(!is_stats_frame(b"PR"));
        // Any other version decodes to a reasoned error, so the server
        // can reject it instead of hanging up.
        let mut old = req.clone();
        old[4] = 2;
        assert!(matches!(
            StatsRequest::decode(&old),
            Err(ProtoError::VersionMismatch { theirs: 2 })
        ));
    }

    fn sample_snapshot() -> StatsSnapshot {
        StatsSnapshot::builder()
            .workers(2, 4, 1)
            .planes(1, 3, 2, 1 << 20, 17)
            .churn(5, 1, 2)
            .session(SessionStat {
                id: 0,
                variant: ProtocolVariant::Fpc,
                state: SessionState::Completed,
                queries_done: 5,
                queries_booked: 5,
                pool_depth: 0,
                pool_capacity: 2,
            })
            .session(SessionStat {
                id: 1,
                variant: ProtocolVariant::F,
                state: SessionState::Suspended,
                queries_done: 2,
                queries_booked: 8,
                pool_depth: 1,
                pool_capacity: 2,
            })
            .he_op("he.rotations", 96)
            .he_op("he.ntt", 4200)
            .phase(
                "online",
                PhaseStat {
                    count: 7,
                    sum_ns: 700,
                    min_ns: 50,
                    max_ns: 200,
                    p50_ns: 90,
                    p95_ns: 180,
                    p99_ns: 199,
                },
            )
            .channel(
                "online",
                TrafficSnapshot {
                    c2s_bytes: 10,
                    s2c_bytes: 20,
                    c2s_messages: 1,
                    s2c_messages: 2,
                },
            )
            .build()
    }

    #[test]
    fn stats_snapshot_roundtrip() {
        let snap = sample_snapshot();
        let got = StatsSnapshot::decode(&snap.encode()).expect("decode");
        assert_eq!(got, snap);
        assert_eq!(got.shed_total(), 5);
        assert_eq!(got.suspended(), 1);
        assert_eq!(got.resumed_total(), 2);
        assert_eq!(got.plane_evictions(), 2);
        let text = got.render();
        assert!(text.contains("2/4 active"));
        assert!(text.contains("suspended"));
        assert!(text.contains("5 shed"));
        assert!(text.contains("2 evicted"));
        assert!(text.contains("rotations=96"));

        // Rejections carry the reason.
        let rej = StatsSnapshot::encode_reject("old poller");
        assert_eq!(StatsSnapshot::decode(&rej), Err(ProtoError::Rejected("old poller".into())));
    }

    /// A v3 poll gets the same typed rejection as a v2 poll: the v3
    /// stats dialect is gone.
    #[test]
    fn stats_request_v3_is_a_version_mismatch() {
        let v3 = StatsRequest { version: 3 }.encode();
        assert!(is_stats_frame(&v3));
        assert_eq!(StatsRequest::decode(&v3), Err(ProtoError::VersionMismatch { theirs: 3 }));
    }

    /// The counter tail is mandatory: a frame without it (the old v3
    /// shape) is truncated, not a snapshot with zeroed counters.
    #[test]
    fn stats_snapshot_without_counter_tail_is_truncated() {
        let frame = sample_snapshot().encode();
        let untailed = &frame[..frame.len() - 32];
        assert_eq!(StatsSnapshot::decode(untailed), Err(ProtoError::Truncated));
        for cut in 1..32 {
            let partial = &frame[..frame.len() - cut];
            assert_eq!(StatsSnapshot::decode(partial), Err(ProtoError::Truncated), "cut {cut}");
        }
    }

    #[test]
    fn summary_roundtrip() {
        let s = SessionSummary {
            session_id: 3,
            queries: 5,
            threads: 4,
            setup: PhaseSummary { compute_ns: 10, bytes: 20, messages: 1 },
            offline: PhaseSummary { compute_ns: 30, bytes: 40, messages: 6 },
            online: PhaseSummary { compute_ns: 50, bytes: 60, messages: 9 },
            traffic: TrafficSnapshot {
                c2s_bytes: 100,
                s2c_bytes: 200,
                c2s_messages: 7,
                s2c_messages: 8,
            },
        };
        assert_eq!(SessionSummary::decode(&s.encode()).expect("decode"), s);
    }

    pub(crate) fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    pub(crate) fn golden_model() -> TransformerConfig {
        TransformerConfig::new("golden", 32, 1, 8, 2, 4, 3)
    }

    fn golden_hello() -> ClientHello {
        ClientHello {
            variant: ProtocolVariant::Fpc,
            mode: GcMode::Garbled,
            queries: 12,
            pool: 3,
            resume: Some(41),
        }
    }

    fn golden_welcome() -> ServerWelcome {
        ServerWelcome {
            session_id: 7,
            profile: Profile::Paper,
            weight_seed: 1234,
            pool: 3,
            model: golden_model(),
        }
    }

    fn golden_summary() -> SessionSummary {
        SessionSummary {
            session_id: 3,
            queries: 5,
            threads: 4,
            setup: PhaseSummary { compute_ns: 10, bytes: 20, messages: 1 },
            offline: PhaseSummary { compute_ns: 30, bytes: 40, messages: 6 },
            online: PhaseSummary { compute_ns: 50, bytes: 60, messages: 9 },
            traffic: TrafficSnapshot {
                c2s_bytes: 100,
                s2c_bytes: 200,
                c2s_messages: 7,
                s2c_messages: 8,
            },
        }
    }

    /// The frames' bytes, pinned: a codec refactor must not move one.
    #[test]
    fn frames_match_golden_bytes() {
        assert_eq!(
            hex(&golden_hello().encode()),
            "50524d520400000003010c00000003000000012900000000000000"
        );
        assert_eq!(
            hex(&golden_welcome().encode()),
            concat!(
                "00070000000000000001d2040000000000000300000006000000676f6c64656e2000",
                "0000010000000800000002000000040000002000000003000000",
            )
        );
        assert_eq!(
            hex(&golden_summary().encode()),
            concat!(
                "03000000000000000500000000000000040000000000000",
                "00a00000000000000140000000000000001000000000000001e0000000000000028",
                "00000000000000060000000000000032000000000000003c00000000000000090000",
                "00000000006400000000000000c8000000000000000700000000000000080000000000",
                "0000",
            )
        );
        assert_eq!(
            hex(&sample_snapshot().encode()),
            concat!(
                "0002000000000000000400000000000000010000000000000001000000000000000300",
                "0000000000000000100000000000110000000000000002000000000000000000000003",
                "0305000000000000000500000000000000000000000000000002000000000000000100",
                "0000000000000106020000000000000008000000000000000100000000000000020000",
                "0000000000020000000c00000068652e726f746174696f6e7360000000000000000600",
                "000068652e6e7474681000000000000001000000060000006f6e6c696e650700000000",
                "000000bc020000000000003200000000000000c8000000000000005a00000000000000",
                "b400000000000000c70000000000000001000000060000006f6e6c696e650a00000000",
                "0000001400000000000000010000000000000002000000000000000500000000000000",
                "010000000000000002000000000000000200000000000000",
            )
        );
        assert_eq!(hex(&SuspendRequest.encode()), "5052535504000000");
    }

    /// Every frame, in every form, refuses one byte more than it reads
    /// with a typed error rather than decoding the prefix.
    #[test]
    fn decoders_reject_trailing_bytes() {
        fn padded(mut frame: Vec<u8>) -> Vec<u8> {
            frame.push(0);
            frame
        }
        let trailing = Some(ProtoError::Malformed("trailing bytes"));
        assert_eq!(ClientHello::decode(&padded(golden_hello().encode())).err(), trailing);
        let fresh = ClientHello { resume: None, ..golden_hello() };
        assert_eq!(ClientHello::decode(&padded(fresh.encode())).err(), trailing);
        assert_eq!(ServerWelcome::decode(&padded(golden_welcome().encode())).err(), trailing);
        assert_eq!(
            ServerWelcome::decode(&padded(ServerWelcome::encode_reject("no"))).err(),
            trailing
        );
        assert_eq!(
            ServerWelcome::decode(&padded(ServerWelcome::encode_busy(1, 1))).err(),
            trailing
        );
        assert_eq!(SessionSummary::decode(&padded(golden_summary().encode())).err(), trailing);
        assert_eq!(SuspendRequest::decode(&padded(SuspendRequest.encode())).err(), trailing);
        for reply in [
            SuspendReply::Ack { token: 9, remaining: 3 },
            SuspendReply::Refused("no".into()),
            SuspendReply::Parked,
        ] {
            assert_eq!(SuspendReply::decode(&padded(reply.encode())).err(), trailing);
        }
        assert_eq!(StatsRequest::decode(&padded(StatsRequest::new().encode())).err(), trailing);
        assert_eq!(StatsSnapshot::decode(&padded(sample_snapshot().encode())).err(), trailing);
        assert_eq!(
            StatsSnapshot::decode(&padded(StatsSnapshot::encode_reject("no"))).err(),
            trailing
        );
    }

    #[test]
    fn invalid_utf8_is_malformed_not_truncated() {
        let bad_utf8 = Some(ProtoError::Malformed("string is not UTF-8"));
        let mut reject = ServerWelcome::encode_reject("ok");
        reject[5] = 0xff;
        assert_eq!(ServerWelcome::decode(&reject).err(), bad_utf8);
        let mut welcome = golden_welcome().encode();
        // status, session id, profile, weight seed, pool, name length.
        welcome[1 + 8 + 1 + 8 + 4 + 4] = 0xc3;
        assert_eq!(ServerWelcome::decode(&welcome).err(), bad_utf8);
        let mut refused = SuspendReply::Refused("ok".into()).encode();
        refused[5] = 0xff;
        assert_eq!(SuspendReply::decode(&refused).err(), bad_utf8);
    }
}
