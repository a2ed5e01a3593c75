//! The Primer private-transformer protocols — the paper's contribution.
//!
//! * [`packing`] — feature-based vs tokens-first ciphertext packing with
//!   exact encrypted matmul (Fig. 6),
//! * [`hgs`] — offline/online split for ciphertext–plaintext products
//!   (Fig. 4),
//! * [`fhgs`] — Beaver-style ciphertext–ciphertext products with
//!   additive-only HE (Fig. 5),
//! * [`chgs`] — the combined embed+QKV module (Fig. 3d),
//! * [`gcmod`] — garbled non-polynomial steps, bit-exact against
//!   `primer_nn::FixedTransformer`,
//! * [`session`] — the session-structured client/server inference engine
//!   for the Base / F / FP / FPC variants, with explicit Setup / Offline
//!   / Online phases, pooled offline bundles and a batched serving API,
//! * [`costmodel`] — analytic extrapolation to paper-scale latencies
//!   (Tables I–III, Fig. 2) plus the THE-X and GCFormer baselines,
//! * [`system`], [`stats`], [`wire`] — configuration, Table II + phase
//!   accounting, and the one byte codec (flights, suspend images,
//!   control frames).
//!
//! The repository-level integration tests assert the headline invariant:
//! for every protocol variant, the private inference output equals the
//! plaintext fixed-point reference **bit for bit**.

pub mod chgs;
pub mod costmodel;
pub mod fhgs;
pub mod gcmod;
pub mod hgs;
pub mod packing;
pub mod session;
pub mod stats;
pub mod system;
pub mod wire;

pub use costmodel::{gcformer_latency, thex_latency, CostModel, GcGateModel, OpCosts};
pub use gcmod::{GcMode, GcStepKind};
pub use packing::{matmul_counts, MatmulCounts, MatmulWeights, Packing, PreparedMatmul};
pub use session::{
    build_session_circuits, ClientOnline, ClientProducer, ClientSession, Engine, ModelPlane,
    OfflinePool, PoolWatch, ProtocolVariant, ServeRound, ServerOnline, ServerProducer,
    ServerSession, ServerSuspendImage, SuspendError, SuspendedClientSession,
    SUSPEND_FORMAT_VERSION,
};
pub use stats::{
    argmax_logits, InferenceReport, PhaseCost, PhaseTotals, StepBreakdown, StepCategory,
};
pub use system::{ConfigError, OtGroupKind, SystemConfig};
