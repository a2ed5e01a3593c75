//! # `primer_obs` — the workspace observability plane
//!
//! Hand-rolled (the build container has no crates.io access — same
//! vendoring discipline as `vendor/`), dependency-free, and shared by
//! every layer that wants to be observable:
//!
//! * [`metrics`] — a lock-light named [`Registry`] of atomic
//!   [`Counter`]s, [`Gauge`]s and fixed log-bucket [`Histogram`]s with
//!   p50/p95/p99 snapshots. The serving stack owns one registry per
//!   server and derives its live `/stats` snapshot from it; the
//!   engine-side `OpCounts`/`PhaseCost` carriers publish into it at
//!   phase boundaries (DESIGN.md §13).
//! * [`trace`] — hierarchical [`span!`] tracing with a JSONL sink
//!   behind `PRIMER_TRACE=<path>`, near-zero cost when disabled, and a
//!   determinism contract: tracing never touches protocol state, so
//!   wire bytes and logits are bit-identical with tracing on or off.

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, RegistrySnapshot,
};
pub use trace::{event, set_sink, validate_jsonl, Span};
