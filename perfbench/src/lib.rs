//! The repo benchmark behind `BENCHMARK.json`: four two-party workloads
//! measured end to end ([`workloads`]), a traced run with benchmark-side
//! spans ([`spans`]) and layer probes ([`probes`]), and the result
//! format plus `compare` ([`report`]). See `README.md` in this
//! directory.

pub mod probes;
pub mod report;
pub mod spans;
pub mod workloads;
