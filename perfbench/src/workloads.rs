//! The four workloads: each a closed loop of one client party and one
//! server party (one thread each, `PRIMER_THREADS=1`), every query's
//! logits checked bit for bit against the plaintext fixed-point model.
//!
//! A run is time-boxed: whole rounds — refill the offline pool, then
//! drain it query by query — repeat until the run's seconds are spent,
//! so per-query byte and flight counts come out exact whatever the
//! number of rounds. The seed picks the token ids and the session
//! randomness; timing is data-independent by construction, so another
//! seed has to give the same numbers. The model weights are fixed: the GC
//! step circuits fold the LayerNorm constants at build time, so another
//! model is another AND-gate count and other wire bytes — a different
//! program under test, not a different input.

use crate::report::{median, tail_or_max, RunResult, END_TO_END};
use crate::spans::{Clock, PartyTrace, Span, TimedTransport, NO_QUERY};
use primer_core::{
    build_session_circuits, ClientSession, GcMode, ProtocolVariant, ServeRound, ServerSession,
    SystemConfig,
};
use primer_math::rng::{derive, seeded};
use primer_net::{MemTransport, MeteredTransport, NetworkModel, TrafficSnapshot};
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use primer_serve::{ClientBuilder, ServerBuilder, ServerConfig, SessionSummary};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// How a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ClientSession` / `ServerSession` over `MemTransport`, refill and
    /// drain in lockstep with barriers at the phase edges.
    Mem { variant: ProtocolVariant, mode: GcMode, pool: usize, warmup_rounds: usize },
    /// `primer_serve` over loopback TCP, both endpoints shaped to the
    /// paper's LAN; one session of `pool` queries per round.
    TcpLan { pool: usize },
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark (`why` of `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fpc_sim_mem",
        why: "Headline: Fpc, simulated GC, in-memory, pool 4, ~50 queries per 12 s run. Tokens-first packing + CHGS; rotations, key-switch and the simulated-GC padding copy dominate.",
        kind: Kind::Mem {
            variant: ProtocolVariant::Fpc,
            mode: GcMode::Simulated,
            pool: 4,
            warmup_rounds: 1,
        },
    },
    Workload {
        name: "f_sim_mem",
        why: "Same harness, variant F (~36 queries per run): feature-based packing, ~20x the NTTs offline. Bypasses tokens-first packing and CHGS, so a change to those must not move it.",
        kind: Kind::Mem {
            variant: ProtocolVariant::F,
            mode: GcMode::Simulated,
            pool: 4,
            warmup_rounds: 1,
        },
    },
    Workload {
        name: "fpc_garbled_mem",
        why: "Fpc with real half-gates garbling + IKNP OT, pool 1, one ~19 s query per run: the gc layer used the other way (2369 flights/query vs 47). AES, garble and OT kernels show only here.",
        kind: Kind::Mem {
            variant: ProtocolVariant::Fpc,
            mode: GcMode::Garbled,
            pool: 1,
            warmup_rounds: 0,
        },
    },
    Workload {
        name: "fpc_sim_tcp_lan",
        why: "The paper's setting: primer_serve over loopback TCP shaped to 2.3 ms / 100 MB/s, 2 sessions x 2 queries per run. Link-bound: bytes and flights decide it; the only path through serve and net::tcp.",
        kind: Kind::TcpLan { pool: 2 },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long and how often a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Measured rounds start while less than this has elapsed.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// `--quick`: one round of at most two queries, no warm-up.
    pub quick: bool,
}

impl Limits {
    pub fn full(seconds: f64) -> Self {
        Self { seconds, setups: 5, quick: false }
    }

    pub fn quick() -> Self {
        Self { seconds: 0.0, setups: 1, quick: true }
    }
}

/// Seed of the served model's weights (see the module docs for why the
/// run's seed does not reach it).
pub const WEIGHT_SEED: u64 = 4007;

/// Everything the seed decides.
#[derive(Debug)]
pub struct Inputs {
    pub session_seed: u64,
    tokens: StdRng,
    n_tokens: usize,
    vocab: usize,
}

impl Inputs {
    pub fn new(seed: u64, model: &TransformerConfig) -> Self {
        Self {
            session_seed: derive(seed, "session").gen(),
            tokens: derive(seed, "tokens"),
            n_tokens: model.n_tokens,
            vocab: model.vocab,
        }
    }

    /// The next query's token ids.
    pub fn next_tokens(&mut self) -> Vec<usize> {
        (0..self.n_tokens).map(|_| self.tokens.gen_range(0..self.vocab)).collect()
    }
}

/// The model every workload serves.
pub fn model() -> (TransformerConfig, SystemConfig, Arc<FixedTransformer>) {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("test-tiny fits the test profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(WEIGHT_SEED));
    let fixed = Arc::new(FixedTransformer::quantize(&cfg, &weights, sys.pipeline));
    (cfg, sys, fixed)
}

/// The plaintext fixed-point reference a variant must reproduce.
pub fn reference_logits(
    fixed: &FixedTransformer,
    variant: ProtocolVariant,
    tokens: &[usize],
) -> Vec<i64> {
    if variant.combined() {
        fixed.logits_combined(tokens)
    } else {
        fixed.logits(tokens)
    }
}

/// What one run of a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Client wall of each `infer`, milliseconds.
    pub online_ms: Vec<f64>,
    /// Offline wall per bundle, one sample per refill (TCP: per session,
    /// as the server reports it), milliseconds.
    pub offline_ms_per_query: Vec<f64>,
    /// Wall of the measured rounds, set-up excluded, seconds.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Traffic of the measured rounds, offline + online.
    pub traffic: TrafficSnapshot,
    /// The server's per-query ledger (in-memory workloads only).
    pub rounds: Vec<ServeRound>,
    /// Server-reported phase sums (TCP workload only).
    pub summaries: Vec<SessionSummary>,
    /// Empty unless the run was traced.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn query_wall_ms(&self) -> f64 {
        self.wall_s * 1e3 / self.attempted as f64
    }

    /// The run's result line with every end-to-end metric.
    pub fn end_to_end(&self) -> RunResult {
        let q = self.attempted as f64;
        let values = [
            median(&self.setup_s),
            median(&self.online_ms),
            tail_or_max(&self.online_ms),
            median(&self.offline_ms_per_query),
            self.query_wall_ms(),
            self.traffic.total_bytes() as f64 / q,
            self.traffic.total_messages() as f64 / q,
            peak_rss_mb(),
        ];
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            samples: format!(
                "setup={} online={} refills={} queries={}",
                self.setup_s.len(),
                self.online_ms.len(),
                self.offline_ms_per_query.len(),
                self.attempted
            ),
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(m, v)| (m.name.to_string(), v, m.unit.to_string()))
                .collect(),
        }
    }
}

/// `VmHWM` of this process, in MB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload once.
pub fn run(w: &Workload, seed: u64, limits: Limits, traced: bool) -> Outcome {
    match w.kind {
        Kind::Mem { variant, mode, pool, warmup_rounds } => {
            run_mem(variant, mode, pool, warmup_rounds, seed, limits, traced)
        }
        Kind::TcpLan { pool } => run_tcp_lan(pool, seed, limits, traced),
    }
}

/// Sessions are set up for more queries than any run reaches; the loop
/// refills explicitly, so the total only has to stay out of the way.
const SESSION_QUERIES: usize = 1 << 20;

/// One party's way into its session: straight through the transport, or
/// — traced — under a span and through the timing decorator.
struct Party<'a> {
    wire: &'a MemTransport,
    trace: Option<&'a PartyTrace>,
}

impl Party<'_> {
    fn call<R>(&self, name: &'static str, f: impl FnOnce(&dyn MeteredTransport) -> R) -> R {
        match self.trace {
            None => f(self.wire),
            Some(trace) => {
                let _span = trace.enter(name);
                f(&TimedTransport::new(self.wire, trace))
            }
        }
    }

    fn set_query(&self, query: u32) {
        if let Some(trace) = self.trace {
            trace.set_query(query);
        }
    }
}

fn run_mem(
    variant: ProtocolVariant,
    mode: GcMode,
    pool: usize,
    warmup_rounds: usize,
    seed: u64,
    limits: Limits,
    traced: bool,
) -> Outcome {
    let pool = if limits.quick { pool.min(2) } else { pool };
    let warmup_rounds = if limits.quick { 0 } else { warmup_rounds };
    let mut inputs = Inputs::new(seed, &TransformerConfig::test_tiny());
    let (_, sys, fixed) = model();

    let clock = Clock::start();
    let client_trace = traced.then(|| PartyTrace::new(&clock, "client", None));
    let root = client_trace.as_ref().map(|t| t.enter("workload"));
    let server_trace =
        traced.then(|| PartyTrace::new(&clock, "server", root.as_ref().map(|r| r.id())));

    // Set-up, barrier to barrier: circuits build, then both parties'
    // Setup side by side. The last pair is the one the loop runs on.
    let mut out = Outcome::default();
    let mut kept = None;
    for _ in 0..limits.setups {
        let (ct, st, meter) = MemTransport::pair();
        let client = Party { wire: &ct, trace: client_trace.as_ref() };
        let server = Party { wire: &st, trace: server_trace.as_ref() };
        let t0 = Instant::now();
        let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
        let sessions = std::thread::scope(|s| {
            let server_setup = s.spawn(|| {
                server.call("session.setup", |t| {
                    ServerSession::setup(
                        sys.clone(),
                        variant,
                        mode,
                        Arc::clone(&fixed),
                        Arc::clone(&circuits),
                        inputs.session_seed,
                        SESSION_QUERIES,
                        pool,
                        t,
                    )
                })
            });
            let c = client.call("session.setup", |t| {
                ClientSession::setup(
                    sys.clone(),
                    variant,
                    mode,
                    Arc::clone(&fixed),
                    Arc::clone(&circuits),
                    inputs.session_seed,
                    SESSION_QUERIES,
                    pool,
                    t,
                )
            });
            let server_session = server_setup
                .join()
                .expect("server set-up thread")
                .expect("in-process key transfer cannot be malformed");
            (c, server_session)
        });
        out.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some((sessions, ct, st, meter));
    }
    let ((mut client_session, mut server_session), ct, st, meter) =
        kept.expect("at least one set-up");

    let barrier = Barrier::new(2);
    let stop = AtomicBool::new(false);
    let mut answers: Vec<(Vec<usize>, Vec<i64>)> = Vec::new();
    let mut started: Option<(Instant, TrafficSnapshot)> = None;

    let all_rounds = std::thread::scope(|s| {
        let server_loop = s.spawn(|| {
            let server = Party { wire: &st, trace: server_trace.as_ref() };
            let mut rounds = Vec::new();
            let mut query = 0u32;
            loop {
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    return rounds;
                }
                server.set_query(NO_QUERY);
                server
                    .call("session.refill", |t| server_session.refill(t, pool))
                    .expect("in-process flight cannot be malformed");
                barrier.wait();
                for _ in 0..pool {
                    barrier.wait();
                    server.set_query(query);
                    query += 1;
                    let round = server
                        .call("session.serve_one", |t| server_session.serve_one(t))
                        .expect("in-process flight cannot be malformed");
                    rounds.push(round);
                    barrier.wait();
                }
            }
        });

        let client = Party { wire: &ct, trace: client_trace.as_ref() };
        let mut query = 0u32;
        for round in 0.. {
            let measured = round >= warmup_rounds;
            if measured && started.is_none() {
                started = Some((Instant::now(), TrafficSnapshot::capture(&meter)));
            }
            // A round starts while seconds remain; at least one always runs.
            let done = started.is_some_and(|(t0, _)| {
                round > warmup_rounds
                    && (limits.quick || t0.elapsed().as_secs_f64() >= limits.seconds)
            });
            stop.store(done, Ordering::SeqCst);
            barrier.wait();
            if done {
                break;
            }
            client.set_query(NO_QUERY);
            let t0 = Instant::now();
            client
                .call("session.refill", |t| client_session.refill(t, pool))
                .expect("in-process flight cannot be malformed");
            barrier.wait();
            if measured {
                out.offline_ms_per_query.push(t0.elapsed().as_secs_f64() * 1e3 / pool as f64);
            }
            for _ in 0..pool {
                let tokens = inputs.next_tokens();
                barrier.wait();
                client.set_query(query);
                query += 1;
                let t0 = Instant::now();
                let logits = client
                    .call("session.infer", |t| client_session.infer(&tokens, t))
                    .expect("in-process flight cannot be malformed");
                let online_ms = t0.elapsed().as_secs_f64() * 1e3;
                barrier.wait();
                if measured {
                    out.online_ms.push(online_ms);
                    answers.push((tokens, logits));
                }
            }
        }
        server_loop.join().expect("server thread")
    });

    let (t0, traffic0) = started.expect("one measured round");
    out.wall_s = t0.elapsed().as_secs_f64();
    out.traffic = TrafficSnapshot::capture(&meter).since(&traffic0);
    out.attempted = answers.len() as u64;
    out.failed = answers
        .iter()
        .filter(|(tokens, logits)| *logits != reference_logits(&fixed, variant, tokens))
        .count() as u64;
    out.rounds = all_rounds.into_iter().skip(warmup_rounds * pool).collect();
    drop(root);
    for trace in [client_trace, server_trace].into_iter().flatten() {
        out.spans.extend(trace.into_spans());
    }
    out
}

/// The TCP workload: each round binds a fresh server, opens one session
/// of `pool` queries against it (the set-up sample: handshake, model
/// rebuild from the announced weight seed, circuits, key generation and
/// the key flight over the shaped link, cold plane build on the server),
/// runs the queries and collects the server's summary.
fn run_tcp_lan(pool: usize, seed: u64, limits: Limits, traced: bool) -> Outcome {
    let variant = ProtocolVariant::Fpc;
    let mut inputs = Inputs::new(seed, &TransformerConfig::test_tiny());
    let (cfg, _, fixed) = model();
    let lan = NetworkModel::paper_lan();

    let clock = Clock::start();
    let trace = traced.then(|| PartyTrace::new(&clock, "client", None));
    let root = trace.as_ref().map(|t| t.enter("workload"));
    let span = |name: &'static str| trace.as_ref().map(|t| t.enter(name));

    let mut out = Outcome::default();
    let mut query = 0u32;
    let t_start = Instant::now();
    for round in 0u64.. {
        if round > 0 && (limits.quick || t_start.elapsed().as_secs_f64() >= limits.seconds) {
            break;
        }
        let mut config = ServerConfig::test_default(cfg.clone());
        config.weight_seed = WEIGHT_SEED;
        config.seed = inputs.session_seed ^ round;
        config.max_workers = 1;
        config.pool = pool;
        config.shape = Some(lan);
        let server = ServerBuilder::from_config(config).bind("127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("bound address");
        let server = std::thread::spawn(move || server.serve_sessions(1));

        let session = (|| {
            if let Some(t) = &trace {
                t.set_query(NO_QUERY);
            }
            let t0 = Instant::now();
            let mut handle = {
                let _span = span("session.setup");
                ClientBuilder::new(variant)
                    .pool(pool)
                    .seed(inputs.session_seed.wrapping_add(round))
                    .shape(Some(lan))
                    .open(addr, pool)?
            };
            let setup = t0.elapsed();
            out.setup_s.push(setup.as_secs_f64());
            let mut answers = Vec::with_capacity(pool);
            for _ in 0..pool {
                let tokens = inputs.next_tokens();
                if let Some(t) = &trace {
                    t.set_query(query);
                }
                query += 1;
                let t0 = Instant::now();
                let prediction = {
                    let _span = span("session.infer");
                    handle.infer(&tokens)?
                };
                out.online_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                answers.push((tokens, prediction.logits));
            }
            let outcome = {
                let _span = span("session.finish");
                handle.finish()?
            };
            Ok::<_, primer_serve::ClientError>((t0.elapsed() - setup, answers, outcome))
        })();
        let stats = server.join().expect("server thread");
        out.attempted += pool as u64;
        match session {
            Ok((wall, answers, outcome)) => {
                out.wall_s += wall.as_secs_f64();
                out.failed += answers
                    .iter()
                    .filter(|(tokens, logits)| *logits != reference_logits(&fixed, variant, tokens))
                    .count() as u64;
                let s = outcome.summary;
                out.offline_ms_per_query.push(s.offline.compute_ns as f64 / 1e6 / s.queries as f64);
                // What the client's meters saw, less the one set-up
                // flight (the Galois keys), is the per-query traffic.
                let setup_flight = TrafficSnapshot {
                    c2s_bytes: s.setup.bytes,
                    c2s_messages: s.setup.messages,
                    ..Default::default()
                };
                out.traffic = out.traffic.plus(&outcome.client_traffic.since(&setup_flight));
                out.summaries.push(s);
            }
            Err(e) => {
                eprintln!(
                    "session {round} failed: {e} (server concluded {})",
                    stats.sessions().len()
                );
                out.failed += pool as u64;
                break;
            }
        }
    }
    drop(root);
    if let Some(t) = trace {
        out.spans = t.into_spans();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_every_input() {
        let model = TransformerConfig::test_tiny();
        let draw = |seed: u64| {
            let mut inputs = Inputs::new(seed, &model);
            let tokens: Vec<Vec<usize>> = (0..8).map(|_| inputs.next_tokens()).collect();
            (inputs.session_seed, tokens)
        };
        assert_eq!(draw(7), draw(7));
        let (a, b) = (draw(7), draw(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
        for tokens in &a.1 {
            assert_eq!(tokens.len(), model.n_tokens);
            assert!(tokens.iter().all(|&t| t < model.vocab));
        }
    }

    #[test]
    fn workload_names_are_unique_and_short() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
