//! Concurrency determinism: N concurrent TCP clients running **mixed
//! variants** must each receive predictions bit-identical to a
//! sequential in-process `Engine` on the same queries, and each
//! concurrent session's metered traffic must match a single-client
//! baseline of the same shape.

mod common;

use common::{reference_engine, start_server};
use primer_core::{GcMode, ProtocolVariant};
use primer_nn::TransformerConfig;
use primer_serve::{ClientBuilder, RunOutcome};

#[test]
fn four_concurrent_mixed_variant_clients_match_sequential_engine() {
    let model = TransformerConfig::test_tiny();
    let queries_a = vec![vec![3usize, 17, 0, 29], vec![5usize, 5, 30, 1]];
    let queries_b = vec![vec![9usize, 2, 31, 12], vec![1usize, 2, 3, 4]];
    // Mixed variants, two of them sharing F so their traffic can also be
    // cross-checked against each other.
    let plan: Vec<(ProtocolVariant, Vec<Vec<usize>>)> = vec![
        (ProtocolVariant::F, queries_a.clone()),
        (ProtocolVariant::Fp, queries_b.clone()),
        (ProtocolVariant::Fpc, queries_a.clone()),
        (ProtocolVariant::F, queries_a.clone()),
    ];

    // 4 concurrent sessions + 1 later baseline session = 5.
    let (addr, server) = start_server(model.clone(), 5, 4, 2);
    let handles: Vec<_> = plan
        .iter()
        .cloned()
        .map(|(variant, queries)| {
            std::thread::spawn(move || -> RunOutcome {
                ClientBuilder::new(variant).run(addr, &queries).expect("client run")
            })
        })
        .collect();
    let outcomes: Vec<RunOutcome> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();

    // Single-client baseline: same variant/queries as the two F
    // sessions, with the server otherwise idle.
    let baseline =
        ClientBuilder::new(ProtocolVariant::F).run(addr, &queries_a).expect("baseline run");
    let stats = server.join().expect("server thread");

    // Bit-identical to the sequential in-process engine, per client.
    // One reference session per distinct (variant, queries) pair; the
    // engine guarantees serve() == per-query run() (session_reuse.rs).
    type RefKey<'a> = (ProtocolVariant, &'a [Vec<usize>]);
    let mut references: Vec<(RefKey, Vec<Vec<i64>>)> = Vec::new();
    for (variant, queries) in &plan {
        let key = (*variant, queries.as_slice());
        if references.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let engine = reference_engine(&model, *variant, GcMode::Simulated);
        let reports = engine.serve(queries, queries.len());
        for (i, r) in reports.iter().enumerate() {
            assert!(r.matches_plaintext_reference(), "{}: reference {i}", variant.name());
        }
        references.push((key, reports.into_iter().map(|r| r.logits).collect()));
    }
    for ((variant, queries), outcome) in plan.iter().zip(&outcomes) {
        let key = (*variant, queries.as_slice());
        let want = &references.iter().find(|(k, _)| *k == key).expect("reference computed").1;
        for (i, logits) in want.iter().enumerate() {
            assert_eq!(
                &outcome.predictions[i].logits,
                logits,
                "{}: concurrent client diverged on query {i}",
                variant.name()
            );
        }
    }

    // Prepared-weights plane sharing: five sessions over three distinct
    // variants must have built exactly three planes — every other
    // session (the second concurrent F and the baseline F) reused a
    // cached one rather than re-encoding the masks.
    assert_eq!(stats.prepared().built, 3, "one plane per distinct variant");
    assert_eq!(stats.prepared().reused, 2, "same-variant sessions must share");
    assert!(stats.prepared().resident_mask_bytes > 0);

    // Per-session traffic attribution survives concurrency: both
    // concurrent F sessions metered exactly what the solo baseline
    // session metered — and the registry agrees with the clients.
    assert_eq!(stats.sessions().len(), 5);
    assert_eq!(stats.total_queries(), 10);
    assert_eq!(stats.sessions_for(ProtocolVariant::F), 3);
    for f_outcome in [&outcomes[0], &outcomes[3]] {
        assert_eq!(
            f_outcome.summary.traffic,
            baseline.summary.traffic,
            "concurrent F session traffic != single-client baseline"
        );
        assert_eq!(f_outcome.summary.setup.bytes, baseline.summary.setup.bytes);
        assert_eq!(
            f_outcome.client_traffic.total_bytes(),
            baseline.client_traffic.total_bytes()
        );
    }
    // Different variants really do put different bytes on the wire
    // (the attribution is per-session, not an average).
    assert_ne!(outcomes[0].summary.traffic, outcomes[1].summary.traffic);
    for rec in stats.sessions() {
        let outcome = outcomes
            .iter()
            .map(|o| (o.session_id, o.summary.traffic))
            .chain(std::iter::once((baseline.session_id, baseline.summary.traffic)))
            .find(|(id, _)| *id == rec.id)
            .expect("registry session matches a client");
        assert_eq!(rec.traffic, outcome.1, "registry vs client for session {}", rec.id);
    }
}

/// The worker cap serializes excess sessions instead of refusing them:
/// 3 sessions through a 1-worker server all succeed and stay exact.
#[test]
fn worker_cap_queues_sessions_without_losing_any() {
    let model = TransformerConfig::test_tiny();
    let tokens = vec![4usize, 9, 23, 7];
    let (addr, server) = start_server(model.clone(), 3, 1, 1);
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let tokens = tokens.clone();
            std::thread::spawn(move || {
                ClientBuilder::new(ProtocolVariant::Fpc)
                    .run(addr, &[tokens])
                    .expect("client run")
            })
        })
        .collect();
    let outcomes: Vec<RunOutcome> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions().len(), 3);
    // One variant, three sessions: one plane encoded, two shared.
    assert_eq!((stats.prepared().built, stats.prepared().reused), (1, 2));

    let want = reference_engine(&model, ProtocolVariant::Fpc, GcMode::Simulated).run(&tokens);
    for outcome in &outcomes {
        assert_eq!(outcome.predictions[0].logits, want.logits);
    }
    // All three sessions are the same shape: identical traffic.
    assert_eq!(outcomes[0].summary.traffic, outcomes[1].summary.traffic);
    assert_eq!(outcomes[1].summary.traffic, outcomes[2].summary.traffic);
}
