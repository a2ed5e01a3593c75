//! End-to-end serving over loopback TCP must be **bit-identical** to
//! the in-process `MemTransport` engine path — for every protocol
//! variant, and in real-garbling mode — with per-session traffic
//! attribution intact.

mod common;

use common::{reference_engine, start_server};
use primer_core::{GcMode, ProtocolVariant};
use primer_nn::TransformerConfig;
use primer_serve::ClientBuilder;

/// The acceptance bar: for all four Table II variants, a TCP client's
/// reconstructed logits equal the in-process engine's bit for bit, and
/// the client/server meters agree on the session's traffic.
#[test]
fn loopback_serving_is_bit_identical_for_all_variants() {
    let model = TransformerConfig::test_tiny();
    let tokens = vec![3usize, 17, 0, 29];
    for variant in ProtocolVariant::all() {
        let (addr, server) = start_server(model.clone(), 1, 1, 2);
        let outcome = ClientBuilder::new(variant)
            .run(addr, std::slice::from_ref(&tokens))
            .expect("client run");
        let stats = server.join().expect("server thread");

        let reference = reference_engine(&model, variant, GcMode::Simulated).run(&tokens);
        assert!(reference.matches_plaintext_reference(), "{}: reference", variant.name());
        assert_eq!(
            outcome.predictions[0].logits,
            reference.logits,
            "{}: TCP logits != MemTransport logits",
            variant.name()
        );
        assert_eq!(outcome.predictions[0].predicted, reference.predicted);

        // Traffic attribution: the server's summary (setup + per-query
        // phases) accounts for every byte the client metered on the
        // online + offline channels — nothing escapes the phase deltas.
        let summary = outcome.summary;
        assert_eq!(summary.queries, 1);
        assert!(summary.offline.bytes > 0 || variant == ProtocolVariant::Base);
        assert!(summary.online.bytes > 0);
        assert!(summary.setup.bytes > 0, "setup carries the Galois-key flight");
        assert_eq!(
            outcome.client_traffic.total_bytes(),
            summary.traffic.total_bytes() + summary.setup.bytes,
            "{}: client meter disagrees with server attribution",
            variant.name()
        );

        // The registry recorded the session with the same numbers.
        assert_eq!(stats.sessions().len(), 1);
        let rec = &stats.sessions()[0];
        assert_eq!(rec.variant, variant);
        assert_eq!(rec.queries, 1);
        assert_eq!(rec.traffic.total_bytes(), summary.traffic.total_bytes());
    }
}

/// Real garbling + OT over TCP: same bit-exactness bar as
/// `tests/garbled_mode.rs` runs in-process. Two queries through a pool
/// of one make two refills, so the session's OT state crosses into both
/// pipelined producers and the second refill takes a second extension
/// window over the same base OTs.
#[test]
fn loopback_serving_with_real_garbling_matches_engine() {
    let model = TransformerConfig::test_tiny();
    let queries = vec![vec![9usize, 2, 31, 12], vec![4usize, 9, 23, 7]];
    let (addr, server) = start_server(model.clone(), 1, 1, 1);
    let outcome = ClientBuilder::new(ProtocolVariant::Fpc)
        .mode(GcMode::Garbled)
        .run(addr, &queries)
        .expect("client run");
    server.join().expect("server thread");

    let reference =
        reference_engine(&model, ProtocolVariant::Fpc, GcMode::Garbled).serve(&queries);
    for (i, (got, want)) in outcome.predictions.iter().zip(&reference).enumerate() {
        assert!(want.matches_plaintext_reference(), "reference query {i}");
        assert_eq!(got.logits, want.logits, "query {i} diverged over TCP");
    }
    assert_eq!(outcome.summary.queries, 2);
}

/// A multi-query session exercises the pipelined offline producer: the
/// server clamps the session's pool to its configured bound of 1, so
/// its producer alternates strictly between producing ahead and being
/// blocked on the online consumer — and every query must still be
/// exact.
#[test]
fn multi_query_session_pipelines_and_stays_exact() {
    let model = TransformerConfig::test_tiny();
    let queries =
        vec![vec![4usize, 9, 23, 7], vec![31usize, 30, 29, 28], vec![7usize, 7, 7, 7]];
    let (addr, server) = start_server(model.clone(), 1, 1, 1);
    let outcome =
        ClientBuilder::new(ProtocolVariant::Fp).run(addr, &queries).expect("client run");
    server.join().expect("server thread");

    let engine = reference_engine(&model, ProtocolVariant::Fp, GcMode::Simulated);
    let reference = engine.serve(&queries);
    for (i, (got, want)) in outcome.predictions.iter().zip(&reference).enumerate() {
        assert!(want.matches_plaintext_reference(), "reference query {i}");
        assert_eq!(got.logits, want.logits, "query {i} diverged over TCP");
    }
    assert_eq!(outcome.summary.queries, 3);
    // Distinct inputs through one session produce distinct logits.
    assert_ne!(outcome.predictions[0].logits, outcome.predictions[1].logits);
}

/// A client whose queries do not fit the negotiated model fails cleanly
/// client-side (no bytes of a broken session hit the engine).
#[test]
fn mismatched_query_shape_is_rejected_client_side() {
    let model = TransformerConfig::test_tiny();
    let (addr, server) = start_server(model, 1, 1, 1);
    let err = ClientBuilder::new(ProtocolVariant::F)
        .run(addr, &[vec![1usize, 2]])
        .expect_err("wrong token count must fail");
    assert!(matches!(err, primer_serve::ClientError::Config(_)), "{err}");
    // The server session fails too (its worker sees the dead peer);
    // the server must survive and report zero completed sessions.
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions().len(), 0);
}
