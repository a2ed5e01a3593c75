//! Session suspend/resume over TCP: a session parked mid-batch and
//! resumed — against the same server process, or a restarted one
//! pointed at the same suspend directory — must produce logits
//! **bit-identical** to an uninterrupted run, for every protocol
//! variant.

mod common;

use common::{reference_engine, start_server_with};
use primer_core::costmodel::layout::fingerprint;
use primer_core::{GcMode, ProtocolVariant, SystemConfig};
use primer_nn::TransformerConfig;
use primer_serve::{ClientBuilder, ClientError, ProtoError};
use std::path::PathBuf;

/// A fresh per-test suspend directory under the OS temp dir.
fn suspend_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("primer-suspend-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create suspend dir");
    dir
}

/// For all four Table II variants: serve one query, suspend, resume in
/// the same server process, serve the remaining two — and every logit
/// equals the uninterrupted in-process engine's bit for bit. The parked
/// image exists on disk while suspended and is consumed at resume.
#[test]
fn suspend_resume_same_process_is_bit_identical_for_all_variants() {
    let model = TransformerConfig::test_tiny();
    let queries =
        vec![vec![3usize, 17, 0, 29], vec![5usize, 5, 30, 1], vec![9usize, 2, 31, 12]];
    for variant in ProtocolVariant::all() {
        let dir = suspend_dir(&format!("same-{}", variant.name()));
        let (addr, server) = start_server_with(model.clone(), 1, {
            let dir = dir.clone();
            move |c| c.suspend_dir = Some(dir)
        });

        let mut handle = ClientBuilder::new(variant).open(addr, 3).expect("open");
        handle.infer(&queries[0]).expect("query 0");
        let parked = handle.suspend().expect("suspend");
        assert_eq!(parked.remaining(), 2, "{}: two queries parked", variant.name());
        let image = dir.join(format!("session-{}.suspend", parked.token()));
        assert!(image.exists(), "{}: image parked at {image:?}", variant.name());

        let mut handle = parked.resume(addr).expect("resume");
        assert!(!image.exists(), "{}: image consumed at resume (one-time masks)", variant.name());
        handle.infer(&queries[1]).expect("query 1");
        handle.infer(&queries[2]).expect("query 2");
        let outcome = handle.finish().expect("finish");
        let stats = server.join().expect("server thread");

        // The suspension is invisible in the results: bit-identical to
        // the uninterrupted engine, full cumulative accounting.
        let reference = reference_engine(&model, variant, GcMode::Simulated).serve(&queries);
        for (i, want) in reference.iter().enumerate() {
            assert!(want.matches_plaintext_reference(), "{}: reference {i}", variant.name());
            assert_eq!(
                outcome.predictions[i].logits,
                want.logits,
                "{}: query {i} diverged across suspend/resume",
                variant.name()
            );
        }
        assert_eq!(outcome.summary.queries, 3, "summary covers both runs");
        assert_eq!(stats.sessions().len(), 1, "one session despite two connections");
        assert_eq!(stats.sessions()[0].queries, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The restart flow: suspend against server A, conclude A, start server
/// B on the same suspend directory, resume against B. The resumed
/// session keeps its token and its remaining logits stay bit-identical.
#[test]
fn suspend_survives_server_restart() {
    let model = TransformerConfig::test_tiny();
    let dir = suspend_dir("restart");
    let queries = vec![
        vec![4usize, 9, 23, 7],
        vec![31usize, 30, 29, 28],
        vec![7usize, 7, 7, 7],
        vec![1usize, 2, 3, 4],
    ];

    let (addr_a, server_a) = start_server_with(model.clone(), 1, {
        let dir = dir.clone();
        move |c| c.suspend_dir = Some(dir)
    });
    let mut handle = ClientBuilder::new(ProtocolVariant::Fpc).open(addr_a, 4).expect("open");
    handle.infer(&queries[0]).expect("query 0");
    handle.infer(&queries[1]).expect("query 1");
    let parked = handle.suspend().expect("suspend");
    let token = parked.token();

    // A suspended session has not concluded: server A still owes its
    // budget one session, so a trivial one concludes it.
    ClientBuilder::new(ProtocolVariant::F)
        .run(addr_a, &[queries[0].clone()])
        .expect("budget filler session");
    let stats_a = server_a.join().expect("server A thread");
    assert_eq!(stats_a.sessions().len(), 1, "only the filler completed on A");

    // "Restart": a fresh server process state, same suspend directory.
    let (addr_b, server_b) = start_server_with(model.clone(), 1, {
        let dir = dir.clone();
        move |c| c.suspend_dir = Some(dir)
    });
    let mut handle = parked.resume(addr_b).expect("resume after restart");
    assert_eq!(handle.session_id(), token, "token survives the restart");
    assert_eq!(handle.remaining(), 2);
    handle.infer(&queries[2]).expect("query 2");
    handle.infer(&queries[3]).expect("query 3");
    let outcome = handle.finish().expect("finish");
    let stats_b = server_b.join().expect("server B thread");

    let reference =
        reference_engine(&model, ProtocolVariant::Fpc, GcMode::Simulated).serve(&queries);
    for (i, want) in reference.iter().enumerate() {
        assert_eq!(
            outcome.predictions[i].logits,
            want.logits,
            "query {i} diverged across the restart"
        );
    }
    assert_eq!(outcome.summary.queries, 4, "summary covers both server processes");
    assert_eq!(stats_b.sessions().len(), 1);
    let rec = &stats_b.sessions()[0];
    assert_eq!(rec.id, token);
    assert_eq!(rec.queries, 4, "the record carries cumulative progress");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Garbled-mode sessions refuse to suspend client-side (one-time labels
/// are not serializable) — before any frame reaches the server.
#[test]
fn garbled_sessions_refuse_to_suspend() {
    let model = TransformerConfig::test_tiny();
    let dir = suspend_dir("garbled");
    let (addr, server) = start_server_with(model, 1, {
        let dir = dir.clone();
        move |c| c.suspend_dir = Some(dir)
    });
    let handle = ClientBuilder::new(ProtocolVariant::Fpc)
        .mode(GcMode::Garbled)
        .open(addr, 1)
        .expect("open");
    let err = match handle.suspend() {
        Ok(_) => panic!("garbled suspend must fail"),
        Err(e) => e,
    };
    assert!(
        matches!(err, primer_serve::ClientError::Session(ref m) if m.contains("garbled")),
        "{err}"
    );
    // The dropped handle fails its session, which concludes the budget.
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions().len(), 0, "the failed session left no completed record");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An image whose recorded layout plan differs from the server's (one
/// fingerprint character flipped, same length — what a server rebuilt
/// with a different selector would see) is refused with that reason,
/// and the server keeps serving: a separate session on it completes.
#[test]
fn resume_refuses_an_image_whose_layout_plan_changed() {
    let model = TransformerConfig::test_tiny();
    let variant = ProtocolVariant::Fpc;
    let dir = suspend_dir("fingerprint");
    // Two concluded sessions: the refused resume and the healthy one.
    let (addr, server) = start_server_with(model.clone(), 2, {
        let dir = dir.clone();
        move |c| c.suspend_dir = Some(dir)
    });
    let mut handle = ClientBuilder::new(variant).open(addr, 2).expect("open");
    handle.infer(&[3, 17, 0, 29]).expect("query 0");
    let parked = handle.suspend().expect("suspend");

    let image = dir.join(format!("session-{}.suspend", parked.token()));
    let sys = SystemConfig::test_profile(&model).expect("profile");
    let fp = fingerprint(&sys, variant);
    let mut bytes = std::fs::read(&image).expect("read image");
    let at = bytes
        .windows(fp.len())
        .position(|w| w == fp.as_bytes())
        .expect("fingerprint in the image header");
    bytes[at] = if bytes[at] == b'i' { b'o' } else { b'i' };
    std::fs::write(&image, &bytes).expect("rewrite image");

    let err = match parked.resume(addr) {
        Ok(_) => panic!("a changed layout plan must refuse the resume"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            ClientError::Proto(ProtoError::Rejected(ref reason))
                if reason == "layout plan changed since suspension"
        ),
        "{err}"
    );

    let queries = vec![vec![5usize, 5, 30, 1]];
    let outcome = ClientBuilder::new(variant).run(addr, &queries).expect("healthy session");
    let stats = server.join().expect("server thread");
    let reference = reference_engine(&model, variant, GcMode::Simulated).serve(&queries);
    assert_eq!(outcome.predictions[0].logits, reference[0].logits);
    assert_eq!(stats.sessions().len(), 1, "only the healthy session completed");
    let _ = std::fs::remove_dir_all(&dir);
}
