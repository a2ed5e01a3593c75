//! Admission control under churn: many short-lived clients against a
//! small worker cap, with and without load shedding.

mod common;

use common::{reference_engine, start_server_with};
use primer_core::{GcMode, ProtocolVariant};
use primer_nn::TransformerConfig;
use primer_serve::{poll_stats, ClientBuilder, ClientError, ShedPolicy};
use std::time::{Duration, Instant};

/// Twelve one-query clients churn through four worker slots with the
/// default unbounded queue: every session completes, every logit is
/// bit-identical, nobody is shed.
#[test]
fn churning_clients_queue_through_bounded_workers() {
    let model = TransformerConfig::test_tiny();
    let tokens = vec![11usize, 3, 27, 19];
    let n = 12usize;
    let (addr, server) = start_server_with(model.clone(), n, |c| {
        c.max_workers = 4;
        c.pool = 1;
    });

    let clients: Vec<_> = (0..n)
        .map(|_| {
            let tokens = tokens.clone();
            std::thread::spawn(move || {
                ClientBuilder::new(ProtocolVariant::Fpc).run(addr, &[tokens])
            })
        })
        .collect();
    let reference = reference_engine(&model, ProtocolVariant::Fpc, GcMode::Simulated)
        .serve(std::slice::from_ref(&tokens), 1);
    for (i, c) in clients.into_iter().enumerate() {
        let out = c.join().expect("client thread").unwrap_or_else(|e| panic!("client {i}: {e}"));
        assert_eq!(out.predictions[0].logits, reference[0].logits, "client {i} logits");
    }

    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions().len(), n, "every churned client completed");
    assert_eq!(stats.total_queries(), n);
}

/// With `ShedPolicy::Shed {{ max_waiting: 0 }}` and one worker slot, a
/// second concurrent hello gets the typed busy reply — and the slot
/// freeing up lets later clients in. The shed client never counts
/// against the session budget.
#[test]
fn full_house_sheds_excess_hellos_with_typed_busy() {
    let model = TransformerConfig::test_tiny();
    let tokens = vec![6usize, 28, 2, 14];
    let (addr, server) = start_server_with(model.clone(), 2, |c| {
        c.max_workers = 1;
        c.shed = ShedPolicy::Shed { max_waiting: 0 };
    });

    // Client A takes the only slot and holds it open.
    let mut a = ClientBuilder::new(ProtocolVariant::Fpc).open(addr, 1).expect("client A");
    wait_until(Duration::from_secs(10), || {
        poll_stats(addr).expect("stats poll").workers_active() == 1
    });

    // Client B arrives into a full house: typed busy, not a hang.
    let err = ClientBuilder::new(ProtocolVariant::Fpc)
        .run(addr, std::slice::from_ref(&tokens))
        .expect_err("B must be shed");
    match err {
        ClientError::Busy { active, cap } => {
            assert_eq!((active, cap), (1, 1), "busy reply carries occupancy");
        }
        other => panic!("expected Busy, got {other}"),
    }
    assert_eq!(poll_stats(addr).expect("stats poll").shed_total(), 1);

    // A finishes; the slot frees; a retrying client C gets through.
    a.infer(&tokens).expect("A query");
    let out_a = a.finish().expect("A finish");
    let out_c = retry_busy(Duration::from_secs(10), || {
        ClientBuilder::new(ProtocolVariant::Fpc).run(addr, std::slice::from_ref(&tokens))
    });

    let reference = reference_engine(&model, ProtocolVariant::Fpc, GcMode::Simulated)
        .serve(std::slice::from_ref(&tokens), 1);
    assert_eq!(out_a.predictions[0].logits, reference[0].logits);
    assert_eq!(out_c.predictions[0].logits, reference[0].logits);
    let stats = server.join().expect("server thread");
    assert_eq!(stats.sessions().len(), 2, "shed hello burned no budget");
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in {timeout:?}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Retries `attempt` while the server answers busy (slot handover is
/// asynchronous with A's conclusion).
fn retry_busy<T>(
    timeout: Duration,
    mut attempt: impl FnMut() -> Result<T, ClientError>,
) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        match attempt() {
            Ok(v) => return v,
            Err(ClientError::Busy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("retrying client: {e}"),
        }
    }
}
