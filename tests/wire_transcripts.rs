//! Wire transcripts, pinned frame by frame.
//!
//! One `test_tiny` session of two queries runs for each protocol
//! variant in simulated GC mode, plus Primer-FPC garbled, every party
//! behind a [`RecordingTransport`]. Each frame either party sends is
//! reduced to one line — session, party, index, length and its 64-bit
//! FNV-1a — and the lines must equal `tests/golden/wire_transcripts.txt`.
//! A failure names the first frame that differs, so a codec or
//! schedule change that moves one byte of one flight is caught where
//! it happens.
//!
//! A change that moves the wire on purpose (a new circuit, a new
//! flight) regenerates the table with the ignored test
//! `regenerate_wire_transcripts`:
//!
//! ```text
//! cargo test --release --test wire_transcripts -- --ignored regenerate_wire_transcripts
//! ```

use primer_core::{
    build_session_circuits, ClientSession, GcMode, ProtocolVariant, ServerSession, SystemConfig,
};
use primer_math::rng::seeded;
use primer_net::{MemTransport, RecordingTransport};
use primer_nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_transcripts.txt");

const HEADER: &str = "\
# Wire transcripts of test_tiny sessions (2 queries, pool 2), one line per frame:
# <session> <party c|s> <index> <length> <FNV-1a 64 of the frame>.
# Regenerate: cargo test --release --test wire_transcripts -- --ignored regenerate_wire_transcripts
";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Both parties' sent frames from one two-query session.
fn session_frames(variant: ProtocolVariant, mode: GcMode) -> [Vec<Vec<u8>>; 2] {
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("test profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(4500));
    let fixed = Arc::new(FixedTransformer::quantize(&cfg, &weights, sys.pipeline));
    let circuits = Arc::new(build_session_circuits(&sys, variant, &fixed));
    let queries = [vec![3usize, 17, 0, 29], vec![5, 5, 30, 1]];
    let (total, pool) = (queries.len(), 2);

    let (ct, st, _meter) = MemTransport::pair();
    let (ct, client_transcript) = RecordingTransport::new(ct);
    let (st, server_transcript) = RecordingTransport::new(st);

    let (sys_s, fixed_s, circuits_s) = (sys.clone(), Arc::clone(&fixed), Arc::clone(&circuits));
    let server = std::thread::spawn(move || {
        let mut session =
            ServerSession::setup(sys_s, variant, mode, fixed_s, circuits_s, 4501, total, pool, &st)
                .expect("in-process key transfer");
        for _ in 0..total {
            session.serve_one(&st).expect("in-process flight");
        }
    });
    let mut session =
        ClientSession::setup(sys, variant, mode, fixed, circuits, 4502, total, pool, &ct);
    for q in &queries {
        session.infer(q, &ct).expect("in-process flight");
    }
    server.join().expect("server thread");
    [client_transcript.frames(), server_transcript.frames()]
}

/// The transcript table: one line per frame, sessions in a fixed order.
fn transcript_lines() -> Vec<String> {
    let runs = [
        ("base-sim", ProtocolVariant::Base, GcMode::Simulated),
        ("f-sim", ProtocolVariant::F, GcMode::Simulated),
        ("fp-sim", ProtocolVariant::Fp, GcMode::Simulated),
        ("fpc-sim", ProtocolVariant::Fpc, GcMode::Simulated),
        ("fpc-garbled", ProtocolVariant::Fpc, GcMode::Garbled),
    ];
    let mut lines = Vec::new();
    for (name, variant, mode) in runs {
        let [client, server] = session_frames(variant, mode);
        for (party, frames) in [("c", client), ("s", server)] {
            for (i, frame) in frames.iter().enumerate() {
                lines.push(format!("{name} {party} {i} {} {:016x}", frame.len(), fnv1a(frame)));
            }
        }
    }
    lines
}

#[test]
fn wire_transcripts_match_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden transcript table");
    let want: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let got = transcript_lines();
    let first_diff = (0..want.len().max(got.len()))
        .find(|&i| want.get(i).copied() != got.get(i).map(String::as_str));
    if let Some(i) = first_diff {
        panic!(
            "wire transcript differs at frame line {i} of {}:\n  golden: {}\n  now:    {}",
            want.len(),
            want.get(i).copied().unwrap_or("<none>"),
            got.get(i).map_or("<none>", String::as_str),
        );
    }
}

#[test]
#[ignore = "rewrites tests/golden/wire_transcripts.txt"]
fn regenerate_wire_transcripts() {
    let mut text = HEADER.to_string();
    for line in transcript_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(GOLDEN, text).expect("write golden transcript table");
}
