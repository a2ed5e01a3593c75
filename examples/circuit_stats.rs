//! Gate statistics of a session's GC step circuits: for test-tiny
//! Primer-FPC and Primer-F, each step's unit (one element or one row) as
//! written and as built — after structural hashing and dead-gate removal
//! — how often it repeats, and what the step costs in ANDs, frame bytes
//! and resident memory. DESIGN.md §15's gate table is this output.
//!
//! Run: `cargo run --release --example circuit_stats [-- --check]`
//!
//! `--check` exits non-zero if any unit holds a gate no output depends
//! on, or `unit ANDs × repeat` disagrees with `Circuit::and_count()`.

use primer::core::{build_session_circuits, ProtocolVariant, SystemConfig};
use primer::gc::circuit::Gate;
use primer::gc::garble::frame_len;
use primer::math::rng::seeded;
use primer::nn::{FixedTransformer, TransformerConfig, TransformerWeights};
use std::process::ExitCode;

fn main() -> Result<ExitCode, Box<dyn std::error::Error>> {
    let check = std::env::args().skip(1).any(|a| a == "--check");
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg)?;
    let weights = TransformerWeights::random(&cfg, &mut seeded(4007));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);

    let mut bad = 0;
    for variant in [ProtocolVariant::Fpc, ProtocolVariant::F] {
        println!(
            "{} on test-tiny, GC words {} bits ({} fractional):",
            variant.name(),
            sys.gc.width,
            sys.gc.frac
        );
        println!(
            "{:>4} {:>14} {:>14} {:>12} {:>11} {:>7} {:>11} {:>12} {:>10}",
            "step",
            "gates written",
            "ANDs written",
            "gates built",
            "ANDs built",
            "repeat",
            "step ANDs",
            "frame B",
            "resident B"
        );
        let (mut ands, mut written_ands, mut frame, mut resident) = (0, 0, 0, 0);
        for (i, c) in build_session_circuits(&sys, variant, &fixed).iter().enumerate() {
            let written = c.unit_written();
            println!(
                "{:>4} {:>14} {:>14} {:>12} {:>11} {:>7} {:>11} {:>12} {:>10}",
                i,
                written.gates,
                written.ands,
                c.unit_gates().len(),
                c.unit_and_count(),
                c.repeat(),
                c.and_count(),
                frame_len(c),
                c.resident_bytes()
            );
            ands += c.and_count();
            written_ands += written.ands * c.repeat();
            frame += frame_len(c);
            resident += c.resident_bytes();
            let unreachable = c.unreachable_gates();
            if unreachable != 0 {
                eprintln!("step {i}: {unreachable} unit gates reach no output");
                bad += 1;
            }
            // Counted here from the gate list, not read back from the
            // circuit's stored count.
            let walked = c.unit_gates().iter().filter(|g| matches!(g, Gate::And(_, _))).count();
            if walked * c.repeat() != c.and_count() {
                eprintln!("step {i}: unit ANDs × repeat disagrees with and_count()");
                bad += 1;
            }
        }
        println!("query: {ands} ANDs ({written_ands} as written), {frame} frame bytes,");
        println!("       {resident} bytes resident\n");
    }
    Ok(if check && bad != 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
