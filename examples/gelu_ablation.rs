//! Ablation: the cost of the feed-forward activation inside GC.
//!
//! The paper's Fig. 4 garbles ReLU-style activations; BERT itself uses
//! GELU. This ablation prices the GELU step against the bare truncation
//! every step pays, in AND gates per element at the test and the paper
//! fixed-point formats — the design trade-off DESIGN.md calls out — and
//! checks the GELU circuit against its fixed-point reference on every
//! value of each format, plus inputs that saturate.
//!
//! Run: `cargo run --release --example gelu_ablation`

use primer::core::gcmod::{build_step_circuit, reference_step, GcStepKind};
use primer::gc::arith::ring_bits;
use primer::gc::builder::{from_bits_unsigned, to_bits};
use primer::gc::GcNumCfg;
use primer::he::HeParams;
use primer::math::{FixedSpec, Ring};
use primer::nn::PipelineSpec;

fn main() {
    let gc = GcNumCfg::protocol();
    let profiles = [
        ("test (12, 5)", PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::test_small(), 12)),
        (
            "paper (15, 7)",
            PipelineSpec::new(Ring::new(HeParams::paper_8k().t()), FixedSpec::paper(), 12),
        ),
    ];
    println!(
        "AND gates per element at {}-bit GC words (share reconstruction + trunc included):",
        gc.width
    );
    println!("{:<14} {:>10} {:>10}", "format", "TruncSat", "GELU");
    for (name, spec) in &profiles {
        let per_elem =
            |kind: &GcStepKind| build_step_circuit(kind, spec, gc).and_count() / kind.elems();
        let trunc = per_elem(&GcStepKind::TruncSat { elems: 8 });
        let gelu = per_elem(&GcStepKind::Gelu { elems: 8 });
        println!("{name:<14} {trunc:>10} {gelu:>10}");
    }
    println!();

    // Every value of the format at product scale, then inputs that
    // saturate either way. Client share 0 and mask 0, so the server's
    // share (the circuit output) *is* the function value.
    for (name, spec) in &profiles {
        let f = spec.fixed;
        let past = (f.max_raw() + 1) << f.frac();
        let mut raw: Vec<i64> = (f.min_raw()..=f.max_raw()).map(|x| x << f.frac()).collect();
        raw.extend([past, -past - 1, 5 * past, -5 * past]);
        let kind = GcStepKind::Gelu { elems: raw.len() };
        let circuit = build_step_circuit(&kind, spec, gc);
        let rb = ring_bits(spec.ring.modulus());
        let client_bits = vec![false; 2 * raw.len() * rb];
        let server_bits: Vec<bool> =
            raw.iter().flat_map(|&v| to_bits(spec.ring.from_signed(v) as i64, rb)).collect();
        let got: Vec<i64> = circuit
            .eval_plain(&client_bits, &server_bits)
            .chunks(rb)
            .map(|c| spec.ring.to_signed(from_bits_unsigned(c)))
            .collect();
        assert_eq!(
            got,
            reference_step(&kind, spec, &raw, &[]),
            "{name}: GELU circuit vs reference"
        );
        println!(
            "GELU {name}: circuit matches the fixed-point reference on all {} inputs ✓",
            raw.len()
        );
    }
    println!();
    println!("takeaway: GELU is ReLU minus a table of its gap from ReLU, read over the");
    println!("small window where the gap is non-zero — the gap between the two columns.");
    println!("The share wrapper every step pays (the TruncSat column) is most of its cost.");
}
