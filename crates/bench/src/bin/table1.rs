//! Regenerates **Table I**: offline/online/total latency and accuracy of
//! THE-X, GCFormer, Primer-F and Primer-FPC on BERT-base (MNLI-m-like).
//!
//! Run: `cargo run --release -p primer-bench --bin table1 [--measure]`

use primer_bench::{fmt_s, measure_accuracy};
use primer_core::{gcformer_latency, thex_latency, CostModel, OpCosts, ProtocolVariant};
use primer_net::NetworkModel;
use primer_nn::{Task, TransformerConfig};

fn main() {
    let measure = std::env::args().any(|a| a == "--measure");
    let costs = if measure { OpCosts::measure() } else { OpCosts::paper_defaults() };
    let model = CostModel::paper();
    let net = NetworkModel::paper_lan();
    let cfg = TransformerConfig::bert_base();

    let acc = measure_accuracy(42, 60);
    let mnli = acc.iter().find(|(t, _)| *t == Task::MnliM).expect("MNLI row").1;

    println!("# Table I — private BERT-base inference (MNLI-m)");
    println!("# latency columns: seconds from the calibrated cost model at paper-scale params");
    println!("# accuracy: measured teacher-agreement on the scaled synthetic task (see DESIGN.md §4)");
    println!("{:<22} {:>12} {:>12} {:>12} {:>10}", "Scheme", "Offline(s)", "Online(s)", "Total(s)", "Acc.(%)");

    let thex = thex_latency(&cfg, &costs, &net, model.simd);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10.1}",
        "THE-X (FHE-only)",
        "/",
        fmt_s(thex),
        fmt_s(thex),
        mnli.poly_approx
    );
    let (gc_off, gc_on) = gcformer_latency(&cfg, &costs, &net, &model.gates, 15.0);
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10.1}",
        "GCFormer (GC-only)",
        fmt_s(gc_off),
        fmt_s(gc_on),
        fmt_s(gc_off + gc_on),
        mnli.float_exact
    );
    for variant in [ProtocolVariant::F, ProtocolVariant::Fpc] {
        let (off, on) = model.variant_latency(&cfg, variant, &costs, &net);
        println!(
            "{:<22} {:>12} {:>12} {:>12} {:>10.1}",
            variant.name(),
            fmt_s(off),
            fmt_s(on),
            fmt_s(off + on),
            mnli.fixed_point
        );
    }
}
