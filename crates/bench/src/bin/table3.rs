//! Regenerates **Table III**: the five BERT models × accuracy (5 tasks),
//! offline/online latency, throughput, and message size.
//!
//! Run: `cargo run --release -p primer-bench --bin table3 [--measure]`

use primer_bench::{fmt_gb, fmt_s, measure_accuracy};
use primer_core::{CostModel, OpCosts, ProtocolVariant};
use primer_net::NetworkModel;
use primer_nn::TransformerConfig;

fn main() {
    let measure = std::env::args().any(|a| a == "--measure");
    let costs = if measure { OpCosts::measure() } else { OpCosts::paper_defaults() };
    let model = CostModel::paper();
    let net = NetworkModel::paper_lan();

    // Accuracy columns: measured once on the scaled teacher tasks; the
    // per-model spread follows capacity (documented substitution).
    let acc = measure_accuracy(42, 60);

    println!("# Table III — Primer (FPC) across BERT models");
    println!(
        "{:<12} {:>2} {:>5} {:>3} {:>3} | {:>7} {:>7} {:>7} {:>7} {:>7} | {:>10} {:>10} {:>9} {:>8}",
        "Model", "N", "d", "H", "n", "MNLI-m", "MRPC", "SST-2", "SQuAD1", "SQuAD2",
        "offline(s)", "online(s)", "tokens/s", "Msg(GB)"
    );
    for cfg in TransformerConfig::table3_models() {
        let (off, on) = model.variant_latency(&cfg, ProtocolVariant::Fpc, &costs, &net);
        let bytes = model.variant_message_bytes(&cfg, ProtocolVariant::Fpc, &costs);
        let throughput = cfg.n_tokens as f64 / on;
        print!(
            "{:<12} {:>2} {:>5} {:>3} {:>3} |",
            cfg.name, cfg.n_blocks, cfg.d_model, cfg.n_heads, cfg.n_tokens
        );
        for (_, r) in &acc {
            print!(" {:>7.1}", r.fixed_point);
        }
        println!(
            " | {:>10} {:>10} {:>9.2} {:>8}",
            fmt_s(off),
            fmt_s(on),
            throughput,
            fmt_gb(bytes)
        );
    }
    println!();
    println!("# accuracy columns are the measured fixed-point teacher-agreement of the");
    println!("# scaled tasks (identical across rows by construction — the paper's per-model");
    println!("# spread needs trained checkpoints; see DESIGN.md §4 for what is modelled)");
}
