//! Analytic cost model: extrapolates paper-scale latency (Tables I–III,
//! Fig. 2) from exact operation counts times per-operation costs.
//!
//! Counts come from the same formulas the implementation
//! `debug_assert`s against ([`crate::packing::matmul_counts`]) plus GC
//! gate models calibrated by *building the real circuits* at small
//! element counts (gate counts are exactly linear in elements/rows by
//! construction). Per-op costs default to measurements of this codebase
//! on paper-scale parameters (`N = 8192`); the bench harness can
//! re-measure them (`OpCosts::measure`).

use crate::packing::{matmul_counts, Layout, Packing};
use crate::session::ProtocolVariant;
use crate::stats::StepCategory;
use primer_net::NetworkModel;
use primer_nn::TransformerConfig;
use std::collections::BTreeMap;

mod baselines;
mod calibrate;
pub mod layout;

pub use baselines::{gcformer_latency, thex_latency};
pub use calibrate::{GcGateModel, OpCosts};

/// Accumulated analytic cost of one phase of one step category.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelCost {
    /// HE rotations.
    pub rotations: f64,
    /// HE plaintext multiplies.
    pub mul_plain: f64,
    /// Encryptions.
    pub encrypts: f64,
    /// Decryptions.
    pub decrypts: f64,
    /// Ciphertext–ciphertext multiplies (THE-X only).
    pub mul_ct: f64,
    /// GC AND gates garbled (client side).
    pub gc_garble_ands: f64,
    /// GC AND gates evaluated (server side).
    pub gc_eval_ands: f64,
    /// Bytes on the wire.
    pub bytes: f64,
    /// Latency-bearing message flights.
    pub flights: f64,
}

impl ModelCost {
    fn add_matmul(&mut self, packing: Packing, rows: usize, k: usize, m: usize, simd: usize) {
        let c = matmul_counts(packing, rows, k, m, simd);
        self.rotations += c.rotations as f64;
        self.mul_plain += c.mul_plain as f64;
        self.encrypts += c.in_cts as f64;
        self.decrypts += c.out_cts as f64;
    }

    fn add_ct_traffic(&mut self, costs: &OpCosts, fresh: f64, full: f64, flights: f64) {
        self.bytes += fresh * costs.ct_fresh_bytes as f64 + full * costs.ct_full_bytes as f64;
        self.flights += flights;
    }

    /// Merges another cost.
    pub fn merge(&mut self, o: &ModelCost) {
        self.rotations += o.rotations;
        self.mul_plain += o.mul_plain;
        self.encrypts += o.encrypts;
        self.decrypts += o.decrypts;
        self.mul_ct += o.mul_ct;
        self.gc_garble_ands += o.gc_garble_ands;
        self.gc_eval_ands += o.gc_eval_ands;
        self.bytes += o.bytes;
        self.flights += o.flights;
    }

    /// Converts to seconds of compute under a cost table.
    pub fn compute_seconds(&self, c: &OpCosts) -> f64 {
        self.rotations * c.rotation
            + self.mul_plain * c.mul_plain
            + self.encrypts * c.encrypt
            + self.decrypts * c.decrypt
            + self.mul_ct * c.mul_ct
            + self.gc_garble_ands * c.gc_garble_and
            + self.gc_eval_ands * c.gc_eval_and
    }

    /// Total seconds including network time.
    pub fn total_seconds(&self, c: &OpCosts, net: &NetworkModel) -> f64 {
        self.compute_seconds(c)
            + net.time_for(self.flights as u64, self.bytes as u64).as_secs_f64()
    }
}

/// Per-category (offline, online) model costs for one variant.
pub type VariantModel = BTreeMap<&'static str, (ModelCost, ModelCost)>;

/// The analytic model of one Primer variant on one model configuration.
#[derive(Debug)]
pub struct CostModel {
    /// SIMD width (slots per row) at paper parameters.
    pub simd: usize,
    /// Calibrated GC gate model.
    pub gates: GcGateModel,
}

impl CostModel {
    /// Paper-scale model (`N = 8192` → 4096 usable slots).
    pub fn paper() -> Self {
        Self { simd: 4096, gates: GcGateModel::paper() }
    }

    /// Computes (offline, online) costs per Table II category.
    pub fn variant_costs(
        &self,
        cfg: &TransformerConfig,
        variant: ProtocolVariant,
        costs: &OpCosts,
    ) -> BTreeMap<StepCategory, (ModelCost, ModelCost)> {
        let packing = variant.packing();
        let simd = self.simd;
        let (n, d, dff, heads, dh) =
            (cfg.n_tokens, cfg.d_model, cfg.d_ff, cfg.n_heads, cfg.d_head());
        let mut out: BTreeMap<StepCategory, (ModelCost, ModelCost)> =
            StepCategory::all().iter().map(|&c| (c, Default::default())).collect();
        let mat_bytes = |rows: usize, cols: usize| (rows * cols * 8 + 8) as f64;
        let in_cts = |rows: usize, cols: usize| {
            Layout::plan(packing, rows, cols, simd).num_cts as f64
        };

        // --- Embed / combined ---
        {
            let e = out.get_mut(&if variant.combined() {
                StepCategory::QxK
            } else {
                StepCategory::Embed
            })
            .expect("category");
            let proj = if variant.combined() { 4 } else { 1 };
            for _ in 0..proj {
                e.0.add_matmul(packing, n, cfg.vocab, d, simd);
            }
            // Enc(Rc) upload (once) + results download.
            e.0.add_ct_traffic(costs, in_cts(n, cfg.vocab), proj as f64 * in_cts(n, d), 2.0);
            // Online: U matrix + GC truncation of proj·n·d elements.
            e.1.bytes += mat_bytes(n, cfg.vocab);
            e.1.flights += 1.0;
            let elems = proj * n * d;
            let ands = self.gates.trunc(elems);
            e.0.gc_garble_ands += ands;
            e.0.bytes += ands * 32.0;
            e.1.gc_eval_ands += ands;
            e.1.bytes += (elems * 2) as f64 * 16.0;
            e.1.flights += 2.0;
        }

        for b in 0..cfg.n_blocks {
            // --- QKV ---
            if b > 0 || !variant.combined() {
                let e = out.get_mut(&StepCategory::Qkv).expect("category");
                for _ in 0..3 {
                    e.0.add_matmul(packing, n, d, d, simd);
                }
                e.0.add_ct_traffic(costs, in_cts(n, d), 3.0 * in_cts(n, d), 2.0);
                let elems = 3 * n * d;
                let ands = self.gates.trunc(elems);
                e.0.gc_garble_ands += ands;
                e.0.bytes += ands * 32.0;
                e.1.gc_eval_ands += ands;
                e.1.bytes += (elems * 2) as f64 * 16.0;
                e.1.flights += 2.0;
            }
            // --- Q×K (FHGS) ---
            {
                let e = out.get_mut(&StepCategory::QxK).expect("category");
                for _ in 0..heads {
                    // Offline: triple upload.
                    e.0.encrypts += in_cts(n, dh) + in_cts(n, dh) + in_cts(n, n);
                    e.0.add_ct_traffic(
                        costs,
                        2.0 * in_cts(n, dh) + in_cts(n, n),
                        0.0,
                        1.0,
                    );
                    // Online: two ct–pt matmuls + two downloads.
                    e.1.add_matmul(packing, n, dh, n, simd);
                    e.1.add_matmul(packing, n, dh, n, simd);
                    e.1.encrypts -= in_cts(n, dh) * 2.0; // inputs already encrypted offline
                    e.1.add_ct_traffic(costs, 0.0, 2.0 * in_cts(n, n), 2.0);
                }
            }
            // --- SoftMax (GC) ---
            {
                let e = out.get_mut(&StepCategory::Softmax).expect("category");
                let ands = self.gates.softmax(heads * n, n);
                e.0.gc_garble_ands += ands;
                e.0.bytes += ands * 32.0;
                e.1.gc_eval_ands += ands;
                e.1.bytes += (heads * n * n * 2) as f64 * 16.0;
                e.1.flights += 2.0;
            }
            // --- Attention × V (FHGS + trunc) ---
            {
                let e = out.get_mut(&StepCategory::AttnValue).expect("category");
                for _ in 0..heads {
                    e.0.encrypts += in_cts(n, n) + in_cts(dh, n) + in_cts(n, dh);
                    e.0.add_ct_traffic(
                        costs,
                        in_cts(n, n) + in_cts(dh, n) + in_cts(n, dh),
                        0.0,
                        1.0,
                    );
                    e.1.add_matmul(packing, n, n, dh, simd);
                    e.1.add_matmul(packing, dh, n, n, simd);
                    e.1.encrypts -= in_cts(n, n) + in_cts(dh, n);
                    e.1.add_ct_traffic(costs, 0.0, in_cts(n, dh) + in_cts(dh, n), 2.0);
                }
                let ands = self.gates.trunc(n * d);
                e.0.gc_garble_ands += ands;
                e.0.bytes += ands * 32.0;
                e.1.gc_eval_ands += ands;
                e.1.bytes += (n * d * 2) as f64 * 16.0;
                e.1.flights += 2.0;
            }
            // --- Others: WO, LN1, FF, LN2 ---
            {
                let e = out.get_mut(&StepCategory::Others).expect("category");
                e.0.add_matmul(packing, n, d, d, simd);
                e.0.add_matmul(packing, n, d, dff, simd);
                e.0.add_matmul(packing, n, dff, d, simd);
                e.0.add_ct_traffic(
                    costs,
                    in_cts(n, d) * 2.0 + in_cts(n, dff),
                    in_cts(n, d) * 2.0 + in_cts(n, dff),
                    6.0,
                );
                let ands = self.gates.layer_norm(n, d) * 2.0 + self.gates.gelu(n * dff);
                e.0.gc_garble_ands += ands;
                e.0.bytes += ands * 32.0;
                e.1.gc_eval_ands += ands;
                e.1.bytes += ((2 * n * d + n * dff) * 2) as f64 * 16.0;
                e.1.flights += 6.0;
            }
        }
        // Classifier (Others).
        {
            let e = out.get_mut(&StepCategory::Others).expect("category");
            e.0.add_matmul(packing, 1, d, cfg.n_classes, simd);
            e.1.bytes += mat_bytes(1, cfg.n_classes);
            e.1.flights += 1.0;
        }
        out
    }

    /// Offline/online/total seconds for a variant (Table I/III rows).
    pub fn variant_latency(
        &self,
        cfg: &TransformerConfig,
        variant: ProtocolVariant,
        costs: &OpCosts,
        net: &NetworkModel,
    ) -> (f64, f64) {
        let per_step = self.variant_costs(cfg, variant, costs);
        let mut off = 0.0;
        let mut on = 0.0;
        for (offline, online) in per_step.values() {
            off += offline.total_seconds(costs, net);
            on += online.total_seconds(costs, net);
        }
        if variant.has_offline_phase() {
            (off, on)
        } else {
            (0.0, off + on)
        }
    }

    /// Total message bytes (Table III's "Message GB").
    pub fn variant_message_bytes(
        &self,
        cfg: &TransformerConfig,
        variant: ProtocolVariant,
        costs: &OpCosts,
    ) -> f64 {
        self.variant_costs(cfg, variant, costs)
            .values()
            .map(|(a, b)| a.bytes + b.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_ablation_reduces_offline_latency() {
        let model = CostModel::paper();
        let costs = OpCosts::paper_defaults();
        let net = NetworkModel::paper_lan();
        let cfg = TransformerConfig::bert_base();
        let (off_f, on_f) = model.variant_latency(&cfg, ProtocolVariant::F, &costs, &net);
        let (off_fp, on_fp) = model.variant_latency(&cfg, ProtocolVariant::Fp, &costs, &net);
        let (off_fpc, on_fpc) = model.variant_latency(&cfg, ProtocolVariant::Fpc, &costs, &net);
        // Tokens-first packing must slash offline latency (Table II).
        assert!(
            off_fp < off_f / 3.0,
            "packing should cut offline cost: F {off_f:.1}s vs FP {off_fp:.1}s"
        );
        // Online latency must be far below offline for F (the HGS claim).
        assert!(on_f < off_f / 5.0, "online {on_f:.1}s vs offline {off_f:.1}s");
        // CHGS keeps totals in the same ballpark or better.
        assert!(off_fpc + on_fpc <= (off_fp + on_fp) * 1.2);
    }

    #[test]
    fn base_variant_has_no_offline() {
        let model = CostModel::paper();
        let costs = OpCosts::paper_defaults();
        let net = NetworkModel::paper_lan();
        let cfg = TransformerConfig::bert_tiny();
        let (off, on) = model.variant_latency(&cfg, ProtocolVariant::Base, &costs, &net);
        assert_eq!(off, 0.0);
        assert!(on > 0.0);
    }

    #[test]
    fn bigger_models_cost_more() {
        let model = CostModel::paper();
        let costs = OpCosts::paper_defaults();
        let net = NetworkModel::paper_lan();
        let mut last_total = 0.0;
        for cfg in TransformerConfig::table3_models() {
            let (off, on) = model.variant_latency(&cfg, ProtocolVariant::Fpc, &costs, &net);
            let total = off + on;
            assert!(total > last_total, "{} should cost more", cfg.name);
            last_total = total;
        }
    }
}
