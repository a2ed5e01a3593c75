//! The per-layer numbers of a traced run: every layer measured from
//! outside, by timing calls into its public functions and reading the
//! values those functions already return (`ServeRound.steps`,
//! `ServeRound.he_*`, `Meter`, `SessionSummary`, `ServerStats`).
//!
//! Micro-probes report the median of `iterations` timed samples; probes
//! that cost tens of milliseconds or more a sample take three, and the
//! serving probe (three whole sessions) runs once. The workload-specific
//! rows (`he.count.*`, `core.step.*`, `net.{client,server}.*`) come from
//! the traced run of the workload itself; where the benchmark cannot see
//! them from outside — the TCP workload's transports and per-step ledger
//! live inside `primer_serve` — they read 0.

use crate::report::{self, median, HE_COUNTS, STEPS};
use crate::spans;
use crate::workloads::{model, Kind, Outcome, Workload, WEIGHT_SEED};
use primer_core::costmodel::layout::{chain_mode, fhgs_mode, galois_steps};
use primer_core::gcmod::{build_step_circuit, GcClientStep, GcServerStep, GcStepKind};
use primer_core::packing::{encrypt_matrix, matmul_prepared, Layout, PreparedMatmul};
use primer_core::{
    build_session_circuits, chgs, fhgs, hgs, wire, CostModel, GcGateModel, GcMode, MatmulWeights,
    ModelPlane, OpCosts, Packing, ProtocolVariant, StepCategory, SystemConfig,
};
use primer_gc::garble::{evaluate, garble};
use primer_gc::ot::{base_ot_receive, base_ot_send, rot_receiver_offline, rot_sender_offline};
use primer_gc::CircuitBuilder;
use primer_he::simd::{self, KsLimb, SimdLevel};
use primer_he::{BatchEncoder, Encryptor, Evaluator, HeContext, KeyGenerator, OpCounts};
use primer_math::rng::seeded;
use primer_math::MatZ;
use primer_net::tcp::TcpConnection;
use primer_net::{run_two_party, MemTransport, NetworkModel, ShapedTransport, Transport};
use primer_nn::{FixedTransformer, TransformerConfig};
use primer_serve::{poll_stats, ClientBuilder, ServerBuilder, ServerConfig};
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

type Ledger = BTreeMap<String, f64>;

/// Samples taken of a probe that costs tens of milliseconds a sample.
pub const SLOW_SAMPLES: usize = 3;

/// Median wall of one call to `f`, in nanoseconds, over `samples` timed
/// samples of `reps` back-to-back calls each.
fn timed_median_ns(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    median(&xs)
}

/// [`timed_median_ns`] after one untimed, warming call.
fn median_ns(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    timed_median_ns(samples, reps, f)
}

/// [`timed_median_ns`] for a probe slow enough (tens of milliseconds a
/// call) that a warming call would buy nothing: `samples` single calls.
fn slow_median_ns(samples: usize, f: impl FnMut()) -> f64 {
    timed_median_ns(samples, 1, f)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Every per-layer metric for one workload's traced run, in the order
/// `BENCHMARK.json` declares them.
///
/// # Panics
///
/// Panics if a probe failed to emit a declared metric or emitted an
/// undeclared one — the table in `report` and the probes must agree.
pub fn per_layer(
    w: &Workload,
    plain: &Outcome,
    traced: &Outcome,
    iterations: usize,
    out_dir: &Path,
) -> Vec<(String, f64, String)> {
    let variant = match w.kind {
        Kind::Mem { variant, .. } => variant,
        Kind::TcpLan { .. } => ProtocolVariant::Fpc,
    };
    let (cfg, sys, fixed) = model();

    let mut m = Ledger::new();
    he_kernels(&mut m, &sys.he, iterations);
    he_ops(&mut m, &sys, variant, iterations);
    gc(&mut m, &sys, variant, &fixed, iterations);
    core_protocols(&mut m, &sys, variant, &fixed);
    net(&mut m, iterations);
    serve(&mut m, &cfg, out_dir);
    small_layers(&mut m, &sys, &fixed, iterations);
    workload_ledger(&mut m, w, plain, traced);
    costmodel_drift(&mut m, w, &sys, variant, plain);

    let out: Vec<(String, f64, String)> = report::per_layer()
        .into_iter()
        .map(|layer| {
            let value = m
                .remove(&layer.name)
                .unwrap_or_else(|| panic!("no probe emitted declared metric {}", layer.name));
            (layer.name, value, layer.unit.to_string())
        })
        .collect();
    assert!(m.is_empty(), "probes emitted undeclared metrics: {:?}", m.keys());
    out
}

/// `he.simd.*` and `he.ntt.*`: the modular kernels at the resolved tier
/// and at `Scalar`, over one polynomial of the test profile (n = 2048).
fn he_kernels(m: &mut Ledger, ctx: &HeContext, iterations: usize) {
    let n = ctx.n();
    let modulus = ctx.moduli()[0];
    let p = modulus.value();
    let mut rng = seeded(0x6b65_726e);
    let mut poly = |bound: u64| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..bound)).collect() };
    let (a, b, rt) = (poly(p), poly(p), poly(p));
    let plain = poly(ctx.plain().value());
    let w = a[1].max(1);
    let ws = (((w as u128) << 64) / p as u128) as u64;
    let idx: Vec<u32> = ctx.ntt()[0].bit_rev_perm().to_vec();
    let digit_bits = ctx.params().decomp_bits();
    let (delta, delta_shoup) = (ctx.delta_mod_qi()[0], ctx.delta_mod_qi_shoup()[0]);

    let resolved = simd::level();
    let lanes = match resolved {
        SimdLevel::Scalar => 1.0,
        SimdLevel::Avx2 => 4.0,
        SimdLevel::Avx512 => 8.0,
    };
    m.insert("he.simd.tier".into(), lanes);

    for (lvl, tag) in [(resolved, ""), (SimdLevel::Scalar, "_scalar")] {
        let mut x = a.clone();
        let mut acc = b.clone();
        let mut dst = vec![0u64; n];
        // Key-switch accumulation walks every RNS limb of a digit.
        let mut ks_rows: Vec<(Vec<u64>, Vec<u64>)> =
            ctx.moduli().iter().map(|_| (a.clone(), b.clone())).collect();
        let ks_elems = n * ks_rows.len();
        // One polynomial per call, sixteen calls a sample.
        let mut emit = |kernel: &str, elems: usize, ns: f64| {
            m.insert(format!("he.simd.{kernel}{tag}_ns_per_elem"), ns / elems as f64);
        };
        let kernel_ns = |f: &mut dyn FnMut()| median_ns(iterations, 16, f);
        emit("mul_mod", n, kernel_ns(&mut || simd::mul_mod(modulus, &mut x, &b, lvl)));
        emit(
            "add_mul_mod",
            n,
            kernel_ns(&mut || simd::add_mul_mod(modulus, &mut acc, &a, &b, lvl)),
        );
        {
            let (lo, hi) = x.split_at_mut(n / 2);
            let fwd = kernel_ns(&mut || simd::forward_butterflies(p, w, ws, lo, hi, lvl));
            emit("butterfly_fwd", n, fwd);
            let inv = kernel_ns(&mut || simd::inverse_butterflies(p, w, ws, lo, hi, lvl));
            emit("butterfly_inv", n, inv);
        }
        {
            let mut limbs: Vec<KsLimb<'_>> = ks_rows
                .iter_mut()
                .zip(ctx.moduli())
                .map(|((acc0, acc1), &limb)| KsLimb { m: limb, acc0, acc1, x: &a, b: &b, a: &rt })
                .collect();
            emit(
                "ks_accumulate",
                ks_elems,
                kernel_ns(&mut || simd::ks_accumulate(&mut limbs, lvl)),
            );
        }
        let mask = (1u64 << digit_bits) - 1;
        emit(
            "extract_digit",
            n,
            kernel_ns(&mut || simd::extract_digit(&a, digit_bits, mask, &mut dst, lvl)),
        );
        emit("gather", n, kernel_ns(&mut || simd::gather(&a, &idx, &mut dst, lvl)));
        emit(
            "scale_combine",
            n,
            kernel_ns(&mut || {
                simd::scale_combine(modulus, delta, delta_shoup, &plain, &rt, &mut dst, lvl)
            }),
        );
        black_box((&x, &acc, &dst));
    }

    let tables = &ctx.ntt()[0];
    let mut x = a.clone();
    m.insert("he.ntt.forward_us".into(), median_ns(iterations, 4, || tables.forward(&mut x)) / 1e3);
    m.insert("he.ntt.inverse_us".into(), median_ns(iterations, 4, || tables.inverse(&mut x)) / 1e3);
    black_box(&x);
}

/// `he.op.*`, key generation and the Galois key plan of the workload's
/// variant.
fn he_ops(m: &mut Ledger, sys: &SystemConfig, variant: ProtocolVariant, iterations: usize) {
    let ctx = &sys.he;
    let mut rng = seeded(0x6f70_7321);
    let encoder = BatchEncoder::new(ctx);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let encryptor = Encryptor::new(ctx, kg.secret_key().clone(), 0x6f70);
    let eval = Evaluator::new(ctx);
    let hoisted_steps: Vec<usize> = (1..=8).collect();
    let gk = kg.galois_keys(&hoisted_steps, false, &mut rng);
    let t = ctx.plain().value();
    let vals: Vec<u64> = (0..encoder.row_size() as u64).map(|i| (i * 2_654_435_761) % t).collect();
    let pt = encoder.encode(&vals);
    let ct = encryptor.encrypt(&pt);
    let mp = eval.prepare_mul_plain(&pt);

    let mut op = |name: &str, ns: f64| {
        m.insert(format!("he.op.{name}_us"), ns / 1e3);
    };
    op("encode", median_ns(iterations, 1, || drop(black_box(encoder.encode(&vals)))));
    op("decode", median_ns(iterations, 1, || drop(black_box(encoder.decode(&pt)))));
    op("encrypt", median_ns(iterations, 1, || drop(black_box(encryptor.encrypt(&pt)))));
    op("decrypt", median_ns(iterations, 1, || drop(black_box(encryptor.decrypt(&ct)))));
    op("add", median_ns(iterations, 1, || drop(black_box(eval.add(&ct, &ct)))));
    op("add_plain", median_ns(iterations, 1, || drop(black_box(eval.add_plain(&ct, &pt)))));
    op("mul_plain", median_ns(iterations, 1, || drop(black_box(eval.mul_plain(&ct, &mp)))));
    op(
        "prepare_mul_plain",
        median_ns(iterations, 1, || drop(black_box(eval.prepare_mul_plain(&pt)))),
    );
    op(
        "rotate",
        median_ns(iterations, 1, || {
            drop(black_box(eval.rotate_rows(&ct, 1, &gk).expect("key for step 1")))
        }),
    );
    let hoist_ns = median_ns(iterations, 1, || eval.recycle_hoisted(black_box(eval.hoist(&ct))));
    op("hoist", hoist_ns);
    // One hoist shared by eight rotations; what is left after the hoist,
    // per rotation, is the hoisted rotate.
    let many_ns = median_ns(iterations, 1, || {
        drop(black_box(eval.rotate_many(&ct, &hoisted_steps, &gk).expect("dedicated keys")));
    });
    op("rotate_hoisted", (many_ns - hoist_ns).max(0.0) / hoisted_steps.len() as f64);

    m.insert(
        "he.keygen_ms".into(),
        median_ns(iterations, 1, || drop(black_box(KeyGenerator::new(ctx, &mut rng)))) / 1e6,
    );
    let plan = galois_steps(sys, variant);
    m.insert(
        "he.galois_keys_bytes".into(),
        kg.galois_keys(&plan, false, &mut rng).serialized_size() as f64,
    );
    m.insert(
        "he.galois_keygen_ms".into(),
        slow_median_ns(SLOW_SAMPLES, || drop(black_box(kg.galois_keys(&plan, false, &mut rng))))
            / 1e6,
    );
}

/// `gc.*`: half-gates garbling and evaluation per AND gate, base OT and
/// IKNP extension over `MemTransport`, and the session's step circuits.
fn gc(
    m: &mut Ledger,
    sys: &SystemConfig,
    variant: ProtocolVariant,
    fixed: &FixedTransformer,
    iterations: usize,
) {
    // A 32×32 multiplier: the canonical AND-heavy circuit.
    let mut b = CircuitBuilder::new();
    let x = b.garbler_input(32);
    let y = b.evaluator_input(32);
    let product = b.mul(&x, &y);
    let circuit = b.build(&product);
    let ands = circuit.and_count() as f64;
    let mut rng = seeded(0x6763);
    m.insert(
        "gc.garble_ns_per_and".into(),
        median_ns(iterations, 1, || drop(black_box(garble(&circuit, &mut rng)))) / ands,
    );
    let (garbled, enc) = garble(&circuit, &mut rng);
    let gl: Vec<u128> = (0..32).map(|i| enc.garbler_label(i, false)).collect();
    let el: Vec<u128> = (0..32).map(|i| enc.evaluator_pair(i).0).collect();
    m.insert(
        "gc.eval_ns_per_and".into(),
        median_ns(iterations, 1, || drop(black_box(evaluate(&circuit, &garbled, &gl, &el)))) / ands,
    );

    // The 128 base OTs every IKNP set-up starts with.
    let group_kind = sys.ot_group;
    let base_ns = slow_median_ns(SLOW_SAMPLES, || {
        run_two_party(
            move |t| {
                let choices: Vec<bool> = (0..128).map(|i| i % 3 == 0).collect();
                base_ot_receive(&group_kind.group(), &t, &choices, &mut seeded(0x6f74))
            },
            move |t| {
                let pairs: Vec<(u128, u128)> = (0..128).map(|i| (i, i + 1)).collect();
                base_ot_send(&group_kind.group(), &t, &pairs, &mut seeded(0x6f75));
            },
        );
    });
    m.insert("gc.ot.base_ms".into(), base_ns / 1e6);
    // Extension cost per OT: what a large batch takes beyond the base
    // OTs it starts with.
    let count = 32_768usize;
    let extended_ns = slow_median_ns(SLOW_SAMPLES, || {
        run_two_party(
            move |t| {
                drop(rot_receiver_offline(&group_kind.group(), &t, count, &mut seeded(0x726f)))
            },
            move |t| drop(rot_sender_offline(&group_kind.group(), &t, count, &mut seeded(0x7270))),
        );
    });
    m.insert("gc.ot.iknp_ns_per_ot".into(), (extended_ns - base_ns).max(0.0) / count as f64);

    let mut and_gates = 0u64;
    let build_ms = slow_median_ns(SLOW_SAMPLES, || {
        let circuits = build_session_circuits(sys, variant, fixed);
        and_gates = circuits.iter().map(|c| c.and_count() as u64).sum();
    }) / 1e6;
    m.insert("gc.circuits_build_ms".into(), build_ms);
    m.insert("gc.and_gates_per_query".into(), and_gates as f64);
}

/// Times the two phases of a two-party micro-run: both parties meet at a
/// barrier before and after each phase, and the client's clock reads the
/// phase walls. Returns `(offline_ms, online_ms)` medians.
fn two_party_phases<C, S>(samples: usize, client: C, server: S) -> (f64, f64)
where
    C: Fn(&MemTransport, &dyn Fn()) + Send + Sync + 'static,
    S: Fn(&MemTransport, &dyn Fn()) + Send + Sync + 'static,
{
    let (client, server) = (Arc::new(client), Arc::new(server));
    let (mut offline, mut online) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        let barrier = Arc::new(Barrier::new(2));
        let (client, server, barrier_s) =
            (Arc::clone(&client), Arc::clone(&server), Arc::clone(&barrier));
        let (times, (), _) = run_two_party(
            move |t| {
                // The client's `edge` is called three times: start, the
                // offline/online boundary, end.
                let marks = std::cell::RefCell::new(Vec::with_capacity(3));
                client(&t, &|| {
                    barrier.wait();
                    marks.borrow_mut().push(Instant::now());
                });
                marks.into_inner()
            },
            move |t| {
                server(&t, &|| {
                    barrier_s.wait();
                });
            },
        );
        assert_eq!(times.len(), 3, "a micro-run marks start, phase edge and end");
        offline.push(ms(times[1] - times[0]));
        online.push(ms(times[2] - times[1]));
    }
    (median(&offline), median(&online))
}

/// `core.{hgs,fhgs,chgs}`, `core.packing`, `core.gcmod` and `core.plane`:
/// the protocol modules on their own, at test-tiny shapes, over
/// `MemTransport`.
fn core_protocols(
    m: &mut Ledger,
    sys: &SystemConfig,
    variant: ProtocolVariant,
    fixed: &Arc<FixedTransformer>,
) {
    let ctx = sys.he.clone();
    let ring = sys.ring();
    let cfg = &sys.model;
    let (n, vocab, d) = (cfg.n_tokens, cfg.vocab, cfg.d_model);
    let mut rng = seeded(0x636f_7265);
    let kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.secret_key().clone();
    let x = MatZ::random(&ring, n, vocab, &mut rng);
    let w = MatZ::random(&ring, vocab, d, &mut rng);
    let x_proj = MatZ::random(&ring, n, d, &mut rng);
    let w_proj = MatZ::random(&ring, d, d, &mut rng);
    let chgs_ws: Vec<MatZ> = (0..4).map(|_| MatZ::random(&ring, vocab, d, &mut rng)).collect();

    // Session-constant weights run as the sessions run them: masks
    // encoded once into a plane, in the rotation mode the layout
    // selector picks for the shape.
    let encoder = BatchEncoder::new(&ctx);
    let eval = Evaluator::new(&ctx);
    let plane = |packing: Packing, rows: usize, w: &MatZ| {
        let mode = chain_mode(ctx.params(), packing, rows, w.rows(), w.cols());
        Arc::new(PreparedMatmul::new_with_mode(packing, rows, w, &eval, &encoder, mode))
    };
    let hgs_plane = plane(Packing::FeatureBased, n, &w);
    let chgs_planes: Vec<_> = chgs_ws.iter().map(|w| plane(Packing::TokensFirst, n, w)).collect();
    let matmul_planes = [Packing::FeatureBased, Packing::TokensFirst]
        .map(|packing| (packing, plane(packing, n, &w), plane(packing, n, &w_proj)));
    // Power-of-two hops compose any step; dedicated keys for every step
    // the planes and both variants' session plans issue keep the chains
    // from needing to.
    let mut dedicated = galois_steps(sys, ProtocolVariant::F);
    dedicated.extend(galois_steps(sys, ProtocolVariant::Fpc));
    for p in chgs_planes
        .iter()
        .chain([&hgs_plane])
        .chain(matmul_planes.iter().flat_map(|(_, a, b)| [a, b]))
    {
        dedicated.extend_from_slice(p.rotation_steps());
    }
    let half = ctx.params().row_size();
    dedicated.retain(|s| s % half != 0);
    let keys = Arc::new(kg.galois_keys_pow2(&dedicated, false, &mut rng));

    // HGS at the embedding shape (4×32 · 32×8), feature-based as
    // variant F runs it: request, masked product, reply.
    {
        let (ctx_c, ctx_s, sk, keys, x, w) =
            (ctx.clone(), ctx.clone(), sk.clone(), Arc::clone(&keys), x.clone(), w.clone());
        let packing = Packing::FeatureBased;
        let prepared = Arc::clone(&hgs_plane);
        let (off, on) = two_party_phases(
            SLOW_SAMPLES,
            move |t, edge| {
                let encoder = BatchEncoder::new(&ctx_c);
                let encryptor = Encryptor::new(&ctx_c, sk.clone(), 1);
                let rc = MatZ::random(&ring, n, vocab, &mut seeded(2));
                edge();
                let (pending, request) = hgs::client_request(
                    packing,
                    rc,
                    d,
                    &encoder,
                    &encryptor,
                    &mut encryptor.fork_rng(),
                );
                wire::send_packed(t, &request);
                let reply = wire::recv_packed(t, &ctx_c, pending.reply_layout(encoder.row_size()))
                    .expect("in-process flight");
                let pre = hgs::client_finish(pending, &reply, &encoder, &encryptor);
                edge();
                wire::send_matrix(t, &x.sub(&ring, &pre.rc));
                edge();
            },
            move |t, edge| {
                let encoder = BatchEncoder::new(&ctx_s);
                let eval = Evaluator::new(&ctx_s);
                let rs = MatZ::random(&ring, n, d, &mut seeded(3));
                let weights = MatmulWeights::Prepared(&prepared);
                edge();
                let request = wire::recv_packed(
                    t,
                    &ctx_s,
                    Layout::plan(packing, n, vocab, encoder.row_size()),
                )
                .expect("in-process flight");
                wire::send_packed(
                    t,
                    &hgs::server_compute(&request, &weights, &rs, &eval, &encoder, &keys),
                );
                edge();
                let u = wire::recv_matrix(t).expect("in-process flight");
                black_box(hgs::server_online(&ring, &u, &w, &rs));
                edge();
            },
        );
        m.insert("core.hgs.offline_ms".into(), off);
        m.insert("core.hgs.online_ms".into(), on);
    }

    // FHGS at the attention-score shape of one head (4×4 · 4×4), in the
    // triple packing the layout selector picks for it.
    {
        let (ctx_c, ctx_s, sk, keys) = (ctx.clone(), ctx.clone(), sk.clone(), Arc::clone(&keys));
        let dims = fhgs::FhgsDims { n, k: cfg.d_head(), m: n };
        let mode = fhgs_mode(ctx.params(), variant.packing(), dims);
        let a = MatZ::random(&ring, dims.n, dims.k, &mut rng);
        let b = MatZ::random(&ring, dims.k, dims.m, &mut rng);
        let (off, on) = two_party_phases(
            SLOW_SAMPLES,
            move |t, edge| {
                let encoder = BatchEncoder::new(&ctx_c);
                let encryptor = Encryptor::new(&ctx_c, sk.clone(), 4);
                let mut mask_rng = seeded(5);
                let rc_a = MatZ::random(&ring, dims.n, dims.k, &mut mask_rng);
                let rc_b = MatZ::random(&ring, dims.k, dims.m, &mut mask_rng);
                edge();
                let (pre, flights) = fhgs::client_request(
                    &ring,
                    mode,
                    rc_a,
                    rc_b,
                    &encoder,
                    &encryptor,
                    &mut encryptor.fork_rng(),
                );
                for flight in &flights {
                    flight.send(t);
                }
                edge();
                wire::send_matrix(t, &a.sub(&ring, &pre.rc_a));
                wire::send_matrix(t, &b.sub(&ring, &pre.rc_b));
                black_box(
                    fhgs::client_online(&pre, &ring, &ctx_c, &encoder, &encryptor, t)
                        .expect("in-process flight"),
                );
                edge();
            },
            move |t, edge| {
                let encoder = BatchEncoder::new(&ctx_s);
                let eval = Evaluator::new(&ctx_s);
                edge();
                let pre =
                    fhgs::server_offline(&ring, mode, dims, &ctx_s, &encoder, t, &mut seeded(6))
                        .expect("in-process flight");
                edge();
                let ua = wire::recv_matrix(t).expect("in-process flight");
                let ub = wire::recv_matrix(t).expect("in-process flight");
                black_box(fhgs::server_online(&pre, &ring, &ua, &ub, &encoder, &eval, &keys, t));
                edge();
            },
        );
        m.insert("core.fhgs.offline_ms".into(), off);
        m.insert("core.fhgs.online_ms".into(), on);
    }

    // CHGS: one tokens-first request feeds the embedding and the three
    // combined projections.
    {
        let (ctx_c, ctx_s, sk, keys, x) =
            (ctx.clone(), ctx.clone(), sk.clone(), Arc::clone(&keys), x.clone());
        let packing = Packing::TokensFirst;
        let out_cols = vec![d; 4];
        let (ws, planes) = (chgs_ws.clone(), chgs_planes.clone());
        let lambdas: Vec<MatZ> =
            out_cols.iter().map(|&oc| MatZ::random(&ring, n, oc, &mut rng)).collect();
        let (off, on) = two_party_phases(
            SLOW_SAMPLES,
            move |t, edge| {
                let encoder = BatchEncoder::new(&ctx_c);
                let encryptor = Encryptor::new(&ctx_c, sk.clone(), 7);
                let rc = MatZ::random(&ring, n, vocab, &mut seeded(8));
                edge();
                let (pending, request) = chgs::client_request(
                    packing,
                    rc,
                    &out_cols,
                    &encoder,
                    &encryptor,
                    &mut encryptor.fork_rng(),
                );
                wire::send_packed(t, &request);
                let replies: Vec<_> = pending
                    .reply_layouts(encoder.row_size())
                    .into_iter()
                    .map(|layout| wire::recv_packed(t, &ctx_c, layout).expect("in-process flight"))
                    .collect();
                let pre = chgs::client_finish(pending, &replies, &encoder, &encryptor);
                edge();
                wire::send_matrix(t, &x.sub(&ring, &pre.rc));
                edge();
            },
            move |t, edge| {
                let encoder = BatchEncoder::new(&ctx_s);
                let eval = Evaluator::new(&ctx_s);
                let mut mask_rng = seeded(9);
                let rss: Vec<MatZ> =
                    ws.iter().map(|w| MatZ::random(&ring, n, w.cols(), &mut mask_rng)).collect();
                let rs_refs: Vec<&MatZ> = rss.iter().collect();
                let weights: Vec<MatmulWeights<'_>> =
                    planes.iter().map(|p| MatmulWeights::Prepared(p)).collect();
                edge();
                let request = wire::recv_packed(
                    t,
                    &ctx_s,
                    Layout::plan(packing, n, vocab, encoder.row_size()),
                )
                .expect("in-process flight");
                for reply in
                    chgs::server_compute(&request, &weights, &rs_refs, &eval, &encoder, &keys)
                {
                    wire::send_packed(t, &reply);
                }
                edge();
                let u = wire::recv_matrix(t).expect("in-process flight");
                for (w, (rs, lam)) in ws.iter().zip(rss.iter().zip(&lambdas)) {
                    black_box(chgs::server_online(&ring, &u, w, rs, lam));
                }
                edge();
            },
        );
        m.insert("core.chgs.offline_ms".into(), off);
        m.insert("core.chgs.online_ms".into(), on);
    }

    // Encrypted matmul under both packings, embedding (4×32×8) plus
    // projection (4×8×8) shape.
    {
        let encryptor = Encryptor::new(&ctx, sk.clone(), 10);
        for (packing, embed_plane, proj_plane) in &matmul_planes {
            let name = match packing {
                Packing::FeatureBased => "feature_based",
                Packing::TokensFirst => "tokens_first",
            };
            let embed = encrypt_matrix(*packing, &x, &encoder, &encryptor);
            let proj = encrypt_matrix(*packing, &x_proj, &encoder, &encryptor);
            let ns = slow_median_ns(SLOW_SAMPLES, || {
                black_box(matmul_prepared(&embed, embed_plane, &eval, &keys).expect("keys"));
                black_box(matmul_prepared(&proj, proj_plane, &eval, &keys).expect("keys"));
            });
            m.insert(format!("core.packing.{name}_matmul_ms"), ns / 1e6);
        }
    }

    // One GC step (4×4 SoftMax) both ways: padded placeholder traffic,
    // and real garbling + OT.
    {
        let kind = GcStepKind::Softmax { rows: n, cols: n, prescale: fixed.attn_prescale };
        let circuit = Arc::new(build_step_circuit(&kind, fixed.spec(), sys.gc));
        let group_kind = sys.ot_group;
        for (mode, name) in [(GcMode::Simulated, "sim"), (GcMode::Garbled, "garbled")] {
            let (circuit_c, circuit_s) = (Arc::clone(&circuit), Arc::clone(&circuit));
            let (off, on) = two_party_phases(
                SLOW_SAMPLES,
                move |t, edge| {
                    let bits = vec![false; circuit_c.garbler_inputs as usize];
                    edge();
                    let step = GcClientStep::offline(
                        &circuit_c,
                        mode,
                        &group_kind.group(),
                        t,
                        &mut seeded(11),
                    );
                    edge();
                    step.online(&circuit_c, t, &bits);
                    edge();
                },
                move |t, edge| {
                    let bits = vec![false; circuit_s.evaluator_inputs as usize];
                    edge();
                    let step = GcServerStep::offline(
                        &circuit_s,
                        mode,
                        &group_kind.group(),
                        t,
                        &mut seeded(12),
                    );
                    edge();
                    black_box(step.online(&circuit_s, t, &bits));
                    edge();
                },
            );
            m.insert(format!("core.gcmod.softmax4x4.{name}.offline_ms"), off);
            m.insert(format!("core.gcmod.softmax4x4.{name}.online_ms"), on);
        }
    }

    let mut mask_bytes = 0;
    let build_ms = slow_median_ns(SLOW_SAMPLES, || {
        mask_bytes = ModelPlane::build(sys, variant, fixed).mask_bytes();
    }) / 1e6;
    m.insert("core.plane.build_ms".into(), build_ms);
    m.insert("core.plane.mask_bytes".into(), mask_bytes as f64);
}

/// `net.*` probes: the transports on their own.
fn net(m: &mut Ledger, iterations: usize) {
    const FRAME: usize = 64 << 20;
    const PINGS: usize = 200;

    let echo = |t: &dyn Transport, rounds: usize| {
        for _ in 0..rounds {
            let frame = t.recv();
            t.send_owned(frame);
        }
    };

    // In-memory: a one-byte round trip between two threads, and one
    // 64 MB frame sent by reference (the copy the simulated-GC padding
    // pays) and received.
    {
        let (ct, st, _) = MemTransport::pair();
        // `median_ns` makes one untimed call, then samples × reps.
        let server = std::thread::spawn(move || {
            echo(&st, 1 + iterations * PINGS);
            for _ in 0..SLOW_SAMPLES {
                black_box(st.recv());
            }
        });
        let ns = median_ns(iterations, PINGS, || {
            ct.send(&[1]);
            black_box(ct.recv());
        });
        m.insert("net.mem.roundtrip_us".into(), ns / 1e3);
        let frame = vec![0x5au8; FRAME];
        let ns = slow_median_ns(SLOW_SAMPLES, || ct.send(&frame));
        m.insert("net.mem.copy_gbps".into(), FRAME as f64 / ns);
        server.join().expect("mem echo thread");
    }

    // Loopback TCP: the same two measurements through `net::tcp`.
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let mut conn = TcpConnection::accept(&listener).expect("accept");
            let st = conn.take_channel(0);
            echo(&st, 1 + iterations * PINGS);
            for _ in 0..SLOW_SAMPLES {
                black_box(st.recv());
                st.send(&[1]);
            }
        });
        let mut conn = TcpConnection::connect(addr).expect("connect");
        let ct = conn.take_channel(0);
        let ns = median_ns(iterations, PINGS, || {
            ct.send(&[1]);
            black_box(ct.recv());
        });
        m.insert("net.tcp.roundtrip_us".into(), ns / 1e3);
        let frame = vec![0x5au8; FRAME];
        // Acknowledged, so the clock stops when the peer has the frame.
        let ns = slow_median_ns(SLOW_SAMPLES, || {
            ct.send(&frame);
            black_box(ct.recv());
        });
        m.insert("net.tcp.gbps".into(), FRAME as f64 / ns);
        server.join().expect("tcp echo thread");
    }

    // The LAN shaper against the analytic model it enforces.
    {
        let lan = NetworkModel::paper_lan();
        let (flights, bytes) = (8u64, 256usize << 10);
        let (ct, st, _) = MemTransport::pair();
        let shaped = ShapedTransport::new(ct, lan);
        let frame = vec![0u8; bytes];
        let ns = slow_median_ns(SLOW_SAMPLES, || {
            for _ in 0..flights {
                shaped.send(&frame);
            }
        });
        drop(st);
        let predicted = lan.time_for(flights, flights * bytes as u64);
        m.insert("net.shaped.lan_drift".into(), ns / predicted.as_nanos() as f64);
    }
}

/// `serve.*`: one unshaped server, three sessions — a cold open, a warm
/// one (plane-cache hit), and one that suspends to disk and resumes —
/// plus rejected hellos (the handshake round trip alone; the server logs
/// each to stderr as a failed session) and `/stats` polls.
fn serve(m: &mut Ledger, cfg: &TransformerConfig, out_dir: &Path) {
    let variant = ProtocolVariant::Fpc;
    let dir = out_dir.join(format!("suspend-{}", std::process::id()));
    let mut config = ServerConfig::test_default(cfg.clone());
    config.weight_seed = WEIGHT_SEED;
    config.max_workers = 1;
    config.pool = 2;
    config.suspend_dir = Some(dir.clone());
    let max_queries = config.max_queries_per_session;

    let t0 = Instant::now();
    let server = ServerBuilder::from_config(config).bind("127.0.0.1:0").expect("bind loopback");
    m.insert("serve.bind_ms".into(), ms(t0.elapsed()));
    let addr = server.local_addr().expect("bound address");
    // Each rejected hello concludes (as failed) like a session does.
    let server = std::thread::spawn(move || server.serve_sessions(3 + SLOW_SAMPLES));
    let client = ClientBuilder::new(variant).pool(2).seed(0x7365);
    let tokens = vec![0usize; cfg.n_tokens];

    // A hello booking more queries than the server allows is answered by
    // the event loop with a reject: connect + hello + reply, no session.
    let handshake: Vec<f64> = (0..SLOW_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let refused = client.open(addr, max_queries + 1);
            assert!(refused.is_err(), "an over-booked hello must be rejected");
            ms(t0.elapsed())
        })
        .collect();
    m.insert("serve.handshake_ms".into(), median(&handshake));
    let polls: Vec<f64> = (0..SLOW_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            poll_stats(addr).expect("stats poll");
            ms(t0.elapsed())
        })
        .collect();
    m.insert("serve.stats_poll_ms".into(), median(&polls));

    for name in ["cold", "warm"] {
        let t0 = Instant::now();
        let mut handle = client.open(addr, 1).expect("open session");
        m.insert(format!("serve.open_ms.{name}"), ms(t0.elapsed()));
        handle.infer(&tokens).expect("query");
        handle.finish().expect("summary");
    }

    let mut handle = client.open(addr, 2).expect("open session");
    handle.infer(&tokens).expect("query");
    let t0 = Instant::now();
    let parked = handle.suspend().expect("suspend");
    m.insert("serve.suspend_ms".into(), ms(t0.elapsed()));
    let image_bytes: u64 = std::fs::read_dir(&dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|md| md.len()).sum())
        .unwrap_or(0);
    m.insert("serve.suspend_image_bytes".into(), image_bytes as f64);
    let t0 = Instant::now();
    let mut handle = parked.resume(addr).expect("resume");
    m.insert("serve.resume_ms".into(), ms(t0.elapsed()));
    handle.infer(&tokens).expect("query");
    handle.finish().expect("summary");

    let stats = server.join().expect("server thread");
    let planes = stats.prepared();
    m.insert(
        "serve.plane_cache.hit_share".into(),
        planes.reused as f64 / (planes.built + planes.reused).max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `nn`, `math`, `ss`, `obs`: the floors under everything else.
fn small_layers(m: &mut Ledger, sys: &SystemConfig, fixed: &FixedTransformer, iterations: usize) {
    let cfg = &sys.model;
    let ring = sys.ring();
    let mut rng = seeded(0x736d);
    let tokens: Vec<usize> = (0..cfg.n_tokens).map(|_| rng.gen_range(0..cfg.vocab)).collect();
    m.insert(
        "nn.fixed_logits_us".into(),
        median_ns(iterations, 1, || drop(black_box(fixed.logits_combined(&tokens)))) / 1e3,
    );
    let a = MatZ::random(&ring, cfg.n_tokens, cfg.vocab, &mut rng);
    let b = MatZ::random(&ring, cfg.vocab, cfg.d_model, &mut rng);
    m.insert(
        "math.matz_matmul_us".into(),
        median_ns(iterations, 16, || drop(black_box(a.matmul(&ring, &b)))) / 1e3,
    );
    let xs: Vec<u64> = (0..4096).map(|_| ring.random(&mut rng)).collect();
    m.insert(
        "ss.share_vec_ns_per_elem".into(),
        median_ns(iterations, 1, || drop(black_box(primer_ss::share_vec(&ring, &xs, &mut rng))))
            / xs.len() as f64,
    );
    // `run` refuses to start with PRIMER_TRACE set, so this is the
    // disabled path every instrumented call in the program takes.
    m.insert(
        "obs.span_disabled_ns".into(),
        median_ns(iterations, 1024, || drop(black_box(primer_obs::span!("bench.disabled")))),
    );
}

fn sum_counts(
    rounds: &[primer_core::ServeRound],
    pick: impl Fn(&primer_core::ServeRound) -> OpCounts,
) -> OpCounts {
    rounds.iter().fold(OpCounts::default(), |acc, r| acc.plus(&pick(r)))
}

/// The rows read off the workload's own runs: the server's per-query HE
/// counts and step ledger, the decorator's per-party transport time, the
/// LAN residual and the tracing overhead.
fn workload_ledger(m: &mut Ledger, w: &Workload, plain: &Outcome, traced: &Outcome) {
    let q = traced.attempted.max(1) as f64;
    let rounds = &traced.rounds;
    let per_query =
        |total: u64| if rounds.is_empty() { 0.0 } else { total as f64 / rounds.len() as f64 };

    let offline = sum_counts(rounds, |r| r.he_offline);
    let online = sum_counts(rounds, |r| r.he_online);
    for (phase, counts) in [("offline", offline), ("online", online)] {
        let values = [
            counts.rotations,
            counts.ntt,
            counts.mask_prep,
            counts.mul_plain,
            counts.add,
            counts.add_plain,
            counts.encrypt,
            counts.decrypt,
        ];
        for (name, total) in HE_COUNTS.iter().zip(values) {
            m.insert(format!("he.count.{name}.{phase}"), per_query(total));
        }
    }

    let (mut offline_compute, mut online_compute) = (Duration::ZERO, Duration::ZERO);
    for (name, cat) in STEPS.iter().zip(StepCategory::all()) {
        let (mut off, mut on, mut bytes) = (Duration::ZERO, Duration::ZERO, 0u64);
        for r in rounds {
            let (o, n) = r.steps.get(cat);
            off += o.compute;
            on += n.compute;
            bytes += o.bytes + n.bytes;
        }
        offline_compute += off;
        online_compute += on;
        let per_query_ms =
            |d: Duration| if rounds.is_empty() { 0.0 } else { ms(d) / rounds.len() as f64 };
        m.insert(format!("core.step.{name}.offline_ms"), per_query_ms(off));
        m.insert(format!("core.step.{name}.online_ms"), per_query_ms(on));
        m.insert(format!("core.step.{name}.bytes"), per_query(bytes));
    }
    // The ledger must account for every byte the meter saw.
    if !rounds.is_empty() {
        let ledger_bytes: u64 = rounds
            .iter()
            .flat_map(|r| StepCategory::all().map(|cat| r.steps.get(cat)))
            .map(|(off, on)| off.bytes + on.bytes)
            .sum();
        assert_eq!(
            ledger_bytes,
            traced.traffic.total_bytes(),
            "step bytes do not add up to the wire"
        );
    }
    // Reconciliation: what share of each phase's wall the step ledger
    // accounts for. In-memory, the ledger's own sums against the
    // client-side walls; over TCP, the server's phase sums against them.
    let online_wall_ms: f64 = traced.online_ms.iter().sum();
    let (offline_ms, online_ms, offline_wall_ms) = if traced.summaries.is_empty() {
        // One sample per refill, each the refill wall ÷ its bundles.
        let per_bundle: f64 = traced.offline_ms_per_query.iter().sum();
        let refills = traced.offline_ms_per_query.len().max(1) as f64;
        (ms(offline_compute), ms(online_compute), per_bundle * q / refills)
    } else {
        // The pipelined producers run alongside the whole session, so
        // the session wall is the offline phase's wall.
        let sum = |pick: fn(&primer_serve::SessionSummary) -> u64| {
            traced.summaries.iter().map(|s| pick(s) as f64 / 1e6).sum::<f64>()
        };
        (sum(|s| s.offline.compute_ns), sum(|s| s.online.compute_ns), traced.wall_s * 1e3)
    };
    m.insert("core.step.offline_coverage".into(), offline_ms / offline_wall_ms);
    m.insert("core.step.online_coverage".into(), online_ms / online_wall_ms);

    for party in ["client", "server"] {
        let send = spans::total_ns(&traced.spans, "transport.send", party);
        let recv = spans::total_ns(&traced.spans, "transport.recv", party);
        m.insert(format!("net.{party}.send_ms_per_query"), send as f64 / 1e6 / q);
        m.insert(format!("net.{party}.recv_wait_ms_per_query"), recv as f64 / 1e6 / q);
    }

    // query_wall ≈ bytes ÷ 100 MB/s + flights × 2.3 ms + compute: what is
    // left of the wall once the modelled link is taken out.
    let residual = match w.kind {
        Kind::TcpLan { .. } => {
            let link = NetworkModel::paper_lan()
                .time_for(plain.traffic.total_messages(), plain.traffic.total_bytes());
            plain.query_wall_ms() - ms(link) / plain.attempted as f64
        }
        Kind::Mem { .. } => 0.0,
    };
    m.insert("net.lan_residual_ms".into(), residual);
    m.insert("trace.overhead_share".into(), traced.query_wall_ms() / plain.query_wall_ms() - 1.0);
}

/// `core.costmodel.drift.*`: measured phase time ÷ the analytic model's
/// prediction. The model is priced with this host's own per-op costs at
/// the profile the workloads run (`OpCosts::measure()` prices the
/// paper's n = 8192 ring instead, and takes seconds), its gate counts
/// calibrated on this profile's circuits.
fn costmodel_drift(
    m: &mut Ledger,
    w: &Workload,
    sys: &SystemConfig,
    variant: ProtocolVariant,
    plain: &Outcome,
) {
    let us = |name: &str| m[&format!("he.op.{name}_us")] * 1e-6;
    let ctx = &sys.he;
    let encoder = BatchEncoder::new(ctx);
    let mut rng = seeded(0x6472);
    let kg = KeyGenerator::new(ctx, &mut rng);
    let encryptor = Encryptor::new(ctx, kg.secret_key().clone(), 0x6473);
    let fresh = encryptor.encrypt(&encoder.encode(&[1, 2, 3]));
    let full = Evaluator::new(ctx).add(&fresh, &fresh);
    let costs = OpCosts {
        rotation: us("rotate"),
        mul_plain: us("mul_plain"),
        add: us("add"),
        encrypt: us("encrypt"),
        decrypt: us("decrypt"),
        gc_garble_and: m["gc.garble_ns_per_and"] * 1e-9,
        gc_eval_and: m["gc.eval_ns_per_and"] * 1e-9,
        ct_fresh_bytes: fresh.serialized_size() as u64,
        ct_full_bytes: full.serialized_size() as u64,
        ..OpCosts::paper_defaults()
    };
    let model =
        CostModel { simd: sys.simd_width(), gates: GcGateModel::calibrate(&sys.pipeline, sys.gc) };
    let link = match w.kind {
        Kind::TcpLan { .. } => NetworkModel::paper_lan(),
        Kind::Mem { .. } => NetworkModel::ideal(),
    };
    let (offline_s, online_s) = model.variant_latency(&sys.model, variant, &costs, &link);
    m.insert(
        "core.costmodel.drift.offline".into(),
        median(&plain.offline_ms_per_query) / (offline_s * 1e3),
    );
    m.insert("core.costmodel.drift.online".into(), median(&plain.online_ms) / (online_s * 1e3));
}
