//! Garbling/evaluation throughput (per-AND costs for the cost model), the
//! AES bodies underneath it, IKNP extension, and gate counts of the
//! protocol's non-linear step circuits.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion, Throughput};
use primer_core::gcmod::{build_step_circuit, GcStepKind};
use primer_core::{build_session_circuits, ProtocolVariant, SystemConfig};
use primer_gc::aes::{Aes128, FIXED_KEY};
use primer_gc::garble::{evaluate, garble, garble_into};
use primer_gc::label::GarbleHash;
use primer_gc::ot::{rot_receiver_offline, rot_sender_offline};
use primer_gc::{CircuitBuilder, GcNumCfg, OtGroup};
use primer_math::rng::seeded;
use primer_math::{FixedSpec, Ring};
use primer_net::run_two_party;
use primer_nn::{FixedTransformer, PipelineSpec, TransformerConfig, TransformerWeights};

/// One batch width of one AES body, blocks fed back so calls chain.
fn bench_aes_width<const N: usize>(group: &mut BenchmarkGroup<'_>, aes: &Aes128) {
    group.throughput(Throughput::Bytes(16 * N as u64));
    let mut blocks: [u128; N] = std::array::from_fn(|i| i as u128);
    group.bench_function(format!("encrypt_blocks/{N}"), |bch| {
        bch.iter(|| {
            blocks = aes.encrypt_blocks(blocks);
            blocks
        })
    });
}

fn bench_aes(c: &mut Criterion) {
    let hw = Aes128::new(FIXED_KEY);
    let mut bodies = vec![("soft", Aes128::new_software(FIXED_KEY))];
    if hw.is_hardware() {
        bodies.push(("hw", hw));
    } else {
        println!("note: no AES-NI on this host — aes128/hw rows skipped");
    }
    for (tier, aes) in &bodies {
        let mut group = c.benchmark_group(format!("aes128/{tier}"));
        bench_aes_width::<1>(&mut group, aes);
        bench_aes_width::<4>(&mut group, aes);
        bench_aes_width::<8>(&mut group, aes);
        group.finish();
    }
}

fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_gates");
    group.sample_size(10);

    // A 32×32 multiplier: the canonical AND-heavy circuit.
    let mut b = CircuitBuilder::new();
    let x = b.garbler_input(32);
    let y = b.evaluator_input(32);
    let p = b.mul(&x, &y);
    let circuit = b.build(&p);
    group.throughput(Throughput::Elements(circuit.and_count() as u64));
    group.bench_function("garble_mul32", |bch| {
        let mut rng = seeded(510);
        bch.iter(|| garble(&circuit, &mut rng))
    });
    let mut rng = seeded(511);
    let (garbled, enc) = garble(&circuit, &mut rng);
    let gl: Vec<u128> = (0..32).map(|i| enc.garbler_label(i, false)).collect();
    let el: Vec<u128> = (0..32).map(|i| enc.evaluator_pair(i).0).collect();
    group.bench_function("evaluate_mul32", |bch| {
        bch.iter(|| evaluate(&circuit, &garbled, &gl, &el))
    });

    // A protocol step circuit at test numerics.
    let spec = PipelineSpec::new(Ring::new((1 << 29) + 11), FixedSpec::new(12, 5), 12);
    let gc = GcNumCfg { width: 32, frac: 12 };
    let softmax = build_step_circuit(
        &GcStepKind::Softmax { rows: 4, cols: 4, prescale: 1 << 11 },
        &spec,
        gc,
    );
    group.throughput(Throughput::Elements(softmax.and_count() as u64));
    group.bench_function("garble_softmax_4x4", |bch| {
        let mut rng = seeded(512);
        bch.iter(|| garble(&softmax, &mut rng))
    });

    // Every step circuit of a test-tiny Primer-FPC session — one unit per
    // step through the builder, its hashing and its dead-gate pass; both
    // parties pay this once at setup.
    let cfg = TransformerConfig::test_tiny();
    let sys = SystemConfig::test_profile(&cfg).expect("test-tiny fits the test profile");
    let weights = TransformerWeights::random(&cfg, &mut seeded(517));
    let fixed = FixedTransformer::quantize(&cfg, &weights, sys.pipeline);
    let session_ands: usize = build_session_circuits(&sys, ProtocolVariant::Fpc, &fixed)
        .iter()
        .map(|c| c.and_count())
        .sum();
    group.throughput(Throughput::Elements(session_ands as u64));
    group.bench_function("build_session_circuits", |bch| {
        bch.iter(|| build_session_circuits(&sys, ProtocolVariant::Fpc, &fixed))
    });

    // The session's GELU step (test-tiny: 4 tokens × d_ff 32) the way
    // the session runs it: one element's unit at the session's ring and
    // 48-bit words, 128 times, garbled two instances per pass. The labels
    // stay the size of a unit pair; the frame is the whole step's.
    // `garble_gelu_128` writes a fresh frame each time, so it pays the
    // page faults of 2.1 MB; `/recycled` garbles into the previous
    // frame's buffer, as a session does from its transport's pool — the
    // difference is the page-fault share.
    let gelu = build_step_circuit(&GcStepKind::Gelu { elems: 128 }, &sys.pipeline, sys.gc);
    group.throughput(Throughput::Elements(gelu.and_count() as u64));
    group.bench_function("garble_gelu_128", |bch| {
        let mut rng = seeded(513);
        bch.iter(|| garble(&gelu, &mut rng))
    });
    let hash = GarbleHash::new();
    let mut frame = Vec::new();
    group.bench_function("garble_gelu_128/recycled", |bch| {
        let mut rng = seeded(513);
        bch.iter(|| {
            let (garbled, _) = garble_into(&gelu, &hash, &mut rng, std::mem::take(&mut frame));
            frame = garbled.into_frame();
        })
    });
    drop(frame);
    let (garbled, enc) = garble(&gelu, &mut seeded(514));
    let gl: Vec<u128> =
        (0..gelu.garbler_inputs as usize).map(|i| enc.garbler_label(i, false)).collect();
    let el: Vec<u128> =
        (0..gelu.evaluator_inputs as usize).map(|i| enc.evaluator_pair(i).0).collect();
    group.bench_function("evaluate_gelu_128", |bch| {
        bch.iter(|| evaluate(&gelu, &garbled, &gl, &el))
    });

    // 32 768 random OTs (column PRGs, bit-matrix transpose, row hashes)
    // on top of the 128 base OTs a session's extension starts with. An
    // extension to zero OTs is those base OTs alone — `base_ot_128` is
    // the share to subtract from `iknp_extend_32k`. The base OTs are
    // paid once per session, so `base_ot_128_modp2048` prices the
    // production-parameter group at that rate.
    let count = 32_768usize;
    group.throughput(Throughput::Elements(128));
    for (name, group_of) in [
        ("base_ot_128", OtGroup::test_768 as fn() -> OtGroup),
        ("base_ot_128_modp2048", OtGroup::rfc3526_2048),
    ] {
        group.bench_function(name, |bch| {
            bch.iter(|| {
                run_two_party(
                    move |t| drop(rot_receiver_offline(&group_of(), &t, 0, &mut seeded(515))),
                    move |t| drop(rot_sender_offline(&group_of(), &t, 0, &mut seeded(516))),
                )
            })
        });
    }
    group.throughput(Throughput::Elements(count as u64));
    group.bench_function("iknp_extend_32k", |bch| {
        bch.iter(|| {
            run_two_party(
                move |t| {
                    drop(rot_receiver_offline(&OtGroup::test_768(), &t, count, &mut seeded(515)))
                },
                move |t| drop(rot_sender_offline(&OtGroup::test_768(), &t, count, &mut seeded(516))),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_aes, bench_gc);
criterion_main!(benches);
