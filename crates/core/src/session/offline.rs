//! The Offline phase: input-independent per-query precomputation,
//! produced into pools ahead of the queries that consume it.
//!
//! One **bundle** holds everything a single inference consumes beyond
//! the session state: the client's masks and HGS/FHGS/CHGS shares, the
//! server's correction masks and encrypted FHGS triples, and the garbled
//! sessions for every GC step. Bundles are *moved* out of an
//! [`super::OfflinePool`] — a consumed bundle (and with it its one-time masks)
//! can never be silently reused.
//!
//! # Parallel refills (DESIGN.md §9)
//!
//! Bundles are produced in **batches of `k`** so the heavy HE work fans
//! out across the `rayon` pool while the wire schedule stays fully
//! deterministic. Both parties run the same four stages:
//!
//! 1. **prepare** (client, parallel): per bundle, sample every mask from
//!    a per-bundle rng (forked from the session rng in bundle order, so
//!    masks are independent of the thread count) and encrypt every
//!    HGS/FHGS/CHGS request flight;
//! 2. **wire** (sequential): the client sends all request flights in
//!    bundle-major instance order; the server receives them in the same
//!    order and pre-samples every correction mask from its own
//!    per-bundle rng;
//! 3. **compute** (server, parallel): one pool task per HGS/CHGS
//!    instance — each runs the packed matmul plus masked add with a
//!    scratch evaluator (exact per-bundle op attribution without racing
//!    on shared counters); replies are then sent in bundle-major
//!    instance order, and the client decrypts them per bundle in
//!    parallel;
//! 4. **GC offline** (sequential): garbling / OT is interactive, so the
//!    GC sessions run per bundle in bundle order, continuing the same
//!    per-bundle rng. Each step takes the next window of the session's
//!    IKNP extension ([`GcClientOt`] / [`GcServerOt`]); the first step
//!    of the session runs the 128 base OTs first, from their own rng.
//!
//! Every flight's content and order on the wire is a function of the
//! session seeds and the (negotiated) batch size alone — never of
//! `PRIMER_THREADS` — which is what the thread-count determinism suite
//! asserts end to end.

use super::client::ClientCore;
use super::column_slice;
use super::server::ServerCore;
use crate::chgs;
use crate::costmodel::layout;
use crate::fhgs::{self, FhgsDims, FhgsFlight};
use crate::gcmod::{GcClientOt, GcClientStep, GcServerOt, GcServerStep};
use crate::hgs;
use crate::packing::{Layout, MatmulWeights, PackedMatrix};
use crate::stats::{StepBreakdown, StepCategory};
use crate::wire::{recv_packed, send_packed};
use primer_he::{Evaluator, HeError, OpCounts};
use primer_math::rng::seeded;
use primer_math::MatZ;
use primer_net::{MeteredTransport, Transport, TrafficSnapshot};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client-side masks for one block.
pub(crate) struct BlockMasks {
    pub q: MatZ,
    pub k: MatZ,
    pub v: MatZ,
    pub probs: Vec<MatZ>,
    pub av: MatZ,
    pub ln1: MatZ,
    pub gelu: MatZ,
    pub ln2: MatZ,
}

/// Client-side per-block precomputed protocol state.
pub(crate) struct BlockClientPre {
    pub qkv_shares: Option<[MatZ; 3]>,
    pub score_pre: Vec<fhgs::FhgsClient>,
    pub av_pre: Vec<fhgs::FhgsClient>,
    pub wo: hgs::HgsClient,
    pub w1: hgs::HgsClient,
    pub w2: hgs::HgsClient,
}

/// Everything the client's online phase consumes for one query.
pub(crate) struct ClientBundle {
    pub m_embed_in: MatZ,
    pub m_x1: MatZ,
    pub blocks: Vec<BlockMasks>,
    pub embed_shares: Vec<MatZ>,
    pub bclients: Vec<BlockClientPre>,
    pub cls: hgs::HgsClient,
    pub gc: Vec<GcClientStep>,
}

/// Server-side per-block precomputed protocol state.
pub(crate) struct BlockServerPre {
    pub qkv_rs: Option<[MatZ; 3]>,
    pub score_pre: Vec<fhgs::FhgsServer>,
    pub av_pre: Vec<fhgs::FhgsServer>,
    pub wo_rs: MatZ,
    pub w1_rs: MatZ,
    pub w2_rs: MatZ,
}

/// Everything the server's online phase consumes for one query, plus
/// the cost attribution of producing it.
pub(crate) struct ServerBundle {
    pub embed_rs: Vec<MatZ>,
    pub bservers: Vec<BlockServerPre>,
    pub cls_rs: MatZ,
    pub gc: Vec<GcServerStep>,
    /// Offline-phase costs of producing this bundle (per category).
    pub steps: StepBreakdown,
    /// HE ops spent producing this bundle.
    pub he: OpCounts,
    /// Traffic spent producing this bundle.
    pub traffic: TrafficSnapshot,
}

/// Server-side per-step wall-clock + traffic attribution.
pub(crate) struct StepTimer<'a> {
    transport: &'a dyn MeteredTransport,
    mark: Instant,
    last: TrafficSnapshot,
}

impl<'a> StepTimer<'a> {
    /// Resumes from the previous phase's final snapshot rather than a
    /// fresh meter capture. The client pipelines its sends, so a fresh
    /// capture could already contain the client's next flights — bytes
    /// that would then be attributed to *no* phase. Chaining snapshots
    /// keeps the union of all phase deltas equal to the total wire
    /// traffic exactly (per-step attribution stays best-effort).
    pub fn resume(transport: &'a dyn MeteredTransport, last: TrafficSnapshot) -> Self {
        Self { transport, mark: Instant::now(), last }
    }

    /// The meter snapshot at the last absorb (phase boundary).
    pub fn snapshot(&self) -> TrafficSnapshot {
        self.last
    }

    /// Restarts the wall-clock mark without absorbing anything — used
    /// when the elapsed time since the last absorb was already
    /// attributed elsewhere (the batched producer measures its parallel
    /// compute stage per task, so the timer must not count that span
    /// again in the next absorb).
    pub fn reset_clock(&mut self) {
        self.mark = Instant::now();
    }

    pub fn absorb(&mut self, steps: &mut StepBreakdown, cat: StepCategory, offline: bool) {
        self.absorb_returning(steps, cat, offline);
    }

    /// Like [`StepTimer::absorb`], also returning the traffic delta it
    /// attributed — the batched offline producer accumulates these into
    /// per-bundle traffic totals (whose union stays exactly the wire
    /// total, since every byte is absorbed exactly once).
    pub fn absorb_returning(
        &mut self,
        steps: &mut StepBreakdown,
        cat: StepCategory,
        offline: bool,
    ) -> TrafficSnapshot {
        let elapsed = self.mark.elapsed();
        let now = TrafficSnapshot::capture(self.transport.meter());
        let delta = now.since(&self.last);
        self.mark = Instant::now();
        self.last = now;
        let entry = steps.entry(cat);
        let slot = if offline { entry.0 } else { entry.1 };
        slot.absorb(elapsed, delta);
        delta
    }
}

/// Client embed-module state between request and reply.
enum EmbedPend {
    Chgs(chgs::ChgsPending),
    Hgs(hgs::HgsPending),
}

/// Client per-block pendings in instance order (FHGS instances complete
/// at request time — they expect no offline reply).
struct BlockPend {
    qkv: Option<[hgs::HgsPending; 3]>,
    score: Vec<fhgs::FhgsClient>,
    av: Vec<fhgs::FhgsClient>,
    wo: hgs::HgsPending,
    w1: hgs::HgsPending,
    w2: hgs::HgsPending,
}

/// A prepared client bundle paired with its received replies, handed
/// from the (sequential) wire stage to a parallel finish task by move.
type ClientFinishSlot = Mutex<Option<(ClientPrep, Vec<PackedMatrix>)>>;

/// One client bundle after the prepare stage: all masks sampled, every
/// request flight encrypted, every reply layout known.
struct ClientPrep {
    /// The bundle rng — continues into the GC offline stage.
    rng: StdRng,
    m_embed_in: MatZ,
    m_x1: MatZ,
    blocks: Vec<BlockMasks>,
    embed: EmbedPend,
    bpends: Vec<BlockPend>,
    cls: hgs::HgsPending,
    /// Request flights in wire order.
    requests: Vec<FhgsFlight>,
    /// Expected reply flights in wire order (HGS/CHGS only).
    reply_layouts: Vec<Layout>,
}

/// Prepare stage of one client bundle: pure local compute driven by the
/// bundle seed — safe to run concurrently with other bundles' prepares.
fn prepare_client_bundle(core: &ClientCore, seed: u64) -> ClientPrep {
    let cfg = core.sys.model.clone();
    let ring = core.sys.ring();
    let packing = core.variant.packing();
    let simd = core.encoder.row_size();
    let (n, d, dff, heads) = (cfg.n_tokens, cfg.d_model, cfg.d_ff, cfg.n_heads);
    let dh = cfg.d_head();
    let mut rng = seeded(seed);

    // Masks (sampled before any encryption, in a fixed order).
    let m_embed_in = MatZ::random(&ring, n, cfg.vocab, &mut rng);
    let m_x1 = MatZ::random(&ring, n, d, &mut rng); // block-0 input / residual
    let blocks: Vec<BlockMasks> = (0..cfg.n_blocks)
        .map(|_| BlockMasks {
            q: MatZ::random(&ring, n, d, &mut rng),
            k: MatZ::random(&ring, n, d, &mut rng),
            v: MatZ::random(&ring, n, d, &mut rng),
            probs: (0..heads).map(|_| MatZ::random(&ring, n, n, &mut rng)).collect(),
            av: MatZ::random(&ring, n, d, &mut rng),
            ln1: MatZ::random(&ring, n, d, &mut rng),
            gelu: MatZ::random(&ring, n, dff, &mut rng),
            ln2: MatZ::random(&ring, n, d, &mut rng),
        })
        .collect();

    let mut requests = Vec::new();
    let mut reply_layouts = Vec::new();

    // Embed / combined module.
    let (embed, qkv_first) = if core.variant.combined() {
        let (pend, req) = chgs::client_request(
            packing,
            m_embed_in.clone(),
            &[d, d, d, d],
            &core.encoder,
            &core.encryptor,
            &mut rng,
        );
        requests.push(FhgsFlight::Packed(req));
        reply_layouts.extend(pend.reply_layouts(simd));
        (EmbedPend::Chgs(pend), false)
    } else {
        let (pend, req) = hgs::client_request(
            packing,
            m_embed_in.clone(),
            d,
            &core.encoder,
            &core.encryptor,
            &mut rng,
        );
        requests.push(FhgsFlight::Packed(req));
        reply_layouts.push(pend.reply_layout(simd));
        (EmbedPend::Hgs(pend), true)
    };

    // Per-block linear offline.
    let block_inputs: Vec<MatZ> = (0..cfg.n_blocks)
        .map(|b| if b == 0 { m_x1.clone() } else { blocks[b - 1].ln2.clone() })
        .collect();
    let bpends: Vec<BlockPend> = (0..cfg.n_blocks)
        .map(|b| {
            let bm = &blocks[b];
            let qkv = (b > 0 || qkv_first).then(|| {
                [0; 3].map(|_| {
                    let (pend, req) = hgs::client_request(
                        packing,
                        block_inputs[b].clone(),
                        d,
                        &core.encoder,
                        &core.encryptor,
                        &mut rng,
                    );
                    requests.push(FhgsFlight::Packed(req));
                    reply_layouts.push(pend.reply_layout(simd));
                    pend
                })
            });
            let score_mode =
                layout::fhgs_mode(core.sys.he.params(), packing, FhgsDims { n, k: dh, m: n });
            let score = (0..heads)
                .map(|h| {
                    let (client, flights) = fhgs::client_request(
                        &ring,
                        score_mode,
                        column_slice(&bm.q, h * dh, dh),
                        column_slice(&bm.k, h * dh, dh).transpose(),
                        &core.encoder,
                        &core.encryptor,
                        &mut rng,
                    );
                    requests.extend(flights);
                    client
                })
                .collect();
            let av_mode =
                layout::fhgs_mode(core.sys.he.params(), packing, FhgsDims { n, k: n, m: dh });
            let av = (0..heads)
                .map(|h| {
                    let (client, flights) = fhgs::client_request(
                        &ring,
                        av_mode,
                        bm.probs[h].clone(),
                        column_slice(&bm.v, h * dh, dh),
                        &core.encoder,
                        &core.encryptor,
                        &mut rng,
                    );
                    requests.extend(flights);
                    client
                })
                .collect();
            let mut linear = |mask: MatZ, out_cols: usize| {
                let (pend, req) = hgs::client_request(
                    packing,
                    mask,
                    out_cols,
                    &core.encoder,
                    &core.encryptor,
                    &mut rng,
                );
                requests.push(FhgsFlight::Packed(req));
                reply_layouts.push(pend.reply_layout(simd));
                pend
            };
            let wo = linear(bm.av.clone(), d);
            let w1 = linear(bm.ln1.clone(), dff);
            let w2 = linear(bm.gelu.clone(), d);
            BlockPend { qkv, score, av, wo, w1, w2 }
        })
        .collect();
    // Classifier (row 0 of the last LN2 mask).
    let last_mask = &blocks[cfg.n_blocks - 1].ln2;
    let cls_mask = MatZ::from_fn(1, d, |_, j| last_mask[(0, j)]);
    let (cls, req) = hgs::client_request(
        packing,
        cls_mask,
        cfg.n_classes,
        &core.encoder,
        &core.encryptor,
        &mut rng,
    );
    requests.push(FhgsFlight::Packed(req));
    reply_layouts.push(cls.reply_layout(simd));

    ClientPrep {
        rng,
        m_embed_in,
        m_x1,
        blocks,
        embed,
        bpends,
        cls,
        requests,
        reply_layouts,
    }
}

/// Finish stage of one client bundle: decrypt every reply (in the same
/// instance order the requests went out) into the bundle's shares. Pure
/// local compute; returns the bundle (GC sessions still empty) and the
/// bundle rng for the GC stage.
fn finish_client_bundle(
    core: &ClientCore,
    prep: ClientPrep,
    replies: Vec<PackedMatrix>,
) -> (ClientBundle, StdRng) {
    let ClientPrep { rng, m_embed_in, m_x1, blocks, embed, bpends, cls, .. } = prep;
    let mut replies = replies.into_iter();
    let mut next = || replies.next().expect("one reply per HGS/CHGS request");

    let embed_shares = match embed {
        EmbedPend::Chgs(pend) => {
            let count = pend.reply_layouts(core.encoder.row_size()).len();
            let flights: Vec<PackedMatrix> = (0..count).map(|_| next()).collect();
            chgs::client_finish(pend, &flights, &core.encoder, &core.encryptor).shares
        }
        EmbedPend::Hgs(pend) => {
            vec![hgs::client_finish(pend, &next(), &core.encoder, &core.encryptor).share]
        }
    };
    let bclients: Vec<BlockClientPre> = bpends
        .into_iter()
        .map(|bp| {
            let qkv_shares = bp.qkv.map(|pends| {
                pends.map(|pend| {
                    hgs::client_finish(pend, &next(), &core.encoder, &core.encryptor).share
                })
            });
            let mut finish =
                |pend| hgs::client_finish(pend, &next(), &core.encoder, &core.encryptor);
            BlockClientPre {
                qkv_shares,
                score_pre: bp.score,
                av_pre: bp.av,
                wo: finish(bp.wo),
                w1: finish(bp.w1),
                w2: finish(bp.w2),
            }
        })
        .collect();
    let cls = hgs::client_finish(cls, &next(), &core.encoder, &core.encryptor);
    assert!(replies.next().is_none(), "unconsumed offline reply");

    let bundle =
        ClientBundle { m_embed_in, m_x1, blocks, embed_shares, bclients, cls, gc: Vec::new() };
    (bundle, rng)
}

/// Produces `k` client offline bundles as one batch: prepares (masks +
/// request encryption) in parallel, puts every flight on the wire in
/// bundle-major order, decrypts replies in parallel, then runs the
/// interactive GC offline sessions per bundle in order. See the module
/// docs for the stage/wire contract with [`produce_server_bundles`].
///
/// # Errors
///
/// [`HeError::Malformed`] on a corrupt or truncated reply flight — the
/// whole batch fails (no partial bundles are returned).
pub(crate) fn produce_client_bundles(
    core: &ClientCore,
    rng: &mut StdRng,
    ot: &mut GcClientOt,
    t: &dyn Transport,
    k: usize,
) -> Result<Vec<ClientBundle>, HeError> {
    let _span = primer_obs::span!("offline.refill", side = "client", k = k);
    // Per-bundle seeds drawn in bundle order: masks and encryption
    // randomness become a function of the session rng alone, not of
    // worker scheduling.
    let seeds: Vec<u64> = (0..k).map(|_| rng.gen()).collect();
    let preps = rayon::par_iter_chunks(k, |i| prepare_client_bundle(core, seeds[i]));

    // Wire: all requests out in bundle-major instance order, then all
    // replies back in the same order (the server replies in our order).
    for prep in &preps {
        for flight in &prep.requests {
            flight.send(t);
        }
    }
    let mut slots: Vec<ClientFinishSlot> = Vec::with_capacity(k);
    for prep in preps {
        let mut replies: Vec<PackedMatrix> = Vec::with_capacity(prep.reply_layouts.len());
        for layout in &prep.reply_layouts {
            replies.push(recv_packed(t, &core.sys.he, layout.clone())?);
        }
        slots.push(Mutex::new(Some((prep, replies))));
    }
    let slots = slots;

    let finished = rayon::par_iter_chunks(k, |i| {
        let (prep, replies) =
            slots[i].lock().expect("bundle slot poisoned").take().expect("bundle slot taken once");
        finish_client_bundle(core, prep, replies)
    });

    // GC offline is interactive (garbling + OT flights), so it stays
    // sequential per bundle, in bundle order, on this thread.
    Ok(finished
        .into_iter()
        .map(|(mut bundle, mut bundle_rng)| {
            bundle.gc = core
                .circuits
                .iter()
                .map(|c| GcClientStep::offline_in(c, ot, t, &mut bundle_rng))
                .collect();
            bundle
        })
        .collect())
}

/// One received HGS request with its pre-sampled correction mask.
struct HgsRecv {
    req: PackedMatrix,
    rs: MatZ,
}

/// Server embed-module state after the receive stage.
enum EmbedRecv {
    Chgs { req: PackedMatrix, rss: Vec<MatZ> },
    Hgs(HgsRecv),
}

/// Server per-block receive-stage state (FHGS instances are complete —
/// their offline half is receive + mask sampling only).
struct BlockRecv {
    qkv: Option<[HgsRecv; 3]>,
    score: Vec<fhgs::FhgsServer>,
    av: Vec<fhgs::FhgsServer>,
    wo: HgsRecv,
    w1: HgsRecv,
    w2: HgsRecv,
}

/// One server bundle after the receive stage.
struct ServerRecv {
    /// The bundle rng — continues into the GC offline stage.
    rng: StdRng,
    embed: EmbedRecv,
    blocks: Vec<BlockRecv>,
    cls: HgsRecv,
    steps: StepBreakdown,
    /// Wire traffic attributed to this bundle so far.
    traffic: TrafficSnapshot,
}

/// Receive stage of one server bundle: pulls every request flight off
/// the wire in the client's instance order, samples every correction
/// mask from the bundle rng, and attributes the received traffic per
/// Table II category. Sequential (it owns the wire).
///
/// # Errors
///
/// [`HeError::Malformed`] on a corrupt or truncated request flight.
fn recv_server_bundle(
    core: &ServerCore,
    seed: u64,
    t: &dyn MeteredTransport,
    timer: &mut StepTimer<'_>,
) -> Result<ServerRecv, HeError> {
    let cfg = core.sys.model.clone();
    let ring = core.sys.ring();
    let packing = core.variant.packing();
    let simd = core.encoder.row_size();
    let (n, d, dff, heads) = (cfg.n_tokens, cfg.d_model, cfg.d_ff, cfg.n_heads);
    let dh = cfg.d_head();
    let mut rng = seeded(seed);
    let start = timer.snapshot();
    let mut steps = StepBreakdown::new();

    let recv_hgs = |rows: usize,
                    in_cols: usize,
                    out_cols: usize,
                    rng: &mut StdRng|
     -> Result<HgsRecv, HeError> {
        let req = recv_packed(t, &core.sys.he, Layout::plan(packing, rows, in_cols, simd))?;
        Ok(HgsRecv { req, rs: MatZ::random(&ring, rows, out_cols, rng) })
    };

    // Embed / combined module.
    let embed = if core.variant.combined() {
        let req = recv_packed(t, &core.sys.he, Layout::plan(packing, n, cfg.vocab, simd))?;
        let rss = (0..4).map(|_| MatZ::random(&ring, n, d, &mut rng)).collect();
        timer.absorb(&mut steps, StepCategory::QxK, true);
        EmbedRecv::Chgs { req, rss }
    } else {
        let r = recv_hgs(n, cfg.vocab, d, &mut rng)?;
        timer.absorb(&mut steps, StepCategory::Embed, true);
        EmbedRecv::Hgs(r)
    };

    let qkv_first = !core.variant.combined();
    let recv_fhgs = |dims: FhgsDims, rng: &mut StdRng| -> Result<fhgs::FhgsServer, HeError> {
        // Both parties derive the same per-shape mode from public
        // dimensions, so the wire stays in lockstep without negotiation.
        let mode = layout::fhgs_mode(core.sys.he.params(), packing, dims);
        fhgs::server_offline(&ring, mode, dims, &core.sys.he, &core.encoder, t, rng)
    };
    let mut blocks: Vec<BlockRecv> = Vec::with_capacity(cfg.n_blocks);
    for b in 0..cfg.n_blocks {
        let qkv = if b > 0 || qkv_first {
            let r = [
                recv_hgs(n, d, d, &mut rng)?,
                recv_hgs(n, d, d, &mut rng)?,
                recv_hgs(n, d, d, &mut rng)?,
            ];
            timer.absorb(&mut steps, StepCategory::Qkv, true);
            Some(r)
        } else {
            None
        };
        let score = (0..heads)
            .map(|_| recv_fhgs(FhgsDims { n, k: dh, m: n }, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        timer.absorb(&mut steps, StepCategory::QxK, true);
        let av = (0..heads)
            .map(|_| recv_fhgs(FhgsDims { n, k: n, m: dh }, &mut rng))
            .collect::<Result<Vec<_>, _>>()?;
        timer.absorb(&mut steps, StepCategory::AttnValue, true);
        let wo = recv_hgs(n, d, d, &mut rng)?;
        let w1 = recv_hgs(n, d, dff, &mut rng)?;
        let w2 = recv_hgs(n, dff, d, &mut rng)?;
        timer.absorb(&mut steps, StepCategory::Others, true);
        blocks.push(BlockRecv { qkv, score, av, wo, w1, w2 });
    }
    let cls = recv_hgs(1, d, cfg.n_classes, &mut rng)?;
    timer.absorb(&mut steps, StepCategory::Others, true);

    let traffic = timer.snapshot().since(&start);
    Ok(ServerRecv { rng, embed, blocks, cls, steps, traffic })
}

/// One parallel compute job: the HE work of a single HGS/CHGS instance.
/// Weights resolve through the model plane — prepared NTT-form masks on
/// the default path, raw matrices on the fresh-mask reference path.
struct ComputeJob<'a> {
    bundle: usize,
    cat: StepCategory,
    req: &'a PackedMatrix,
    weights: Vec<MatmulWeights<'a>>,
    rss: Vec<&'a MatZ>,
}

/// A compute job's result: reply flights (in wire order), the HE ops it
/// spent (measured on a scratch evaluator, so per-bundle attribution is
/// exact under concurrency) and its compute time.
struct ComputeOut {
    bundle: usize,
    cat: StepCategory,
    replies: Vec<PackedMatrix>,
    he: OpCounts,
    elapsed: Duration,
}

/// Produces `k` server offline bundles as one batch, mirroring
/// [`produce_client_bundles`] flight for flight: receive every request
/// (sequential, pre-sampling all correction masks), run every HGS/CHGS
/// matmul as its own pool task, send the replies in bundle-major
/// instance order, then run the interactive GC offline sessions per
/// bundle. Wall-clock, traffic and HE ops are attributed per bundle and
/// per Table II category as before; the union of all bundle deltas still
/// equals the refill's total wire traffic exactly.
///
/// # Errors
///
/// [`HeError::Malformed`] on a corrupt or truncated request flight — the
/// whole batch fails (no partial bundles are returned).
pub(crate) fn produce_server_bundles(
    core: &ServerCore,
    eval: &Evaluator,
    rng: &mut StdRng,
    ot: &mut GcServerOt,
    t: &dyn MeteredTransport,
    wire_mark: &mut TrafficSnapshot,
    k: usize,
) -> Result<Vec<ServerBundle>, HeError> {
    let _span = primer_obs::span!("offline.refill", side = "server", k = k);
    let seeds: Vec<u64> = (0..k).map(|_| rng.gen()).collect();
    let mut timer = StepTimer::resume(t, *wire_mark);

    // Stage A (sequential): receive all requests, sample all masks.
    let mut recvs: Vec<ServerRecv> = seeds
        .iter()
        .map(|&seed| recv_server_bundle(core, seed, t, &mut timer))
        .collect::<Result<Vec<_>, _>>()?;

    // Stage B (parallel): one job per HGS/CHGS instance, in bundle-major
    // instance order — which is exactly the order replies go out in.
    let jobs: Vec<ComputeJob<'_>> = recvs
        .iter()
        .enumerate()
        .flat_map(|(i, recv)| {
            let mut jobs = Vec::new();
            match &recv.embed {
                EmbedRecv::Chgs { req, rss } => {
                    jobs.push(ComputeJob {
                        bundle: i,
                        cat: StepCategory::QxK,
                        req,
                        weights: core.plane.embed_weights(&core.encoder),
                        rss: rss.iter().collect(),
                    });
                }
                EmbedRecv::Hgs(r) => jobs.push(ComputeJob {
                    bundle: i,
                    cat: StepCategory::Embed,
                    req: &r.req,
                    weights: core.plane.embed_weights(&core.encoder),
                    rss: vec![&r.rs],
                }),
            }
            for (b, blk) in recv.blocks.iter().enumerate() {
                if let Some(qkv) = &blk.qkv {
                    for (r, wm) in qkv.iter().zip(core.plane.qkv_weights(b, &core.encoder)) {
                        jobs.push(ComputeJob {
                            bundle: i,
                            cat: StepCategory::Qkv,
                            req: &r.req,
                            weights: vec![wm],
                            rss: vec![&r.rs],
                        });
                    }
                }
                let linear = core.plane.linear_weights(b, &core.encoder);
                for (r, wm) in [&blk.wo, &blk.w1, &blk.w2].into_iter().zip(linear) {
                    jobs.push(ComputeJob {
                        bundle: i,
                        cat: StepCategory::Others,
                        req: &r.req,
                        weights: vec![wm],
                        rss: vec![&r.rs],
                    });
                }
            }
            jobs.push(ComputeJob {
                bundle: i,
                cat: StepCategory::Others,
                req: &recv.cls.req,
                weights: vec![core.plane.classifier_weights(&core.encoder)],
                rss: vec![&recv.cls.rs],
            });
            jobs
        })
        .collect();

    let outs: Vec<ComputeOut> = rayon::par_iter_chunks(jobs.len(), |j| {
        let job = &jobs[j];
        // Scratch evaluator per job: op counts attribute exactly to this
        // bundle without racing the session's shared counters. The
        // session arena is shared, so scratch buffers recycle across
        // jobs instead of each evaluator warming a pool it drops.
        let scratch = Evaluator::with_arena(&core.sys.he, Arc::clone(eval.arena()));
        let started = Instant::now();
        let replies = if job.weights.len() == 1 {
            vec![hgs::server_compute(
                job.req,
                &job.weights[0],
                job.rss[0],
                &scratch,
                &core.encoder,
                &core.gk,
            )]
        } else {
            chgs::server_compute(job.req, &job.weights, &job.rss, &scratch, &core.encoder, &core.gk)
        };
        ComputeOut {
            bundle: job.bundle,
            cat: job.cat,
            replies,
            he: scratch.counts(),
            elapsed: started.elapsed(),
        }
    });
    drop(jobs);

    // Fold compute time + HE ops into per-bundle attribution, then send
    // the replies in job (= bundle-major instance) order.
    let mut he_per_bundle = vec![OpCounts::default(); k];
    for out in &outs {
        let recv = &mut recvs[out.bundle];
        recv.steps.entry(out.cat).0.absorb(out.elapsed, TrafficSnapshot::default());
        he_per_bundle[out.bundle] = he_per_bundle[out.bundle].plus(&out.he);
    }
    // Stage B's wall-clock was attributed per job above; restart the
    // timer so the first send's absorb doesn't count that span again.
    timer.reset_clock();
    for out in outs {
        for reply in &out.replies {
            send_packed(t, reply);
        }
        let recv = &mut recvs[out.bundle];
        let delta = timer.absorb_returning(&mut recv.steps, out.cat, true);
        recv.traffic = recv.traffic.plus(&delta);
    }

    // Stage C (sequential): interactive GC offline per bundle, plus the
    // session-evaluator merge that keeps its totals meaningful.
    let bundles: Vec<ServerBundle> = recvs
        .into_iter()
        .zip(he_per_bundle)
        .map(|(recv, he)| {
            let ServerRecv { mut rng, embed, blocks, cls, mut steps, traffic } = recv;
            let gc: Vec<GcServerStep> = core
                .circuits
                .iter()
                .map(|c| GcServerStep::offline_in(c, ot, t, &mut rng))
                .collect();
            let gc_delta = timer.absorb_returning(&mut steps, StepCategory::Others, true);
            let traffic = traffic.plus(&gc_delta);

            let embed_rs = match embed {
                EmbedRecv::Chgs { rss, .. } => rss,
                EmbedRecv::Hgs(r) => vec![r.rs],
            };
            let bservers: Vec<BlockServerPre> = blocks
                .into_iter()
                .map(|blk| BlockServerPre {
                    qkv_rs: blk.qkv.map(|qkv| qkv.map(|r| r.rs)),
                    score_pre: blk.score,
                    av_pre: blk.av,
                    wo_rs: blk.wo.rs,
                    w1_rs: blk.w1.rs,
                    w2_rs: blk.w2.rs,
                })
                .collect();
            eval.absorb_counts(&he);
            ServerBundle { embed_rs, bservers, cls_rs: cls.rs, gc, steps, he, traffic }
        })
        .collect();
    *wire_mark = timer.snapshot();
    Ok(bundles)
}
