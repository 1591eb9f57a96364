//! Layer probes of the traced run: each times calls into one layer's
//! public functions, at the shapes the workloads put through them. The
//! probes run on the calling thread marked as a pool worker, because in
//! the serving path these calls happen inside shard tasks where the
//! kernels stay serial.

use crate::spans::{Rec, NONE};
use crate::stats;
use crate::workloads::Sizes;
use netllm::{
    append_batched, read_frame, write_frame, AdmissionPolicy, AdmissionQueue, Arrival, FleetAction,
    FleetModels, FleetObs, FleetSlot, Frame, InferenceSession, NetLlmFleet, PagePressure,
    PlacementView, ServedTask, ServingEngine, ShardedServer, Ticket, TicketStatus, FLEET_ABR,
    FLEET_CJS, FLEET_VP,
};
use nt_bench::{kind_of, ObsStreams};
use nt_llm::{PageConfig, PagePool};
use nt_nn::{AttnKv, KvPage, KvStorage, PagedAttnKv};
use nt_tensor::tensor::matmul_into;
use nt_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// KV length of the attention probes.
const ATTN_KV: usize = 128;
/// Context the decode and batched-append probes extend.
const DECODE_CONTEXT: usize = 64;
/// Sessions of the batched-append and engine-step probes: one shard's
/// share of the dense batch.
const SHARD_BATCH: usize = 16;

/// Median ns per call of `f`: batches of roughly a millisecond until
/// `budget` is spent (at least three), one span per batch.
fn time_ns(
    rec: &mut Rec,
    name: &'static str,
    layer: &'static str,
    budget: Duration,
    mut f: impl FnMut(),
) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let per_batch = (1_000_000 / once).clamp(1, 1 << 20);
    let end = Instant::now() + budget;
    let mut per_call = Vec::new();
    loop {
        let b0 = Instant::now();
        for _ in 0..per_batch {
            f();
        }
        let b1 = Instant::now();
        rec.span(name, layer, b0, b1, NONE, NONE);
        per_call.push((b1 - b0).as_nanos() as f64 / per_batch as f64);
        if b1 >= end && per_call.len() >= 3 {
            return stats::median(&per_call);
        }
    }
}

fn randn(rows: usize, cols: usize, rng: &mut Rng) -> Tensor {
    Tensor::randn([rows, cols], 0.5, rng)
}

/// Run every probe; `budget` is per probe.
pub fn run_all(
    rec: &mut Rec,
    sizes: &Sizes,
    seed: u64,
    budget: Duration,
) -> Vec<(&'static str, f64)> {
    let _serial = nt_tensor::pool::enter_worker();
    let models =
        FleetModels::sized(std::path::Path::new("perf-zoo-unused"), sizes.model, sizes.window);
    let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
    let streams = ObsStreams::generate(SHARD_BATCH.max(3), 64, seed);
    let mut rng = Rng::seeded(seed ^ 0x009e_0be5);
    let mut out = Vec::new();
    tensor_probes(rec, &mut out, &models, sizes, &mut rng, budget);
    nn_probes(rec, &mut out, &models, &mut rng, budget);
    llm_probes(rec, &mut out, &models, &mut rng, budget);
    task_probes(rec, &mut out, &fleet, &streams);
    serving_probes(rec, &mut out, &fleet, &streams, &mut rng, budget);
    sched_probes(rec, &mut out, budget);
    wire_probes(rec, &mut out, &models, &streams, budget);
    out
}

fn tensor_probes(
    rec: &mut Rec,
    out: &mut Vec<(&'static str, f64)>,
    models: &FleetModels,
    sizes: &Sizes,
    rng: &mut Rng,
    budget: Duration,
) {
    let d = models.abr.lm.cfg.d_model;
    // The dense batch's stacked MLP up-projection, and one decision's rows
    // through an attention projection.
    let shapes = [
        ("tensor.matmul_gmacs.dense", sizes.sessions, d, 4 * d),
        ("tensor.matmul_gmacs.single", 6, d, d),
    ];
    for (name, m, k, n) in shapes {
        let a = randn(m, k, rng);
        let b = randn(k, n, rng);
        let mut c = vec![0.0f32; m * n];
        let ns = time_ns(rec, name, "tensor", budget, || {
            matmul_into(black_box(a.data()), black_box(b.data()), &mut c, m, k, n);
            black_box(&c);
        });
        out.push((name, (m * k * n) as f64 / ns));
    }
}

fn nn_probes(
    rec: &mut Rec,
    out: &mut Vec<(&'static str, f64)>,
    models: &FleetModels,
    rng: &mut Rng,
    budget: Duration,
) {
    let (lm, store) = (&models.abr.lm, &models.abr.store);
    let d = lm.cfg.d_model;
    let attn = &lm.blocks[0].attn;
    let prefix = randn(ATTN_KV - 1, d, rng);
    let x = randn(1, d, rng);

    let mut kv = AttnKv::empty(d);
    kv.extend_rows(prefix.data(), prefix.data());
    let ns = time_ns(rec, "nn.attention_us.kv128", "nn", budget, || {
        black_box(attn.eval_cached(store, black_box(&x), &mut kv));
        kv.truncate(ATTN_KV - 1);
    });
    out.push(("nn.attention_us.kv128", ns / 1e3));

    let page_tokens = 16;
    let mut paged = PagedAttnKv::new(page_tokens, d);
    for _ in 0..ATTN_KV / page_tokens {
        paged.push_page(KvPage::new(page_tokens, d));
    }
    paged.extend_rows(prefix.data(), prefix.data());
    let ns = time_ns(rec, "nn.attention_us.kv128_paged", "nn", budget, || {
        black_box(attn.eval_cached(store, black_box(&x), &mut paged));
        paged.truncate(ATTN_KV - 1);
    });
    out.push(("nn.attention_us.kv128_paged", ns / 1e3));
}

fn llm_probes(
    rec: &mut Rec,
    out: &mut Vec<(&'static str, f64)>,
    models: &FleetModels,
    rng: &mut Rng,
    budget: Duration,
) {
    let (lm, store) = (&models.abr.lm, &models.abr.store);
    let d = lm.cfg.d_model;
    let context = randn(DECODE_CONTEXT, d, rng);

    // Decode: 1..=6 new rows onto a 64-row context (21 rows per call).
    let steps: Vec<Tensor> = (1..=6).map(|r| randn(r, d, rng)).collect();
    let mut sess = InferenceSession::new(lm);
    sess.append(lm, store, &context);
    let ns = time_ns(rec, "llm.append_us_per_row.decode", "llm", budget, || {
        for rows in &steps {
            black_box(sess.append(lm, store, rows));
            sess.truncate(DECODE_CONTEXT);
        }
    });
    out.push(("llm.append_us_per_row.decode", ns / 21.0 / 1e3));

    // Prefill: 64 rows into an empty session, the re-anchor shape.
    let ns = time_ns(rec, "llm.append_us_per_row.prefill", "llm", budget, || {
        sess.clear();
        black_box(sess.append(lm, store, &context));
    });
    out.push(("llm.append_us_per_row.prefill", ns / DECODE_CONTEXT as f64 / 1e3));

    let pool = PagePool::new(d, PageConfig { page_tokens: 16, budget_bytes: 64 * 2 * 16 * d * 4 });
    let ns = time_ns(rec, "llm.paged.alloc_release_ns_per_page", "llm", budget, || {
        let pages = pool.alloc_pages(8).expect("probe pool holds 64 pages");
        pool.release_pages(black_box(pages));
    });
    out.push(("llm.paged.alloc_release_ns_per_page", ns / 8.0));
}

/// The `ServedTask` hooks per task: one session of each kind stepped
/// through its stream the way the engine steps it, timing only the hooks.
fn task_probes(
    rec: &mut Rec,
    out: &mut Vec<(&'static str, f64)>,
    fleet: &NetLlmFleet,
    streams: &ObsStreams,
) {
    let names = [
        ("multimodal.plan_step_us.abr", "heads.settle_step_us.abr"),
        ("multimodal.plan_step_us.cjs", "heads.settle_step_us.cjs"),
        ("multimodal.plan_step_us.vp", "heads.settle_step_us.vp"),
    ];
    for group in [FLEET_ABR, FLEET_CJS, FLEET_VP] {
        // Session index `group` of a mixed stream set has this kind.
        debug_assert_eq!(kind_of(group), group);
        let (lm, store) = fleet.backbone(group);
        let mut slot = fleet.new_slot(group);
        let mut sess = InferenceSession::new(lm);
        let (mut plan_ns, mut settle_ns) = (Vec::new(), Vec::new());
        let len = streams.len_for(group, 64).max(1);
        for i in 0..64 {
            let obs = streams.obs(group, i % len);
            let t0 = Instant::now();
            let plan = fleet.plan_step(&mut slot, &obs, &sess);
            let t1 = Instant::now();
            if plan.reanchor {
                sess.clear();
            }
            let hidden = sess.append(lm, store, &plan.tokens);
            let t2 = Instant::now();
            let step = fleet.settle_step(&mut slot, &obs, &hidden);
            let t3 = Instant::now();
            if let Some(rb) = step.rollback {
                sess.truncate(sess.len() - rb.drop_rows);
                sess.append(lm, store, &rb.post_tokens);
            }
            black_box(step.action);
            rec.span(names[group].0, "multimodal", t0, t1, NONE, NONE);
            rec.span(names[group].1, "heads", t2, t3, NONE, NONE);
            plan_ns.push((t1 - t0).as_nanos() as f64);
            settle_ns.push((t3 - t2).as_nanos() as f64);
        }
        out.push((names[group].0, stats::median(&plan_ns) / 1e3));
        out.push((names[group].1, stats::median(&settle_ns) / 1e3));
    }
}

fn serving_probes(
    rec: &mut Rec,
    out: &mut Vec<(&'static str, f64)>,
    fleet: &NetLlmFleet,
    streams: &ObsStreams,
    rng: &mut Rng,
    budget: Duration,
) {
    // backbone: 16 ragged sessions (1..=6 new rows each) on 64-row
    // contexts through one stacked append.
    let (lm, store) = fleet.backbone(FLEET_ABR);
    let d = lm.cfg.d_model;
    let context = randn(DECODE_CONTEXT, d, rng);
    let mut sessions: Vec<InferenceSession> = (0..SHARD_BATCH)
        .map(|_| {
            let mut s = InferenceSession::new(lm);
            s.append(lm, store, &context);
            s
        })
        .collect();
    let rows: Vec<usize> = (0..SHARD_BATCH).map(|s| 1 + s % 6).collect();
    let total: usize = rows.iter().sum();
    let emb = randn(total, d, rng);
    let ns = time_ns(rec, "backbone.append_batched_us_per_row", "backbone", budget, || {
        let mut refs: Vec<&mut InferenceSession> = sessions.iter_mut().collect();
        black_box(append_batched(lm, store, &mut refs, &emb, &rows));
        for s in sessions.iter_mut() {
            s.truncate(DECODE_CONTEXT);
        }
    });
    let append_ns_per_row = ns / total as f64;
    out.push(("backbone.append_batched_us_per_row", append_ns_per_row / 1e3));

    // serving: `ServingEngine::step` over 16 mixed sessions in session
    // order, as a shard sees them, beside a twin that makes the same
    // hook and stacked-append calls bare. Self share = what the step
    // costs beyond those calls: the engine's own concat / narrow /
    // bookkeeping.
    let mut engine: ServingEngine<NetLlmFleet> = ServingEngine::new();
    let ids: Vec<_> = (0..SHARD_BATCH).map(|s| engine.join_group(fleet, kind_of(s))).collect();
    let mut twins: Vec<Twin> = (0..SHARD_BATCH)
        .map(|s| (fleet.new_slot(kind_of(s)), InferenceSession::new(fleet.backbone(kind_of(s)).0)))
        .collect();
    let (mut step_ns, mut calls_ns) = (Vec::new(), Vec::new());
    let mut rows_total = 0usize;
    let rounds = 24;
    for round in 0..rounds {
        let obs: Vec<FleetObs> = (0..SHARD_BATCH)
            .map(|s| streams.obs(s, round % streams.len_for(s, 64).max(1)))
            .collect();
        let reqs: Vec<_> = ids.iter().copied().zip(obs.iter()).collect();
        let t0 = Instant::now();
        black_box(engine.step(fleet, &reqs));
        let t1 = Instant::now();
        rec.span("serving.step_ms.b16", "serving", t0, t1, NONE, NONE);
        step_ns.push((t1 - t0).as_nanos() as f64);
        let (calls, rows) = twin_step(fleet, &mut twins, &obs);
        calls_ns.push(calls.as_nanos() as f64);
        rows_total += rows;
    }
    let step_med = stats::median(&step_ns);
    out.push(("serving.step_ms.b16", step_med / 1e6));
    out.push(("serving.rows_per_decision", rows_total as f64 / (rounds * SHARD_BATCH) as f64));
    out.push(("serving.self_share", 1.0 - stats::median(&calls_ns) / step_med));
}

type Twin = (FleetSlot, InferenceSession);

/// Accumulates the time spent inside the calls handed to it.
#[derive(Default)]
struct Stopwatch(Duration);

impl Stopwatch {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.0 += t.elapsed();
        r
    }
}

/// `(start, end)` of each contiguous run of equal values — how the engine
/// cuts a batch into same-backbone stacked appends.
fn runs(groups: &[usize]) -> Vec<(usize, usize)> {
    let mut cuts = Vec::new();
    let mut i = 0;
    while i < groups.len() {
        let j = (i..groups.len()).find(|&j| groups[j] != groups[i]).unwrap_or(groups.len());
        cuts.push((i, j));
        i = j;
    }
    cuts
}

/// One stacked append over `batch` (one backbone); only the
/// `append_batched` call itself is on the stopwatch.
fn stacked_append(
    fleet: &NetLlmFleet,
    watch: &mut Stopwatch,
    batch: &mut [&mut Twin],
    parts: &[&Tensor],
    rows: &[usize],
) -> Tensor {
    let (lm, store) = fleet.backbone(fleet.group_of(&batch[0].0));
    let stacked = nt_tensor::concat(parts, 0);
    let mut sessions: Vec<&mut InferenceSession> = batch.iter_mut().map(|t| &mut t.1).collect();
    watch.time(|| append_batched(lm, store, &mut sessions, &stacked, rows))
}

/// One engine-shaped step over bare slots: plan every slot, one stacked
/// append per contiguous same-backbone run, settle, then the rollback
/// pass. Returns the time inside the hook and append calls alone, and the
/// rows that went through the backbone.
fn twin_step(fleet: &NetLlmFleet, twins: &mut [Twin], obs: &[FleetObs]) -> (Duration, usize) {
    let mut watch = Stopwatch::default();
    let (mut parts, mut rows) = (Vec::new(), Vec::new());
    for ((slot, sess), o) in twins.iter_mut().zip(obs) {
        let plan = watch.time(|| fleet.plan_step(slot, o, sess));
        if plan.reanchor {
            sess.clear();
        }
        rows.push(plan.tokens.shape()[0]);
        parts.push(plan.tokens);
    }
    let mut appended: usize = rows.iter().sum();
    let mut hidden: Vec<Tensor> = Vec::with_capacity(twins.len());
    let groups: Vec<usize> = twins.iter().map(|t| fleet.group_of(&t.0)).collect();
    for (i, j) in runs(&groups) {
        let mut batch: Vec<&mut Twin> = twins[i..j].iter_mut().collect();
        let refs: Vec<&Tensor> = parts[i..j].iter().collect();
        let h = stacked_append(fleet, &mut watch, &mut batch, &refs, &rows[i..j]);
        let mut row = 0;
        for &n in &rows[i..j] {
            hidden.push(h.narrow(0, row, n));
            row += n;
        }
    }
    let mut rollbacks: Vec<(&mut Twin, Tensor)> = Vec::new();
    for ((twin, o), h) in twins.iter_mut().zip(obs).zip(&hidden) {
        let step = watch.time(|| fleet.settle_step(&mut twin.0, o, h));
        black_box(&step.action);
        if let Some(rb) = step.rollback {
            twin.1.truncate(twin.1.len() - rb.drop_rows);
            rollbacks.push((twin, rb.post_tokens));
        }
    }
    let groups: Vec<usize> = rollbacks.iter().map(|(t, _)| fleet.group_of(&t.0)).collect();
    for (i, j) in runs(&groups) {
        let (mut batch, mut refs, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for (twin, post) in rollbacks[i..j].iter_mut() {
            rows.push(post.shape()[0]);
            refs.push(&*post);
            batch.push(&mut **twin);
        }
        appended += rows.iter().sum::<usize>();
        let _ = stacked_append(fleet, &mut watch, &mut batch, &refs, &rows);
    }
    (watch.0, appended)
}

fn sched_probes(rec: &mut Rec, out: &mut Vec<(&'static str, f64)>, budget: Duration) {
    let mut q: AdmissionQueue<u32> = AdmissionQueue::with_capacity(1024);
    let ns = time_ns(rec, "sched.queue_push_drain_ns", "sched", budget, || {
        for i in 0..64u64 {
            let a = Arrival { ticket: Ticket(i), session: i, group: 0, obs: 0u32 };
            q.push(a).expect("queue under its cap");
        }
        black_box(q.drain_tick());
    });
    out.push(("sched.queue_push_drain_ns", ns / 64.0));

    let policy = AdmissionPolicy::PageAware { budget_pages: 64 };
    let active = [16usize, 15, 16, 16];
    let bytes = [4096usize, 4000, 4100, 4050];
    let pressure = [
        PagePressure { free_pages: 40, held_pages: 50 },
        PagePressure { free_pages: 40, held_pages: 48 },
        PagePressure { free_pages: 40, held_pages: 52 },
        PagePressure { free_pages: 40, held_pages: 48 },
    ];
    let same = [5usize, 6, 5, 6];
    let view = PlacementView {
        active: &active,
        cache_bytes: &bytes,
        pressure: &pressure,
        same_backbone: &same,
        need_pages: 0,
    };
    let mut id = 0u64;
    let ns = time_ns(rec, "sched.place_ns", "sched", budget, || {
        id += 1;
        black_box(policy.place(black_box(id), &view));
    });
    out.push(("sched.place_ns", ns));
}

fn wire_probes(
    rec: &mut Rec,
    out: &mut Vec<(&'static str, f64)>,
    models: &FleetModels,
    streams: &ObsStreams,
    budget: Duration,
) {
    // One real decision per task gives the completion payloads.
    let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
    let mut server: ShardedServer<NetLlmFleet> = ShardedServer::new(1);
    let mut submits = Vec::new();
    let mut completions = Vec::new();
    for group in [FLEET_ABR, FLEET_CJS, FLEET_VP] {
        let id = server.join_group(&fleet, group);
        let obs = streams.obs(group, 0);
        let ticket = server.submit(id, obs.clone()).expect("probe submit");
        server.tick(&fleet);
        let TicketStatus::Served(action) = server.poll_status(ticket) else {
            panic!("probe ticket did not serve in its tick");
        };
        let action: FleetAction = action;
        let logits = server.last_logits(id).to_vec();
        submits.push(Frame::Submit { session: id, obs });
        completions.push(Frame::Completion {
            ticket: ticket.0,
            session: id,
            step: 0,
            action,
            logits,
        });
    }
    let grant_len = {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::TicketGrant { session: 0, ticket: 0 }).expect("encode grant");
        buf.len()
    };
    let mut bytes = 0usize;
    let mut probe = |frames: &[Frame],
                     enc: &'static str,
                     dec: &'static str,
                     out: &mut Vec<(&'static str, f64)>| {
        let (mut enc_ns, mut dec_ns) = (0.0, 0.0);
        for frame in frames {
            let mut buf = Vec::with_capacity(4096);
            enc_ns += time_ns(rec, enc, "wire", budget / 3, || {
                buf.clear();
                write_frame(&mut buf, black_box(frame)).expect("encode");
            });
            bytes += buf.len();
            dec_ns += time_ns(rec, dec, "wire", budget / 3, || {
                black_box(read_frame(&mut buf.as_slice()).expect("decode"));
            });
        }
        out.push((enc, enc_ns / frames.len() as f64));
        out.push((dec, dec_ns / frames.len() as f64));
    };
    probe(&submits, "wire.encode_ns.submit", "wire.decode_ns.submit", out);
    probe(&completions, "wire.encode_ns.completion", "wire.decode_ns.completion", out);
    // Submit + grant + completion, averaged over the three tasks.
    out.push(("wire.bytes_per_decision", bytes as f64 / 3.0 + grant_len as f64));
}
