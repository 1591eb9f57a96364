//! Release gates for the PR 9 page-economy scheduler at batch 64.
//!
//! The small-scale correctness of the policies (PageAware placement
//! order, steer page-feasibility, eviction pricing exactness, victim
//! protection) is pinned in `nt-netllm` (`src/sched.rs` unit tests,
//! `tests/paged_serving.rs`). This file gates the *operational* claims at
//! serving scale, which debug codegen would distort — CI runs
//! `cargo test --release -p nt-bench --test sched_gate`:
//!
//! - **Rebuild-row gate:** on the tight-budget (~40% of contiguous)
//!   B=64/K=4 trace, `PageAware`+`CheapestRebuild` must replay strictly
//!   fewer re-anchor rebuild rows than `CacheAware`+`ColdestReanchor`
//!   (the `MetricsRegistry` counter both pairs account identically),
//!   while every ticket still resolves and every session — evicted or
//!   not — matches an unbatched forced-clear replay at 1e-5.
//! - **Throughput gate:** under an ample budget (no evictions, no
//!   steering pressure) the page-economy pair must stay within 5% of the
//!   old pair's throughput, with identical logits — smarter placement is
//!   free when there is no pressure to react to.

#![cfg(not(debug_assertions))]
#![allow(clippy::needless_range_loop)] // tick index drives several parallel arrays

use netllm::{
    AdmissionPolicy, EvictionPolicy, InferenceSession, NetLlmAbr, ServedTask, ShardedServer, Ticket,
};
use nt_abr::AbrObservation;
use nt_llm::{session_floor_bytes, size_spec, PageConfig, PagePool, Zoo};
use std::collections::VecDeque;
use std::time::Instant;

const BATCH: usize = 64;
const SHARDS: usize = 4;
const TICKS: usize = 12;

fn model(seed: u64) -> NetLlmAbr {
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-sched-gate"));
    let mut m = NetLlmAbr::new(
        zoo.build_random(&size_spec("7b-sim")),
        netllm::AdaptMode::NoDomain,
        netllm::LoraSpec::default(),
        8,
        seed,
    );
    m.target_return = 2.0;
    m
}

fn streams(seed0: u64) -> Vec<Vec<AbrObservation>> {
    (0..BATCH).map(|s| AbrObservation::synthetic_stream(seed0 + s as u64, TICKS)).collect()
}

/// Contiguous footprint of the trace (sizes the tight / ample budgets).
fn contiguous_bytes(m: &NetLlmAbr, obs: &[Vec<AbrObservation>]) -> usize {
    let mut server = ShardedServer::with_policy(SHARDS, AdmissionPolicy::LeastLoaded);
    let ids: Vec<_> = (0..BATCH).map(|_| server.join(m)).collect();
    for t in 0..TICKS {
        let tickets: Vec<Ticket> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| server.submit(id, obs[s][t].clone()).unwrap())
            .collect();
        let _ = server.tick(m);
        for ticket in tickets {
            let _ = server.poll(ticket).expect("contiguous ticket resolves in its tick");
        }
    }
    server.cache_bytes()
}

/// One tight-budget pass: drive the trace through the queued front end,
/// drain the deferral backlog, return per-session `(tick, logits)`
/// streams, the eviction timeline, and the pair's counters.
struct TightOutcome {
    served: Vec<Vec<(u64, Vec<f32>)>>,
    evictions: Vec<(u64, u64)>,
    deferrals: usize,
    rebuild_rows: u64,
}

fn run_tight(
    m: &NetLlmAbr,
    obs: &[Vec<AbrObservation>],
    budget: usize,
    policy: AdmissionPolicy,
    eviction: EvictionPolicy,
) -> TightOutcome {
    let pool = PagePool::for_model(&m.lm, PageConfig { page_tokens: 16, budget_bytes: budget });
    let mut server = ShardedServer::with_memory(SHARDS, policy, pool.clone(), eviction);
    let ids: Vec<_> = (0..BATCH).map(|_| server.join(m)).collect();
    let mut pending: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); BATCH];
    let mut out = TightOutcome {
        served: vec![Vec::new(); BATCH],
        evictions: Vec::new(),
        deferrals: 0,
        rebuild_rows: 0,
    };
    let drive = |server: &mut ShardedServer<NetLlmAbr>,
                 pending: &mut Vec<VecDeque<Ticket>>,
                 out: &mut TightOutcome| {
        let report = server.tick(m);
        assert!(
            report.memory.used_bytes <= budget,
            "tick {}: pool {}B over budget {budget}B",
            report.tick,
            report.memory.used_bytes
        );
        for &v in &report.memory.evicted {
            out.evictions.push((report.tick, v));
        }
        out.deferrals += report.memory.deferred;
        for (s, q) in pending.iter_mut().enumerate() {
            if let Some(&front) = q.front() {
                if server.poll(front).is_some() {
                    q.pop_front();
                    out.served[s].push((report.tick, server.last_logits(ids[s]).to_vec()));
                }
            }
        }
    };
    for t in 0..TICKS {
        for (s, &id) in ids.iter().enumerate() {
            let ticket = server.submit(id, obs[s][t].clone()).expect("submit under the cap");
            pending[s].push_back(ticket);
        }
        drive(&mut server, &mut pending, &mut out);
    }
    for _ in 0..10 * TICKS {
        if pending.iter().all(VecDeque::is_empty) {
            break;
        }
        drive(&mut server, &mut pending, &mut out);
    }
    for (s, q) in pending.iter().enumerate() {
        assert!(q.is_empty(), "session {s} has unresolved tickets (admission lost)");
        assert_eq!(out.served[s].len(), TICKS, "session {s} lost decisions");
    }
    out.rebuild_rows = server.metrics().snapshot().evicted_rebuild_rows();
    drop(server);
    assert_eq!(pool.used_pages(), 0, "every page must be home after the fleet drops");
    out
}

/// The evicted sessions must re-anchor to exactly the logits of an
/// unbatched replay that clears the session where the scheduler did.
fn assert_forced_clear_equivalence(
    m: &NetLlmAbr,
    obs: &[Vec<AbrObservation>],
    out: &TightOutcome,
    label: &str,
) {
    let mut evicted_sessions = 0usize;
    for s in 0..BATCH {
        let id = s as u64; // join order 0..BATCH assigns ids 0..BATCH
        evicted_sessions += out.evictions.iter().any(|&(_, v)| v == id) as usize;
        let mut ep = m.new_slot(0);
        let mut sess = InferenceSession::new(&m.lm);
        let mut prev_tick = 0u64;
        for (i, o) in obs[s].iter().enumerate() {
            let (tick, want) = &out.served[s][i];
            if out.evictions.iter().any(|&(u, v)| v == id && u > prev_tick && u < *tick) {
                sess.clear();
            }
            let plan = m.plan_step(&mut ep, o, &sess);
            if plan.reanchor {
                sess.clear();
            }
            let hidden = sess.append(&m.lm, &m.store, &plan.tokens);
            let step = m.settle_step(&mut ep, o, &hidden);
            for (x, y) in step.logits.iter().zip(want) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "{label}: session {s} step {i}: served {y} vs forced-clear replay {x}"
                );
            }
            prev_tick = *tick;
        }
    }
    assert!(evicted_sessions > 0, "{label}: at least one replayed session must have been evicted");
    println!("{label}: {evicted_sessions}/{BATCH} sessions evicted, all at 1e-5");
}

#[test]
fn cheapest_rebuild_replays_strictly_fewer_rows_than_coldest_reanchor() {
    let m = model(91);
    let obs = streams(14_000);
    let contig = contiguous_bytes(&m, &obs);
    // ~40% of the contiguous footprint — the same pressure band the PR 5
    // paged-memory gate runs, so both policy pairs must evict to serve
    // the trace at all.
    let budget = (contig * 2 / 5).max(session_floor_bytes(&m.lm, 16));
    let pages = PagePool::for_model(&m.lm, PageConfig { page_tokens: 16, budget_bytes: budget })
        .free_pages();

    let old = run_tight(
        &m,
        &obs,
        budget,
        AdmissionPolicy::CacheAware { budget_bytes: budget / SHARDS },
        EvictionPolicy::ColdestReanchor,
    );
    let new = run_tight(
        &m,
        &obs,
        budget,
        AdmissionPolicy::PageAware { budget_pages: pages / SHARDS },
        EvictionPolicy::CheapestRebuild,
    );
    assert!(!old.evictions.is_empty() && !new.evictions.is_empty(), "pressure must be real");
    println!(
        "scheduler gate at B={BATCH}, K={SHARDS}, budget {budget}B: \
         CacheAware/ColdestReanchor {} evictions / {} deferrals / {} rebuild rows, \
         PageAware/CheapestRebuild {} evictions / {} deferrals / {} rebuild rows",
        old.evictions.len(),
        old.deferrals,
        old.rebuild_rows,
        new.evictions.len(),
        new.deferrals,
        new.rebuild_rows,
    );
    assert!(
        new.rebuild_rows < old.rebuild_rows,
        "cost-priced eviction must replay strictly fewer rebuild rows: \
         CheapestRebuild {} vs ColdestReanchor {}",
        new.rebuild_rows,
        old.rebuild_rows
    );
    // Correctness under both pairs: eviction timing may differ, logits
    // must still equal the forced-clear replay.
    assert_forced_clear_equivalence(&m, &obs, &old, "ColdestReanchor equivalence");
    assert_forced_clear_equivalence(&m, &obs, &new, "CheapestRebuild equivalence");
}

#[test]
fn page_economy_pair_throughput_at_b64_is_no_worse_than_the_old_pair() {
    let m = model(92);
    let obs = streams(15_000);
    let contig = contiguous_bytes(&m, &obs);
    // Ample: 3x the contiguous footprint, so neither pair evicts, defers
    // or steers — the comparison is pure placement/bookkeeping overhead.
    let budget = 3 * contig + (1 << 20);
    let pool = PagePool::for_model(&m.lm, PageConfig { page_tokens: 16, budget_bytes: budget });
    let pages = pool.free_pages();

    let run = |policy: AdmissionPolicy, eviction: EvictionPolicy| -> (f64, Vec<Vec<Vec<f32>>>) {
        let mut best = f64::MAX;
        let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
        for rep in 0..3 {
            let mut server =
                ShardedServer::with_memory(SHARDS, policy.clone(), pool.clone(), eviction);
            let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();
            let t0 = Instant::now();
            for t in 0..TICKS {
                let tickets: Vec<Ticket> = ids
                    .iter()
                    .enumerate()
                    .map(|(s, &id)| server.submit(id, obs[s][t].clone()).unwrap())
                    .collect();
                let report = server.tick(&m);
                assert_eq!(report.served, BATCH, "ample budget must not defer");
                assert!(report.memory.evicted.is_empty(), "ample budget must not evict");
                for ticket in tickets {
                    let _ = server.poll(ticket).expect("ticket resolves in its tick");
                }
                if rep == 0 {
                    for (s, &id) in ids.iter().enumerate() {
                        logits[s].push(server.last_logits(id).to_vec());
                    }
                }
            }
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, logits)
    };
    let (old_best, old_logits) = run(
        AdmissionPolicy::CacheAware { budget_bytes: budget / SHARDS },
        EvictionPolicy::ColdestReanchor,
    );
    let (new_best, new_logits) = run(
        AdmissionPolicy::PageAware { budget_pages: pages / SHARDS },
        EvictionPolicy::CheapestRebuild,
    );

    // Identical math first (sessions are independent, so placement must
    // not change any answer), then the timing bar.
    for s in 0..BATCH {
        for t in 0..TICKS {
            for (x, y) in old_logits[s][t].iter().zip(&new_logits[s][t]) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: old pair {x} vs new pair {y}");
            }
        }
    }
    let decisions = (BATCH * TICKS) as f64;
    let ratio = old_best / new_best.max(1e-9);
    println!(
        "page-economy pair at B={BATCH}, K={SHARDS}: {:.1} dec/s vs old pair {:.1} dec/s \
         ({ratio:.2}x)",
        decisions / new_best,
        decisions / old_best
    );
    assert!(
        ratio >= 0.95,
        "PageAware+CheapestRebuild must stay within 5% of CacheAware+ColdestReanchor on the \
         ample-budget path: old {old_best:.3}s vs new {new_best:.3}s ({ratio:.2}x)"
    );
}
