//! Paged KV-cache serving: the memory subsystem end to end.
//!
//! - **Bit-compatibility:** a mixed ABR+CJS+VP fleet served from a page
//!   pool (ample budget) must reproduce the contiguous fleet's logits
//!   exactly — across CJS candidate rollbacks, ABR 2x-window re-anchors,
//!   a mid-stream migration and VP join/answer/leave churn.
//! - **Eviction:** under a deliberately tight budget the scheduled front
//!   end must hold pool bytes ≤ budget at every tick (hard, by
//!   construction), evict cheapest-rebuild-first, and every evicted
//!   session must re-anchor to exactly the logits of an unbatched replay that clears
//!   its session at the same points.
//! - **Deferral:** when eviction is disabled and a tick's demand exceeds
//!   the pool, drained arrivals are deferred (tickets stay pending) and
//!   resolve on later ticks — nothing is lost, nothing grows past the
//!   budget.
//! - **`plan_rows` exactness:** every adapter's declared row demand must
//!   equal what `plan_step` actually appends, including the
//!   evicted-session branch (that is what the memory guard reserves by).
//! - **`rebuild_rows` exactness:** the eviction price every adapter
//!   quotes must equal the extra rows the re-anchor replay actually
//!   appends (`plan_rows(cleared) − plan_rows(intact)`), and 0 when the
//!   next step re-anchors regardless — `CheapestRebuild` is only as
//!   honest as these quotes.
//! - **Victim protection:** the guard never evicts a session whose
//!   arrival is in the current drained batch. When every page holder is
//!   in the batch and pages are about to go idle, it defers the youngest
//!   arrival that needs a page and keeps that session's cache; when no
//!   page can go idle (every session backlogged), the sacrifice is chosen
//!   by eviction-policy order (sparing the oldest arrival), never the
//!   just-deferred youngest, and no backlog starves.

use netllm::{
    step_single, AdaptMode, AdmissionPolicy, CjsObs, EvictionPolicy, FleetObs, FleetSlot,
    InferenceSession, NetLlmAbr, RollbackPlan, ServedTask, ShardedServer, Ticket, VpQuery,
    FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_llm::{size_spec, PageConfig, PagePool, Zoo};
use nt_vp::VpSample;
use std::collections::VecDeque;

mod common;
use common::{fleet_models, serve_round, FleetModels};

fn build_models(window: usize) -> FleetModels {
    fleet_models("netllm-paged-serving", window, 31)
}

/// Poll each session's oldest outstanding ticket; bank `(tick, logits)`
/// for every one the tick served.
fn harvest(
    server: &mut ShardedServer<NetLlmAbr>,
    ids: &[u64],
    pending: &mut [VecDeque<Ticket>],
    served: &mut [Vec<(u64, Vec<f32>)>],
    tick: u64,
) {
    for (s, q) in pending.iter_mut().enumerate() {
        if let Some(&front) = q.front() {
            if server.poll(front).is_some() {
                q.pop_front();
                served[s].push((tick, server.last_logits(ids[s]).to_vec()));
            }
        }
    }
}

/// Unbatched replay of every session's submitted observations, clearing
/// its cache exactly where the scheduler evicted it (`evictions` holds
/// `(tick, session)`; `served` the `(tick, logits)` it answered): evicted
/// or not, each session must re-anchor to the same logits at 1e-5.
fn assert_forced_clear_replay(
    m: &NetLlmAbr,
    ids: &[u64],
    subs: &[Vec<AbrObservation>],
    served: &[Vec<(u64, Vec<f32>)>],
    evictions: &[(u64, u64)],
) {
    for (s, &id) in ids.iter().enumerate() {
        let mut ep = m.new_slot(0);
        let mut sess = InferenceSession::new(&m.lm);
        let mut prev_tick = 0u64;
        for (i, o) in subs[s].iter().enumerate() {
            let (tick, want) = &served[s][i];
            if evictions.iter().any(|&(u, v)| v == id && u > prev_tick && u < *tick) {
                sess.clear(); // mirror the eviction: re-anchor from scratch
            }
            let out = step_single(m, &mut ep, &mut sess, o);
            assert_eq!(out.logits.len(), want.len());
            for (x, y) in out.logits.iter().zip(want) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "session {s} step {i}: served {y} vs forced-clear replay {x}"
                );
            }
            prev_tick = *tick;
        }
    }
}

/// Paged (ample budget) vs contiguous mixed fleet, same trace, same
/// mid-stream migration: logits must agree at 1e-5 tick for tick, and
/// every page must be home once the fleet drops.
#[test]
fn paged_mixed_fleet_matches_contiguous_including_migration() {
    let window = 3usize;
    let ticks = 8usize;
    let m = build_models(window);
    let fleet = m.fleet();

    let abr_streams: Vec<Vec<AbrObservation>> =
        (0..2).map(|s| AbrObservation::synthetic_stream(170 + s as u64, ticks)).collect();
    let cjs_obs = CjsObs::synthetic_stream(19, 6);
    assert!(cjs_obs.len() >= ticks, "CJS probe too short: {}", cjs_obs.len());
    let samples = VpSample::synthetic_pool();
    let pw = 6usize;

    let pool = PagePool::for_model(&m.abr.lm, PageConfig { page_tokens: 8, budget_bytes: 1 << 20 });
    let mut all_logits: Vec<Vec<Vec<f32>>> = Vec::new(); // [run][tick*stream]
    for paged in [false, true] {
        let mut server = if paged {
            ShardedServer::with_memory(
                2,
                AdmissionPolicy::LeastLoaded,
                pool.clone(),
                EvictionPolicy::CheapestRebuild,
            )
        } else {
            ShardedServer::new(2)
        };
        let abr_ids: Vec<_> = (0..2).map(|_| server.join_group(&fleet, FLEET_ABR)).collect();
        let cjs_id = server.join_group(&fleet, FLEET_CJS);
        let mut logits: Vec<Vec<f32>> = Vec::new();
        for tick in 0..ticks {
            if tick == 3 {
                // Migration mid-stream: park/admit must stay bit-identical
                // in both memory modes (the shards share one lender, so
                // the cache moves as it is).
                let dest = 1 - server.shard_of(abr_ids[0]);
                server.steer(abr_ids[0], dest);
            }
            let vp_id = server.join_group(&fleet, FLEET_VP);
            let requests = [
                (abr_ids[0], FleetObs::Abr(abr_streams[0][tick].clone())),
                (
                    vp_id,
                    FleetObs::Vp(VpQuery { sample: samples[tick % samples.len()].clone(), pw }),
                ),
                (cjs_id, FleetObs::Cjs(cjs_obs[tick].clone())),
                (abr_ids[1], FleetObs::Abr(abr_streams[1][tick].clone())),
            ];
            let refs: Vec<_> = requests.iter().map(|&(id, ref o)| (id, o)).collect();
            let _ = serve_round(&mut server, &fleet, &refs);
            for &(id, _) in &requests {
                logits.push(server.last_logits(id).to_vec());
            }
            let _ = server.leave(vp_id);
            if paged {
                let stats = server.pool_stats().expect("memory fleet exposes its pool");
                assert!(stats.used_pages > 0, "tick {tick}: paged fleet holds pages");
                assert_eq!(
                    stats.used_pages + stats.free_pages,
                    stats.capacity_pages,
                    "pool accounting must balance"
                );
            }
        }
        drop(server);
        all_logits.push(logits);
    }
    assert!(ticks > 2 * window, "trace must cross the ABR re-anchor");
    for (i, (a, b)) in all_logits[0].iter().zip(&all_logits[1]).enumerate() {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "answer {i}: contiguous {x} vs paged {y}");
        }
    }
    assert_eq!(pool.used_pages(), 0, "every page must be home after the fleet drops");
}

/// Tight budget, scheduled front end: pool bytes ≤ budget every tick,
/// evictions fire, and every session — evicted or not —
/// matches an unbatched replay that clears its session exactly where the
/// scheduler did.
#[test]
fn eviction_under_pressure_reanchors_to_the_forced_clear_reference() {
    let window = 3usize;
    let steps = 10usize;
    const B: usize = 6;
    let m = build_models(window);

    let streams: Vec<Vec<AbrObservation>> =
        (0..B).map(|s| AbrObservation::synthetic_stream(900 + s as u64, steps)).collect();

    // One full-context session exactly (the `for_model` floor): 1 layer x
    // ceil(160/8) = 20 pages. Six growing sessions want ~24-36, so the
    // guard must evict to fit — the pressure this test is about.
    let pool =
        PagePool::for_model(&m.abr.lm, PageConfig { page_tokens: 8, budget_bytes: 20 * 768 });
    let budget = 20 * 768;
    let mut server = ShardedServer::with_memory(
        2,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::CheapestRebuild,
    );
    let ids: Vec<_> = (0..B).map(|_| server.join(&m.abr)).collect();

    let mut pending: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); B];
    let mut served: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); B]; // (tick, logits)
    let mut evictions: Vec<(u64, u64)> = Vec::new(); // (tick, session)
    let mut deferrals = 0usize;
    #[allow(clippy::needless_range_loop)]
    for step in 0..steps {
        for (s, &id) in ids.iter().enumerate() {
            let t = server.submit(id, streams[s][step].clone()).expect("submit under the cap");
            pending[s].push_back(t);
        }
        let report = server.tick(&m.abr);
        assert!(
            report.memory.used_bytes <= budget,
            "tick {}: pool {}B over budget {budget}B",
            report.tick,
            report.memory.used_bytes
        );
        assert!(
            pool.used_bytes() <= budget,
            "the pool itself can never exceed its budget (hard bound)"
        );
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        deferrals += report.memory.deferred;
        harvest(&mut server, &ids, &mut pending, &mut served, report.tick);
    }
    // Drain the deferral backlog: every ticket must resolve.
    for _ in 0..40 {
        if pending.iter().all(VecDeque::is_empty) {
            break;
        }
        let report = server.tick(&m.abr);
        assert!(report.memory.used_bytes <= budget);
        for &v in &report.memory.evicted {
            evictions.push((report.tick, v));
        }
        harvest(&mut server, &ids, &mut pending, &mut served, report.tick);
    }
    for (s, q) in pending.iter().enumerate() {
        assert!(q.is_empty(), "session {s} has unresolved tickets (admission lost)");
        assert_eq!(served[s].len(), steps, "session {s} lost decisions");
    }
    assert!(!evictions.is_empty(), "the tight budget must actually force evictions");
    println!(
        "eviction gate (debug scale): {} evictions, {deferrals} deferrals across {B} sessions",
        evictions.len()
    );
    drop(server);
    assert_eq!(pool.used_pages(), 0);

    assert_forced_clear_replay(&m.abr, &ids, &streams, &served, &evictions);
}

/// Eviction disabled: a burst whose page demand exceeds the pool defers
/// the youngest arrivals (admission backpressure), serves them on later
/// ticks, and never loses a ticket or exceeds the budget.
#[test]
fn full_pool_defers_admission_instead_of_growing() {
    let m = build_models(3);
    let samples = VpSample::synthetic_pool();
    let pw = 6usize;
    // 20 pages (the one-full-session floor); each VP query wants 3
    // (4 saliency patches + 9 history deltas + 6 query tokens = 19 rows
    // at 8/page), so 8 one-shot queries (24 pages) cannot all fit in one
    // tick — the youngest must defer.
    let budget = 20 * 768;
    let pool = PagePool::for_model(&m.vp.lm, PageConfig { page_tokens: 8, budget_bytes: budget });
    let mut server = ShardedServer::with_memory(
        2,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::None,
    );

    let mut open: Vec<(u64, Ticket)> = Vec::new();
    for q in 0..8 {
        let id = server.join(&m.vp);
        let ticket = server
            .submit(id, VpQuery { sample: samples[q % samples.len()].clone(), pw })
            .expect("submit under the queue cap");
        open.push((id, ticket));
    }
    let first = server.tick(&m.vp);
    assert!(first.memory.deferred > 0, "the burst must overflow the pool and defer");
    assert!(first.served > 0, "deferral must not starve the whole tick");
    assert_eq!(first.served + first.pending, 8, "deferred arrivals stay queued");
    assert!(first.memory.used_bytes <= budget);

    let mut answered = 0usize;
    for _ in 0..10 {
        open.retain(|&(id, ticket)| {
            // One-shot sessions leave as soon as they answer, freeing
            // their pages for the deferred arrivals behind them.
            if server.poll(ticket).is_some() {
                let report = server.leave(id);
                assert!(report.is_clean());
                answered += 1;
                false
            } else {
                true
            }
        });
        if open.is_empty() {
            break;
        }
        let report = server.tick(&m.vp);
        assert!(report.memory.used_bytes <= budget, "budget must hold while draining");
    }
    assert_eq!(answered, 8, "every deferred ticket must eventually resolve");
    assert_eq!(pool.used_pages(), 0, "one-shots left; every page is home");
}

/// A pool below the one-full-context-session floor is rejected at join
/// time with sizing guidance — below it, a session's re-anchor rebuild
/// could exceed the whole pool with nothing to evict, and the queued
/// front end would defer its arrival forever. `PagePool::for_model`
/// checks one backbone; the join-time assert covers pools built with
/// `PagePool::new` and heterogeneous fleets whose other backbones were
/// never validated.
#[test]
#[should_panic(expected = "page pool too small")]
fn joining_a_pool_below_the_session_floor_panics() {
    let m = build_models(3);
    // 5 pages; one full-context 0.35b-sim session needs 20.
    let pool =
        PagePool::new(m.abr.lm.cfg.d_model, PageConfig { page_tokens: 8, budget_bytes: 5 * 768 });
    let mut server = ShardedServer::with_memory(
        1,
        AdmissionPolicy::LeastLoaded,
        pool,
        EvictionPolicy::CheapestRebuild,
    );
    let _ = server.join(&m.abr);
}

/// Regression: a lone session that grows until its next plan must
/// re-anchor, while holding essentially the whole pool, must not wedge
/// admission. The guard pre-releases a re-anchoring session's pages (the
/// rebuild never reads them), so the rebuild always fits — without that,
/// demand (charged from empty) exceeds the free list forever, the
/// arrival defers every tick, and its ticket never resolves.
#[test]
fn reanchoring_giant_session_cannot_wedge_the_pool() {
    // Window 13: the context fills (`fits` fails near step 25) before the
    // 2x-window re-anchor would trigger (step 26), so the session holds
    // 19 of 20 pool pages at the exact tick its plan needs a 10-page
    // rebuild.
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-paged-serving"));
    let mut m =
        NetLlmAbr::new(zoo.build_random(&size_spec("0.35b-sim")), AdaptMode::NoDomain, 13, 34);
    m.target_return = 2.0;
    let pool = PagePool::for_model(&m.lm, PageConfig { page_tokens: 8, budget_bytes: 20 * 768 });
    let mut server = ShardedServer::with_memory(
        1,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::CheapestRebuild,
    );
    let id = server.join(&m);
    let stream = AbrObservation::synthetic_stream(601, 27);
    let mut max_held = 0usize;
    for (i, o) in stream.iter().enumerate() {
        let ticket = server.submit(id, o.clone()).expect("submit under the cap");
        let mut resolved = false;
        for _ in 0..6 {
            let report = server.tick(&m);
            assert!(report.memory.used_bytes <= 20 * 768);
            if server.poll(ticket).is_some() {
                resolved = true;
                break;
            }
        }
        assert!(resolved, "step {i}: ticket wedged — re-anchor rebuild never admitted");
        max_held = max_held.max(pool.used_pages());
    }
    assert!(max_held >= 19, "probe must actually fill the pool (held {max_held}/20)");
}

/// The adapters' `plan_rows` must predict `plan_step` exactly — rows and
/// clear flag — including the evicted-session (empty cache) branch. The
/// memory guard's reservations are only as sound as these counts.
#[test]
fn plan_rows_matches_actual_plan_for_every_adapter() {
    let window = 3usize;
    let m = build_models(window);

    // ---- ABR: incremental, natural re-anchor, and post-eviction steps --
    let stream = AbrObservation::synthetic_stream(501, 14);
    let mut ep = m.abr.new_slot(0);
    let mut sess = InferenceSession::new(&m.abr.lm);
    let mut reanchors = 0usize;
    for (i, o) in stream.iter().enumerate() {
        if i == 9 {
            sess.clear(); // simulated eviction mid-stream
        }
        let (rows, clears) = m.abr.plan_rows(&ep, o, &sess);
        let plan = m.abr.plan_step(&mut ep, o, &sess);
        assert_eq!(clears, plan.reanchor, "ABR step {i}: clear flag diverged");
        assert_eq!(rows, plan.tokens.shape()[0], "ABR step {i}: row count diverged");
        if plan.reanchor {
            sess.clear();
            reanchors += 1;
        }
        let hidden = sess.append(&m.abr.lm, &m.abr.store, &plan.tokens);
        let _ = m.abr.settle_step(&mut ep, o, &hidden);
    }
    assert!(reanchors >= 3, "probe must cover fresh, natural and evicted re-anchors");

    // ---- CJS: history rebuilds + candidate rollback --------------------
    let obs = CjsObs::synthetic_stream(29, 6);
    assert!(obs.len() > 2 * window + 2);
    let mut ep = m.cjs.new_slot(0);
    let mut sess = InferenceSession::new(&m.cjs.lm);
    for (i, o) in obs.iter().enumerate() {
        if i == 7 {
            sess.clear(); // simulated eviction
        }
        let (rows, clears) = m.cjs.plan_rows(&ep, o, &sess);
        let plan = m.cjs.plan_step(&mut ep, o, &sess);
        assert_eq!(clears, plan.reanchor, "CJS step {i}: clear flag diverged");
        assert_eq!(rows, plan.tokens.shape()[0], "CJS step {i}: row count diverged");
        if plan.reanchor {
            sess.clear();
        }
        let hidden = sess.append(&m.cjs.lm, &m.cjs.store, &plan.tokens);
        let out = m.cjs.settle_step(&mut ep, o, &hidden);
        if let Some(RollbackPlan { drop_rows, post_tokens }) = out.rollback {
            sess.truncate(sess.len() - drop_rows);
            let _ = sess.append(&m.cjs.lm, &m.cjs.store, &post_tokens);
        }
    }

    // ---- VP: one-shot query, always a clear ----------------------------
    let sample = &VpSample::synthetic_pool()[0];
    let slot = m.vp.new_slot(0);
    let sess = InferenceSession::new(&m.vp.lm);
    let q = VpQuery { sample: sample.clone(), pw: 5 };
    let (rows, clears) = m.vp.plan_rows(&slot, &q, &sess);
    let mut slot = slot;
    let plan = m.vp.plan_step(&mut slot, &q, &sess);
    assert!(clears && plan.reanchor, "VP always rebuilds");
    assert_eq!(rows, plan.tokens.shape()[0], "VP row count diverged");
}

/// Property: `CheapestRebuild`'s price ([`ServedTask::rebuild_rows`])
/// equals the extra rows the re-anchor replay actually appends —
/// `plan_rows(cleared).0 − plan_rows(intact).0` whenever the intact plan
/// would not re-anchor, and 0 whenever it would (grown history or an
/// already-empty cache make the rebuild inevitable, so eviction costs
/// nothing extra). Checked at every step of live ABR and CJS streams
/// (incremental, natural re-anchor, post-eviction, candidate rollback), a
/// VP one-shot, and through the fleet's per-variant delegation. The
/// streams stay far below the context limit, so CJS's documented
/// conservative edge (`!fits` depends on the next observation) never
/// fires and the price must be exact.
#[test]
fn rebuild_rows_price_equals_the_reanchor_replay_delta() {
    let window = 3usize;
    let m = build_models(window);
    let fleet = m.fleet();

    // ---- ABR: incremental, natural re-anchor, post-eviction ------------
    let stream = AbrObservation::synthetic_stream(701, 14);
    let mut ep = m.abr.new_slot(0);
    let mut sess = InferenceSession::new(&m.abr.lm);
    let mut priced_steps = 0usize;
    for (i, o) in stream.iter().enumerate() {
        if i == 9 {
            sess.clear(); // simulated eviction mid-stream
        }
        let priced = m.abr.rebuild_rows(&ep, &sess);
        assert_eq!(
            fleet.rebuild_rows(&FleetSlot::Abr(ep.clone()), &sess),
            priced,
            "ABR step {i}: fleet delegation diverged from the adapter's price"
        );
        let (intact_rows, clears) = m.abr.plan_rows(&ep, o, &sess);
        if clears {
            assert_eq!(priced, 0, "ABR step {i}: an inevitable re-anchor must price 0");
        } else {
            let (cleared_rows, cleared_clears) =
                m.abr.plan_rows(&ep, o, &InferenceSession::new(&m.abr.lm));
            assert!(cleared_clears, "ABR step {i}: a cleared session must re-anchor");
            assert_eq!(
                priced,
                cleared_rows - intact_rows,
                "ABR step {i}: price != re-anchor replay delta"
            );
            priced_steps += 1;
        }
        let plan = m.abr.plan_step(&mut ep, o, &sess);
        if plan.reanchor {
            sess.clear();
        }
        let hidden = sess.append(&m.abr.lm, &m.abr.store, &plan.tokens);
        let _ = m.abr.settle_step(&mut ep, o, &hidden);
    }
    assert!(priced_steps >= 5, "ABR probe must exercise non-zero prices ({priced_steps})");

    // ---- CJS: history rebuilds + candidate rollback ---------------------
    let obs = CjsObs::synthetic_stream(39, 6);
    assert!(obs.len() > 2 * window + 2);
    let mut ep = m.cjs.new_slot(0);
    let mut sess = InferenceSession::new(&m.cjs.lm);
    priced_steps = 0;
    for (i, o) in obs.iter().enumerate() {
        if i == 7 {
            sess.clear(); // simulated eviction
        }
        let priced = m.cjs.rebuild_rows(&ep, &sess);
        assert_eq!(
            fleet.rebuild_rows(&FleetSlot::Cjs(ep.clone()), &sess),
            priced,
            "CJS step {i}: fleet delegation diverged from the adapter's price"
        );
        let (intact_rows, clears) = m.cjs.plan_rows(&ep, o, &sess);
        if clears {
            assert_eq!(priced, 0, "CJS step {i}: an inevitable re-anchor must price 0");
        } else {
            let (cleared_rows, cleared_clears) =
                m.cjs.plan_rows(&ep, o, &InferenceSession::new(&m.cjs.lm));
            assert!(cleared_clears, "CJS step {i}: a cleared session must re-anchor");
            assert_eq!(
                priced,
                cleared_rows - intact_rows,
                "CJS step {i}: price != re-anchor replay delta"
            );
            if priced > 0 {
                priced_steps += 1;
            }
        }
        let plan = m.cjs.plan_step(&mut ep, o, &sess);
        if plan.reanchor {
            sess.clear();
        }
        let hidden = sess.append(&m.cjs.lm, &m.cjs.store, &plan.tokens);
        let out = m.cjs.settle_step(&mut ep, o, &hidden);
        if let Some(RollbackPlan { drop_rows, post_tokens }) = out.rollback {
            sess.truncate(sess.len() - drop_rows);
            let _ = sess.append(&m.cjs.lm, &m.cjs.store, &post_tokens);
        }
    }
    assert!(priced_steps >= 3, "CJS probe must exercise non-zero prices ({priced_steps})");

    // ---- VP: one-shot, the rebuild is always inevitable -----------------
    let sample = &VpSample::synthetic_pool()[0];
    let mut slot = m.vp.new_slot(0);
    let mut sess = InferenceSession::new(&m.vp.lm);
    let q = VpQuery { sample: sample.clone(), pw: 5 };
    assert_eq!(m.vp.rebuild_rows(&slot, &sess), 0, "VP prices 0 on an empty cache");
    let plan = m.vp.plan_step(&mut slot, &q, &sess);
    let _ = sess.append(&m.vp.lm, &m.vp.store, &plan.tokens);
    assert_eq!(m.vp.rebuild_rows(&slot, &sess), 0, "VP re-anchors every query: price 0");
    assert_eq!(fleet.rebuild_rows(&FleetSlot::Vp(slot), &sess), 0);
    let (_, clears) = m.vp.plan_rows(&slot, &q, &sess);
    assert!(clears, "a 0 price must coincide with an inevitable re-anchor");
}

/// The pressure probe of the memory guard's rule tests: six ABR sessions
/// (window 3) on a 20-page pool (the one-full-session floor, 8 rows a
/// page). Four always-on sessions grow 5→11→17→23→29 rows (1,2,3,3,4
/// pages); COLD sits out tick 3 and stops at 17 rows (3 pages); LATE
/// starts at tick 3 (5 rows, 1 page). The pressure tick opens at 4·3 +
/// 3 + 1 = 16 pages held / 4 free with a 4 + 0 + 1 = 5-page demand,
/// every page holder in the batch. Rebuild prices (6 rows a step): a
/// session with ≥ 2 steps of history replays 3·6−1−6 = 11 extra rows,
/// LATE (1 step) only 2·6−1−6 = 5 — so `CheapestRebuild` orders LATE
/// first, where a recency order would pick COLD and arrival order the
/// youngest.
struct GuardProbe {
    m: FleetModels,
    pool: PagePool,
    server: ShardedServer<NetLlmAbr>,
    ids: Vec<u64>,
    streams: Vec<Vec<AbrObservation>>,
    pending: Vec<VecDeque<Ticket>>,
    /// Observations actually submitted, per session.
    subs: Vec<Vec<AbrObservation>>,
    served: Vec<Vec<(u64, Vec<f32>)>>,
    /// `(tick, session)` of every eviction.
    evictions: Vec<(u64, u64)>,
}

const PROBE_B: usize = 6;
const COLD: usize = 1; // sits out tick 3: coldest at the pressure tick
const LATE: usize = 3; // first served at tick 3: hot, but cheapest to rebuild
const PRESSURE: usize = 4; // the schedule index of the pressure tick
const PROBE_BUDGET: usize = 20 * 768;

impl GuardProbe {
    /// The probe after its four pressure-free warmup ticks.
    fn warm() -> Self {
        let m = build_models(3);
        let streams: Vec<Vec<AbrObservation>> = (0..PROBE_B)
            .map(|s| AbrObservation::synthetic_stream(1100 + s as u64, PRESSURE + 2))
            .collect();
        let pool = PagePool::for_model(
            &m.abr.lm,
            PageConfig { page_tokens: 8, budget_bytes: PROBE_BUDGET },
        );
        let mut server = ShardedServer::with_memory(
            2,
            AdmissionPolicy::LeastLoaded,
            pool.clone(),
            EvictionPolicy::CheapestRebuild,
        );
        let ids: Vec<_> = (0..PROBE_B).map(|_| server.join(&m.abr)).collect();
        let mut p = GuardProbe {
            m,
            pool,
            server,
            ids,
            streams,
            pending: vec![VecDeque::new(); PROBE_B],
            subs: vec![Vec::new(); PROBE_B],
            served: vec![Vec::new(); PROBE_B],
            evictions: Vec::new(),
        };
        for tick in 0..PRESSURE {
            for s in 0..PROBE_B {
                if !((s == COLD && tick == 3) || (s == LATE && tick < 3)) {
                    p.submit(s, tick);
                }
            }
            let report = p.tick();
            assert_eq!(
                (report.memory.evicted.len(), report.memory.deferred),
                (0, 0),
                "tick {tick}: warmup must stay pressure-free"
            );
        }
        p
    }

    fn submit(&mut self, s: usize, step: usize) {
        let o = self.streams[s][step].clone();
        let t = self.server.submit(self.ids[s], o.clone()).expect("submit under the cap");
        self.pending[s].push_back(t);
        self.subs[s].push(o);
    }

    /// One tick: the budget holds, evictions are logged, answers banked.
    fn tick(&mut self) -> netllm::TickReport {
        let report = self.server.tick(&self.m.abr);
        assert!(report.memory.used_bytes <= PROBE_BUDGET);
        self.evictions.extend(report.memory.evicted.iter().map(|&v| (report.tick, v)));
        harvest(&mut self.server, &self.ids, &mut self.pending, &mut self.served, report.tick);
        report
    }

    /// Drain the backlog (every ticket must resolve, none is lost), then
    /// replay every session unbatched with the evictions mirrored.
    fn finish(mut self) {
        for _ in 0..20 {
            if self.pending.iter().all(VecDeque::is_empty) {
                break;
            }
            let _ = self.tick();
        }
        for (s, q) in self.pending.iter().enumerate() {
            assert!(q.is_empty(), "session {s} has unresolved tickets (a deferral lost it)");
            assert_eq!(self.served[s].len(), self.subs[s].len(), "session {s} lost decisions");
        }
        drop(self.server);
        assert_eq!(self.pool.used_pages(), 0);
        assert_forced_clear_replay(
            &self.m.abr,
            &self.ids,
            &self.subs,
            &self.served,
            &self.evictions,
        );
    }
}

/// The pressure tick's submissions, COLD last: the youngest arrival is
/// then one whose step needs no new page (17 → 23 rows stays in 3 pages).
const PRESSURE_ORDER: [usize; PROBE_B] = [0, 2, 3, 4, 5, COLD];
/// The youngest arrival at the pressure tick whose step needs a page
/// (23 → 29 rows crosses into a fourth).
const YOUNGEST_GROWER: usize = 5;

/// Pressure with every page holder in the batch and pages about to go
/// idle (no session has a second arrival queued): the guard defers the
/// youngest arrival that needs a page, evicts nothing, and the deferred
/// session keeps its cache — the next tick serves it for its one-page
/// increment, not a rebuild from empty, and its answer is its
/// unpressured one (the forced-clear replay never clears it).
#[test]
fn memory_guard_defers_the_youngest_grower_and_keeps_its_cache() {
    let mut p = GuardProbe::warm();
    for s in PRESSURE_ORDER {
        p.submit(s, PRESSURE);
    }
    let held: Vec<usize> = p.ids.iter().map(|&id| p.server.pages_of(id)).collect();
    let report = p.tick();
    assert!(report.memory.evicted.is_empty(), "a deferral that keeps caches suffices");
    assert_eq!(report.memory.deferred, 1, "exactly one arrival is held back");
    for (s, q) in p.pending.iter().enumerate() {
        assert_eq!(q.len(), usize::from(s == YOUNGEST_GROWER), "session {s} pending");
    }
    let id = p.ids[YOUNGEST_GROWER];
    assert_eq!(p.server.pages_of(id), held[YOUNGEST_GROWER], "the deferral keeps the cache");

    let next = p.tick();
    assert!(!next.memory.evicted.contains(&id), "the deferred session is protected");
    assert!(p.pending[YOUNGEST_GROWER].is_empty(), "served on the next tick");
    assert_eq!(
        p.server.pages_of(id),
        held[YOUNGEST_GROWER] + 1,
        "served from its kept cache (a re-anchor would rebuild into 3 pages)"
    );
    p.finish();
}

/// Regression (defer-then-evict), with the deferral bound at 0: every
/// batch session has a second arrival queued, so no page can go idle
/// before the next guard and deferring without evicting would free
/// nothing. The guard must then sacrifice by eviction-policy order — the
/// cheapest rebuild, which here is neither the coldest session nor the
/// youngest arrival — sparing the oldest arrival, and the sacrifice's
/// own arrival is deferred so it is never served in the tick that
/// cleared its cache. Before the fix the victim-exclusion set was
/// recomputed per loop iteration and there was no sacrifice branch: the
/// guard deferred the *youngest* arrival for backpressure and then
/// evicted exactly that session on the next scan (it had left the
/// batch), undoing the deferral's whole point and picking the victim by
/// arrival-clock accident instead of policy order.
#[test]
fn memory_guard_sacrifices_by_policy_order_when_no_page_can_go_idle() {
    let mut p = GuardProbe::warm();
    for step in [PRESSURE, PRESSURE + 1] {
        for s in PRESSURE_ORDER {
            p.submit(s, step);
        }
    }
    let report = p.tick();
    // Reclaiming LATE's one page is enough: 5 free ≥ the 4-page demand
    // left once its arrival is deferred.
    assert_eq!(
        report.memory.evicted,
        vec![p.ids[LATE]],
        "the sacrifice must be the cheapest rebuild, by policy order"
    );
    assert_eq!(report.memory.deferred, 1, "the sacrifice's arrival is deferred");
    // Every spared session was served this tick; only the sacrifice
    // waits with both its arrivals.
    for (s, q) in p.pending.iter().enumerate() {
        assert_eq!(q.len(), 1 + usize::from(s == LATE), "session {s} pending after pressure");
    }
    p.finish();
}

/// Liveness of the bounded deferral: when every session keeps a second
/// arrival queued, no page ever goes idle, so the bound stays 0 and the
/// guard must take the sacrifice path instead of deferring forever. Six
/// sessions on the 20-page pool submit two arrivals at the first tick and
/// one at each of the next `BACKLOGGED − 1`, so every queue holds at
/// least two before each drain: every ticket resolves within `DRAIN`
/// further ticks, no session waits more than 3 ticks between answers,
/// some backlogged tick evicts a batch member whose arrival it held
/// back, and the forced-clear replay holds.
#[test]
fn bounded_deferral_cannot_starve_a_fully_backlogged_fleet() {
    const BACKLOGGED: usize = 24;
    const DRAIN: usize = BACKLOGGED / 2;
    let m = build_models(3);
    let streams: Vec<Vec<AbrObservation>> = (0..PROBE_B)
        .map(|s| AbrObservation::synthetic_stream(1300 + s as u64, BACKLOGGED + 1))
        .collect();
    let pool =
        PagePool::for_model(&m.abr.lm, PageConfig { page_tokens: 8, budget_bytes: PROBE_BUDGET });
    let mut server = ShardedServer::with_memory(
        2,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::CheapestRebuild,
    );
    let ids: Vec<_> = (0..PROBE_B).map(|_| server.join(&m.abr)).collect();
    let mut pending: Vec<VecDeque<Ticket>> = vec![VecDeque::new(); PROBE_B];
    let mut subs: Vec<Vec<AbrObservation>> = vec![Vec::new(); PROBE_B];
    let mut served: Vec<Vec<(u64, Vec<f32>)>> = vec![Vec::new(); PROBE_B];
    let mut evictions: Vec<(u64, u64)> = Vec::new();
    let mut sacrifices = 0usize;
    let mut ticks_run = 0u64;
    for tick in 0..BACKLOGGED + DRAIN {
        if tick < BACKLOGGED {
            for (s, &id) in ids.iter().enumerate() {
                for _ in 0..1 + usize::from(tick == 0) {
                    let o = streams[s][subs[s].len()].clone();
                    pending[s].push_back(server.submit(id, o.clone()).expect("under the cap"));
                    subs[s].push(o);
                }
                assert!(server.pending_of(id) >= 2, "session {s} backlogged");
            }
        } else if pending.iter().all(VecDeque::is_empty) {
            break;
        }
        let report = server.tick(&m.abr);
        assert!(report.memory.used_bytes <= PROBE_BUDGET);
        evictions.extend(report.memory.evicted.iter().map(|&v| (report.tick, v)));
        harvest(&mut server, &ids, &mut pending, &mut served, report.tick);
        ticks_run = report.tick;
        if tick < BACKLOGGED {
            // Every session is in the batch, so every eviction here is a
            // sacrifice: its arrival waits for a later tick.
            for &v in &report.memory.evicted {
                let s = ids.iter().position(|&id| id == v).expect("a probe session");
                assert_ne!(
                    served[s].last().map(|&(t, _)| t),
                    Some(report.tick),
                    "tick {}: session {s} served in the tick that cleared its cache",
                    report.tick
                );
                sacrifices += 1;
            }
        }
    }
    for (s, q) in pending.iter().enumerate() {
        assert!(q.is_empty(), "session {s} has unresolved tickets after {DRAIN} drain ticks");
        assert_eq!(served[s].len(), subs[s].len(), "session {s} lost decisions");
    }
    assert!(sacrifices > 0, "a fleet with no idle page must take the sacrifice path");
    // A backlogged session is served at least every third tick (the
    // unbounded rule, which defers growers while no page goes idle, let
    // a session wait 7 ticks here and took 51 ticks to resolve).
    let gap = served
        .iter()
        .flat_map(|sv| sv.windows(2).map(|w| w[1].0 - w[0].0))
        .max()
        .expect("every session answers more than once");
    assert!(gap <= 3, "a backlogged session waited {gap} ticks between answers");
    println!(
        "backlogged fleet: {} decisions in {ticks_run} ticks (longest wait {gap}), {} evictions \
         ({sacrifices} sacrifices while backlogged)",
        served.iter().map(Vec::len).sum::<usize>(),
        evictions.len()
    );
    drop(server);
    assert_eq!(pool.used_pages(), 0);
    assert_forced_clear_replay(&m.abr, &ids, &subs, &served, &evictions);
}
