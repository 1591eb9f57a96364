//! Randomized trace-replay gate for continuous batching.
//!
//! A seeded RNG generates arrival/departure traces over a mixed
//! ABR + CJS + VP fleet — uniform and bursty interarrivals, mid-tick
//! joins, one-shot VP sessions, backlogged submissions (several queued
//! observations per session), departures that trigger rebalance-on-leave,
//! and `PageAware` budget steering over an ample page pool — and replays
//! them through the
//! scheduled `submit → tick → poll` front end. Every session's served
//! actions and logits must match that adapter's unbatched
//! `InferenceSession` path at 1e-5: the queuing discipline may change
//! *when* a session advances, never *what* it answers.
//!
//! Traces are reproducible: the seed is printed (run the gate with
//! `--nocapture` so it lands in CI logs) and can be overridden with
//! `NT_TRACE_SEED=<decimal or 0xhex>` to replay a failing trace.
//!
//! The release-only half gates the scheduler's operational claim at
//! batch 64: `PageAware` keeps every shard under its page budget while
//! every served logit still equals the unbatched replay.

use netllm::{
    AdmissionPolicy, CjsObs, EventKind, EvictionPolicy, FleetAction, FleetModels, FleetObs,
    NetLlmFleet, ShardedServer, SteerReason, Ticket, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_bench::trace_seed;
use nt_cjs::Scheduler;
use nt_llm::{PageConfig, PagePool};
use nt_tensor::Rng;
use nt_vp::VpSample;
use std::collections::VecDeque;
#[cfg(not(debug_assertions))]
use {
    netllm::NetLlmAbr,
    nt_llm::{session_floor_bytes, size_spec, Zoo},
};

const DEFAULT_TRACE_SEED: u64 = 0xC01D_5EED;

fn build_models(window: usize) -> FleetModels {
    let dir = std::env::temp_dir().join("netllm-continuous-batching");
    FleetModels::seeded(&dir, "0.35b-sim", window, 21)
}

/// One persistent session's trace-side bookkeeping.
struct Sess {
    id: u64,
    /// `FLEET_ABR` or `FLEET_CJS` (VP one-shots are tracked separately).
    kind: usize,
    /// Index into the kind's stream pool.
    stream: usize,
    /// Next observation of the stream to submit.
    cursor: usize,
    /// Outstanding tickets, oldest first (FIFO per session).
    pending: VecDeque<Ticket>,
    /// Served `(action, logits)` in decision order.
    served: Vec<(FleetAction, Vec<f32>)>,
    alive: bool,
}

/// Replay one randomized trace through the scheduled front end and
/// compare every session against its unbatched reference. Returns the
/// event count (joins + submits + leaves).
fn run_trace(models: &mut FleetModels, policy: AdmissionPolicy, bursty: bool, seed: u64) -> usize {
    const SHARDS: usize = 3;
    const TICKS: usize = 36;
    let pw = 6usize;

    let abr_streams: Vec<Vec<AbrObservation>> =
        (0..6).map(|s| AbrObservation::synthetic_stream(500 + s as u64, 30)).collect();
    let cjs_streams: Vec<Vec<CjsObs>> =
        (0..3).map(|s| CjsObs::synthetic_stream(700 + s as u64, 6)).collect();
    for (s, st) in cjs_streams.iter().enumerate() {
        assert!(st.len() >= 10, "CJS probe stream {s} too short: {}", st.len());
    }
    let samples = VpSample::synthetic_pool();

    let mut rng = Rng::seeded(seed);
    let mut events = 0usize;
    let mut sessions: Vec<Sess> = Vec::new();
    let mut vp_served: Vec<(usize, Vec<f32>)> = Vec::new(); // (sample idx, logits)
    let mut next_abr = 0usize;
    let mut next_cjs = 0usize;

    {
        fn join_sess<'m>(
            server: &mut ShardedServer<NetLlmFleet<'m>>,
            fleet: &NetLlmFleet<'m>,
            sessions: &mut Vec<Sess>,
            kind: usize,
            stream: usize,
        ) {
            let id = server.join_group(fleet, kind);
            sessions.push(Sess {
                id,
                kind,
                stream,
                cursor: 0,
                pending: VecDeque::new(),
                served: Vec::new(),
                alive: true,
            });
        }
        let fleet = NetLlmFleet { abr: &models.abr, cjs: &models.cjs, vp: &models.vp };
        // A page policy runs over a pool ample enough that the memory
        // guard never evicts or defers — the unbatched oracle below needs
        // no forced clears; only the steering pass is under test.
        let ample = PageConfig { page_tokens: 8, budget_bytes: 1 << 20 };
        let mut server = match policy.page_budget() {
            Some(_) => {
                let pool = PagePool::for_model(&models.abr.lm, ample);
                ShardedServer::with_memory(SHARDS, policy, pool, EvictionPolicy::None)
            }
            None => ShardedServer::with_policy(SHARDS, policy),
        };
        // Seed population: two ABR streams and one CJS stream.
        for _ in 0..2 {
            join_sess(&mut server, &fleet, &mut sessions, FLEET_ABR, next_abr);
            next_abr += 1;
            events += 1;
        }
        join_sess(&mut server, &fleet, &mut sessions, FLEET_CJS, next_cjs);
        next_cjs += 1;
        events += 1;

        let mut vp_in_flight: Vec<(u64, Ticket, usize)> = Vec::new();
        for tick in 0..TICKS {
            // Mid-stream joins, while the stream pools last.
            if rng.chance(0.25) && next_abr < abr_streams.len() {
                join_sess(&mut server, &fleet, &mut sessions, FLEET_ABR, next_abr);
                next_abr += 1;
                events += 1;
            }
            if rng.chance(0.15) && next_cjs < cjs_streams.len() {
                join_sess(&mut server, &fleet, &mut sessions, FLEET_CJS, next_cjs);
                next_cjs += 1;
                events += 1;
            }
            // One-shot VP sessions: join, ask, answer within this tick.
            if rng.chance(0.5) {
                let sample = rng.below(samples.len());
                let id = server.join_group(&fleet, FLEET_VP);
                let t = server
                    .submit(
                        id,
                        FleetObs::Vp(netllm::VpQuery { sample: samples[sample].clone(), pw }),
                    )
                    .expect("VP submit under the cap");
                vp_in_flight.push((id, t, sample));
                events += 1;
            }

            // Arrivals: uniform traces submit each session's next obs with
            // high probability; bursty traces alternate quiet windows with
            // bursts that backlog 2 observations at once (served across
            // the following ticks, FIFO).
            for s in sessions.iter_mut().filter(|s| s.alive) {
                let stream_len = match s.kind {
                    FLEET_ABR => abr_streams[s.stream].len(),
                    _ => cjs_streams[s.stream].len(),
                };
                let n = if bursty {
                    let burst = (tick / 3) % 2 == 1;
                    if burst && rng.chance(0.9) {
                        2
                    } else if !burst && rng.chance(0.15) {
                        1
                    } else {
                        0
                    }
                } else if rng.chance(0.8) {
                    1
                } else {
                    0
                };
                for _ in 0..n {
                    if s.cursor >= stream_len {
                        break;
                    }
                    let obs = match s.kind {
                        FLEET_ABR => FleetObs::Abr(abr_streams[s.stream][s.cursor].clone()),
                        _ => FleetObs::Cjs(cjs_streams[s.stream][s.cursor].clone()),
                    };
                    let t = server.submit(s.id, obs).expect("submit under the cap");
                    s.pending.push_back(t);
                    s.cursor += 1;
                    events += 1;
                }
            }

            let report = server.tick(&fleet);
            // A tick cycle never steers a session twice (the report is
            // deduplicated by construction; length-check the claim).
            let mut steered = report.steered.clone();
            steered.sort_unstable();
            steered.dedup();
            assert_eq!(steered.len(), report.steered.len(), "double steer: {report:?}");
            // PageAware must hold every shard under its budget whenever
            // the budget is comfortably feasible fleet-wide.
            if let Some(budget) = policy.page_budget() {
                assert_eq!(report.memory.evicted.len() + report.memory.deferred, 0);
                let held = server.pages_held_per_shard();
                if held.iter().sum::<usize>() * 4 <= budget * SHARDS * 3 {
                    assert!(
                        held.iter().all(|&p| p <= budget),
                        "tick {tick}: shard over feasible page budget {budget}: {held:?}"
                    );
                }
            }

            // Harvest: at most one decision per session per tick, FIFO.
            for s in sessions.iter_mut().filter(|s| s.alive) {
                if let Some(&front) = s.pending.front() {
                    if let Some(action) = server.poll(front) {
                        s.pending.pop_front();
                        s.served.push((action, server.last_logits(s.id).to_vec()));
                    }
                    if let Some(&second) = s.pending.front() {
                        assert!(
                            server.poll(second).is_none(),
                            "session {} served two decisions in one tick",
                            s.id
                        );
                    }
                }
            }
            for (id, t, sample) in std::mem::take(&mut vp_in_flight) {
                let _ = server.poll(t).expect("one-shot VP must answer within its tick");
                vp_served.push((sample, server.last_logits(id).to_vec()));
                assert!(server.leave(id).is_clean(), "a polled one-shot leaves nothing behind");
            }

            // Departures: only sessions with no outstanding work may
            // leave (leaving would drop their queued tickets).
            if rng.chance(0.2) {
                let idle: Vec<usize> = sessions
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.alive && s.pending.is_empty() && !s.served.is_empty())
                    .map(|(i, _)| i)
                    .collect();
                // Keep at least two persistent sessions live.
                if idle.len() >= 3 {
                    let victim = idle[rng.below(idle.len())];
                    let report = server.leave(sessions[victim].id);
                    assert!(report.is_clean(), "idle departures leave nothing behind");
                    sessions[victim].alive = false;
                    events += 1;
                }
            }
        }

        // Drain the backlog so every ticket resolves (no ticket lost).
        for _ in 0..64 {
            if sessions.iter().all(|s| s.pending.is_empty()) {
                break;
            }
            let _ = server.tick(&fleet);
            for s in sessions.iter_mut().filter(|s| s.alive) {
                if let Some(&front) = s.pending.front() {
                    if let Some(action) = server.poll(front) {
                        s.pending.pop_front();
                        s.served.push((action, server.last_logits(s.id).to_vec()));
                    }
                }
            }
        }
        for s in &sessions {
            assert!(s.pending.is_empty(), "session {} has unresolved tickets", s.id);
            assert_eq!(s.served.len(), s.cursor, "session {} lost decisions", s.id);
        }
        if policy.page_budget().is_some() {
            let over_budget = server
                .journal()
                .drain(0)
                .events
                .iter()
                .filter(|e| {
                    matches!(e.kind, EventKind::Steer { reason: SteerReason::OverBudget, .. })
                })
                .count();
            assert!(over_budget > 0, "the page budget must be tight enough that steering fires");
        }
    }

    // ---- unbatched references: the scheduler may change *when*, never
    // *what* ------------------------------------------------------------
    for s in &sessions {
        match s.kind {
            FLEET_ABR => {
                models.abr.reset();
                for (i, o) in abr_streams[s.stream][..s.served.len()].iter().enumerate() {
                    let act = models.abr.select(o);
                    let (sact, slogits) = &s.served[i];
                    assert_eq!(
                        act,
                        sact.clone().abr(),
                        "ABR stream {} step {i}: scheduled action diverged",
                        s.stream
                    );
                    for (x, y) in models.abr.last_logits().iter().zip(slogits) {
                        assert!(
                            (x - y).abs() < 1e-5,
                            "ABR stream {} step {i}: scheduled {y} vs unbatched {x}",
                            s.stream
                        );
                    }
                }
            }
            _ => {
                models.cjs.reset();
                for (i, o) in cjs_streams[s.stream][..s.served.len()].iter().enumerate() {
                    let d = models.cjs.decide_obs(o);
                    let (sact, slogits) = &s.served[i];
                    let sd = sact.clone().cjs();
                    assert_eq!(
                        (d.candidate, d.cap),
                        (sd.candidate, sd.cap),
                        "CJS stream {} step {i}: scheduled decision diverged",
                        s.stream
                    );
                    for (x, y) in models.cjs.last_logits().iter().zip(slogits) {
                        assert!(
                            (x - y).abs() < 1e-5,
                            "CJS stream {} step {i}: scheduled {y} vs unbatched {x}",
                            s.stream
                        );
                    }
                }
            }
        }
    }
    for (i, (sample, slogits)) in vp_served.iter().enumerate() {
        let v = models.vp.forward_eval(&samples[*sample], pw);
        assert_eq!(v.data().len(), slogits.len());
        for (x, y) in v.data().iter().zip(slogits) {
            assert!((x - y).abs() < 1e-5, "VP query {i}: scheduled {y} vs unbatched {x}");
        }
    }
    events
}

#[test]
fn uniform_trace_least_loaded_matches_unbatched_paths() {
    let seed = trace_seed(DEFAULT_TRACE_SEED);
    println!("continuous-batching uniform trace seed: {seed} (0x{seed:x})");
    let mut models = build_models(3);
    let events = run_trace(&mut models, AdmissionPolicy::LeastLoaded, false, seed);
    println!("uniform trace replayed {events} events");
    assert!(events >= 200, "trace too small to gate anything: {events} events");
}

#[test]
fn bursty_trace_cache_aware_matches_unbatched_paths() {
    let seed = trace_seed(DEFAULT_TRACE_SEED) ^ 0x0B00_57ED;
    println!("continuous-batching bursty trace seed: {seed} (0x{seed:x})");
    let mut models = build_models(3);
    // A small per-shard budget keeps the steering pass live through the
    // whole trace (1-5 eight-row pages a session, ~30 at the fleet's peak).
    let policy = AdmissionPolicy::PageAware { budget_pages: 10 };
    let events = run_trace(&mut models, policy, true, seed);
    println!("bursty trace replayed {events} events");
    assert!(events >= 200, "trace too small to gate anything: {events} events");
}

/// Release-only operational gate at batch 64 (debug codegen makes a 7b-sim
/// fleet of this size too slow for tier-1 — CI runs `cargo test --release
/// -p nt-bench --test continuous_batching`): `PageAware` must keep every
/// shard under its page budget after every tick, and every session's served
/// logits must match its unbatched `select()` replay at 1e-5. Absolute
/// speed of this fleet shape is `perf`'s `dense_direct.decisions_per_s`.
#[cfg(not(debug_assertions))]
#[test]
fn cache_aware_holds_budget_at_batch_64_without_losing_throughput() {
    const BATCH: usize = 64;
    const SHARDS: usize = 4;
    let ticks = 10usize;
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-continuous-batching"));
    let mut m =
        NetLlmAbr::new(zoo.build_random(&size_spec("7b-sim")), netllm::AdaptMode::NoDomain, 8, 31);
    m.target_return = 2.0;
    let streams: Vec<Vec<AbrObservation>> =
        (0..BATCH).map(|s| AbrObservation::synthetic_stream(9000 + s as u64, ticks)).collect();

    // ---- oracle: each stream alone through the unbatched path ------------
    let mut expected: Vec<Vec<Vec<f32>>> = Vec::with_capacity(BATCH);
    for obs in &streams {
        m.reset();
        expected.push(
            obs.iter()
                .map(|o| {
                    let _ = m.select(o);
                    m.last_logits().to_vec()
                })
                .collect(),
        );
    }

    // Ample pool — every session could sit at full context, so the memory
    // guard stays idle and the oracle above needs no forced clears; the
    // budget under test is the per-shard one.
    let pool = PagePool::for_model(
        &m.lm,
        PageConfig { page_tokens: 16, budget_bytes: BATCH * session_floor_bytes(&m.lm, 16) },
    );
    let fleet = |shards: usize, policy: AdmissionPolicy| {
        ShardedServer::with_memory(shards, policy, pool.clone(), EvictionPolicy::None)
    };

    // End-of-run page count of one session (every ABR session appends the
    // same rows per decision), measured on a one-session fleet.
    let session_pages = {
        let mut server = fleet(1, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        for o in &streams[0] {
            let _ = server.submit(id, o.clone()).unwrap();
            let _ = server.tick(&m);
        }
        server.pages_held_per_shard()[0]
    };

    // Budget: 1.5x a perfectly balanced shard at end-of-run size —
    // feasible throughout, tight enough that placement skew (joins hold
    // no pages yet, so the same-backbone tie-break stacks them) and
    // growth keep the steering pass honest.
    let budget = session_pages * BATCH / SHARDS * 3 / 2;

    let mut server = fleet(SHARDS, AdmissionPolicy::PageAware { budget_pages: budget });
    let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();
    let mut steered = 0usize;
    for t in 0..ticks {
        let tickets: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| server.submit(id, streams[s][t].clone()).unwrap())
            .collect();
        let report = server.tick(&m);
        assert_eq!(report.served, BATCH);
        steered += report.steered.len();
        let held = server.pages_held_per_shard();
        assert!(
            held.iter().all(|&p| p <= budget),
            "tick {t}: shard over page budget {budget}: {held:?} (steered {:?})",
            report.steered
        );
        for ticket in tickets {
            let _ = server.poll(ticket).expect("ticket must resolve after its tick");
        }
        for (s, &id) in ids.iter().enumerate() {
            for (x, y) in server.last_logits(id).iter().zip(&expected[s][t]) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: queued {x} vs unbatched {y}");
            }
        }
    }
    assert!(steered > 0, "budget {budget} pages/shard never made the steering pass move anyone");
    println!(
        "continuous batching at B={BATCH}, K={SHARDS}: page budget {budget}/shard held for \
         {ticks} ticks ({steered} steers), logits match the unbatched replay"
    );
}
