//! Equivalence gates for the sharded fleet: CJS and VP served through
//! `ShardedServer` must match their unbatched `InferenceSession` paths at
//! 1e-5 (the CJS path exercises a candidate-token rollback inside every
//! batched step; ABR equivalence incl. steer/rebalance lives with the
//! router's unit tests), and a multi-shard CJS fleet must give the answers
//! of the same fleet behind one shard.
//!
//! They check answers, not speed. Per-shard math is identical across
//! shard counts, and the throughput a fleet reaches is `perf`'s to
//! measure (`dense_direct`, `shard_kill`), compared parent against change
//! with the spread stated. CI runs this file in release too
//! (`cargo test --release -p nt-bench --test sharded_serving`).

use netllm::{
    AdaptMode, CjsObs, GlobalSessionId, NetLlmCjs, NetLlmVp, ServedTask, ShardedServer, Ticket,
    VpQuery,
};
use nt_cjs::Scheduler;
use nt_llm::{size_spec, Zoo};
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};

fn cjs_model(label: &str, window: usize, seed: u64) -> NetLlmCjs {
    let loaded =
        Zoo::new(std::env::temp_dir().join("sharded-serving-test")).build_random(&size_spec(label));
    let mut m = NetLlmCjs::new(loaded, AdaptMode::NoDomain, window, seed);
    m.target_return = -1.0;
    m
}

/// One full round: submit every request, tick once, poll in request order.
fn serve_round<T>(
    server: &mut ShardedServer<T>,
    task: &T,
    reqs: &[(GlobalSessionId, &T::Obs)],
) -> Vec<T::Action>
where
    T: ServedTask + Sync,
    T::Obs: Clone + Sync,
    T::Slot: Send,
    T::Action: Send,
{
    let tickets: Vec<Ticket> =
        reqs.iter().map(|&(id, o)| server.submit(id, o.clone()).unwrap()).collect();
    server.tick(task);
    tickets.into_iter().map(|t| server.poll(t).expect("one tick serves the round")).collect()
}

#[test]
#[allow(clippy::needless_range_loop)]
fn sharded_cjs_matches_unbatched_rollouts_with_rollback() {
    // Six scheduling sessions across two shards: every tick appends
    // candidate tokens, rolls them back inside the batched step, and
    // re-appends the chosen action — and must still match the unbatched
    // decide_obs() replay chunk for chunk, across re-anchors.
    let window = 3usize;
    let mut m = cjs_model("0.35b-sim", window, 0x31);
    let streams: Vec<Vec<CjsObs>> =
        (0..6).map(|s| CjsObs::synthetic_stream(40 + s as u64, 6)).collect();
    let ticks = streams.iter().map(Vec::len).min().unwrap().min(10);
    assert!(ticks > 2 * window, "probe must cross a re-anchor: only {ticks} ticks");

    let mut server = ShardedServer::new(2);
    let ids: Vec<_> = streams.iter().map(|_| server.join(&m)).collect();
    let mut served: Vec<Vec<(usize, usize, Vec<f32>)>> = vec![Vec::new(); streams.len()];
    for t in 0..ticks {
        let reqs: Vec<_> = ids.iter().enumerate().map(|(s, &id)| (id, &streams[s][t])).collect();
        let decisions = serve_round(&mut server, &m, &reqs);
        for ((s, &id), d) in ids.iter().enumerate().zip(decisions) {
            served[s].push((d.candidate, d.cap, server.last_logits(id).to_vec()));
        }
    }
    drop(server);

    for (s, obs) in streams.iter().enumerate() {
        m.reset();
        for (t, o) in obs[..ticks].iter().enumerate() {
            let d = m.decide_obs(o);
            let (cand, cap, logits) = &served[s][t];
            assert_eq!(d.candidate, *cand, "stream {s} tick {t}: stage diverged");
            assert_eq!(d.cap, *cap, "stream {s} tick {t}: cap diverged");
            for (x, y) in m.last_logits().iter().zip(logits) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: sharded {y} vs unbatched {x}");
            }
        }
    }
}

#[test]
fn sharded_vp_one_shot_slots_match_unbatched_eval() {
    // VP sessions join, answer once, and leave; the batched answers must
    // equal the unbatched one-shot eval at 1e-5.
    let loaded = Zoo::new(std::env::temp_dir().join("sharded-serving-test"))
        .build_random(&size_spec("0.35b-sim"));
    let m = NetLlmVp::new(loaded, AdaptMode::NoDomain, 8, 0x32);
    let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
    let samples: Vec<VpSample> = extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30);
    let pw = 6usize;

    let mut server = ShardedServer::new(2);
    let mut served: Vec<Vec<f32>> = Vec::new();
    for round in 0..3 {
        // Four one-shot slots per round, answered in one fleet tick.
        let ids: Vec<_> = (0..4).map(|_| server.join(&m)).collect();
        let queries: Vec<VpQuery> = (0..4)
            .map(|i| VpQuery { sample: samples[(4 * round + i) % samples.len()].clone(), pw })
            .collect();
        let reqs: Vec<_> = ids.iter().zip(&queries).map(|(&id, q)| (id, q)).collect();
        let _ = serve_round(&mut server, &m, &reqs);
        for &id in &ids {
            served.push(server.last_logits(id).to_vec());
            let _ = server.leave(id);
        }
        assert_eq!(server.active(), 0, "one-shot slots must all be gone");
    }
    drop(server);

    for (i, logits) in served.iter().enumerate() {
        let v = m.forward_eval(&samples[i % samples.len()], pw);
        for (x, y) in v.data().iter().zip(logits) {
            assert!((x - y).abs() < 1e-5, "query {i}: sharded {y} vs unbatched {x}");
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn multi_shard_fleet_matches_single_shard_answers() {
    // A CJS fleet (rollback pass in every tick) at batch 16: K shards
    // stepping on NT_THREADS workers must give every session the logits
    // the same fleet gets behind one shard.
    const BATCH: usize = 16;
    let mut m = cjs_model("7b-sim", 8, 0x33);
    m.target_return = -1.0;
    let streams: Vec<Vec<CjsObs>> =
        (0..BATCH).map(|s| CjsObs::synthetic_stream(900 + s as u64, 8)).collect();
    let ticks = streams.iter().map(Vec::len).min().unwrap().min(16);
    let k = nt_tensor::pool::num_threads().clamp(2, 4);

    let run = |shards: usize| -> Vec<Vec<Vec<f32>>> {
        let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
        let mut server = ShardedServer::new(shards);
        let ids: Vec<_> = (0..BATCH).map(|_| server.join(&m)).collect();
        for t in 0..ticks {
            let reqs: Vec<_> =
                ids.iter().enumerate().map(|(s, &id)| (id, &streams[s][t])).collect();
            let _ = serve_round(&mut server, &m, &reqs);
            for (s, &id) in ids.iter().enumerate() {
                logits[s].push(server.last_logits(id).to_vec());
            }
        }
        logits
    };
    let single_logits = run(1);
    let sharded_logits = run(k);

    for s in 0..BATCH {
        for t in 0..ticks {
            for (x, y) in sharded_logits[s][t].iter().zip(&single_logits[s][t]) {
                assert!((x - y).abs() < 1e-5, "stream {s} tick {t}: {k}-shard {x} vs 1-shard {y}");
            }
        }
    }
}
