//! Ingress event-loop invariants, all over a real loopback socket:
//!
//! - the socket path is *the same server* semantically — every session's
//!   actions and logits match the in-process submit/tick/poll path at
//!   1e-5;
//! - version mismatch is refused at handshake with the server's range;
//! - the leave contract: a leaving session's queued tickets resolve as
//!   `Failed` on the wire (and silently into the disconnect counter when
//!   the connection just vanishes) — nothing vanishes unresolved;
//! - admission backpressure surfaces as `Busy{retry_after}` and clears
//!   after a tick, mirroring `SubmitRetry`;
//! - fairness: one greedy pipelining connection cannot monopolize the
//!   shared admission queues — the per-connection in-flight cap refuses
//!   *it*, and a slow client's submit→completion latency stays bounded;
//! - a configuration the fleet cannot be built from is refused by `serve`
//!   itself (`InvalidInput`), not discovered by the first client;
//! - an observation the model cannot encode is refused at the front door
//!   as a protocol violation, and the sessions of other connections keep
//!   being served.

use netllm::wire::{read_frame, write_frame};
use netllm::{
    serve, AdmissionPolicy, CjsObs, FleetModels, FleetObs, Frame, IngressConfig, NetLlmFleet,
    ShardedServer, Ticket, TicketStatus, VpQuery, WireClient, WireError, FLEET_ABR, FLEET_CJS,
    FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_llm::{session_floor_bytes, PageConfig, PagePool};
use nt_vp::VpSample;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn tiny(name: &str) -> FleetModels {
    FleetModels::tiny(&std::env::temp_dir().join(name), 2)
}

/// Mixed ABR+CJS+VP sessions over the socket produce the same actions
/// and logits (1e-5) as the identical submit/tick/poll sequence run
/// in-process — the socket is a transport, not a different server.
#[test]
fn socket_path_matches_in_process_fleet() {
    const ROUNDS: usize = 3;
    let models = tiny("netllm-ingress-eq");
    let reference = tiny("netllm-ingress-eq"); // same zoo dir -> same weights
    let cjs_obs = CjsObs::synthetic_stream(9, 6);
    let samples = VpSample::synthetic_pool();
    let abr_stream = AbrObservation::synthetic_stream(70, ROUNDS);
    assert!(cjs_obs.len() >= ROUNDS && samples.len() >= ROUNDS);
    let obs_for = |group: usize, round: usize| -> FleetObs {
        match group {
            FLEET_ABR => FleetObs::Abr(abr_stream[round].clone()),
            FLEET_CJS => FleetObs::Cjs(cjs_obs[round].clone()),
            _ => FleetObs::Vp(VpQuery { sample: samples[round].clone(), pw: 6 }),
        }
    };
    let groups = [FLEET_ABR, FLEET_CJS, FLEET_VP, FLEET_ABR];

    // ---- in-process reference: same joins, same observations ----------
    let fleet = reference.fleet();
    let mut server: ShardedServer<NetLlmFleet> = ShardedServer::new(2);
    let ref_ids: Vec<u64> = groups.iter().map(|&g| server.join_group(&fleet, g)).collect();
    // expected[session][round] = (action debug, logits)
    let mut expected: BTreeMap<u64, Vec<(String, Vec<f32>)>> =
        ref_ids.iter().map(|&id| (id, Vec::new())).collect();
    for round in 0..ROUNDS {
        let mut open: Vec<(u64, Ticket)> = ref_ids
            .iter()
            .zip(&groups)
            .map(|(&id, &g)| (id, server.submit(id, obs_for(g, round)).unwrap()))
            .collect();
        while !open.is_empty() {
            server.tick(&fleet);
            open.retain(|&(id, t)| match server.poll_status(t) {
                TicketStatus::Served(a) => {
                    let logits = server.last_logits(id).to_vec();
                    expected.get_mut(&id).unwrap().push((format!("{a:?}"), logits));
                    false
                }
                TicketStatus::Failed => panic!("reference ticket failed"),
                _ => true,
            });
        }
    }

    // ---- the same workload over the socket ----------------------------
    let handle = serve(models, IngressConfig::default()).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    let ids: Vec<u64> = groups.iter().map(|&g| client.join(g as u32).unwrap().0).collect();
    assert_eq!(ids, ref_ids, "join order must yield the same session ids");
    let session_group: BTreeMap<u64, usize> = ids.iter().copied().zip(groups).collect();

    let mut got: BTreeMap<u64, Vec<(String, Vec<f32>)>> =
        ids.iter().map(|&id| (id, Vec::new())).collect();
    for round in 0..ROUNDS {
        // Pipelined submits; grants and completions stream back.
        for &id in &ids {
            client.submit(id, &obs_for(session_group[&id], round)).unwrap();
        }
        let mut done = 0usize;
        while done < ids.len() {
            match client.recv().unwrap() {
                Frame::TicketGrant { .. } => {}
                Frame::Completion { session, step, action, logits, .. } => {
                    assert_eq!(step as usize, round, "steps order the session's stream");
                    got.get_mut(&session).unwrap().push((action_debug(&action), logits));
                    done += 1;
                }
                Frame::Busy { session, retry_after_ms, .. } => {
                    // Transient (tick raced the submit): pace and retry,
                    // exactly what SubmitRetry does in-process.
                    std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
                    client.submit(session, &obs_for(session_group[&session], round)).unwrap();
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    client.bye().unwrap();

    // ---- equivalence ---------------------------------------------------
    for (&id, exp) in &expected {
        let got = &got[&id];
        assert_eq!(got.len(), exp.len(), "session {id} served count");
        for (round, ((ea, el), (ga, gl))) in exp.iter().zip(got).enumerate() {
            assert_eq!(ga, ea, "session {id} round {round} action");
            assert_eq!(gl.len(), el.len(), "session {id} round {round} logit width");
            for (i, (e, g)) in el.iter().zip(gl).enumerate() {
                assert!((e - g).abs() <= 1e-5, "session {id} round {round} logit {i}: {e} vs {g}");
            }
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.completions, (ROUNDS * groups.len()) as u64);
    assert_eq!(stats.protocol_errors, 0);
    handle.shutdown();
}

fn action_debug(action: &netllm::FleetAction) -> String {
    format!("{action:?}")
}

/// A client speaking only a future version is refused with the server's
/// range, per the negotiation rule; a current client on the same server
/// still connects.
#[test]
fn version_mismatch_refused_on_the_socket() {
    let handle = serve(tiny("netllm-ingress-ver"), IngressConfig::default()).unwrap();

    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut w = &stream;
    write_frame(&mut w, &Frame::Hello { version: 99, min_version: 99 }).unwrap();
    let mut r = std::io::BufReader::new(&stream);
    match read_frame(&mut r).unwrap() {
        Frame::HelloReject { min, max } => {
            assert_eq!(min, netllm::MIN_WIRE_VERSION);
            assert_eq!(max, netllm::WIRE_VERSION);
        }
        other => panic!("expected HelloReject, got {other:?}"),
    }
    // The server hangs up after the reject.
    assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));

    // WireClient maps the same refusal to VersionUnsupported — and a
    // well-versioned client is still fine.
    let ok = WireClient::connect(handle.addr()).unwrap();
    assert_eq!(ok.version(), netllm::WIRE_VERSION);
    handle.shutdown();
}

/// The leave contract on the wire: tickets still queued when `Leave`
/// arrives resolve as `Failed` frames before the ack — they do not
/// vanish.
#[test]
fn leave_fails_queued_tickets_then_acks() {
    // A huge quiesce window keeps the scheduler coalescing, so the
    // submits are still queued (not ticked) when the leave lands.
    let cfg = IngressConfig {
        quiesce: Duration::from_millis(250),
        max_coalesce: Duration::from_secs(2),
        ..IngressConfig::default()
    };
    let handle = serve(tiny("netllm-ingress-leave"), cfg).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    let (session, _) = client.join(FLEET_ABR as u32).unwrap();

    let obs = AbrObservation::synthetic_stream(5, 2);
    client.submit(session, &FleetObs::Abr(obs[0].clone())).unwrap();
    client.submit(session, &FleetObs::Abr(obs[1].clone())).unwrap();
    client.leave(session).unwrap();

    let mut granted = Vec::new();
    let mut failed = Vec::new();
    loop {
        match client.recv().unwrap() {
            Frame::TicketGrant { ticket, .. } => granted.push(ticket),
            Frame::Failed { ticket, session: s } => {
                assert_eq!(s, session);
                failed.push(ticket);
            }
            Frame::LeaveAck { session: s, unpolled, dropped } => {
                assert_eq!(s, session);
                assert_eq!(unpolled, 0, "eager sweep leaves no unpolled actions");
                assert_eq!(dropped, 2, "both queued arrivals dropped by the leave");
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(granted.len(), 2);
    let mut failed_sorted = failed.clone();
    failed_sorted.sort_unstable();
    let mut granted_sorted = granted.clone();
    granted_sorted.sort_unstable();
    assert_eq!(failed_sorted, granted_sorted, "every granted ticket resolved");
    assert_eq!(handle.stats().failed, 2);
    handle.shutdown();
}

/// The same contract when the client just disappears: no one is left to
/// notify, so the queued tickets fail into the disconnect counter —
/// resolved server-side, not leaked.
#[test]
fn disconnect_fails_queued_tickets_into_the_counter() {
    let cfg = IngressConfig {
        quiesce: Duration::from_millis(250),
        max_coalesce: Duration::from_secs(2),
        ..IngressConfig::default()
    };
    let handle = serve(tiny("netllm-ingress-gone"), cfg).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    let (session, _) = client.join(FLEET_ABR as u32).unwrap();
    let obs = AbrObservation::synthetic_stream(6, 1).remove(0);
    client.submit(session, &FleetObs::Abr(obs)).unwrap();
    match client.recv().unwrap() {
        Frame::TicketGrant { .. } => {}
        other => panic!("expected grant, got {other:?}"),
    }
    drop(client); // vanish without Bye

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = handle.stats();
        if stats.failed_on_disconnect == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "disconnect never failed the ticket: {stats:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown();
}

/// Admission backpressure surfaces on the wire: with a single 1-deep
/// queue, the second concurrent submit gets `Busy{QueueFull}` with a
/// positive retry hint, and succeeds once a tick drains the queue.
#[test]
fn busy_backpressure_clears_after_a_tick() {
    let cfg = IngressConfig {
        shards: 1,
        queue_cap: 1,
        quiesce: Duration::from_millis(150),
        max_coalesce: Duration::from_millis(400),
        ..IngressConfig::default()
    };
    let handle = serve(tiny("netllm-ingress-busy"), cfg).unwrap();
    let mut client = WireClient::connect(handle.addr()).unwrap();
    let (a, _) = client.join(FLEET_ABR as u32).unwrap();
    let (b, _) = client.join(FLEET_ABR as u32).unwrap();

    let obs = AbrObservation::synthetic_stream(8, 2);
    client.submit(a, &FleetObs::Abr(obs[0].clone())).unwrap();
    client.submit(b, &FleetObs::Abr(obs[1].clone())).unwrap();

    match client.recv().unwrap() {
        Frame::TicketGrant { session, .. } => assert_eq!(session, a),
        other => panic!("expected grant for a, got {other:?}"),
    }
    match client.recv().unwrap() {
        Frame::Busy { session, retry_after_ms, .. } => {
            assert_eq!(session, b);
            assert!(retry_after_ms >= 1, "retry hint must be positive");
        }
        other => panic!("expected Busy for b, got {other:?}"),
    }
    // After the tick drains the queue, the retry goes through and both
    // sessions complete.
    let mut completions = 0;
    let mut resubmitted = false;
    while completions < 2 {
        match client.recv().unwrap() {
            Frame::Completion { .. } => completions += 1,
            Frame::TicketGrant { .. } => {}
            Frame::Busy { session, retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
                client.submit(session, &FleetObs::Abr(obs[1].clone())).unwrap();
            }
            other => panic!("unexpected frame {other:?}"),
        }
        if completions == 1 && !resubmitted {
            resubmitted = true;
            client.submit(b, &FleetObs::Abr(obs[1].clone())).unwrap();
        }
    }
    let stats = handle.stats();
    assert!(stats.busy >= 1, "backpressure must have fired: {stats:?}");
    assert_eq!(stats.completions, 2);
    handle.shutdown();
}

/// Two clients on one shard: a greedy pipeline flooding submits on its
/// session, and a slow client submitting one observation at a time. The
/// per-connection in-flight cap (`max_open_per_conn`) must absorb the
/// flood — greedy gets the `Busy` refusals, the slow client gets *none*
/// (the shared queue always has room for it), and the slow client's
/// submit→completion p90 stays bounded while the flood runs.
#[test]
fn greedy_connection_cannot_starve_a_slow_client() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    const SLOW_ROUNDS: usize = 12;
    let cfg = IngressConfig {
        shards: 1,
        queue_cap: 16,
        max_open_per_conn: 4,
        ..IngressConfig::default()
    };
    let burst = 2 * cfg.max_open_per_conn;
    let handle = serve(tiny("netllm-ingress-fair"), cfg).unwrap();

    // Greedy: split client, sender floods one session, receiver drains
    // grants/busy/completions. The flood opens with a back-to-back burst
    // of twice the cap, which reaches the scheduler faster than ticks can
    // resolve tickets, so the cap is always hit; a paced flood alone can
    // be served about as fast as it arrives in a release build.
    let greedy_busy = Arc::new(AtomicU64::new(0));
    let greedy_granted = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let mut greedy = WireClient::connect(handle.addr()).unwrap();
    let (gsession, _) = greedy.join(FLEET_ABR as u32).unwrap();
    let (mut gtx, mut grx) = greedy.split();
    let flood_obs = AbrObservation::synthetic_stream(41, 1).remove(0);
    let flooder = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for _ in 0..burst {
                gtx.submit(gsession, &FleetObs::Abr(flood_obs.clone())).unwrap();
            }
            while !stop.load(Ordering::SeqCst) {
                if gtx.submit(gsession, &FleetObs::Abr(flood_obs.clone())).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            let _ = gtx.bye();
        })
    };
    let drainer = {
        let (busy, granted) = (Arc::clone(&greedy_busy), Arc::clone(&greedy_granted));
        std::thread::spawn(move || {
            while let Ok(frame) = grx.recv() {
                match frame {
                    Frame::Busy { .. } => {
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    Frame::TicketGrant { .. } => {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        })
    };

    // Slow client: one in-flight submit at a time, latency measured from
    // the first submit attempt to the completion (retries included).
    let mut slow = WireClient::connect(handle.addr()).unwrap();
    let (session, _) = slow.join(FLEET_ABR as u32).unwrap();
    let obs = AbrObservation::synthetic_stream(43, SLOW_ROUNDS);
    let mut latencies = Vec::with_capacity(SLOW_ROUNDS);
    for o in &obs {
        let t0 = Instant::now();
        slow.submit(session, &FleetObs::Abr(o.clone())).unwrap();
        loop {
            match slow.recv().unwrap() {
                Frame::TicketGrant { .. } => {}
                Frame::Completion { session: s, .. } => {
                    assert_eq!(s, session);
                    latencies.push(t0.elapsed());
                    break;
                }
                Frame::Busy { retry_after_ms, .. } => {
                    panic!(
                        "slow client refused while greedy held the queue \
                         (retry_after_ms={retry_after_ms}) — the fairness cap failed"
                    );
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    flooder.join().unwrap();
    drainer.join().unwrap();

    assert_eq!(latencies.len(), SLOW_ROUNDS);
    latencies.sort_unstable();
    let p90 = latencies[(SLOW_ROUNDS * 9) / 10];
    // Generous wall bound: with the cap, a slow submit waits for at most
    // a few ticks behind ≤ max_open_per_conn greedy arrivals; without
    // it, the 16-deep queue is wall-to-wall greedy and the slow client
    // spins on Busy retries for the whole flood.
    assert!(p90 < Duration::from_secs(5), "slow client's p90 blew up: {p90:?}");
    assert!(
        greedy_busy.load(Ordering::Relaxed) > 0,
        "the flood never hit the in-flight cap — the test did not exercise fairness"
    );
    assert!(greedy_granted.load(Ordering::Relaxed) > 0, "the flood never got a single grant");
    handle.shutdown();
}

/// Regression: a config the fleet cannot be built from is refused by
/// `serve` with its reason, instead of `Ok` and a scheduler thread that
/// dies on it (at start-up, or on the first `Join`) behind a live
/// listener; the default (and a pool exactly at the floor) still serves.
#[test]
fn serve_rejects_configs_the_fleet_cannot_be_built_from() {
    let models = || tiny("netllm-ingress-config");
    let lm = models().abr.lm;
    let d = lm.cfg.d_model;
    let floor = session_floor_bytes(&lm, 8);
    let pool = |dim: usize, budget_bytes: usize| {
        Some(PagePool::new(dim, PageConfig { page_tokens: 8, budget_bytes }))
    };
    let page_policy = AdmissionPolicy::PageAware { budget_pages: 8 };
    let bad = [
        ("shards", IngressConfig { shards: 0, ..IngressConfig::default() }),
        ("queue_cap", IngressConfig { queue_cap: 0, ..IngressConfig::default() }),
        ("max_open_per_conn", IngressConfig { max_open_per_conn: 0, ..IngressConfig::default() }),
        ("needs IngressConfig::pool", IngressConfig { policy: page_policy, ..Default::default() }),
        ("d_model", IngressConfig { pool: pool(2 * d, 4 * floor), ..Default::default() }),
        ("full-context", IngressConfig { pool: pool(d, floor / 2), ..Default::default() }),
    ];
    for (reason, cfg) in bad {
        let Err(err) = serve(models(), cfg) else { panic!("config with bad {reason} was served") };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{reason}: {err}");
        assert!(err.to_string().contains(reason), "{reason} not named in: {err}");
    }

    let at_floor =
        IngressConfig { policy: page_policy, pool: pool(d, floor), ..Default::default() };
    for cfg in [IngressConfig::default(), at_floor] {
        let handle = serve(models(), cfg).expect("a buildable config serves");
        let mut client = WireClient::connect(handle.addr()).expect("connect");
        client.join(FLEET_ABR as u32).expect("the scheduler answers a join");
        handle.shutdown();
    }
}

/// Submit `obs` for a session of `group` and wait for its completion.
fn serve_one(client: &mut WireClient, session: u64, obs: &FleetObs) {
    client.submit(session, obs).unwrap();
    loop {
        match client.recv().unwrap() {
            Frame::TicketGrant { .. } => {}
            Frame::Completion { session: s, .. } if s == session => return,
            Frame::Busy { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
                client.submit(session, obs).unwrap();
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// Well-framed observations the model cannot encode or answer — each of
/// which panics the scheduler thread, or grows an answer no frame can
/// carry, if it reaches a tick — are refused at the front door: the connection that sent one is dropped as a protocol
/// violation, and a valid session on another connection is served
/// before and after every refusal.
#[test]
fn observations_the_model_cannot_encode_are_refused_at_the_door() {
    let models = tiny("netllm-ingress-hostile");
    let max_horizon = models.vp.max_horizon();
    let handle = serve(models, IngressConfig::default()).unwrap();
    let mut good = WireClient::connect(handle.addr()).unwrap();
    let (good_session, _) = good.join(FLEET_ABR as u32).unwrap();
    let good_obs = AbrObservation::synthetic_stream(12, 10);
    serve_one(&mut good, good_session, &FleetObs::Abr(good_obs[0].clone()));

    let sample = VpSample::synthetic_pool().remove(0);
    let cjs = CjsObs::synthetic_stream(13, 6).remove(0);
    let mut hostile: Vec<(&str, usize, FleetObs)> = Vec::new();
    let mut vp = VpQuery { sample: sample.clone(), pw: 4 };
    vp.sample.saliency = nt_tensor::Tensor::zeros([nt_vp::GRID + 1, nt_vp::GRID]);
    hostile.push(("VP saliency off the grid", FLEET_VP, FleetObs::Vp(vp)));
    let mut vp = VpQuery { sample: sample.clone(), pw: 4 };
    vp.sample.history.truncate(1);
    hostile.push(("VP history of one viewport", FLEET_VP, FleetObs::Vp(vp)));
    let mut vp = VpQuery { sample: sample.clone(), pw: 4 };
    let last = *vp.sample.history.last().unwrap();
    vp.sample.history.resize(4096, last);
    hostile.push(("VP history past the context", FLEET_VP, FleetObs::Vp(vp)));
    let vp = VpQuery { sample: sample.clone(), pw: usize::MAX };
    hostile.push(("VP horizon of usize::MAX", FLEET_VP, FleetObs::Vp(vp)));
    let vp = VpQuery { sample, pw: max_horizon + 1 };
    hostile.push(("VP answer past one frame", FLEET_VP, FleetObs::Vp(vp)));
    let mut c = cjs.clone();
    c.snap.candidates.push(c.snap.feats.shape()[0]);
    hostile.push(("CJS candidate past the graph", FLEET_CJS, FleetObs::Cjs(c)));
    let mut c = cjs.clone();
    c.snap.candidates.clear();
    hostile.push(("CJS decision without candidates", FLEET_CJS, FleetObs::Cjs(c)));
    let mut c = cjs;
    c.snap.adj = nt_tensor::Tensor::zeros([1, 1]);
    hostile.push(("CJS adjacency of another graph", FLEET_CJS, FleetObs::Cjs(c)));
    let mut a = good_obs[1].clone();
    a.ladder_mbps.truncate(3);
    hostile.push(("ABR ladder shorter than the head", FLEET_ABR, FleetObs::Abr(a)));

    for (i, (what, group, obs)) in hostile.into_iter().enumerate() {
        let mut client = WireClient::connect(handle.addr()).unwrap();
        let (session, _) = client.join(group as u32).unwrap();
        client.submit(session, &obs).unwrap();
        match client.recv() {
            Err(_) => {}
            Ok(frame) => panic!("{what}: expected the connection dropped, got {frame:?}"),
        }
        assert_eq!(handle.stats().protocol_errors, i as u64 + 1, "{what}: refused once");
        let next = FleetObs::Abr(good_obs[i + 1].clone());
        serve_one(&mut good, good_session, &next);
    }
    assert_eq!(handle.stats().completions, 10);
    good.bye().unwrap();
    handle.shutdown();
}
