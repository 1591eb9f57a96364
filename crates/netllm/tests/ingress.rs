//! Ingress invariants. The decisions run on [`FrontDoor`] directly, on a
//! synthetic clock (an `Instant` base plus offsets, no socket, no
//! sleep); the transport runs over a real loopback socket:
//!
//! - the socket path is *the same server* semantically — every session's
//!   actions and logits match the in-process submit/tick/poll path at
//!   1e-5;
//! - version mismatch is refused at handshake with the server's range;
//! - the leave contract: a leaving session's queued tickets resolve as
//!   `Failed` on the wire (and silently into the disconnect counter when
//!   the connection just vanishes) — nothing vanishes unresolved;
//! - admission backpressure surfaces as `Busy{retry_after}` and clears
//!   after a tick, mirroring `SubmitRetry`; the hint follows the EWMA of
//!   the tick durations;
//! - fairness: one greedy pipelining connection cannot monopolize the
//!   shared admission queues — the per-connection in-flight cap refuses
//!   *it*, and a slow client's submit→completion latency stays bounded;
//! - coalescing closes `QUIESCE` after the last event, and no later than
//!   `MAX_COALESCE` after the first — or at once, at the event that gives
//!   every live session an open ticket;
//! - a client that never reads is cut once a write to it times out: its
//!   queued tickets fail into the disconnect counter, and other clients
//!   keep being served;
//! - a configuration the fleet cannot be built from is refused by `serve`
//!   itself (`InvalidInput`), not discovered by the first client;
//! - an observation the model cannot encode is refused at the front door
//!   as a protocol violation, and the sessions of other connections keep
//!   being served.

use netllm::ingress::{Input, Output, MAX_COALESCE, MAX_OPEN_PER_CONN, QUIESCE, WRITE_TIMEOUT};
use netllm::shard::QUEUE_CAP;
use netllm::wire::{read_frame, write_frame};
use netllm::{
    serve, AdmissionPolicy, BusyReason, CjsObs, EventKind, FleetModels, FleetObs, Frame, FrontDoor,
    IngressConfig, IngressStats, NetLlmFleet, RefusalReason, ShardedServer, Ticket, TicketStatus,
    VpQuery, WireClient, WireError, FLEET_ABR, FLEET_CJS, FLEET_VP, WIRE_VERSION,
};
use nt_abr::AbrObservation;
use nt_llm::{session_floor_bytes, PageConfig, PagePool};
use nt_vp::VpSample;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
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

/// Feed `frame` from connection `conn` to the door at `now`, and return
/// the frames it answers with (all to `conn`).
fn feed(door: &mut FrontDoor, now: Instant, conn: u64, frame: Frame) -> Vec<Frame> {
    door.on(now, Input::Frame { conn, frame: Box::new(frame) });
    let to_conn = |out| match out {
        Output::Send(to, frame) if to == conn => *frame,
        other => panic!("unexpected output {other:?}"),
    };
    door.drain().map(to_conn).collect()
}

/// Submit `obs` for `session` on `conn`, and return the one reply.
fn submit(
    door: &mut FrontDoor,
    now: Instant,
    conn: u64,
    session: u64,
    obs: &AbrObservation,
) -> Frame {
    let mut reply =
        feed(door, now, conn, Frame::Submit { session, obs: FleetObs::Abr(obs.clone()) });
    assert_eq!(reply.len(), 1, "{reply:?}");
    reply.remove(0)
}

/// Connect `conn` and join one ABR session on it.
fn join_abr(door: &mut FrontDoor, now: Instant, conn: u64) -> u64 {
    door.on(now, Input::Connect { conn });
    match feed(door, now, conn, Frame::Join { group: FLEET_ABR as u32 })[..] {
        [Frame::Joined { session, .. }] => session,
        ref other => panic!("expected Joined, got {other:?}"),
    }
}

/// Run one tick that starts at `at` and takes `took` (the door reads its
/// clock before and after), and return the sessions it completed.
fn tick(door: &mut FrontDoor, at: Instant, took: Duration) -> Vec<u64> {
    let mut clock = [at, at + took].into_iter();
    assert!(door.tick(|| clock.next().unwrap()), "arrivals were pending");
    let completed = |out| match out {
        Output::Send(_, frame) => match *frame {
            Frame::Completion { session, .. } => session,
            other => panic!("unexpected frame {other:?}"),
        },
        other => panic!("unexpected output {other:?}"),
    };
    door.drain().map(completed).collect()
}

const MS: Duration = Duration::from_millis(1);

/// The leave contract on the wire: tickets still queued when `Leave`
/// arrives resolve as `Failed` frames before the ack — they do not
/// vanish.
#[test]
fn leave_fails_queued_tickets_then_acks() {
    let models = tiny("netllm-ingress-leave");
    let stats = IngressStats::default();
    let mut door = FrontDoor::new(models.fleet(), IngressConfig::default(), &stats);
    let t0 = Instant::now();
    let session = join_abr(&mut door, t0, 0);

    // No tick runs, so both submits are still queued when the leave lands.
    let obs = AbrObservation::synthetic_stream(5, 2);
    let mut frames: Vec<Frame> = obs.iter().map(|o| submit(&mut door, t0, 0, session, o)).collect();
    frames.extend(feed(&mut door, t0, 0, Frame::Leave { session }));
    let Some(Frame::LeaveAck { session: s, unpolled, dropped }) = frames.pop() else {
        panic!("the ack comes last: {frames:?}");
    };
    assert_eq!(s, session);
    assert_eq!(unpolled, 0, "eager sweep leaves no unpolled actions");
    assert_eq!(dropped, 2, "both queued arrivals dropped by the leave");
    let (mut granted, mut failed) = (Vec::new(), Vec::new());
    for frame in frames {
        match frame {
            Frame::TicketGrant { ticket, .. } => granted.push(ticket),
            Frame::Failed { ticket, session: s } => {
                assert_eq!(s, session);
                failed.push(ticket);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(granted.len(), 2);
    failed.sort_unstable();
    granted.sort_unstable();
    assert_eq!(failed, granted, "every granted ticket resolved");
    assert_eq!(stats.snapshot().failed, 2);
}

/// The same contract when the client just disappears: no one is left to
/// notify, so the queued tickets fail into the disconnect counter —
/// resolved server-side, not leaked.
#[test]
fn disconnect_fails_queued_tickets_into_the_counter() {
    let models = tiny("netllm-ingress-gone");
    let stats = IngressStats::default();
    let mut door = FrontDoor::new(models.fleet(), IngressConfig::default(), &stats);
    let t0 = Instant::now();
    let session = join_abr(&mut door, t0, 0);
    let obs = AbrObservation::synthetic_stream(6, 1).remove(0);
    let grant = submit(&mut door, t0, 0, session, &obs);
    assert!(matches!(grant, Frame::TicketGrant { .. }), "expected grant, got {grant:?}");

    door.on(t0, Input::Gone { conn: 0 }); // vanish without Bye
    assert!(matches!(door.drain().collect::<Vec<_>>()[..], [Output::Close(0)]));
    let stats = stats.snapshot();
    assert_eq!(stats.failed_on_disconnect, 1, "disconnect never failed the ticket: {stats:?}");
    assert_eq!(stats.failed, 0, "no one was left to tell");
}

/// Admission backpressure surfaces on the wire: with one shard, two
/// connections queueing `MAX_OPEN_PER_CONN` each fill its queue, so a
/// third connection's submit gets `Busy{QueueFull}` with a positive retry
/// hint, and succeeds once a tick drains the queue.
#[test]
fn busy_backpressure_clears_after_a_tick() {
    assert_eq!(2 * MAX_OPEN_PER_CONN, QUEUE_CAP, "two full connections fill a shard");
    let models = tiny("netllm-ingress-busy");
    let stats = IngressStats::default();
    let cfg = IngressConfig { shards: 1, ..Default::default() };
    let mut door = FrontDoor::new(models.fleet(), cfg, &stats);
    let t0 = Instant::now();
    let [a, b, c] = [0, 1, 2].map(|conn| join_abr(&mut door, t0, conn));
    let obs = AbrObservation::synthetic_stream(8, 2);
    for (conn, session) in [(0, a), (1, b)] {
        for _ in 0..MAX_OPEN_PER_CONN {
            let grant = submit(&mut door, t0, conn, session, &obs[0]);
            assert!(matches!(grant, Frame::TicketGrant { .. }), "{grant:?}");
        }
    }
    match submit(&mut door, t0, 2, c, &obs[1]) {
        Frame::Busy { session, reason, retry_after_ms } => {
            assert_eq!(session, c);
            assert_eq!(reason, BusyReason::QueueFull);
            assert!(retry_after_ms >= 1, "retry hint must be positive");
        }
        other => panic!("expected Busy for c, got {other:?}"),
    }
    // The shard's queue refused it, not the fairness cap.
    let journal = feed(&mut door, t0, 2, Frame::EventsRequest { since_seq: 0 });
    let [Frame::EventsBatch { events, .. }] = &journal[..] else { panic!("{journal:?}") };
    let refusal = EventKind::Busy { session: c, reason: RefusalReason::QueueFull };
    assert!(events.iter().any(|e| e.kind == refusal), "{events:?}");

    // After the tick drains the queue, the retry goes through and every
    // session completes.
    assert_eq!(tick(&mut door, t0, MS), [a, b]);
    assert!(matches!(submit(&mut door, t0 + MS, 2, c, &obs[1]), Frame::TicketGrant { .. }));
    assert_eq!(tick(&mut door, t0 + MS, MS), [a, b, c]);
    let stats = stats.snapshot();
    assert!(stats.busy >= 1, "backpressure must have fired: {stats:?}");
    assert_eq!(stats.completions, 5);
}

/// Two clients on one shard: a greedy pipeline bursting twice
/// `MAX_OPEN_PER_CONN` submits on its session and topping up after every
/// tick, and a slow client submitting one observation at a time. The
/// per-connection in-flight cap must absorb the flood — greedy gets the
/// `Busy` refusals, the slow client gets *none* (the shared queue always
/// has room for it), and each slow submit completes on the next tick.
#[test]
fn greedy_connection_cannot_starve_a_slow_client() {
    const SLOW_ROUNDS: usize = 12;
    let models = tiny("netllm-ingress-fair");
    let stats = IngressStats::default();
    let cfg = IngressConfig { shards: 1, ..Default::default() };
    let mut door = FrontDoor::new(models.fleet(), cfg, &stats);
    let mut now = Instant::now();
    let [greedy, slow] = [0, 1].map(|conn| join_abr(&mut door, now, conn));
    let flood_obs = AbrObservation::synthetic_stream(41, 1).remove(0);
    let (mut greedy_granted, mut greedy_busy) = (0, 0);
    let mut flood = |door: &mut FrontDoor, now: Instant, submits: usize| {
        for _ in 0..submits {
            match submit(door, now, 0, greedy, &flood_obs) {
                Frame::TicketGrant { .. } => greedy_granted += 1,
                Frame::Busy { .. } => greedy_busy += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
    };
    flood(&mut door, now, 2 * MAX_OPEN_PER_CONN);

    for o in &AbrObservation::synthetic_stream(43, SLOW_ROUNDS) {
        match submit(&mut door, now, 1, slow, o) {
            Frame::TicketGrant { .. } => {}
            Frame::Busy { retry_after_ms, .. } => panic!(
                "slow client refused while greedy held the queue \
                 (retry_after_ms={retry_after_ms}) — the fairness cap failed"
            ),
            other => panic!("unexpected frame {other:?}"),
        }
        // Latency in ticks: with the cap, a slow submit is served by the
        // next tick, beside the greedy backlog; without it, the
        // 1024-deep queue is wall-to-wall greedy and the slow client
        // spins on Busy for the whole flood.
        assert_eq!(tick(&mut door, now, MS), [greedy, slow], "the slow client waited past a tick");
        now += MS;
        flood(&mut door, now, 2); // the flood keeps coming
    }
    assert!(greedy_busy > 0, "the flood never hit the in-flight cap: fairness was not exercised");
    assert!(greedy_granted > 0, "the flood never got a single grant");
}

/// The `Busy` retry hint is the EWMA (weight 0.2 on the newest, seeded at
/// 5 ms) of the tick durations the clock measured, in whole ms rounded
/// up, and never below 1.
#[test]
fn busy_retry_hint_follows_the_tick_duration_ewma() {
    let models = tiny("netllm-ingress-ewma");
    let stats = IngressStats::default();
    let mut door = FrontDoor::new(models.fleet(), IngressConfig::default(), &stats);
    let mut now = Instant::now();
    let session = join_abr(&mut door, now, 0);
    let obs = AbrObservation::synthetic_stream(44, 1).remove(0);
    // Fill the connection's fairness cap, so every extra submit is Busy.
    for _ in 0..MAX_OPEN_PER_CONN {
        assert!(matches!(submit(&mut door, now, 0, session, &obs), Frame::TicketGrant { .. }));
    }
    let hint = |door: &mut FrontDoor, now: Instant| match submit(door, now, 0, session, &obs) {
        Frame::Busy { retry_after_ms, .. } => retry_after_ms,
        other => panic!("expected Busy, got {other:?}"),
    };
    assert_eq!(hint(&mut door, now), 5, "the seed, before any tick");
    let (mut ewma_ns, mut hints) = (5e6_f64, Vec::new());
    for took_us in [40_000, 3_000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7_500, 250] {
        let took = Duration::from_micros(took_us);
        assert_eq!(tick(&mut door, now, took), [session]); // frees one cap slot...
        now += took;
        assert!(matches!(submit(&mut door, now, 0, session, &obs), Frame::TicketGrant { .. }));
        ewma_ns = 0.8 * ewma_ns + 0.2 * took.as_nanos() as f64;
        let got = hint(&mut door, now); // ...which the grant above refilled
        assert_eq!(got, ((ewma_ns / 1e6).ceil() as u32).max(1), "EWMA {ewma_ns} ns");
        hints.push(got);
    }
    assert_eq!(hints, [12, 11, 9, 7, 6, 5, 4, 3, 3, 2, 2, 2, 1, 1, 3, 2]);
}

/// The coalescing rule: the window closes `QUIESCE` after the latest
/// event while events keep coming, but never later than `MAX_COALESCE`
/// after the first.
#[test]
fn coalescing_closes_quiesce_after_the_last_event_capped_at_max_coalesce() {
    assert_eq!((QUIESCE, MAX_COALESCE), (Duration::from_micros(200), 2 * MS));
    let first = Instant::now();
    // The driver's loop: absorb each event that lands by the deadline,
    // recompute, and close at the first deadline no event beats.
    let close = |events: &[u64]| {
        let mut until = FrontDoor::coalesce_deadline(first, first);
        for at in events.iter().map(|&us| first + Duration::from_micros(us)) {
            if at > until {
                break;
            }
            until = FrontDoor::coalesce_deadline(first, at);
        }
        until - first
    };
    assert_eq!(close(&[]), QUIESCE, "a lone event waits one quiet period");
    let us = Duration::from_micros;
    assert_eq!(close(&[50, 150, 300]), us(500), "a burst extends it");
    assert_eq!(close(&[100, 350]), us(300), "a late event misses it");
    let trickle: Vec<u64> = (1..100).map(|k| 150 * k).collect();
    assert_eq!(close(&trickle), MAX_COALESCE, "a steady trickle hits the cap");
}

/// The full-batch rule beside it: the window closes at the event that
/// gives every live session an open ticket (a tick drains at most one
/// arrival per session, so waiting cannot grow the batch), and falls back
/// to `QUIESCE` / `MAX_COALESCE` while any live session is idle. A
/// `Busy`-refused submit holds no ticket; a join, a leave, a disconnect
/// and a tick's sweep each re-count.
#[test]
fn coalescing_closes_at_the_event_that_fills_the_batch() {
    let models = tiny("netllm-ingress-full");
    let stats = IngressStats::default();
    let mut door = FrontDoor::new(models.fleet(), IngressConfig::default(), &stats);
    let first = Instant::now();
    let at = |us: u64| first + Duration::from_micros(us);
    let fallback = |last: Instant| FrontDoor::coalesce_deadline(first, last);
    let obs = AbrObservation::synthetic_stream(45, 1).remove(0);
    let granted = |f: Frame| matches!(f, Frame::TicketGrant { .. });

    let a = join_abr(&mut door, first, 0);
    let q = match feed(&mut door, first, 0, Frame::Join { group: FLEET_ABR as u32 })[..] {
        [Frame::Joined { session, .. }] => session,
        ref other => panic!("expected Joined, got {other:?}"),
    };
    let b = join_abr(&mut door, first, 1);
    assert_eq!(door.window_deadline(first, first), fallback(first), "no session holds a ticket");

    // `a` fills its connection's fairness cap; `b` and `q` are idle.
    for _ in 0..MAX_OPEN_PER_CONN {
        assert!(granted(submit(&mut door, at(10), 0, a, &obs)));
    }
    assert_eq!(door.window_deadline(first, at(10)), at(10) + QUIESCE, "b and q are idle");
    assert!(granted(submit(&mut door, at(20), 1, b, &obs)));
    assert_eq!(door.window_deadline(first, at(20)), at(20) + QUIESCE, "q is idle");
    assert_eq!(door.window_deadline(first, at(1900)), first + MAX_COALESCE, "and the cap holds");
    // `q` shares `a`'s full connection, so its submit is refused.
    assert!(matches!(submit(&mut door, at(30), 0, q, &obs), Frame::Busy { .. }));
    assert_eq!(door.window_deadline(first, at(30)), at(30) + QUIESCE, "Busy holds no ticket");

    // The idle session leaves: every live session now holds a ticket.
    assert!(matches!(
        feed(&mut door, at(40), 0, Frame::Leave { session: q })[..],
        [Frame::LeaveAck { .. }]
    ));
    assert_eq!(door.window_deadline(first, at(40)), at(40), "a leave re-counts");

    // A join reopens the window; its session's first submit closes it.
    let c = join_abr(&mut door, at(50), 2);
    assert_eq!(door.window_deadline(first, at(50)), at(50) + QUIESCE, "a join re-counts");
    assert!(granted(submit(&mut door, at(60), 2, c, &obs)));
    assert_eq!(door.window_deadline(first, at(60)), at(60), "the last idle session submitted");

    // An idle connection's disconnect closes it too.
    let _d = join_abr(&mut door, at(70), 3);
    assert_eq!(door.window_deadline(first, at(70)), at(70) + QUIESCE);
    door.on(at(80), Input::Gone { conn: 3 });
    assert!(matches!(door.drain().collect::<Vec<_>>()[..], [Output::Close(3)]));
    assert_eq!(door.window_deadline(first, at(80)), at(80), "a disconnect re-counts");

    // The tick serves one arrival per session: `b` and `c` are idle again,
    // `a` keeps its queued backlog.
    assert_eq!(tick(&mut door, at(100), MS).len(), 3);
    let later = at(100) + MS;
    assert_eq!(door.window_deadline(later, later), later + QUIESCE, "the sweep re-counts");
    // Dropping the connection with the backlog leaves only idle sessions.
    door.on(later, Input::Gone { conn: 0 });
    let _ = door.drain().count();
    assert_eq!(door.window_deadline(later, later), later + QUIESCE);
}

/// Slow-reader policy on the socket: a connection that submits and then
/// floods `MetricsRequest`s without ever reading its replies fills the
/// kernel's socket buffers, and the scheduler's next blocked write to it
/// times out and cuts it. Meanwhile another client's Join → Submit →
/// Completion finishes within a fixed bound, the flooding connection is
/// closed (its writes fail), and its session's queued tickets fail into
/// `failed_on_disconnect`.
#[test]
fn a_client_that_never_reads_is_cut_and_others_keep_being_served() {
    // One write timeout plus a debug build's handshake, join and tick,
    // with room for a loaded box; a scheduler stuck behind the flooder
    // never answers.
    let bound = 40 * WRITE_TIMEOUT;
    let handle = serve(tiny("netllm-ingress-slow"), IngressConfig::default()).unwrap();
    let flood = TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(flood.try_clone().unwrap());
    let mut writer = BufWriter::new(flood.try_clone().unwrap());
    write_frame(&mut writer, &Frame::Hello { version: WIRE_VERSION, min_version: WIRE_VERSION })
        .unwrap();
    write_frame(&mut writer, &Frame::Join { group: FLEET_ABR as u32 }).unwrap();
    writer.flush().unwrap();
    assert!(matches!(read_frame(&mut reader).unwrap(), Frame::HelloAck { .. }));
    let Frame::Joined { session, .. } = read_frame(&mut reader).unwrap() else { panic!() };
    let obs = AbrObservation::synthetic_stream(46, 2);
    let flood_obs = FleetObs::Abr(obs[0].clone());

    // The flooder submits and scrapes until its connection is closed; it
    // keeps submitting so its session always has arrivals queued. It
    // signals once it has flooded for a while, so the second client's
    // exchange below overlaps the flood.
    let (started, flooding) = std::sync::mpsc::channel();
    let flooder = std::thread::spawn(move || {
        let t0 = Instant::now();
        let mut rounds = 0u64;
        loop {
            let mut send = || -> Result<(), WireError> {
                write_frame(&mut writer, &Frame::Submit { session, obs: flood_obs.clone() })?;
                for _ in 0..16 {
                    write_frame(&mut writer, &Frame::MetricsRequest)?;
                }
                Ok(writer.flush()?)
            };
            if send().is_err() {
                return rounds;
            }
            rounds += 1;
            if rounds == 256 {
                let _ = started.send(());
            }
            assert!(t0.elapsed() < Duration::from_secs(120), "the flooder was never cut");
        }
    });
    flooding.recv().expect("the flooder runs");

    let t0 = Instant::now();
    let mut good = WireClient::connect(handle.addr()).unwrap();
    let (good_session, _) = good.join(FLEET_ABR as u32).unwrap();
    serve_one(&mut good, good_session, &FleetObs::Abr(obs[1].clone()));
    assert!(t0.elapsed() < bound, "the second client waited {:?}", t0.elapsed());

    let rounds = flooder.join().expect("flooder thread");
    assert!(rounds >= 256, "the flood stopped after {rounds} rounds");
    drop(reader); // never read past the handshake
    let stats = handle.stats();
    assert!(stats.failed_on_disconnect >= 1, "the flooder's queue did not fail: {stats:?}");
    // Served after the cut as well.
    let t0 = Instant::now();
    serve_one(&mut good, good_session, &FleetObs::Abr(obs[0].clone()));
    assert!(t0.elapsed() < bound, "the second client waited {:?}", t0.elapsed());
    good.bye().unwrap();
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
