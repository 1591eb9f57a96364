//! Socket load generation: replay [`Trace`] schedules through the
//! ingress wire protocol, and drive the matching in-process reference.
//!
//! Two drivers over the same workload:
//!
//! - [`replay_socket`] dials a running ingress ([`netllm::serve`]) and
//!   replays the trace as a wire client — pipelined submits with a small
//!   per-session window, `Busy`-paced retries, explicit leaves;
//! - [`replay_direct`] runs the identical schedule against an in-process
//!   [`ShardedServer`] with `submit`/`tick`/`poll_status`.
//!
//! Both record per-session `(obs index, action, logits)` streams, so the
//! loopback gate (`tests/ingress_loopback.rs`) can assert the socket is
//! a transport, not a different server. The dense fixed-batch driver
//! ([`dense_socket`]) is the load behind the telemetry scrape gate and
//! `nt-top`'s demo fleet; how fast the socket path is against direct
//! submit/tick is `perf`'s `ingress.socket_over_direct`.

use crate::trace::Trace;
use netllm::{
    CjsObs, FleetModels, FleetObs, Frame, NetLlmFleet, ShardedServer, SubmitRetry, Ticket,
    TicketStatus, WireClient, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_vp::VpSample;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Prediction horizon for VP submissions.
pub const NETLOAD_PW: usize = 6;
/// Per-session in-flight window on the socket path: one arrival queued
/// while one serves keeps batches dense without unbounded pileup.
const WINDOW: usize = 2;
/// Deeper window for the dense driver — covers every round up front, so
/// the admission queues stay primed and no tick waits on a client round
/// trip.
const DENSE_WINDOW: usize = 8;

/// Session index → fleet group: a deterministic ABR/CJS/VP mix.
pub fn kind_of(s: usize) -> usize {
    match s % 3 {
        0 => FLEET_ABR,
        1 => FLEET_CJS,
        _ => FLEET_VP,
    }
}

/// Deterministic per-session observation streams for a trace replay.
pub struct ObsStreams {
    abr: Vec<Vec<AbrObservation>>,
    cjs: Vec<Vec<CjsObs>>,
    samples: Vec<VpSample>,
}

impl ObsStreams {
    /// Streams for `sessions` sessions, each able to satisfy up to
    /// `max_per_session` submits (CJS streams are workload-bounded and
    /// may be shorter; [`ObsStreams::len_for`] is the real cap).
    pub fn generate(sessions: usize, max_per_session: usize, seed: u64) -> Self {
        let abr = (0..sessions)
            .map(|s| AbrObservation::synthetic_stream(seed ^ (1000 + s as u64), max_per_session))
            .collect();
        let cjs = (0..sessions)
            .map(|s| {
                let mut obs = CjsObs::synthetic_stream(seed ^ (2000 + s as u64), 6);
                obs.truncate(max_per_session);
                obs
            })
            .collect();
        let samples = VpSample::synthetic_pool();
        ObsStreams { abr, cjs, samples }
    }

    /// How many submits session `s` can make before its stream runs dry.
    pub fn len_for(&self, s: usize, max: usize) -> usize {
        match kind_of(s) {
            FLEET_ABR => self.abr[s].len().min(max),
            FLEET_CJS => self.cjs[s].len().min(max),
            _ => max, // VP rotates its sample pool
        }
    }

    /// Session `s`'s `i`-th observation.
    pub fn obs(&self, s: usize, i: usize) -> FleetObs {
        match kind_of(s) {
            FLEET_ABR => FleetObs::Abr(self.abr[s][i].clone()),
            FLEET_CJS => FleetObs::Cjs(self.cjs[s][i].clone()),
            _ => FleetObs::Vp(netllm::VpQuery {
                sample: self.samples[(s + i) % self.samples.len()].clone(),
                pw: NETLOAD_PW,
            }),
        }
    }
}

/// What one replay produced, per local session index.
pub struct ReplayOutcome {
    /// `(obs index, action debug string, logits)` in serve order. Serve
    /// order is submit order (FIFO per session), so this is always an
    /// obs-index prefix interleaved with failures.
    pub served: Vec<Vec<(usize, String, Vec<f32>)>>,
    /// Obs indices whose tickets resolved `Failed` (leave-dropped).
    pub failed: Vec<Vec<usize>>,
    /// Submit→completion latency per served ticket (ms).
    pub latencies_ms: Vec<f64>,
    /// Wall time over the whole replay.
    pub elapsed: Duration,
    /// `Busy` refusals weathered (socket) / refused submits (direct).
    pub busy_retries: u64,
}

impl ReplayOutcome {
    /// Total decisions served.
    pub fn total_served(&self) -> usize {
        self.served.iter().map(|v| v.len()).sum()
    }
}

/// Replay `trace` against a running ingress at `addr`. Panics on any
/// protocol error — the gate wants failures loud.
pub fn replay_socket(addr: SocketAddr, trace: &Trace, streams: &ObsStreams) -> ReplayOutcome {
    let sessions = trace.sessions.len();
    let client = WireClient::connect(addr).expect("connect to ingress");
    let (mut tx, mut rx) = client.split();
    // Receiver thread: frames into a channel the replay loop can pump
    // without blocking its sends.
    let (ftx, frx) = mpsc::channel::<Frame>();
    let pump = std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if ftx.send(frame).is_err() {
                break;
            }
        }
    });

    struct Sess {
        id: Option<u64>,
        alive: bool,
        want: usize,
        sent: usize,
        inflight: usize,
        served: Vec<(usize, String, Vec<f32>)>,
        failed: Vec<usize>,
    }
    let mut sess: Vec<Sess> = (0..sessions)
        .map(|_| Sess {
            id: None,
            alive: false,
            want: 0,
            sent: 0,
            inflight: 0,
            served: Vec::new(),
            failed: Vec::new(),
        })
        .collect();
    let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
    let mut pending_join: VecDeque<usize> = VecDeque::new();
    let mut pending_submit: VecDeque<(usize, usize, Instant)> = VecDeque::new();
    let mut open: BTreeMap<u64, (usize, usize, Instant)> = BTreeMap::new();
    let mut retry: VecDeque<(usize, usize, Instant)> = VecDeque::new();
    let mut pending_leaves = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut busy_retries = 0u64;
    let started = Instant::now();

    // One frame's worth of bookkeeping. Returns tickets that resolved.
    let handle = |frame: Frame,
                  sess: &mut Vec<Sess>,
                  by_id: &mut BTreeMap<u64, usize>,
                  pending_join: &mut VecDeque<usize>,
                  pending_submit: &mut VecDeque<(usize, usize, Instant)>,
                  open: &mut BTreeMap<u64, (usize, usize, Instant)>,
                  retry: &mut VecDeque<(usize, usize, Instant)>,
                  pending_leaves: &mut usize,
                  latencies_ms: &mut Vec<f64>,
                  busy_retries: &mut u64| {
        match frame {
            Frame::Joined { session, .. } => {
                let s = pending_join.pop_front().expect("unexpected Joined");
                sess[s].id = Some(session);
                sess[s].alive = true;
                by_id.insert(session, s);
            }
            Frame::TicketGrant { ticket, .. } => {
                let (s, i, at) = pending_submit.pop_front().expect("unexpected grant");
                open.insert(ticket, (s, i, at));
            }
            Frame::Busy { retry_after_ms, .. } => {
                let (s, i, _) = pending_submit.pop_front().expect("unexpected Busy");
                sess[s].inflight -= 1;
                *busy_retries += 1;
                retry.push_back((
                    s,
                    i,
                    Instant::now() + Duration::from_millis(retry_after_ms as u64),
                ));
            }
            Frame::Completion { ticket, action, logits, .. } => {
                let (s, i, at) = open.remove(&ticket).expect("completion for unknown ticket");
                sess[s].inflight -= 1;
                latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                sess[s].served.push((i, format!("{action:?}"), logits));
            }
            Frame::Failed { ticket, .. } => {
                let (s, i, _) = open.remove(&ticket).expect("failure for unknown ticket");
                sess[s].inflight -= 1;
                sess[s].failed.push(i);
            }
            Frame::LeaveAck { .. } => *pending_leaves -= 1,
            other => panic!("unexpected frame in replay: {other:?}"),
        }
    };
    macro_rules! pump_one {
        ($frame:expr) => {
            handle(
                $frame,
                &mut sess,
                &mut by_id,
                &mut pending_join,
                &mut pending_submit,
                &mut open,
                &mut retry,
                &mut pending_leaves,
                &mut latencies_ms,
                &mut busy_retries,
            )
        };
    }

    for t in 1..=trace.ticks {
        // Joins scheduled this round; resolve them before anything else
        // references the ids.
        for s in 0..sessions {
            if trace.sessions[s].join_tick == t {
                tx.send(&Frame::Join { group: kind_of(s) as u32 }).expect("send Join");
                pending_join.push_back(s);
            }
        }
        while !pending_join.is_empty() {
            let frame = frx.recv_timeout(Duration::from_secs(60)).expect("join reply");
            pump_one!(frame);
        }
        // Leaves: the server fails whatever is still queued (the leave
        // contract); unsent demand simply evaporates with the session.
        for (s, sx) in sess.iter_mut().enumerate() {
            if trace.sessions[s].leave_tick == t && sx.alive {
                sx.alive = false;
                retry.retain(|&(rs, _, _)| rs != s);
                tx.leave(sx.id.unwrap()).expect("send Leave");
                pending_leaves += 1;
            }
        }
        // This round's demand.
        for &s in trace.submits_at(t) {
            if sess[s].alive && sess[s].want < streams.len_for(s, trace.ticks as usize) {
                sess[s].want += 1;
            }
        }
        // Send everything the windows allow; block for progress while
        // any alive session still has unsent demand.
        loop {
            let now = Instant::now();
            while let Some(&(s, i, due)) = retry.front() {
                if due > now || sess[s].inflight >= WINDOW {
                    break;
                }
                retry.pop_front();
                if !sess[s].alive {
                    continue;
                }
                tx.submit(sess[s].id.unwrap(), &streams.obs(s, i)).expect("resubmit");
                sess[s].inflight += 1;
                pending_submit.push_back((s, i, Instant::now()));
            }
            let mut unsent = false;
            for (s, sx) in sess.iter_mut().enumerate() {
                if !sx.alive {
                    continue;
                }
                while sx.sent < sx.want && sx.inflight < WINDOW {
                    let i = sx.sent;
                    tx.submit(sx.id.unwrap(), &streams.obs(s, i)).expect("submit");
                    sx.sent += 1;
                    sx.inflight += 1;
                    pending_submit.push_back((s, i, Instant::now()));
                }
                unsent |= sx.sent < sx.want;
            }
            // Drain whatever has arrived either way.
            while let Ok(frame) = frx.try_recv() {
                pump_one!(frame);
            }
            if !unsent && retry.is_empty() {
                break;
            }
            // Window-blocked: wait for completions to free slots.
            match frx.recv_timeout(Duration::from_millis(20)) {
                Ok(frame) => pump_one!(frame),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(e) => panic!("ingress hung mid-replay: {e:?}"),
            }
        }
    }
    // Drain: every granted ticket must resolve; retries must land.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !open.is_empty() || !pending_submit.is_empty() || !retry.is_empty() {
        let now = Instant::now();
        assert!(now < deadline, "replay drain stalled");
        while let Some(&(s, i, due)) = retry.front() {
            if due > now || sess[s].inflight >= WINDOW {
                break;
            }
            retry.pop_front();
            if !sess[s].alive {
                continue;
            }
            tx.submit(sess[s].id.unwrap(), &streams.obs(s, i)).expect("resubmit");
            sess[s].inflight += 1;
            pending_submit.push_back((s, i, Instant::now()));
        }
        match frx.recv_timeout(Duration::from_millis(50)) {
            Ok(frame) => pump_one!(frame),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(e) => panic!("ingress hung in drain: {e:?}"),
        }
    }
    // Final leaves and goodbye.
    for sx in sess.iter_mut() {
        if sx.alive {
            sx.alive = false;
            tx.leave(sx.id.unwrap()).expect("final leave");
            pending_leaves += 1;
        }
    }
    while pending_leaves > 0 {
        let frame = frx.recv_timeout(Duration::from_secs(60)).expect("leave ack");
        pump_one!(frame);
    }
    let elapsed = started.elapsed();
    tx.bye().expect("bye");
    let _ = pump.join();

    ReplayOutcome {
        served: sess.iter().map(|x| x.served.clone()).collect(),
        failed: sess.iter().map(|x| x.failed.clone()).collect(),
        latencies_ms,
        elapsed,
        busy_retries,
    }
}

/// The same schedule against an in-process [`ShardedServer`]: one tick
/// per trace round plus a drain, `SubmitRetry` pacing, leave-drops
/// mirrored from the [`netllm::LeaveReport`].
pub fn replay_direct(
    models: &FleetModels,
    shards: usize,
    trace: &Trace,
    streams: &ObsStreams,
) -> ReplayOutcome {
    let sessions = trace.sessions.len();
    let fleet = models.fleet();
    let mut server: ShardedServer<NetLlmFleet> = ShardedServer::new(shards);

    struct Sess {
        id: Option<u64>,
        want: usize,
        sent: usize,
        open: VecDeque<(usize, Ticket, Instant)>,
        served: Vec<(usize, String, Vec<f32>)>,
        failed: Vec<usize>,
        retry: SubmitRetry,
    }
    let mut sess: Vec<Sess> = (0..sessions)
        .map(|_| Sess {
            id: None,
            want: 0,
            sent: 0,
            open: VecDeque::new(),
            served: Vec::new(),
            failed: Vec::new(),
            retry: SubmitRetry::new(),
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut busy_retries = 0u64;
    let started = Instant::now();

    let drain_ticks = trace.ticks + 200;
    for t in 1..=drain_ticks {
        let in_trace = t <= trace.ticks;
        if in_trace {
            for (s, sx) in sess.iter_mut().enumerate() {
                if trace.sessions[s].join_tick == t {
                    sx.id = Some(server.join_group(&fleet, kind_of(s)));
                }
            }
            for (s, sx) in sess.iter_mut().enumerate() {
                if trace.sessions[s].leave_tick == t {
                    if let Some(id) = sx.id.take() {
                        let report = server.leave(id);
                        let dropped: Vec<Ticket> =
                            report.dropped_arrivals.iter().map(|&(tk, _)| tk).collect();
                        assert!(report.unpolled.is_empty(), "eager polling left actions banked");
                        let open: Vec<_> = sx.open.drain(..).collect();
                        for (i, tk, _at) in open {
                            assert!(dropped.contains(&tk), "leave left dangling tickets");
                            sx.failed.push(i);
                        }
                    }
                }
            }
            for &s in trace.submits_at(t) {
                if sess[s].id.is_some() && sess[s].want < streams.len_for(s, trace.ticks as usize) {
                    sess[s].want += 1;
                }
            }
        }
        for (s, sx) in sess.iter_mut().enumerate() {
            let Some(id) = sx.id else { continue };
            while sx.sent < sx.want && sx.retry.ready(t) {
                let i = sx.sent;
                match server.submit(id, streams.obs(s, i)) {
                    Ok(ticket) => {
                        sx.retry.succeeded();
                        sx.open.push_back((i, ticket, Instant::now()));
                        sx.sent += 1;
                    }
                    Err(e) => {
                        busy_retries += 1;
                        sx.retry.refused(t, &e);
                        break;
                    }
                }
            }
        }
        if server.pending() == 0 {
            let done = sess.iter().all(|x| x.open.is_empty() && x.sent >= x.want);
            if !in_trace && done {
                break;
            }
            if !in_trace {
                continue;
            }
        }
        if server.pending() > 0 {
            server.tick(&fleet);
        }
        for sx in sess.iter_mut() {
            let Some(id) = sx.id else { continue };
            while let Some(&(i, ticket, at)) = sx.open.front() {
                match server.poll_status(ticket) {
                    TicketStatus::Served(action) => {
                        sx.open.pop_front();
                        latencies_ms.push(at.elapsed().as_secs_f64() * 1e3);
                        let logits = server.last_logits(id).to_vec();
                        sx.served.push((i, format!("{action:?}"), logits));
                    }
                    TicketStatus::Failed => {
                        sx.open.pop_front();
                        sx.failed.push(i);
                    }
                    _ => break,
                }
            }
        }
    }
    for sx in sess.iter_mut() {
        if let Some(id) = sx.id.take() {
            let report = server.leave(id);
            assert!(report.is_clean(), "post-drain leave must be clean");
        }
        assert!(sx.open.is_empty(), "direct replay left open tickets");
    }
    let elapsed = started.elapsed();

    ReplayOutcome {
        served: sess.iter().map(|x| x.served.clone()).collect(),
        failed: sess.iter().map(|x| x.failed.clone()).collect(),
        latencies_ms,
        elapsed,
        busy_retries,
    }
}

/// A dense fixed-batch workload over the socket: `sessions` sessions
/// each submitting `rounds` observations (streams cycle, so any round
/// count works), pipelined under the per-session window. Returns the
/// decisions served once the last completion is in.
pub fn dense_socket(addr: SocketAddr, sessions: usize, rounds: usize, streams: &ObsStreams) -> u64 {
    let client = WireClient::connect(addr).expect("connect to ingress");
    let (mut tx, mut rx) = client.split();
    let (ftx, frx) = mpsc::channel::<Frame>();
    let pump = std::thread::spawn(move || {
        while let Ok(frame) = rx.recv() {
            if ftx.send(frame).is_err() {
                break;
            }
        }
    });

    let mut ids = Vec::with_capacity(sessions);
    for s in 0..sessions {
        tx.send(&Frame::Join { group: kind_of(s) as u32 }).expect("join");
        match frx.recv_timeout(Duration::from_secs(60)).expect("joined") {
            Frame::Joined { session, .. } => ids.push(session),
            other => panic!("expected Joined, got {other:?}"),
        }
    }
    let by_id: BTreeMap<u64, usize> = ids.iter().copied().zip(0..sessions).collect();

    let mut sent = vec![0usize; sessions];
    let mut inflight = vec![0usize; sessions];
    let mut done = vec![0usize; sessions];
    let mut pending_submit: VecDeque<usize> = VecDeque::new();
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();
    let mut decisions = 0u64;
    let deadline = Instant::now() + Duration::from_secs(600);
    while done.iter().sum::<usize>() < sessions * rounds {
        assert!(Instant::now() < deadline, "dense socket replay stalled");
        for s in 0..sessions {
            while sent[s] < rounds && inflight[s] < DENSE_WINDOW {
                let i = sent[s] % streams.len_for(s, usize::MAX).max(1);
                tx.submit(ids[s], &streams.obs(s, i)).expect("dense submit");
                sent[s] += 1;
                inflight[s] += 1;
                pending_submit.push_back(s);
            }
        }
        let frame = match frx.try_recv() {
            Ok(f) => f,
            Err(_) => match frx.recv_timeout(Duration::from_millis(100)) {
                Ok(f) => f,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(e) => panic!("ingress hung in dense replay: {e:?}"),
            },
        };
        match frame {
            Frame::TicketGrant { ticket, .. } => {
                let s = pending_submit.pop_front().expect("unexpected grant");
                open.insert(ticket, s);
            }
            Frame::Busy { retry_after_ms, .. } => {
                // Dense mode never overruns the default queue cap, but
                // pace and retry anyway so the driver is robust.
                let s = pending_submit.pop_front().expect("unexpected Busy");
                inflight[s] -= 1;
                sent[s] -= 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms as u64));
            }
            Frame::Completion { ticket, session, .. } => {
                let s = open.remove(&ticket).expect("completion for unknown ticket");
                assert_eq!(by_id[&session], s);
                inflight[s] -= 1;
                done[s] += 1;
                decisions += 1;
            }
            other => panic!("unexpected frame in dense replay: {other:?}"),
        }
    }
    for &id in &ids {
        tx.leave(id).expect("leave");
    }
    let mut acks = 0;
    while acks < sessions {
        match frx.recv_timeout(Duration::from_secs(60)).expect("leave ack") {
            Frame::LeaveAck { .. } => acks += 1,
            other => panic!("expected LeaveAck, got {other:?}"),
        }
    }
    tx.bye().expect("bye");
    let _ = pump.join();
    decisions
}
