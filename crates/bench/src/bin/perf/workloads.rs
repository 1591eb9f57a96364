//! The six workloads. Every workload is a sequence of *blocks*: a fixed
//! amount of work (the same on every commit) that starts from fresh
//! sessions, discards a warm-up and times the rest. A run repeats blocks
//! until its time budget is spent and reports medians over blocks, so a
//! faster program runs more blocks of the same work instead of different
//! work (sessions' episode logs and KV contexts would otherwise grow with
//! the number of decisions served).

use crate::check::{self, Observed};
use crate::spans::{Rec, NONE};
use crate::{stats, sysinfo};
use netllm::{
    serve, AdmissionPolicy, EvictionPolicy, FaultPlan, FleetModels, Frame, HealthConfig,
    IngressConfig, IngressHandle, MetricsSnapshot, NetLlmFleet, ShardedServer, Ticket,
    TicketStatus, WireClient, WireSender, FLEET_ABR, TICK_PHASES,
};
use nt_bench::{kind_of, ObsStreams};
use nt_llm::{session_floor_bytes, PageConfig, PagePool};
use nt_tensor::Rng;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// KV positions per page in `paged_tight` (the `sched_gate.rs` set-up).
const PAGE_TOKENS: usize = 16;
/// Latency limit of the open-loop rate sweep.
pub const SLO_P99_MS: f64 = 10.0;
/// Offered rates of the sweep (decisions/s).
pub const SWEEP_RATES: [usize; 3] = [1000, 2000, 4000];

/// Work per block and fleet shape. `full` is the benchmark; `smoke` walks
/// the same code in seconds under a debug build.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub model: &'static str,
    pub window: usize,
    pub sessions: usize,
    pub shards: usize,
    /// `single_stream`: decisions discarded / timed per block.
    pub single: (usize, usize),
    /// `dense_direct` and `dense_socket`: rounds discarded / timed.
    pub dense: (usize, usize),
    /// `paged_tight`: rounds discarded / timed.
    pub paged: (usize, usize),
    /// Rounds per segment in the dense and paged blocks: one ABR
    /// re-anchor period, so every segment is the same work.
    pub segment_rounds: usize,
    /// Decisions per segment in `single_stream`.
    pub single_segment: usize,
    /// `shard_kill`: dense rounds before and after the kill (all timed).
    pub kill_side: usize,
    /// `open_socket`: offered decisions/s.
    pub open_rate: usize,
    /// `open_socket`: length of one timed slice (one block).
    pub open_slice: Duration,
    /// Decisions of sessions 0/1/2 replayed by the output check.
    pub check_decisions: usize,
    /// Length of one rate-sweep leg in the traced run.
    pub sweep_leg: Duration,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            model: "7b-sim",
            window: 4,
            sessions: 64,
            shards: 4,
            single: (64, 2048),
            dense: (8, 64),
            paged: (16, 32),
            segment_rounds: 8,
            single_segment: 128,
            kill_side: 8,
            open_rate: 2000,
            open_slice: Duration::from_millis(250),
            check_decisions: 128,
            sweep_leg: Duration::from_millis(1200),
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            model: "0.35b-sim",
            window: 4,
            sessions: 6,
            shards: 4,
            single: (4, 24),
            dense: (2, 6),
            paged: (10, 6),
            segment_rounds: 3,
            single_segment: 8,
            kill_side: 3,
            open_rate: 300,
            open_slice: Duration::from_millis(120),
            check_decisions: 8,
            sweep_leg: Duration::from_millis(80),
        }
    }

    pub fn describe(&self) -> serde_json::Value {
        serde_json::json!({
            "model": self.model,
            "window": self.window,
            "sessions": self.sessions,
            "shards": self.shards,
            "single_stream_decisions_per_block": self.single.1,
            "single_stream_decisions_per_segment": self.single_segment,
            "dense_rounds_per_block": self.dense.1,
            "paged_rounds_per_block": self.paged.1,
            "rounds_per_segment": self.segment_rounds,
            "shard_kill_rounds_per_episode": 2 * self.kill_side,
            "open_rate_per_s": self.open_rate,
            "open_slice_ms": self.open_slice.as_millis() as u64,
            "closed_loop_window": 1,
        })
    }
}

/// A fixed small piece of a block's timed work, timed on its own: the
/// unit a run selects and pools (see `run.rs`). Small, because the
/// machine's slow stretches last a second or less and a piece that fits
/// between them measures the program alone.
#[derive(Debug, Default)]
pub struct Segment {
    pub decisions: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Submit→completion per served decision (from the due time in the
    /// open loop).
    pub lat_ms: Vec<f64>,
}

/// What one block measured.
#[derive(Debug, Default)]
pub struct Block {
    pub segments: Vec<Segment>,
    /// Requests made inside the timed window.
    pub attempted: u64,
    /// Requests that failed, were refused or never resolved.
    pub failed: u64,
}

impl Block {
    pub fn decisions(&self) -> u64 {
        self.segments.iter().map(|s| s.decisions).sum()
    }

    pub fn decisions_per_s(&self) -> f64 {
        self.decisions() as f64 / self.segments.iter().map(|s| s.wall_s).sum::<f64>()
    }

    pub fn latencies(&self) -> impl Iterator<Item = f64> + '_ {
        self.segments.iter().flat_map(|s| s.lat_ms.iter().copied())
    }
}

/// Times the segment being filled and files it into the block when it
/// closes.
struct SegmentClock {
    started: Instant,
    cpu0: f64,
    current: Segment,
}

impl SegmentClock {
    fn start() -> Self {
        SegmentClock {
            cpu0: sysinfo::cpu_seconds(),
            started: Instant::now(),
            current: Segment::default(),
        }
    }

    fn served(&mut self, lat_ms: f64) {
        self.current.decisions += 1;
        self.current.lat_ms.push(lat_ms);
    }

    /// Close the current segment at `end` and start the next.
    fn close(&mut self, end: Instant, block: &mut Block) {
        let cpu = sysinfo::cpu_seconds();
        let mut seg = std::mem::take(&mut self.current);
        seg.wall_s = end.saturating_duration_since(self.started).as_secs_f64();
        seg.cpu_s = cpu - self.cpu0;
        if seg.decisions > 0 {
            block.segments.push(seg);
        }
        (self.started, self.cpu0) = (Instant::now(), cpu);
    }
}

/// Extra per-layer values only one workload can measure.
pub type Extras = Vec<(&'static str, f64)>;

pub trait Workload {
    /// The warm-up part of a block alone: the last step of set-up, so the
    /// first timed request meets filled caches and a grown heap.
    fn warm(&mut self);
    /// One fixed unit of work; spans and samples go to `rec` when it is on.
    fn block(&mut self, rec: &mut Rec) -> Block;
    /// The output check, run after the timed window. `Ok` carries a
    /// one-line description of what was verified.
    fn check(&mut self) -> Result<String, String>;
    /// Whether throughput is set by an offered rate (an open loop) rather
    /// than by how fast the machine gets through the work.
    fn offered_rate(&self) -> bool {
        false
    }
    /// Traced-run measurements specific to this workload.
    fn extras(&mut self, _rec: &mut Rec, _untraced_dps: f64) -> Extras {
        Vec::new()
    }
    /// Stop every thread and connection the workload started.
    fn finish(self: Box<Self>) {}
}

fn models(sizes: &Sizes) -> FleetModels {
    // `build_random` never touches the zoo directory; the path is only a
    // label.
    FleetModels::sized(std::path::Path::new("perf-zoo-unused"), sizes.model, sizes.window)
}

/// Build a workload up to (not including) its first timed request.
pub fn build(name: &str, sizes: &Sizes, seed: u64, trace: bool) -> Box<dyn Workload> {
    match name {
        "single_stream" => Box::new(InProc::new(sizes, seed, InProcKind::Single)),
        "dense_direct" => Box::new(InProc::new(sizes, seed, InProcKind::Dense)),
        "paged_tight" => Box::new(InProc::new(sizes, seed, InProcKind::Paged)),
        "shard_kill" => Box::new(InProc::new(sizes, seed, InProcKind::Kill)),
        "dense_socket" => Box::new(Socket::new(sizes, seed, false, trace)),
        "open_socket" => Box::new(Socket::new(sizes, seed, true, trace)),
        other => panic!("unknown workload {other:?}"),
    }
}

// ---- in-process workloads ------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum InProcKind {
    Single,
    Dense,
    Paged,
    Kill,
}

/// `single_stream`, `dense_direct`, `paged_tight` and `shard_kill`: rounds
/// of "every session submits one observation → tick until every ticket
/// resolved → poll all" against an in-process [`ShardedServer`]. A caller
/// waits for its reply before its next submit (window 1).
pub struct InProc {
    kind: InProcKind,
    sizes: Sizes,
    models: FleetModels,
    streams: ObsStreams,
    sessions: usize,
    shards: usize,
    /// Stream index stride: 3 maps every session onto an ABR stream.
    stride: usize,
    warm: usize,
    timed: usize,
    /// Pool budget in bytes (`paged_tight`).
    budget: Option<usize>,
    /// Record what sessions 0/1/2 answer (the check's own block only).
    capture: bool,
    captured: Vec<Observed>,
    violation: Option<String>,
    granted: u64,
    resolved: u64,
}

impl InProc {
    fn new(sizes: &Sizes, seed: u64, kind: InProcKind) -> Self {
        let (sessions, shards, stride, warm, timed) = match kind {
            InProcKind::Single => (1, 1, 1, sizes.single.0, sizes.single.1),
            InProcKind::Dense => (sizes.sessions, sizes.shards, 1, sizes.dense.0, sizes.dense.1),
            InProcKind::Paged => (sizes.sessions, sizes.shards, 3, sizes.paged.0, sizes.paged.1),
            InProcKind::Kill => (sizes.sessions, sizes.shards, 1, 0, 2 * sizes.kill_side),
        };
        let mut w = InProc {
            kind,
            sizes: sizes.clone(),
            models: models(sizes),
            streams: ObsStreams::generate(sessions * stride, 64, seed),
            sessions,
            shards,
            stride,
            warm,
            timed,
            budget: None,
            capture: false,
            captured: Vec::new(),
            violation: None,
            granted: 0,
            resolved: 0,
        };
        if kind == InProcKind::Paged {
            w.budget = Some(w.tight_budget());
        }
        w
    }

    fn obs(&self, s: usize, i: usize) -> (usize, netllm::FleetObs) {
        let stream = s * self.stride;
        let idx = i % self.streams.len_for(stream, usize::MAX).max(1);
        (idx, self.streams.obs(stream, idx))
    }

    /// 40 % of the contiguous fleet's peak KV footprint over the block's
    /// rounds, floored at one full-context session.
    fn tight_budget(&self) -> usize {
        let fleet =
            NetLlmFleet { abr: &self.models.abr, cjs: &self.models.cjs, vp: &self.models.vp };
        let mut server: ShardedServer<NetLlmFleet> =
            ShardedServer::with_policy(self.shards, AdmissionPolicy::LeastLoaded);
        let ids: Vec<u64> =
            (0..self.sessions).map(|_| server.join_group(&fleet, FLEET_ABR)).collect();
        let mut peak = 0usize;
        for round in 0..self.warm.max(4 * self.sizes.window) {
            let tickets: Vec<Ticket> = ids
                .iter()
                .enumerate()
                .map(|(s, &id)| server.submit(id, self.obs(s, round).1).expect("contiguous submit"))
                .collect();
            server.tick(&fleet);
            for t in tickets {
                let _ = server.poll(t).expect("a contiguous tick serves every arrival");
            }
            peak = peak.max(server.cache_bytes());
        }
        (peak * 2 / 5).max(session_floor_bytes(&self.models.abr.lm, PAGE_TOKENS))
    }
}

impl Workload for InProc {
    fn warm(&mut self) {
        // `shard_kill` has no discarded rounds: its first side warms.
        let rounds = if self.kind == InProcKind::Kill { self.sizes.kill_side } else { self.warm };
        let saved = (self.warm, self.timed, self.kind);
        (self.warm, self.timed) = (rounds, 0);
        if self.kind == InProcKind::Kill {
            self.kind = InProcKind::Dense; // same fleet, no fault
        }
        let _ = self.block(&mut Rec::new(false));
        (self.warm, self.timed, self.kind) = saved;
    }

    fn block(&mut self, rec: &mut Rec) -> Block {
        let fleet =
            NetLlmFleet { abr: &self.models.abr, cjs: &self.models.cjs, vp: &self.models.vp };
        let pool = self.budget.map(|budget_bytes| {
            PagePool::for_model(
                &self.models.abr.lm,
                PageConfig { page_tokens: PAGE_TOKENS, budget_bytes },
            )
        });
        let mut server: ShardedServer<NetLlmFleet> = match &pool {
            Some(p) => ShardedServer::with_memory(
                self.shards,
                AdmissionPolicy::PageAware { budget_pages: p.capacity_pages() / 4 },
                p.clone(),
                EvictionPolicy::CheapestRebuild,
            ),
            None => ShardedServer::new(self.shards),
        };
        if self.kind == InProcKind::Kill {
            server.set_health_config(HealthConfig::fast());
        }
        let ids: Vec<u64> = (0..self.sessions)
            .map(|s| server.join_group(&fleet, kind_of(s * self.stride)))
            .collect();
        let capturing = self.capture;
        let mut captured: Vec<Observed> = vec![Vec::new(); self.sessions.min(3)];

        struct Open {
            s: usize,
            obs_idx: usize,
            ticket: Ticket,
            at: Instant,
            submit_end: Instant,
        }
        let mut out = Block::default();
        let mut clock = SegmentClock::start();
        let segment_rounds = match self.kind {
            InProcKind::Single => self.sizes.single_segment,
            InProcKind::Dense | InProcKind::Paged => self.sizes.segment_rounds,
            InProcKind::Kill => self.timed, // an episode is one piece of work
        };
        let mut rebuild_rows0 = 0u64;
        let mut kill: Option<(u64, Instant)> = None;
        let mut recovering = false;
        let tick_cap = 64 + 8 * self.sessions;
        for round in 0..self.warm + self.timed {
            let timed = round >= self.warm;
            if round == self.warm {
                clock = SegmentClock::start();
                rebuild_rows0 = server.metrics().snapshot().evicted_rebuild_rows();
            }
            let tracing = rec.on && timed;
            if self.kind == InProcKind::Kill && round == self.sizes.kill_side {
                server.inject(FaultPlan::new().kill(server.tick_count() + 1, 0));
            }
            let round_start = Instant::now();
            let round_span =
                if tracing { rec.open("round", "harness", round_start, NONE) } else { NONE };

            let mut open: Vec<Open> = Vec::with_capacity(self.sessions);
            for (s, &id) in ids.iter().enumerate() {
                let (obs_idx, obs) = self.obs(s, round);
                let at = Instant::now();
                let res = server.submit(id, obs);
                let submit_end = Instant::now();
                if timed {
                    out.attempted += 1;
                }
                match res {
                    Ok(ticket) => {
                        self.granted += 1;
                        if tracing {
                            rec.span("shard.submit", "shard", at, submit_end, round_span, ticket.0);
                            rec.sample("submit_us", (submit_end - at).as_secs_f64() * 1e6);
                        }
                        open.push(Open { s, obs_idx, ticket, at, submit_end });
                    }
                    Err(_) => {
                        // A refused request misses; the loop does not retry.
                        rec.add("busy_refusals", 1.0);
                        if timed {
                            out.failed += 1;
                        }
                    }
                }
            }

            let mut ticks = 0usize;
            let mut first_tick: Option<Instant> = None;
            let mut tick_ns_so_far = 0u64;
            while !open.is_empty() {
                ticks += 1;
                assert!(
                    ticks <= tick_cap,
                    "{:?}: round {round} did not resolve in {tick_cap} ticks",
                    self.kind
                );
                let t0 = Instant::now();
                let report = server.tick(&fleet);
                let t1 = Instant::now();
                first_tick.get_or_insert(t0);
                tick_ns_so_far += (t1 - t0).as_nanos() as u64;

                if let Some(p) = &pool {
                    let st = p.stats();
                    let budget = self.budget.expect("paged workload has a budget");
                    if st.used_pages + st.free_pages != st.capacity_pages {
                        self.violation.get_or_insert(format!(
                            "tick {}: used {} + free {} != capacity {}",
                            report.tick, st.used_pages, st.free_pages, st.capacity_pages
                        ));
                    }
                    if report.memory.used_bytes > budget {
                        self.violation.get_or_insert(format!(
                            "tick {}: pool {} B over budget {budget} B",
                            report.tick, report.memory.used_bytes
                        ));
                    }
                    rec.max("peak_used_share", report.memory.used_bytes as f64 / budget as f64);
                }
                if !report.faults.killed.is_empty() {
                    kill = Some((report.tick, t0));
                    recovering = true;
                }
                if tracing {
                    rec.span("shard.tick", "shard", t0, t1, round_span, NONE);
                    rec.sample("tick_ms", (t1 - t0).as_secs_f64() * 1e3);
                    rec.add("ticks", 1.0);
                    rec.add("tick_served", report.served as f64);
                    for (p, &ns) in report.phase_ns.iter().enumerate() {
                        rec.add(PHASE_KEYS[p], ns as f64);
                    }
                    rec.add("deferrals", report.memory.deferred as f64);
                    rec.add("evictions", report.memory.evicted.len() as f64);
                    rec.add("steered", report.steered.len() as f64);
                    let f = &report.faults;
                    if let (Some((kill_tick, _)), false) = (kill, f.declared_dead.is_empty()) {
                        rec.sample("declare_ticks", (report.tick - kill_tick) as f64);
                    }
                    rec.add("sessions_recovered", f.sessions_recovered as f64);
                    rec.add("replay_rows", f.replay_rows as f64);
                    rec.add("tickets_failed", f.tickets_failed as f64);
                    rec.add("arrivals_requeued", f.arrivals_requeued as f64);
                    if let (true, Some((_, kill_start))) = (recovering, kill) {
                        if f.killed.is_empty() && report.served == self.sessions {
                            rec.sample("recover_ms", (t1 - kill_start).as_secs_f64() * 1e3);
                            recovering = false;
                        }
                    }
                }

                let first_tick_start = first_tick.expect("set above");
                open.retain(|o| {
                    let p0 = Instant::now();
                    let status = server.poll_status(o.ticket);
                    let done = Instant::now();
                    if tracing {
                        rec.span("shard.poll_status", "shard", p0, done, round_span, o.ticket.0);
                        rec.sample("poll_us", (done - p0).as_secs_f64() * 1e6);
                    }
                    match status {
                        TicketStatus::Served(action) => {
                            self.resolved += 1;
                            let lat_ms = (done - o.at).as_secs_f64() * 1e3;
                            if timed {
                                clock.served(lat_ms);
                            }
                            if tracing {
                                // submit + queue wait + ticks + poll wait + poll
                                // must tile the request's latency.
                                let submit = (o.submit_end - o.at).as_nanos() as u64;
                                let wait = (first_tick_start - o.submit_end).as_nanos() as u64;
                                let poll_wait = ((p0 - first_tick_start).as_nanos() as u64)
                                    .saturating_sub(tick_ns_so_far);
                                let poll = (Instant::now() - p0).as_nanos() as u64;
                                let sum = submit + wait + tick_ns_so_far + poll_wait + poll;
                                let lat_ns = lat_ms * 1e6;
                                rec.sample("queue_wait_ms", wait as f64 / 1e6);
                                rec.sample("residual_share", (lat_ns - sum as f64).abs() / lat_ns);
                            }
                            if capturing
                                && o.s < captured.len()
                                && captured[o.s].len() < self.sizes.check_decisions
                            {
                                let logits = server.last_logits(ids[o.s]).to_vec();
                                captured[o.s].push((o.obs_idx, format!("{action:?}"), logits));
                            }
                            false
                        }
                        TicketStatus::Failed => {
                            self.resolved += 1;
                            if timed {
                                out.failed += 1;
                            }
                            false
                        }
                        TicketStatus::Pending | TicketStatus::Requeued => true,
                    }
                });
            }
            if tracing {
                rec.close(round_span, Instant::now());
            }
            if timed && (round + 1 - self.warm).is_multiple_of(segment_rounds) {
                clock.close(Instant::now(), &mut out);
            }
        }
        clock.close(Instant::now(), &mut out);
        if rec.on {
            let rows = server.metrics().snapshot().evicted_rebuild_rows() - rebuild_rows0;
            rec.add("evicted_rebuild_rows", rows as f64);
        }
        for id in ids {
            let _ = server.leave(id);
        }
        drop(server);
        if let Some(p) = &pool {
            if p.used_pages() != 0 {
                self.violation.get_or_insert(format!(
                    "{} pages still lent after the fleet left",
                    p.used_pages()
                ));
            }
        }
        if capturing {
            self.captured = captured;
        }
        out
    }

    fn check(&mut self) -> Result<String, String> {
        if let Some(v) = &self.violation {
            return Err(v.clone());
        }
        if self.granted != self.resolved {
            return Err(format!("granted {} != served + failed {}", self.granted, self.resolved));
        }
        match self.kind {
            InProcKind::Single | InProcKind::Dense => {
                // One more block, untimed, whose first decisions are kept.
                let saved = (self.warm, self.timed);
                (self.warm, self.timed, self.capture) = (self.sizes.check_decisions, 0, true);
                let _ = self.block(&mut Rec::new(false));
                (self.warm, self.timed) = saved;
                self.capture = false;
                let obs = |s: usize, idx: usize| self.streams.obs(s * self.stride, idx);
                check::against_oracle(&self.models, &self.captured, &obs, |s| kind_of(s * self.stride))
            }
            InProcKind::Paged => Ok(format!(
                "{} granted = served + failed; used + free == capacity and used <= budget after every tick",
                self.granted
            )),
            InProcKind::Kill => Ok(format!("{} granted = served + failed through every kill", self.granted)),
        }
    }
}

/// `rec` count keys for `TickReport::phase_ns`, in `TickPhase` order.
pub const PHASE_KEYS: [&str; TICK_PHASES] =
    ["phase.drain", "phase.plan_step", "phase.settle", "phase.memory_guard", "phase.steer"];

// ---- socket workloads ----------------------------------------------------

/// One client connection: the sending half on the caller's thread and a
/// pump thread that timestamps each frame as it is read.
struct Conn {
    tx: WireSender,
    frx: mpsc::Receiver<(Instant, Frame)>,
    pump: std::thread::JoinHandle<()>,
}

impl Conn {
    fn dial(addr: SocketAddr) -> Conn {
        let (tx, mut rx) = WireClient::connect(addr).expect("connect to ingress").split();
        let (ftx, frx) = mpsc::channel();
        let pump = std::thread::Builder::new()
            .name("perf-pump".into())
            .spawn(move || {
                while let Ok(frame) = rx.recv() {
                    if ftx.send((Instant::now(), frame)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn pump thread");
        Conn { tx, frx, pump }
    }

    fn recv(&self, timeout: Duration) -> Option<(Instant, Frame)> {
        match self.frx.recv_timeout(timeout) {
            Ok(f) => Some(f),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("ingress closed the connection"),
        }
    }

    fn expect(&self, what: &str) -> Frame {
        self.recv(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("timed out waiting for {what}"))
            .1
    }

    fn close(self) {
        self.tx.bye().expect("bye");
        self.pump.join().expect("pump thread panicked");
    }
}

/// What the scraper thread saw during one traced block.
struct Scraped {
    first: MetricsSnapshot,
    last: MetricsSnapshot,
    rtt_ms: Vec<f64>,
    events_dropped: u64,
}

/// Scrape metrics and drain the event journal at 10 Hz until `stop`.
fn scrape_loop(client: &mut WireClient, stop: &AtomicBool) -> Scraped {
    let scrape = |c: &mut WireClient| {
        let t0 = Instant::now();
        let snap = c.scrape_metrics().expect("scrape metrics");
        (snap, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (first, rtt) = scrape(client);
    let mut out = Scraped { last: first.clone(), first, rtt_ms: vec![rtt], events_dropped: 0 };
    // Start the journal cursor at "now": history overwritten before the
    // block is not this reader's loss.
    let mut cursor = client.scrape_events(0).expect("scrape events").next_seq;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
        let (snap, rtt) = scrape(client);
        out.last = snap;
        out.rtt_ms.push(rtt);
        let view = client.scrape_events(cursor).expect("scrape events");
        cursor = view.next_seq;
        out.events_dropped += view.dropped;
    }
    out
}

/// `dense_socket` and `open_socket`: the dense fleet behind
/// `serve(IngressConfig { shards, ..default })`, driven over one loopback
/// connection by this thread plus the pump.
pub struct Socket {
    open_loop: bool,
    sizes: Sizes,
    streams: ObsStreams,
    handle: Option<IngressHandle>,
    conn: Option<Conn>,
    scraper: Option<WireClient>,
    /// Persistent sessions of the open loop (`dense_socket` joins per block).
    ids: Vec<u64>,
    /// Next observation index per session (open loop).
    next_obs: Vec<usize>,
    rng: Rng,
    /// Record what sessions 0/1/2 answer: the open loop from its first
    /// request (its sessions persist), the closed loop in the check's own
    /// block.
    capture: bool,
    captured: Vec<Observed>,
}

/// Scheduler-side numbers of one traced block, from two scrapes.
struct ServerSide {
    sched_latency_ms_mean: f64,
    tick_ms_mean: f64,
}

impl Socket {
    fn new(sizes: &Sizes, seed: u64, open_loop: bool, trace: bool) -> Self {
        let cfg = IngressConfig { shards: sizes.shards, ..IngressConfig::default() };
        let handle = serve(models(sizes), cfg).expect("bind loopback ingress");
        let conn = Conn::dial(handle.addr());
        let scraper = trace.then(|| WireClient::connect(handle.addr()).expect("scrape connection"));
        let mut w = Socket {
            open_loop,
            sizes: sizes.clone(),
            streams: ObsStreams::generate(sizes.sessions, 64, seed),
            handle: Some(handle),
            conn: Some(conn),
            scraper,
            ids: Vec::new(),
            next_obs: vec![0; sizes.sessions],
            rng: Rng::seeded(seed ^ 0x09e2_a771),
            capture: open_loop,
            captured: vec![Vec::new(); sizes.sessions.min(3)],
        };
        if open_loop {
            w.ids = w.join_all();
        }
        w
    }

    fn conn(&mut self) -> &mut Conn {
        self.conn.as_mut().expect("connection is open")
    }

    fn join_all(&mut self) -> Vec<u64> {
        let n = self.sizes.sessions;
        let conn = self.conn();
        (0..n)
            .map(|s| {
                conn.tx.send(&Frame::Join { group: kind_of(s) as u32 }).expect("send Join");
                match conn.expect("Joined") {
                    Frame::Joined { session, .. } => session,
                    other => panic!("expected Joined, got {other:?}"),
                }
            })
            .collect()
    }

    fn leave_all(&mut self, ids: &[u64]) {
        let conn = self.conn();
        for &id in ids {
            conn.tx.leave(id).expect("send Leave");
        }
        let mut acks = 0;
        while acks < ids.len() {
            match conn.expect("LeaveAck") {
                Frame::LeaveAck { .. } => acks += 1,
                other => panic!("expected LeaveAck, got {other:?}"),
            }
        }
    }

    fn obs(&self, s: usize, i: usize) -> (usize, netllm::FleetObs) {
        let idx = i % self.streams.len_for(s, usize::MAX).max(1);
        (idx, self.streams.obs(s, idx))
    }

    /// Run `body` with the 10 Hz scraper beside it when tracing.
    fn with_scraper<R>(
        &mut self,
        rec: &mut Rec,
        body: impl FnOnce(&mut Self, &mut Rec) -> R,
    ) -> (R, Option<ServerSide>) {
        if !rec.on || self.scraper.is_none() {
            return (body(self, rec), None);
        }
        let mut client = self.scraper.take().expect("checked above");
        let stop = AtomicBool::new(false);
        let (r, scraped) = std::thread::scope(|sc| {
            let h = std::thread::Builder::new()
                .name("perf-scrape".into())
                .spawn_scoped(sc, || scrape_loop(&mut client, &stop))
                .expect("spawn scrape thread");
            let r = body(self, rec);
            stop.store(true, Ordering::SeqCst);
            (r, h.join().expect("scrape thread panicked"))
        });
        self.scraper = Some(client);
        for rtt in &scraped.rtt_ms {
            rec.sample("scrape_rtt_ms", *rtt);
        }
        rec.add("events_dropped", scraped.events_dropped as f64);
        let (a, b) = (&scraped.first, &scraped.last);
        let ticks = (b.ingress.ticks - a.ingress.ticks) as f64;
        rec.add("ingress_ticks", ticks);
        rec.add("ingress_completions", (b.ingress.completions - a.ingress.completions) as f64);
        rec.add("ingress_busy", (b.ingress.busy - a.ingress.busy) as f64);
        rec.add(
            "ingress_protocol_errors",
            (b.ingress.protocol_errors - a.ingress.protocol_errors) as f64,
        );
        let lat = |m: &MetricsSnapshot| {
            m.shard_latency.iter().fold((0u64, 0u64), |(c, t), l| (c + l.count, t + l.total_ns))
        };
        let ((c0, t0), (c1, t1)) = (lat(a), lat(b));
        let sched_latency_ms_mean =
            if c1 > c0 { (t1 - t0) as f64 / (c1 - c0) as f64 / 1e6 } else { 0.0 };
        // Shards step in parallel, so the slowest shard's phase total is
        // the closest outside view of tick wall time.
        let busiest = (0..b.shard_phases.len())
            .map(|s| {
                let total = |m: &MetricsSnapshot| -> u64 {
                    m.shard_phases.get(s).map(|ps| ps.iter().map(|p| p.total_ns).sum()).unwrap_or(0)
                };
                total(b) - total(a)
            })
            .max()
            .unwrap_or(0);
        let tick_ms_mean = if ticks > 0.0 { busiest as f64 / ticks / 1e6 } else { 0.0 };
        (r, Some(ServerSide { sched_latency_ms_mean, tick_ms_mean }))
    }

    fn record_server_side(
        rec: &mut Rec,
        side: Option<ServerSide>,
        block: &Block,
        after_grant_ms: &[f64],
    ) {
        let Some(side) = side else { return };
        let lat: Vec<f64> = block.latencies().collect();
        rec.sample("overhead_ms", stats::mean(&lat) - side.sched_latency_ms_mean);
        for &ms in after_grant_ms {
            rec.sample("queue_wait_ms", (ms - side.tick_ms_mean).max(0.0));
        }
    }

    /// Closed loop, window 1: every session keeps exactly one request in
    /// flight and submits its next as soon as its completion arrives.
    /// Returns grant→completion times of the traced requests.
    fn closed_phase(
        &mut self,
        rec: &mut Rec,
        ids: &[u64],
        first: usize,
        rounds: usize,
        out: Option<&mut Block>,
    ) -> Vec<f64> {
        struct Flight {
            s: usize,
            obs_idx: usize,
            at: Instant,
            sent: Instant,
            send_span: u64,
            granted: Option<Instant>,
        }
        let n = ids.len();
        let by_id: BTreeMap<u64, usize> = ids.iter().copied().zip(0..n).collect();
        let timed = out.is_some();
        let tracing = rec.on && timed;
        let mut out = out;
        let mut clock = SegmentClock::start();
        let per_segment = self.sizes.segment_rounds * n;
        let mut sent = vec![0usize; n];
        let mut done = 0usize;
        let mut pending: VecDeque<Flight> = VecDeque::new();
        let mut open: BTreeMap<u64, Flight> = BTreeMap::new();
        let mut after_grant = Vec::new();
        let capture = self.capture;
        let want = self.sizes.check_decisions;

        let submit = |w: &mut Self, rec: &mut Rec, s: usize, i: usize| -> Flight {
            let (obs_idx, obs) = w.obs(s, first + i);
            let at = Instant::now();
            w.conn().tx.submit(ids[s], &obs).expect("submit");
            let sent = Instant::now();
            let mut send_span = NONE;
            if tracing {
                send_span = rec.span("ingress.send", "ingress", at, sent, NONE, NONE);
                rec.sample("send_us", (sent - at).as_secs_f64() * 1e6);
            }
            Flight { s, obs_idx, at, sent, send_span, granted: None }
        };
        for (s, count) in sent.iter_mut().enumerate() {
            pending.push_back(submit(self, rec, s, 0));
            *count = 1;
        }
        while done < n * rounds {
            let (rx, frame) =
                self.conn().recv(Duration::from_secs(60)).expect("dense socket stalled");
            match frame {
                Frame::TicketGrant { ticket, .. } => {
                    let mut f = pending.pop_front().expect("grant without a pending submit");
                    f.granted = Some(rx);
                    if tracing {
                        rec.set_request(f.send_span, ticket);
                        rec.span("ingress.grant_wait", "ingress", f.sent, rx, NONE, ticket);
                        rec.sample("grant_rtt_ms", (rx - f.at).as_secs_f64() * 1e3);
                    }
                    open.insert(ticket, f);
                }
                Frame::Completion { ticket, session, action, logits, .. } => {
                    let f = open.remove(&ticket).expect("completion for an unknown ticket");
                    assert_eq!(by_id[&session], f.s, "completion routed to the wrong session");
                    done += 1;
                    if let Some(b) = out.as_deref_mut() {
                        clock.served((rx - f.at).as_secs_f64() * 1e3);
                        if done.is_multiple_of(per_segment) {
                            clock.close(rx, b);
                        }
                    }
                    if tracing {
                        let g = f.granted.expect("granted before completion");
                        rec.span("ingress.completion_wait", "ingress", g, rx, NONE, ticket);
                        after_grant.push((rx - g).as_secs_f64() * 1e3);
                    }
                    if capture && f.s < self.captured.len() && self.captured[f.s].len() < want {
                        self.captured[f.s].push((f.obs_idx, format!("{action:?}"), logits));
                    }
                    if sent[f.s] < rounds {
                        pending.push_back(submit(self, rec, f.s, sent[f.s]));
                        sent[f.s] += 1;
                    }
                }
                Frame::Busy { .. } => {
                    let _ = pending.pop_front().expect("Busy without a pending submit");
                    rec.add("busy_refusals", 1.0);
                    done += 1; // refused: the request misses, the session moves on
                    if let Some(b) = out.as_deref_mut() {
                        b.failed += 1;
                    }
                }
                Frame::Failed { ticket, .. } => {
                    let _ = open.remove(&ticket).expect("failure for an unknown ticket");
                    done += 1;
                    if let Some(b) = out.as_deref_mut() {
                        b.failed += 1;
                    }
                }
                other => panic!("unexpected frame in the closed loop: {other:?}"),
            }
        }
        if let Some(b) = out {
            clock.close(Instant::now(), b);
            b.attempted += (n * rounds) as u64;
        }
        after_grant
    }

    fn dense_block(&mut self, rec: &mut Rec) -> Block {
        let ids = self.join_all();
        let (warm, timed) = self.sizes.dense;
        let _ = self.closed_phase(rec, &ids, 0, warm, None);
        let mut out = Block::default();
        let (after_grant, side) =
            self.with_scraper(rec, |w, rec| w.closed_phase(rec, &ids, warm, timed, Some(&mut out)));
        Self::record_server_side(rec, side, &out, &after_grant);
        self.leave_all(&ids);
        out
    }

    /// One open-loop slice: exactly `rate x span` arrivals at seeded
    /// uniform (conditioned-Poisson) times, round-robin over the
    /// sessions, each timed from its due time. Returns the block, the
    /// generator lags and the grant→completion times.
    fn open_slice(
        &mut self,
        rec: &mut Rec,
        rate: usize,
        span: Duration,
        tracing: bool,
    ) -> (Block, Vec<f64>, Vec<f64>) {
        struct Flight {
            s: usize,
            obs_idx: usize,
            due: Instant,
            at: Instant,
            sent: Instant,
            send_span: u64,
            granted: Option<Instant>,
        }
        let n = (rate as f64 * span.as_secs_f64()).round() as usize;
        let offsets = stats::arrival_offsets(n, span, &mut self.rng);
        let sessions = self.ids.len();
        let want = self.sizes.check_decisions;
        let mut out = Block { attempted: n as u64, ..Block::default() };
        let mut seg = Segment::default();
        let mut lags = Vec::with_capacity(n);
        let mut after_grant = Vec::new();
        let mut pending: VecDeque<Flight> = VecDeque::new();
        let mut open: BTreeMap<u64, Flight> = BTreeMap::new();
        let mut resolved = 0usize;
        let mut next = 0usize;
        let mut last_rx = Instant::now();
        let cpu0 = sysinfo::cpu_seconds();
        let started = Instant::now();
        let deadline = started + span + Duration::from_secs(5);
        while resolved < n {
            let now = Instant::now();
            if now > deadline {
                break; // unresolved requests count as failed below
            }
            let wait = match offsets.get(next) {
                Some(&off) => (started + off).saturating_duration_since(now),
                None => deadline - now,
            };
            if next < n && wait.is_zero() {
                let k = next;
                next += 1;
                let s = k % sessions;
                let (obs_idx, obs) = self.obs(s, self.next_obs[s]);
                self.next_obs[s] += 1;
                let due = started + offsets[k];
                let t0 = Instant::now();
                let id = self.ids[s];
                self.conn().tx.submit(id, &obs).expect("submit");
                let sent = Instant::now();
                lags.push(stats::lag_ms(due, t0));
                let mut send_span = NONE;
                if tracing {
                    send_span = rec.span("ingress.send", "ingress", t0, sent, NONE, NONE);
                    rec.sample("send_us", (sent - t0).as_secs_f64() * 1e6);
                }
                pending.push_back(Flight {
                    s,
                    obs_idx,
                    due,
                    at: t0,
                    sent,
                    send_span,
                    granted: None,
                });
                continue;
            }
            let Some((rx, frame)) = self.conn().recv(wait) else { continue };
            match frame {
                Frame::TicketGrant { ticket, .. } => {
                    let mut f = pending.pop_front().expect("grant without a pending submit");
                    f.granted = Some(rx);
                    if tracing {
                        rec.set_request(f.send_span, ticket);
                        rec.span("ingress.grant_wait", "ingress", f.sent, rx, NONE, ticket);
                        rec.sample("grant_rtt_ms", (rx - f.at).as_secs_f64() * 1e3);
                    }
                    open.insert(ticket, f);
                }
                Frame::Completion { ticket, action, logits, .. } => {
                    let f = open.remove(&ticket).expect("completion for an unknown ticket");
                    resolved += 1;
                    last_rx = rx;
                    seg.decisions += 1;
                    seg.lat_ms.push(stats::due_latency_ms(f.due, rx));
                    if tracing {
                        let g = f.granted.expect("granted before completion");
                        rec.span("ingress.completion_wait", "ingress", g, rx, NONE, ticket);
                        after_grant.push((rx - g).as_secs_f64() * 1e3);
                    }
                    if self.capture && f.s < self.captured.len() && self.captured[f.s].len() < want
                    {
                        self.captured[f.s].push((f.obs_idx, format!("{action:?}"), logits));
                    }
                }
                Frame::Busy { .. } => {
                    let _ = pending.pop_front().expect("Busy without a pending submit");
                    rec.add("busy_refusals", 1.0);
                    resolved += 1;
                    out.failed += 1;
                }
                Frame::Failed { ticket, .. } => {
                    let _ = open.remove(&ticket).expect("failure for an unknown ticket");
                    resolved += 1;
                    out.failed += 1;
                }
                other => panic!("unexpected frame in the open loop: {other:?}"),
            }
        }
        out.failed += (n - resolved) as u64;
        assert!(resolved == n, "open loop left {} requests unresolved after 5 s", n - resolved);
        // Goodput: the slice's requests over the time it took to finish
        // them (the slice itself unless a backlog outlived it).
        seg.wall_s = last_rx.saturating_duration_since(started).max(span).as_secs_f64();
        seg.cpu_s = sysinfo::cpu_seconds() - cpu0;
        out.segments.push(seg);
        (out, lags, after_grant)
    }

    fn open_block(&mut self, rec: &mut Rec) -> Block {
        let (rate, span) = (self.sizes.open_rate, self.sizes.open_slice);
        let tracing = rec.on;
        let ((block, lags, after_grant), side) =
            self.with_scraper(rec, |w, rec| w.open_slice(rec, rate, span, tracing));
        for l in lags {
            rec.sample("sched_lag_ms", l);
        }
        Self::record_server_side(rec, side, &block, &after_grant);
        block
    }
}

impl Workload for Socket {
    fn warm(&mut self) {
        let mut off = Rec::new(false);
        if self.open_loop {
            // The open loop's sessions persist, so what they answer here
            // stays captured: the check replays a session from its start.
            let _ =
                self.open_slice(&mut off, self.sizes.open_rate, self.sizes.open_slice / 4, false);
        } else {
            let ids = self.join_all();
            let _ = self.closed_phase(&mut off, &ids, 0, self.sizes.dense.0, None);
            self.leave_all(&ids);
        }
    }

    fn block(&mut self, rec: &mut Rec) -> Block {
        if self.open_loop {
            self.open_block(rec)
        } else {
            self.dense_block(rec)
        }
    }

    fn check(&mut self) -> Result<String, String> {
        if !self.open_loop {
            // One more block, untimed, whose first decisions are kept.
            self.capture = true;
            let ids = self.join_all();
            let rounds = self.sizes.check_decisions;
            let _ = self.closed_phase(&mut Rec::new(false), &ids, 0, rounds, None);
            self.leave_all(&ids);
        }
        self.capture = false;
        let stats = self.handle.as_ref().expect("server is up").stats();
        if stats.protocol_errors != 0 {
            return Err(format!("{} protocol errors on the wire", stats.protocol_errors));
        }
        // The server owns its models; the oracle builds the same
        // deterministic fleet again.
        let oracle_models = models(&self.sizes);
        let obs = |s: usize, idx: usize| self.streams.obs(s, idx);
        check::against_oracle(&oracle_models, &self.captured, &obs, kind_of)
    }

    fn offered_rate(&self) -> bool {
        self.open_loop
    }

    fn extras(&mut self, rec: &mut Rec, untraced_dps: f64) -> Extras {
        let mut out = Extras::new();
        if self.open_loop {
            // Latency at fixed offered rates, and the highest that meets
            // the limit without failures or a growing backlog.
            let names = [
                "ingress.sweep_p99_ms.r1000",
                "ingress.sweep_p99_ms.r2000",
                "ingress.sweep_p99_ms.r4000",
            ];
            let mut best = 0.0;
            for (&rate, name) in SWEEP_RATES.iter().zip(names) {
                let mut off = Rec::new(false);
                let t0 = Instant::now();
                let (b, _, _) = self.open_slice(&mut off, rate, self.sizes.sweep_leg, false);
                rec.span("probe.rate_sweep", "ingress", t0, Instant::now(), NONE, NONE);
                let lat: Vec<f64> = b.latencies().collect();
                let sorted = stats::sorted(&lat);
                let p99 = stats::percentile_sorted(
                    &sorted,
                    stats::tail_percentile(sorted.len()).min(0.99),
                );
                // Requests complete roughly in due order: a backlog that
                // grows shows as the last quarter running slower.
                let q = lat.len() / 4;
                let growing = q > 0
                    && stats::mean(&lat[lat.len() - q..]) > 2.0 * stats::mean(&lat[..q]) + 1.0;
                if p99 <= SLO_P99_MS && b.failed == 0 && !growing {
                    best = rate as f64;
                }
                out.push((name, p99));
            }
            out.push(("ingress.max_rate_meeting_slo", best));
        } else {
            // Same fleet, same streams, no socket: the ratio is wire +
            // ingress.
            let mut direct = InProc::new(&self.sizes, 0, InProcKind::Dense);
            let mut off = Rec::new(false);
            let t0 = Instant::now();
            let dps: Vec<f64> = (0..2).map(|_| direct.block(&mut off).decisions_per_s()).collect();
            rec.span("probe.dense_direct", "harness", t0, Instant::now(), NONE, NONE);
            out.push(("ingress.socket_over_direct", untraced_dps / stats::median(&dps)));
        }
        out
    }

    fn finish(mut self: Box<Self>) {
        if self.open_loop {
            let ids = std::mem::take(&mut self.ids);
            self.leave_all(&ids);
        }
        if let Some(c) = self.scraper.take() {
            c.bye().expect("scraper bye");
        }
        self.conn.take().expect("connection is open").close();
        self.handle.take().expect("server is up").shutdown();
    }
}
