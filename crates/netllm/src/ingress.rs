//! Event-loop network ingress: socket connections feeding the sharded
//! server's admission queues, with completions pushed back to waiters.
//!
//! This is the serving stack's front door. [`serve`] binds a loopback
//! TCP listener and spins up:
//!
//! - an **acceptor** thread handing each connection to a reader;
//! - one **reader** thread per connection: performs the
//!   [`crate::wire`] version handshake, then parses frames into a
//!   bounded event channel (the backpressure boundary — readers block
//!   when the scheduler falls behind);
//! - one **writer** thread per connection, so a slow client never
//!   blocks the tick loop;
//! - a single **scheduler** thread that owns the
//!   [`ShardedServer<NetLlmFleet>`] and is the only place `tick` runs.
//!   It drains events, coalesces briefly so concurrent submits land in
//!   the same batch, ticks while arrivals are pending, and sweeps every
//!   outstanding ticket with [`ShardedServer::poll_status`] — resolved
//!   tickets are *pushed* to the owning connection as
//!   [`Frame::Completion`] / [`Frame::Failed`]; no client ever polls.
//!
//! Backpressure composes across the layers: a full
//! [`crate::AdmissionQueue`] refuses the submit, and the refusal goes
//! back on the wire as [`Frame::Busy`] with a `retry_after_ms` hint
//! derived from an EWMA of recent tick durations — the remote analogue
//! of [`crate::SubmitRetry`].
//!
//! **The leave contract.** A departing session's in-flight work must
//! resolve, not vanish: tickets still queued when [`Frame::Leave`]
//! arrives (or the connection drops) resolve as `Failed` — pushed as
//! [`Frame::Failed`] before the [`Frame::LeaveAck`] for an explicit
//! leave, or counted in [`IngressSnapshot::failed_on_disconnect`] when
//! there is no one left to tell. `tests/ingress.rs` locks this in.
//!
//! # Example
//!
//! A loopback round trip over the socket — serve a tiny fleet, join an
//! ABR session, submit one observation, and receive the pushed
//! completion:
//!
//! ```
//! use netllm::{serve, Frame, FleetModels, FleetObs, IngressConfig, WireClient, FLEET_ABR};
//! use nt_abr::AbrObservation;
//!
//! let dir = std::env::temp_dir().join("netllm-ingress-doc");
//! let handle = serve(FleetModels::tiny(&dir, 4), IngressConfig::default()).unwrap();
//!
//! let mut client = WireClient::connect(handle.addr()).unwrap();
//! let (session, _shard) = client.join(FLEET_ABR as u32).unwrap();
//! let obs = AbrObservation::synthetic_stream(7, 1).remove(0);
//! client.submit(session, &FleetObs::Abr(obs)).unwrap();
//!
//! let Frame::TicketGrant { ticket, .. } = client.recv().unwrap() else { panic!() };
//! let Frame::Completion { ticket: done, logits, .. } = client.recv().unwrap() else { panic!() };
//! assert_eq!(done, ticket);
//! assert!(!logits.is_empty());
//! handle.shutdown();
//! ```

use crate::adapt::AdaptMode;
use crate::adapters::abr::NetLlmAbr;
use crate::adapters::cjs::NetLlmCjs;
use crate::adapters::vp::NetLlmVp;
use crate::fleet::{FleetObs, NetLlmFleet, FLEET_VP};
use crate::metrics::MetricsSnapshot;
use crate::sched::{AdmissionPolicy, EvictionPolicy, SubmitError, Ticket, TicketStatus};
use crate::shard::ShardedServer;
use crate::telemetry::{EventKind, EventsView, RefusalReason};
use crate::wire::{
    negotiate, read_frame, write_frame, BusyReason, Frame, WireError, MIN_WIRE_VERSION,
    WIRE_VERSION,
};
use nt_llm::zoo::{size_spec, Zoo};
use nt_llm::{session_floor_bytes, PagePool};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The three adapted models an ingress serves, owned (unlike
/// [`NetLlmFleet`], which borrows) so they can move into the scheduler
/// thread that outlives the caller's stack frame.
pub struct FleetModels {
    /// Adaptive-bitrate model (group [`FLEET_ABR`](crate::FLEET_ABR)).
    pub abr: NetLlmAbr,
    /// Cluster-job-scheduling model (group [`FLEET_CJS`](crate::FLEET_CJS)).
    pub cjs: NetLlmCjs,
    /// Viewport-prediction model (group [`FLEET_VP`]).
    pub vp: NetLlmVp,
}

impl FleetModels {
    /// Randomly initialised `0.35b-sim` models with RL window `window` —
    /// the fixture every ingress test, doctest, and bench uses. Builds
    /// (or reuses) the model zoo under `dir`.
    pub fn tiny(dir: &Path, window: usize) -> Self {
        Self::sized(dir, "0.35b-sim", window)
    }

    /// Randomly initialised models at any zoo size label (e.g.
    /// `"7b-sim"` for the release benches). Deterministic in
    /// `(label, window)` — the zoo seeds by spec and the adapters by
    /// fixed constants, so two calls build identical fleets.
    pub fn sized(dir: &Path, label: &str, window: usize) -> Self {
        Self::seeded(dir, label, window, 51)
    }

    /// [`FleetModels::sized`] with the adapters seeded `seed`, `seed + 1`
    /// and `seed + 2` (ABR, CJS, VP): a test that wants a fleet of its
    /// own picks its own seed.
    pub fn seeded(dir: &Path, label: &str, window: usize, seed: u64) -> Self {
        let zoo = Zoo::new(dir.to_path_buf());
        let (spec, mode) = (size_spec(label), AdaptMode::NoDomain);
        let mut abr = NetLlmAbr::new(zoo.build_random(&spec), mode, window, seed);
        abr.target_return = 2.0;
        let mut cjs = NetLlmCjs::new(zoo.build_random(&spec), mode, window, seed + 1);
        cjs.target_return = -1.0;
        let vp = NetLlmVp::new(zoo.build_random(&spec), mode, 8, seed + 2);
        FleetModels { abr, cjs, vp }
    }

    /// The models as the borrowed task a [`ShardedServer`] serves.
    pub fn fleet(&self) -> NetLlmFleet<'_> {
        NetLlmFleet { abr: &self.abr, cjs: &self.cjs, vp: &self.vp }
    }
}

/// Bound of the reader→scheduler event channel; readers block when it
/// fills, pushing backpressure into the kernel socket buffers.
const EVENT_CHANNEL_CAP: usize = 1024;

/// Ingress server knobs. `Default` is the unit-test shape: 2 shards,
/// `LeastLoaded` placement, no page pool, 200µs coalesce window.
pub struct IngressConfig {
    /// Shard count for the [`ShardedServer`].
    pub shards: usize,
    /// Admission (placement) policy.
    pub policy: AdmissionPolicy,
    /// Optional KV page pool (enables the memory guard).
    pub pool: Option<PagePool>,
    /// Eviction policy under memory pressure.
    pub eviction: EvictionPolicy,
    /// Per-shard admission-queue cap — the backpressure bound that
    /// becomes [`Frame::Busy`] on the wire.
    pub queue_cap: usize,
    /// How long the scheduler waits for the event channel to go quiet
    /// before ticking — short enough to be invisible next to a tick,
    /// long enough that a burst of concurrent submits lands in one batch.
    pub quiesce: Duration,
    /// Hard bound on pre-tick coalescing, so a steady trickle of events
    /// cannot postpone a tick indefinitely.
    pub max_coalesce: Duration,
    /// Fairness bound: granted-but-unresolved tickets one connection may
    /// hold. The shard admission queues are shared, so without this cap
    /// one greedy pipelining client can fill them wall to wall and every
    /// other client's submits bounce [`Frame::Busy`] until the whole
    /// backlog drains — the cap refuses the *greedy* client instead
    /// (same `Busy`/retry contract), keeping a slow client's
    /// submit→completion latency bounded by its own queue depth, not its
    /// neighbour's. `tests/ingress.rs` pins the two-client p90. The
    /// default (half of `queue_cap` and of the 1024-event reader channel) leaves a legitimate
    /// dense client's pipelining untouched — B=64 sessions at a window
    /// of 4 holds 256 open tickets — while capping any one connection
    /// at half the shared backlog.
    pub max_open_per_conn: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            shards: 2,
            policy: AdmissionPolicy::LeastLoaded,
            pool: None,
            eviction: EvictionPolicy::None,
            queue_cap: 1024,
            quiesce: Duration::from_micros(200),
            max_coalesce: Duration::from_millis(2),
            max_open_per_conn: 512,
        }
    }
}

/// Monotonic ingress counters, shared between the serving threads and
/// [`IngressHandle::stats`] readers.
#[derive(Debug, Default)]
pub struct IngressStats {
    connections: AtomicU64,
    sessions_joined: AtomicU64,
    submits: AtomicU64,
    busy: AtomicU64,
    completions: AtomicU64,
    failed: AtomicU64,
    failed_on_disconnect: AtomicU64,
    protocol_errors: AtomicU64,
    ticks: AtomicU64,
}

/// Plain-value copy of [`IngressStats`] at a point in time. Lives in
/// [`crate::metrics`] (as a [`crate::MetricsSnapshot`] field) so one
/// scrape returns the whole read path; re-exported here for the
/// ingress-facing name.
pub use crate::metrics::IngressSnapshot;

impl IngressStats {
    /// The counters as plain values (also composed into scrape replies as
    /// [`crate::MetricsSnapshot::ingress`]).
    pub fn snapshot(&self) -> IngressSnapshot {
        IngressSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            sessions_joined: self.sessions_joined.load(Ordering::Relaxed),
            submits: self.submits.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            failed_on_disconnect: self.failed_on_disconnect.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            ticks: self.ticks.load(Ordering::Relaxed),
        }
    }
}

/// Running ingress server: address to dial, counters to read, and the
/// switch that shuts the whole thread family down.
pub struct IngressHandle {
    addr: SocketAddr,
    stats: Arc<IngressStats>,
    stop: Arc<AtomicBool>,
    events: mpsc::SyncSender<Event>,
    acceptor: JoinHandle<()>,
    scheduler: JoinHandle<()>,
}

impl IngressHandle {
    /// The loopback address the listener bound (port was OS-assigned).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> IngressSnapshot {
        self.stats.snapshot()
    }

    /// Stop accepting, wind down the scheduler, and join both long-lived
    /// threads. Open connections are cut; their sessions' queued tickets
    /// fail per the disconnect contract.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the scheduler's recv...
        let _ = self.events.try_send(Event::Wake);
        // ...and the acceptor's accept (the dial is the wake-up; the
        // acceptor sees `stop` before handling it).
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        let _ = self.scheduler.join();
    }
}

/// Reader→scheduler events. `conn` ids are acceptor-assigned and never
/// reused.
enum Event {
    /// Handshake done; `tx` feeds the connection's writer thread.
    Connect { conn: u64, tx: mpsc::Sender<Frame> },
    /// One parsed frame from the connection. Boxed: `MetricsReport`
    /// embeds a whole snapshot, and this channel carries mostly small
    /// frames.
    Incoming { conn: u64, frame: Box<Frame> },
    /// Reader exited (EOF, error, or post-`Bye`); clean the session up.
    Gone { conn: u64 },
    /// No-op: unblock the scheduler so it rechecks the stop flag.
    Wake,
}

/// Scheduler-side state for one live connection.
struct ConnState {
    tx: mpsc::Sender<Frame>,
    sessions: BTreeSet<u64>,
    /// Granted-but-unresolved tickets this connection holds, bounded by
    /// [`IngressConfig::max_open_per_conn`].
    open: usize,
}

/// Scheduler-side state for one live session.
struct SessState {
    conn: u64,
    group: usize,
    /// Serve count — the `step` field ordering streamed completions.
    steps: u64,
}

/// One granted-but-unresolved ticket.
struct OpenTicket {
    conn: u64,
    session: u64,
    submitted: Instant,
}

/// [`serve`]'s up-front refusals: each of these would otherwise panic the
/// scheduler thread (at start-up, or on the first client's `Join`) after
/// `serve` had handed back a handle, leaving a listener nobody answers.
fn check_config(models: &FleetModels, cfg: &IngressConfig) -> std::io::Result<()> {
    let invalid = |why: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
    for (knob, value) in [
        ("shards", cfg.shards),
        ("queue_cap", cfg.queue_cap),
        ("max_open_per_conn", cfg.max_open_per_conn),
    ] {
        if value == 0 {
            return invalid(format!("IngressConfig::{knob} must be at least 1"));
        }
    }
    let Some(pool) = &cfg.pool else {
        if cfg.policy.page_budget().is_some() {
            return invalid(format!("{:?} needs IngressConfig::pool", cfg.policy));
        }
        return Ok(());
    };
    for (label, lm) in [("abr", &models.abr.lm), ("cjs", &models.cjs.lm), ("vp", &models.vp.lm)] {
        if pool.dim() != lm.cfg.d_model {
            return invalid(format!(
                "page pool is {} wide but the {label} backbone's d_model is {}",
                pool.dim(),
                lm.cfg.d_model
            ));
        }
        let floor = session_floor_bytes(lm, pool.page_tokens());
        let capacity = pool.capacity_pages() * pool.page_bytes();
        if capacity < floor {
            return invalid(format!(
                "page pool holds {capacity}B but one full-context {label} session needs {floor}B"
            ));
        }
    }
    Ok(())
}

/// Serve `models` on a fresh loopback listener. Returns once the
/// listener is bound and the scheduler is running, or
/// [`std::io::ErrorKind::InvalidInput`] (with the reason) for a `cfg` the
/// fleet cannot be built from: a zero `shards`, `queue_cap` or
/// `max_open_per_conn`, a `PageAware` policy without a pool, or a pool
/// sized for a different width or below one full-context session of any
/// of the three backbones.
pub fn serve(models: FleetModels, cfg: IngressConfig) -> std::io::Result<IngressHandle> {
    check_config(&models, &cfg)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let stats = Arc::new(IngressStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::sync_channel::<Event>(EVENT_CHANNEL_CAP);

    let acceptor = {
        let tx = tx.clone();
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new().name("nt-ingress-accept".into()).spawn(move || {
            let mut next_conn = 0u64;
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn = next_conn;
                next_conn += 1;
                let tx = tx.clone();
                let stats = Arc::clone(&stats);
                // Readers are detached: they exit when their socket does,
                // and shutdown cuts every socket.
                let _ = std::thread::Builder::new()
                    .name(format!("nt-ingress-conn-{conn}"))
                    .spawn(move || run_connection(stream, conn, tx, stats));
            }
        })?
    };

    let scheduler = {
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("nt-ingress-sched".into())
            .spawn(move || run_scheduler(models, cfg, rx, stats, stop))?
    };

    Ok(IngressHandle { addr, stats, stop, events: tx, acceptor, scheduler })
}

/// Per-connection reader: handshake on the raw stream, then frames into
/// the event channel until the peer goes away.
fn run_connection(
    stream: TcpStream,
    conn: u64,
    events: mpsc::SyncSender<Event>,
    stats: Arc<IngressStats>,
) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);

    // Handshake: first frame must be Hello; reply directly on the raw
    // stream (the writer thread only exists for accepted connections).
    let hello = read_frame(&mut reader);
    let (version, min_version) = match hello {
        Ok(Frame::Hello { version, min_version }) => (version, min_version),
        _ => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut hs = &stream;
    match negotiate(version, min_version) {
        Ok(v) => {
            if write_frame(&mut hs, &Frame::HelloAck { version: v }).is_err() {
                return;
            }
        }
        Err(_) => {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = write_frame(
                &mut hs,
                &Frame::HelloReject { min: MIN_WIRE_VERSION, max: WIRE_VERSION },
            );
            return;
        }
    }
    stats.connections.fetch_add(1, Ordering::Relaxed);

    // Writer thread: frames out, coalesced — after each frame, drain
    // whatever the scheduler has already queued so a completion sweep
    // costs one flush, not one syscall per frame. When the scheduler
    // drops the sender, shut the socket down both ways so this reader
    // unblocks too.
    let (wtx, wrx) = mpsc::channel::<Frame>();
    let Ok(write_half) = stream.try_clone() else { return };
    let _ = std::thread::Builder::new().name(format!("nt-ingress-out-{conn}")).spawn(move || {
        let mut w = BufWriter::new(&write_half);
        'conn: while let Ok(frame) = wrx.recv() {
            if write_frame(&mut w, &frame).is_err() {
                break;
            }
            while let Ok(next) = wrx.try_recv() {
                if write_frame(&mut w, &next).is_err() {
                    break 'conn;
                }
            }
            if w.flush().is_err() {
                break;
            }
        }
        let _ = write_half.shutdown(Shutdown::Both);
    });

    if events.send(Event::Connect { conn, tx: wtx }).is_err() {
        return;
    }
    loop {
        match read_frame(&mut reader) {
            Ok(frame) => {
                let bye = matches!(frame, Frame::Bye);
                if events.send(Event::Incoming { conn, frame: Box::new(frame) }).is_err() || bye {
                    break;
                }
            }
            Err(WireError::Truncated | WireError::Io(_)) => break,
            Err(_) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    let _ = events.send(Event::Gone { conn });
}

/// The scheduler: sole owner of the [`ShardedServer`], the fleet, and
/// the tick loop.
fn run_scheduler(
    models: FleetModels,
    cfg: IngressConfig,
    rx: mpsc::Receiver<Event>,
    stats: Arc<IngressStats>,
    stop: Arc<AtomicBool>,
) {
    let fleet = models.fleet();
    let mut server: ShardedServer<NetLlmFleet> = match cfg.pool {
        Some(pool) => ShardedServer::with_memory(cfg.shards, cfg.policy, pool, cfg.eviction),
        None => ShardedServer::with_policy(cfg.shards, cfg.policy),
    };
    server.set_queue_capacity(cfg.queue_cap);

    let mut conns: BTreeMap<u64, ConnState> = BTreeMap::new();
    let mut sessions: BTreeMap<u64, SessState> = BTreeMap::new();
    let mut open: BTreeMap<Ticket, OpenTicket> = BTreeMap::new();
    // EWMA of tick duration, the Busy retry hint. Seeded at 5ms — any
    // positive value works, the first real tick corrects it.
    let mut ewma_tick_ns: f64 = 5e6;

    let mut ctx = SchedCtx {
        server: &mut server,
        fleet: &fleet,
        conns: &mut conns,
        sessions: &mut sessions,
        open: &mut open,
        stats: &stats,
        max_open_per_conn: cfg.max_open_per_conn,
    };

    let idle = Duration::from_millis(25);
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Block for work, then coalesce: keep absorbing events until the
        // channel stays quiet for `quiesce` (or `max_coalesce` elapses),
        // so a burst of concurrent submits becomes one dense batch.
        match rx.recv_timeout(idle) {
            Ok(ev) => {
                ctx.handle(ev, ewma_tick_ns);
                let coalesce_start = Instant::now();
                while coalesce_start.elapsed() < cfg.max_coalesce {
                    match rx.recv_timeout(cfg.quiesce) {
                        Ok(ev) => ctx.handle(ev, ewma_tick_ns),
                        Err(mpsc::RecvTimeoutError::Timeout) => break,
                        Err(mpsc::RecvTimeoutError::Disconnected) => return,
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        while ctx.server.pending() > 0 && !stop.load(Ordering::SeqCst) {
            let t0 = Instant::now();
            ctx.server.tick(ctx.fleet);
            let dt = t0.elapsed().as_nanos() as f64;
            ewma_tick_ns = 0.8 * ewma_tick_ns + 0.2 * dt;
            ctx.stats.ticks.fetch_add(1, Ordering::Relaxed);
            ctx.sweep();
            // Absorb whatever arrived while the tick ran — submits
            // refill the next batch, and leaves/joins must not starve
            // behind a long backlog.
            while let Ok(ev) = rx.try_recv() {
                ctx.handle(ev, ewma_tick_ns);
            }
        }
    }
    // Dropping `conns` drops every writer sender: writers flush, shut
    // their sockets, readers unblock and exit.
}

/// The scheduler's mutable world, factored out so event handling and the
/// post-tick sweep can share it.
struct SchedCtx<'a> {
    server: &'a mut ShardedServer<NetLlmFleet<'a>>,
    fleet: &'a NetLlmFleet<'a>,
    conns: &'a mut BTreeMap<u64, ConnState>,
    sessions: &'a mut BTreeMap<u64, SessState>,
    open: &'a mut BTreeMap<Ticket, OpenTicket>,
    stats: &'a IngressStats,
    max_open_per_conn: usize,
}

impl SchedCtx<'_> {
    fn handle(&mut self, ev: Event, ewma_tick_ns: f64) {
        match ev {
            Event::Wake => {}
            Event::Connect { conn, tx } => {
                self.conns.insert(conn, ConnState { tx, sessions: BTreeSet::new(), open: 0 });
            }
            Event::Gone { conn } => self.drop_conn(conn),
            Event::Incoming { conn, frame } => self.handle_frame(conn, *frame, ewma_tick_ns),
        }
    }

    fn handle_frame(&mut self, conn: u64, frame: Frame, ewma_tick_ns: f64) {
        if !self.conns.contains_key(&conn) {
            return; // already dropped for a violation; ignore the tail
        }
        match frame {
            Frame::Join { group } => {
                let group = group as usize;
                if group > FLEET_VP {
                    return self.violation(conn);
                }
                let session = self.server.join_group(self.fleet, group);
                let shard = self.server.shard_of(session) as u32;
                self.conns.get_mut(&conn).expect("checked above").sessions.insert(session);
                self.sessions.insert(session, SessState { conn, group, steps: 0 });
                self.stats.sessions_joined.fetch_add(1, Ordering::Relaxed);
                self.send(conn, Frame::Joined { session, shard });
            }
            Frame::Submit { session, obs } => {
                // Guard before touching the server: a foreign or unknown
                // session id, an observation of the wrong modality or one
                // the model cannot encode is a protocol violation (the
                // server would panic, and take the lane's whole run with
                // it).
                let Some(sess) = self.sessions.get(&session) else {
                    return self.violation(conn);
                };
                if sess.conn != conn || !self.fleet.admits(&obs, sess.group) {
                    return self.violation(conn);
                }
                // Fairness cap before the shared queues: a connection at
                // its in-flight bound is refused exactly like a full
                // shard queue — Busy, retry after a tick — so one greedy
                // pipeline can never crowd every other connection out of
                // the admission queues.
                if self.conns.get(&conn).expect("checked above").open >= self.max_open_per_conn {
                    let retry_after_ms = ((ewma_tick_ns / 1e6).ceil() as u32).max(1);
                    self.stats.busy.fetch_add(1, Ordering::Relaxed);
                    self.server.journal().record(
                        self.server.tick_count(),
                        EventKind::Busy { session, reason: RefusalReason::FairnessCap },
                    );
                    let reason = BusyReason::QueueFull;
                    return self.send(conn, Frame::Busy { session, reason, retry_after_ms });
                }
                match self.server.submit(session, obs) {
                    Ok(ticket) => {
                        self.open.insert(
                            ticket,
                            OpenTicket { conn, session, submitted: Instant::now() },
                        );
                        self.conns.get_mut(&conn).expect("checked above").open += 1;
                        self.stats.submits.fetch_add(1, Ordering::Relaxed);
                        self.send(conn, Frame::TicketGrant { session, ticket: ticket.0 });
                    }
                    Err(err) => {
                        let (reason, refusal) = match err {
                            SubmitError::QueueFull { .. } => {
                                (BusyReason::QueueFull, RefusalReason::QueueFull)
                            }
                            SubmitError::RetryAfterTick { .. } => {
                                (BusyReason::ShardSuspect, RefusalReason::Suspect)
                            }
                        };
                        let retry_after_ms = ((ewma_tick_ns / 1e6).ceil() as u32).max(1);
                        self.stats.busy.fetch_add(1, Ordering::Relaxed);
                        self.server.journal().record(
                            self.server.tick_count(),
                            EventKind::Busy { session, reason: refusal },
                        );
                        self.send(conn, Frame::Busy { session, reason, retry_after_ms });
                    }
                }
            }
            Frame::Leave { session } => {
                let Some(sess) = self.sessions.get(&session) else {
                    return self.violation(conn);
                };
                if sess.conn != conn {
                    return self.violation(conn);
                }
                let (unpolled, dropped) = self.leave_session(session, true);
                self.conns.get_mut(&conn).expect("checked above").sessions.remove(&session);
                self.send(conn, Frame::LeaveAck { session, unpolled, dropped });
            }
            Frame::Bye => self.drop_conn(conn),
            // Telemetry scrape: answered between ticks, from the same
            // thread that owns the server, so a report is always a
            // consistent point-in-time view. Any connection may scrape —
            // the counters hold no session payloads.
            Frame::MetricsRequest => {
                let mut snapshot = self.server.metrics().snapshot();
                snapshot.ingress = self.stats.snapshot();
                self.send(conn, Frame::MetricsReport { snapshot });
            }
            Frame::EventsRequest { since_seq } => {
                let view = self.server.journal().drain(since_seq);
                self.send(
                    conn,
                    Frame::EventsBatch {
                        next_seq: view.next_seq,
                        dropped: view.dropped,
                        events: view.events,
                    },
                );
            }
            // Client-bound (or handshake) frames arriving here are a
            // violation — the codec is shared, the direction is not.
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::HelloReject { .. }
            | Frame::Joined { .. }
            | Frame::TicketGrant { .. }
            | Frame::Busy { .. }
            | Frame::Completion { .. }
            | Frame::Failed { .. }
            | Frame::LeaveAck { .. }
            | Frame::MetricsReport { .. }
            | Frame::EventsBatch { .. } => self.violation(conn),
        }
    }

    /// Resolve every swept-able ticket: Served → Completion push (with
    /// the step's logits), Failed → Failed push, Pending/Requeued → keep
    /// waiting. Runs after every tick, which is what makes completion
    /// delivery push-based and keeps `unpolled` empty at leave time.
    fn sweep(&mut self) {
        let tickets: Vec<Ticket> = self.open.keys().copied().collect();
        for ticket in tickets {
            match self.server.poll_status(ticket) {
                TicketStatus::Pending | TicketStatus::Requeued => {}
                TicketStatus::Served(action) => {
                    let ot = self.open.remove(&ticket).expect("ticket is open");
                    self.release_open(ot.conn);
                    // Valid because the queue drains ≤1 arrival per
                    // session per tick and we sweep after *every* tick:
                    // a Served ticket's logits are from the tick that
                    // just ran.
                    let logits = self.server.last_logits(ot.session).to_vec();
                    let step = {
                        let sess = self.sessions.get_mut(&ot.session).expect("session is live");
                        let s = sess.steps;
                        sess.steps += 1;
                        s
                    };
                    let ns = ot.submitted.elapsed().as_nanos() as u64;
                    self.server.metrics().record_ingress_latency(ns);
                    let shard = self.server.shard_of(ot.session);
                    self.server.metrics().record_shard_latency(shard, ns);
                    self.stats.completions.fetch_add(1, Ordering::Relaxed);
                    self.send(
                        ot.conn,
                        Frame::Completion {
                            ticket: ticket.0,
                            session: ot.session,
                            step,
                            action,
                            logits,
                        },
                    );
                }
                TicketStatus::Failed => {
                    let ot = self.open.remove(&ticket).expect("ticket is open");
                    self.release_open(ot.conn);
                    self.stats.failed.fetch_add(1, Ordering::Relaxed);
                    self.send(ot.conn, Frame::Failed { ticket: ticket.0, session: ot.session });
                }
            }
        }
    }

    /// Close one session and resolve what it leaves behind. With
    /// `notify`, dropped tickets go out as [`Frame::Failed`] (the
    /// explicit-leave path); without, they are tallied as
    /// `failed_on_disconnect`. Returns `(unpolled, dropped)` counts for
    /// the ack.
    fn leave_session(&mut self, session: u64, notify: bool) -> (u32, u32) {
        let sess = self.sessions.remove(&session).expect("session is live");
        let report = self.server.leave(session);
        // The eager sweep polls every completion the tick it lands, so
        // `unpolled` is empty in steady state; any stragglers still get
        // their action (logits are gone with the session's slot).
        let mut steps = sess.steps;
        for (ticket, action) in report.unpolled {
            if self.open.remove(&ticket).is_some() {
                self.release_open(sess.conn);
            }
            self.stats.completions.fetch_add(1, Ordering::Relaxed);
            if notify {
                let step = steps;
                steps += 1;
                self.send(
                    sess.conn,
                    Frame::Completion {
                        ticket: ticket.0,
                        session,
                        step,
                        action,
                        logits: Vec::new(),
                    },
                );
            }
        }
        let mut dropped = 0u32;
        for (ticket, _obs) in report.dropped_arrivals {
            if self.open.remove(&ticket).is_some() {
                self.release_open(sess.conn);
            }
            dropped += 1;
            if notify {
                self.stats.failed.fetch_add(1, Ordering::Relaxed);
                self.send(sess.conn, Frame::Failed { ticket: ticket.0, session });
            } else {
                self.stats.failed_on_disconnect.fetch_add(1, Ordering::Relaxed);
            }
        }
        let unpolled = (steps - sess.steps) as u32;
        (unpolled, dropped)
    }

    /// Disconnect path (reader gone, `Bye`, or violation): every session
    /// of the connection leaves; queued tickets fail silently into the
    /// `failed_on_disconnect` counter — resolved, not vanished.
    fn drop_conn(&mut self, conn: u64) {
        let Some(state) = self.conns.remove(&conn) else { return };
        for session in state.sessions {
            let _ = self.leave_session(session, false);
        }
        // Dropping `state.tx` ends the writer, which shuts the socket.
    }

    /// One in-flight ticket of `conn` resolved — free its fairness-cap
    /// slot. A no-op for connections already dropped (their state, cap
    /// counter included, went with them).
    fn release_open(&mut self, conn: u64) {
        if let Some(state) = self.conns.get_mut(&conn) {
            state.open = state.open.saturating_sub(1);
        }
    }

    fn violation(&mut self, conn: u64) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.drop_conn(conn);
    }

    fn send(&mut self, conn: u64, frame: Frame) {
        if let Some(state) = self.conns.get(&conn) {
            // A send error means the writer died (peer gone); the
            // reader's Gone event will clean up.
            let _ = state.tx.send(frame);
        }
    }
}

// ---- client -------------------------------------------------------------

/// Blocking loopback client for the ingress protocol: dial, handshake,
/// then exchange [`Frame`]s. Submits may be pipelined — grants and
/// busy replies come back in submit order, completions in serve order;
/// [`WireClient::recv`] surfaces whichever frame is next.
pub struct WireClient {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    version: u16,
}

impl WireClient {
    /// Dial `addr` and run the version handshake. Errors with
    /// [`WireError::VersionUnsupported`] if the server rejects our range.
    pub fn connect(addr: SocketAddr) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // Generous guard against a hung server: tests should fail, not
        // wedge.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
        let mut writer = BufWriter::new(stream.try_clone()?);
        let mut reader = BufReader::new(stream);
        write_frame(
            &mut writer,
            &Frame::Hello { version: WIRE_VERSION, min_version: MIN_WIRE_VERSION },
        )?;
        writer.flush()?;
        match read_frame(&mut reader)? {
            Frame::HelloAck { version } => Ok(WireClient { writer, reader, version }),
            Frame::HelloReject { min, max } => Err(WireError::VersionUnsupported { min, max }),
            _ => Err(WireError::Malformed("expected a handshake reply")),
        }
    }

    /// The version the handshake negotiated.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Send any frame (write + flush).
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Block for the next frame from the server.
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        read_frame(&mut self.reader)
    }

    /// Open a session on backbone `group`; blocks for the grant.
    /// Returns `(session, shard)`. Call before pipelining submits —
    /// any other frame arriving instead of the `Joined` is an error.
    pub fn join(&mut self, group: u32) -> Result<(u64, u32), WireError> {
        self.send(&Frame::Join { group })?;
        match self.recv()? {
            Frame::Joined { session, shard } => Ok((session, shard)),
            _ => Err(WireError::Malformed("expected Joined")),
        }
    }

    /// Submit one observation (pipelined: the grant or busy reply comes
    /// back via [`WireClient::recv`] in submit order).
    pub fn submit(&mut self, session: u64, obs: &FleetObs) -> Result<(), WireError> {
        self.send(&Frame::Submit { session, obs: obs.clone() })
    }

    /// Ask to close `session`; the ack (and any final completions or
    /// failures for its tickets) comes back via [`WireClient::recv`].
    pub fn leave(&mut self, session: u64) -> Result<(), WireError> {
        self.send(&Frame::Leave { session })
    }

    /// Graceful close: `Bye` then drop. Server-side, every session of
    /// this connection leaves and its queued tickets fail.
    pub fn bye(mut self) -> Result<(), WireError> {
        self.send(&Frame::Bye)
    }

    /// Scrape the fleet's full [`MetricsSnapshot`] (per-shard counters,
    /// phase and latency histograms, ingress counters); blocks for the
    /// report. Use a dedicated connection for scraping — on a connection
    /// with submits in flight, a pushed `Completion` can arrive where
    /// the report is expected.
    pub fn scrape_metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
        self.send(&Frame::MetricsRequest)?;
        match self.recv()? {
            Frame::MetricsReport { snapshot } => Ok(snapshot),
            _ => Err(WireError::Malformed("expected MetricsReport")),
        }
    }

    /// Drain the fleet's event journal from cursor `since_seq`; blocks
    /// for the batch. Pass the returned [`EventsView::next_seq`] as the
    /// next call's cursor. Same dedicated-connection contract as
    /// [`WireClient::scrape_metrics`].
    pub fn scrape_events(&mut self, since_seq: u64) -> Result<EventsView, WireError> {
        self.send(&Frame::EventsRequest { since_seq })?;
        match self.recv()? {
            Frame::EventsBatch { next_seq, dropped, events } => {
                Ok(EventsView { events, next_seq, dropped })
            }
            _ => Err(WireError::Malformed("expected EventsBatch")),
        }
    }

    /// Split into independent send and receive halves, so a load
    /// generator can pump completions from one thread while another
    /// keeps submitting.
    pub fn split(self) -> (WireSender, WireReceiver) {
        (WireSender { writer: self.writer }, WireReceiver { reader: self.reader })
    }
}

/// Write half of a split [`WireClient`].
pub struct WireSender {
    writer: BufWriter<TcpStream>,
}

impl WireSender {
    /// Send any frame (write + flush).
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush()?;
        Ok(())
    }

    /// Submit one observation (the grant arrives on the receive half).
    pub fn submit(&mut self, session: u64, obs: &FleetObs) -> Result<(), WireError> {
        self.send(&Frame::Submit { session, obs: obs.clone() })
    }

    /// Ask to close `session` (the ack arrives on the receive half).
    pub fn leave(&mut self, session: u64) -> Result<(), WireError> {
        self.send(&Frame::Leave { session })
    }

    /// Graceful close of the whole connection.
    pub fn bye(mut self) -> Result<(), WireError> {
        self.send(&Frame::Bye)
    }
}

/// Read half of a split [`WireClient`].
pub struct WireReceiver {
    reader: BufReader<TcpStream>,
}

impl WireReceiver {
    /// Block for the next frame from the server. Errors once the
    /// connection closes.
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        read_frame(&mut self.reader)
    }
}
