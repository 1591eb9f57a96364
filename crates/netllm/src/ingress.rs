//! Event-loop network ingress: socket connections feeding the sharded
//! server's admission queues, with completions pushed back to waiters.
//!
//! This is the serving stack's front door: a [`FrontDoor`] that makes
//! every decision and does no I/O (it owns the
//! [`ShardedServer<NetLlmFleet>`], takes [`Input`]s and ticks, and
//! queues [`Output`]s; time enters only as arguments), plus the threaded
//! driver [`serve`], which binds a loopback TCP listener and spins up:
//!
//! - an **acceptor** thread handing each connection to a reader;
//! - one **reader** thread per connection: performs the
//!   [`crate::wire`] version handshake, then parses frames into a
//!   bounded event channel (the backpressure boundary — readers block
//!   when the scheduler falls behind) and hands the scheduler a clone of
//!   the stream to write to;
//! - a single **scheduler** thread that owns the `FrontDoor`, is the only
//!   place `tick` runs, and writes every connection's frames itself. It
//!   feeds the door each event together with every event already queued
//!   behind it, then writes the door's outputs and flushes each
//!   connection it wrote to once; the same after each tick's sweep.
//!   Each tick sweeps every outstanding ticket with
//!   [`ShardedServer::poll_status`] — resolved tickets are *pushed* to
//!   the owning connection as [`Frame::Completion`] / [`Frame::Failed`];
//!   no client ever polls.
//!
//! **The coalescing window.** Before a tick the scheduler waits briefly
//! so concurrent submits land in one batch
//! ([`FrontDoor::window_deadline`]): the window closes at the event that
//! gives every live session an open ticket (a tick takes at most one
//! arrival per session, so the batch cannot grow), and otherwise
//! [`QUIESCE`] after the last event, no later than [`MAX_COALESCE`]
//! after the first ([`FrontDoor::coalesce_deadline`]).
//!
//! **Slow readers are cut.** Every accepted socket has a
//! [`WRITE_TIMEOUT`]. A write that fails or blocks that long closes the
//! connection: the door hears [`Input::Gone`], so its queued tickets
//! resolve per the disconnect contract below, and the socket is shut
//! down. A connection's unsent output is thus bounded by the kernel's
//! socket buffers, and one stalled client costs the tick loop one
//! timeout at most.
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
use std::collections::BTreeMap;
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

/// How long coalescing waits for the next event before the tick — short
/// enough to be invisible next to a tick, long enough that a burst of
/// concurrent submits lands in one batch.
pub const QUIESCE: Duration = Duration::from_micros(200);

/// Hard bound on pre-tick coalescing, so a steady trickle of events
/// cannot postpone a tick indefinitely.
pub const MAX_COALESCE: Duration = Duration::from_millis(2);

/// How long one write to a connection may block before the connection is
/// cut as a slow reader. A write blocks only once the client has left the
/// kernel's socket buffers full (hundreds of KiB at least on loopback), so
/// a client descheduled for a few milliseconds never comes near it, and
/// Linux's rounding of the timeout up to a scheduler tick (1–4 ms) stays
/// well inside the margin. The first timed-out write cuts the connection,
/// so one stalled reader costs the tick loop this long once: a few dozen
/// `dense_socket` ticks.
pub const WRITE_TIMEOUT: Duration = Duration::from_millis(50);

/// Capacity of each connection's write buffer: a dense client's whole
/// sweep of completions goes out in one `write`.
const WRITE_BUF: usize = 64 << 10;

/// Fairness bound: granted-but-unresolved tickets one connection may
/// hold. Without it one greedy pipelining client fills the shared shard
/// queues and every other client bounces [`Frame::Busy`]; the cap refuses
/// the *greedy* client instead (same `Busy`/retry contract). Half of
/// [`crate::shard::QUEUE_CAP`] and of the event channel: a dense client
/// (B=64 sessions at a window of 4 holds 256 open tickets) pipelines
/// untouched.
pub const MAX_OPEN_PER_CONN: usize = 512;

/// Ingress server configuration. `Default` is the unit-test shape: 2
/// shards, `LeastLoaded` placement, no page pool.
pub struct IngressConfig {
    /// Shard count for the [`ShardedServer`].
    pub shards: usize,
    /// Admission (placement) policy.
    pub policy: AdmissionPolicy,
    /// Optional KV page pool (enables the memory guard).
    pub pool: Option<PagePool>,
    /// Eviction policy under memory pressure.
    pub eviction: EvictionPolicy,
}

impl Default for IngressConfig {
    fn default() -> Self {
        IngressConfig {
            shards: 2,
            policy: AdmissionPolicy::LeastLoaded,
            pool: None,
            eviction: EvictionPolicy::None,
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
        // Unblock the scheduler's recv (a full channel wakes it anyway, and
        // it rechecks `stop` at least every idle period). On its way out
        // the scheduler shuts every connection's socket down both ways,
        // which is what ends each detached reader thread...
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
    /// Handshake done; `stream` is the connection's write half, which
    /// only the scheduler writes to from here on.
    Connect { conn: u64, stream: TcpStream },
    /// A parsed frame, or the reader's exit (EOF, error, or post-`Bye`).
    Door(Input),
    /// Nothing for the door: unblocks the scheduler so it rechecks the
    /// stop flag.
    Wake,
}

/// [`serve`]'s up-front refusals: each of these would otherwise panic the
/// scheduler thread (at start-up, or on the first client's `Join`) after
/// `serve` had handed back a handle, leaving a listener nobody answers.
fn check_config(models: &FleetModels, cfg: &IngressConfig) -> std::io::Result<()> {
    let invalid = |why: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
    if cfg.shards == 0 {
        return invalid("IngressConfig::shards must be at least 1".into());
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
/// fleet cannot be built from: zero `shards`, a `PageAware` policy
/// without a pool, or a pool sized for a different width or below one
/// full-context session of any of the three backbones.
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
                // and the exiting scheduler shuts every socket down.
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
    // A socket option, so it holds for the scheduler's clone too.
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);

    // Handshake: first frame must be Hello; reply directly on the raw
    // stream (the scheduler writes only to connections it was handed).
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

    // From here on the scheduler writes this connection's frames itself,
    // and shuts the socket down when it closes or cuts the connection
    // (or exits), which is what ends this loop.
    let Ok(write_half) = stream.try_clone() else { return };
    if events.send(Event::Connect { conn, stream: write_half }).is_err() {
        return;
    }
    loop {
        match read_frame(&mut reader) {
            Ok(frame) => {
                let bye = matches!(frame, Frame::Bye);
                let input = Input::Frame { conn, frame: Box::new(frame) };
                if events.send(Event::Door(input)).is_err() || bye {
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
    let _ = events.send(Event::Door(Input::Gone { conn }));
}

/// The scheduler thread: the driver that owns the [`FrontDoor`], the
/// clock and every connection's write half.
fn run_scheduler(
    models: FleetModels,
    cfg: IngressConfig,
    rx: mpsc::Receiver<Event>,
    stats: Arc<IngressStats>,
    stop: Arc<AtomicBool>,
) {
    let mut door = FrontDoor::new(models.fleet(), cfg, &stats);
    let mut out = Outbox::default();
    let idle = Duration::from_millis(25);
    while !stop.load(Ordering::SeqCst) {
        // Block for work, then coalesce until the channel stays quiet or
        // the batch is full (see `FrontDoor::window_deadline`), so a
        // burst of concurrent submits becomes one dense batch. Events are
        // timed as they are received, so the writes of a burst do not
        // stretch the window.
        match rx.recv_timeout(idle) {
            Ok(ev) => {
                let first = Instant::now();
                out.burst(&mut door, &rx, Some(ev));
                let mut end = door.window_deadline(first, first);
                while let Some(wait) = end.checked_duration_since(Instant::now()) {
                    let Ok(ev) = rx.recv_timeout(wait) else { break };
                    let last = Instant::now();
                    out.burst(&mut door, &rx, Some(ev));
                    end = door.window_deadline(first, last);
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
        while !stop.load(Ordering::SeqCst) && door.tick(Instant::now) {
            // Absorb whatever arrived while the tick ran (submits refill
            // the next batch; leaves and joins must not starve behind a
            // long backlog), then write the sweep's frames with theirs.
            out.burst(&mut door, &rx, None);
        }
    }
    // Every reader blocks in `read` until its socket goes: shut down each
    // connection's socket, including those whose `Connect` is still
    // queued, so no reader outlives the scheduler.
    out.shutdown();
    while let Ok(ev) = rx.try_recv() {
        if let Event::Connect { stream, .. } = ev {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The scheduler's write side: one buffered write half per connection.
/// Frames the door queues are written in order and every connection is
/// flushed once per burst; a write that fails or blocks past
/// [`WRITE_TIMEOUT`] cuts its connection.
#[derive(Default)]
struct Outbox {
    writers: BTreeMap<u64, BufWriter<SocketOut>>,
}

/// A connection's socket as the scheduler writes it. The kernel ends a
/// blocked `write` at [`WRITE_TIMEOUT`] with an error only if it sent
/// nothing; one that sent part of its bytes fails here too, so a client
/// that lets a trickle through cannot stretch one stall into many.
struct SocketOut(TcpStream);

impl Write for SocketOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let sent = self.0.write(buf)?;
        if sent < buf.len() && start.elapsed() >= WRITE_TIMEOUT {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        Ok(sent)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Outbox {
    /// Feed the door `first` and then every event already queued behind
    /// it (at most a channel's worth, so a flooding reader cannot hold
    /// the frames back), then write and flush what the door answered.
    fn burst(&mut self, door: &mut FrontDoor, rx: &mpsc::Receiver<Event>, first: Option<Event>) {
        let queued = std::iter::from_fn(|| rx.try_recv().ok());
        for ev in first.into_iter().chain(queued).take(EVENT_CHANNEL_CAP) {
            match ev {
                Event::Wake => {}
                Event::Connect { conn, stream } => {
                    let out = BufWriter::with_capacity(WRITE_BUF, SocketOut(stream));
                    self.writers.insert(conn, out);
                    door.on(Instant::now(), Input::Connect { conn });
                }
                Event::Door(input) => door.on(Instant::now(), input),
            }
        }
        self.write(door);
    }

    /// Write every output the door queued, flush each connection once (a
    /// no-op where nothing was written), and cut the connections whose
    /// writes failed: the door hears `Gone` (their queued tickets resolve
    /// per the disconnect contract) before the socket is shut down, and
    /// whatever the cut queues is written in the same way.
    fn write(&mut self, door: &mut FrontDoor) {
        loop {
            let mut cut = Vec::new();
            for out in door.drain() {
                match out {
                    Output::Send(conn, frame) => {
                        let Some(w) = self.writers.get_mut(&conn) else { continue };
                        if write_frame(w, &frame).is_err() {
                            cut.push((conn, self.writers.remove(&conn).expect("written above")));
                        }
                    }
                    Output::Close(conn) => {
                        if let Some(mut w) = self.writers.remove(&conn) {
                            let _ = w.flush();
                            let _ = w.get_ref().0.shutdown(Shutdown::Both);
                        }
                    }
                }
            }
            cut.extend(self.writers.extract_if(.., |_, w| w.flush().is_err()));
            if cut.is_empty() {
                return;
            }
            for (conn, w) in cut {
                door.on(Instant::now(), Input::Gone { conn });
                // The unwritten tail is dropped, not flushed: a second
                // blocked write would stall the tick loop twice.
                let (SocketOut(stream), _unwritten) = w.into_parts();
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Shut every connection's socket down both ways.
    fn shutdown(&self) {
        for w in self.writers.values() {
            let _ = w.get_ref().0.shutdown(Shutdown::Both);
        }
    }
}

/// What happened on a connection, as [`FrontDoor::on`] takes it. Frames
/// are boxed, here and in [`Output`]: `MetricsReport` embeds a whole
/// snapshot, and the channels on either side carry mostly small frames.
#[derive(Debug)]
pub enum Input {
    /// The handshake finished; frames may follow.
    Connect { conn: u64 },
    /// One decoded frame from the connection.
    Frame { conn: u64, frame: Box<Frame> },
    /// The connection went away (EOF, error, or after `Bye`).
    Gone { conn: u64 },
}

/// What the [`FrontDoor`] asks its driver to do, in order.
#[derive(Debug)]
pub enum Output {
    /// Write the frame to connection `conn`.
    Send(u64, Box<Frame>),
    /// Close connection `conn`: it left, or broke the protocol.
    Close(u64),
}

/// Front-door state for one live session.
struct SessState {
    conn: u64,
    group: usize,
    /// Serve count — the `step` field ordering streamed completions.
    steps: u64,
    /// Granted-but-unresolved tickets of this session.
    open: usize,
}

/// One granted-but-unresolved ticket.
struct OpenTicket {
    conn: u64,
    session: u64,
    submitted: Instant,
}

/// The front door's decisions with no I/O: no clock, channel or thread
/// lives in here, so the door [`serve`]'s threads drive also runs in a
/// test on a synthetic clock.
pub struct FrontDoor<'a> {
    server: ShardedServer<NetLlmFleet<'a>>,
    fleet: NetLlmFleet<'a>,
    /// Live connections, each with the granted-but-unresolved tickets it
    /// holds (bounded by [`MAX_OPEN_PER_CONN`]).
    conns: BTreeMap<u64, usize>,
    sessions: BTreeMap<u64, SessState>,
    open: BTreeMap<Ticket, OpenTicket>,
    /// Live sessions holding at least one open ticket: when it reaches
    /// `sessions.len()` the next tick's batch is as full as it can get.
    ticketed: usize,
    stats: &'a IngressStats,
    /// EWMA of tick duration, the Busy retry hint. Seeded at 5ms — any
    /// positive value works, the first real tick corrects it.
    ewma_tick_ns: f64,
    outputs: Vec<Output>,
}

impl<'a> FrontDoor<'a> {
    /// A door serving `fleet` on a fresh server built from `cfg`,
    /// counting into `stats`. Panics on a `cfg` that [`serve`] refuses.
    pub fn new(fleet: NetLlmFleet<'a>, cfg: IngressConfig, stats: &'a IngressStats) -> Self {
        let server = match cfg.pool {
            Some(pool) => ShardedServer::with_memory(cfg.shards, cfg.policy, pool, cfg.eviction),
            None => ShardedServer::with_policy(cfg.shards, cfg.policy),
        };
        FrontDoor {
            server,
            fleet,
            conns: BTreeMap::new(),
            sessions: BTreeMap::new(),
            open: BTreeMap::new(),
            ticketed: 0,
            stats,
            ewma_tick_ns: 5e6,
            outputs: Vec::new(),
        }
    }

    /// When the coalescing window that opened at `first` closes, given
    /// the latest event at `last`: [`QUIESCE`] after that event, but no
    /// later than [`MAX_COALESCE`] after the first.
    pub fn coalesce_deadline(first: Instant, last: Instant) -> Instant {
        (last + QUIESCE).min(first + MAX_COALESCE)
    }

    /// [`FrontDoor::coalesce_deadline`] for this door's state: the window
    /// closes at `last` itself once every live session holds an open
    /// ticket, because a tick drains at most one arrival per session and
    /// waiting longer cannot grow its batch. A `Busy`-refused submit holds
    /// no ticket, and a leave or a disconnect re-counts the live sessions.
    pub fn window_deadline(&self, first: Instant, last: Instant) -> Instant {
        if self.ticketed > 0 && self.ticketed == self.sessions.len() {
            last
        } else {
            Self::coalesce_deadline(first, last)
        }
    }

    /// Take one connection event at time `now` (which stamps any ticket
    /// it grants).
    pub fn on(&mut self, now: Instant, input: Input) {
        match input {
            Input::Connect { conn } => _ = self.conns.insert(conn, 0),
            Input::Gone { conn } => self.drop_conn(conn),
            Input::Frame { conn, frame } => self.handle_frame(now, conn, *frame),
        }
    }

    /// Run one tick if arrivals are pending, then sweep; `false` (and
    /// nothing run) when none are. `clock` is read before and after the
    /// tick: the difference feeds the `Busy` retry EWMA, and the second
    /// reading is the sweep's `now`, against which each resolved
    /// ticket's ingress latency is taken.
    pub fn tick(&mut self, mut clock: impl FnMut() -> Instant) -> bool {
        if self.server.pending() == 0 {
            return false;
        }
        let t0 = clock();
        self.server.tick(&self.fleet);
        let now = clock();
        let dt = now.saturating_duration_since(t0).as_nanos() as f64;
        self.ewma_tick_ns = 0.8 * self.ewma_tick_ns + 0.2 * dt;
        self.stats.ticks.fetch_add(1, Ordering::Relaxed);
        self.sweep(now);
        true
    }

    /// The outputs queued since the last drain, oldest first.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Output> {
        self.outputs.drain(..)
    }

    fn handle_frame(&mut self, now: Instant, conn: u64, frame: Frame) {
        if !self.conns.contains_key(&conn) {
            return; // already dropped for a violation; ignore the tail
        }
        match frame {
            Frame::Join { group } => {
                let group = group as usize;
                if group > FLEET_VP {
                    return self.violation(conn);
                }
                let session = self.server.join_group(&self.fleet, group);
                let shard = self.server.shard_of(session) as u32;
                self.sessions.insert(session, SessState { conn, group, steps: 0, open: 0 });
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
                if self.conns[&conn] >= MAX_OPEN_PER_CONN {
                    return self.busy(
                        conn,
                        session,
                        BusyReason::QueueFull,
                        RefusalReason::FairnessCap,
                    );
                }
                match self.server.submit(session, obs) {
                    Ok(ticket) => {
                        self.open.insert(ticket, OpenTicket { conn, session, submitted: now });
                        *self.conns.get_mut(&conn).expect("checked above") += 1;
                        let sess = self.sessions.get_mut(&session).expect("checked above");
                        sess.open += 1;
                        self.ticketed += usize::from(sess.open == 1);
                        self.stats.submits.fetch_add(1, Ordering::Relaxed);
                        self.send(conn, Frame::TicketGrant { session, ticket: ticket.0 });
                    }
                    Err(SubmitError::QueueFull { .. }) => {
                        self.busy(conn, session, BusyReason::QueueFull, RefusalReason::QueueFull)
                    }
                    Err(SubmitError::RetryAfterTick { .. }) => {
                        self.busy(conn, session, BusyReason::ShardSuspect, RefusalReason::Suspect)
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
                let (unpolled, dropped) = self.leave_session(session);
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
                let EventsView { events, next_seq, dropped } =
                    self.server.journal().drain(since_seq);
                self.send(conn, Frame::EventsBatch { next_seq, dropped, events });
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
    fn sweep(&mut self, now: Instant) {
        let tickets: Vec<Ticket> = self.open.keys().copied().collect();
        for ticket in tickets {
            match self.server.poll_status(ticket) {
                TicketStatus::Pending | TicketStatus::Requeued => {}
                TicketStatus::Served(action) => {
                    let OpenTicket { conn, session, submitted } =
                        self.resolve(ticket).expect("ticket is open");
                    // Valid because the queue drains ≤1 arrival per
                    // session per tick and we sweep after *every* tick:
                    // a Served ticket's logits are from the tick that
                    // just ran.
                    let logits = self.server.last_logits(session).to_vec();
                    let sess = self.sessions.get_mut(&session).expect("session is live");
                    let step = sess.steps;
                    sess.steps += 1;
                    let ns = now.saturating_duration_since(submitted).as_nanos() as u64;
                    self.server.metrics().record_ingress_latency(ns);
                    let shard = self.server.shard_of(session);
                    self.server.metrics().record_shard_latency(shard, ns);
                    self.stats.completions.fetch_add(1, Ordering::Relaxed);
                    let done =
                        Frame::Completion { ticket: ticket.0, session, step, action, logits };
                    self.send(conn, done);
                }
                TicketStatus::Failed => {
                    let ot = self.resolve(ticket).expect("ticket is open");
                    self.stats.failed.fetch_add(1, Ordering::Relaxed);
                    self.send(ot.conn, Frame::Failed { ticket: ticket.0, session: ot.session });
                }
            }
        }
    }

    /// Close one session and resolve what it leaves behind: pushed to its
    /// connection if that is still live (the explicit-leave path), else
    /// tallied as `failed_on_disconnect`. Returns `(unpolled, dropped)`
    /// counts for the ack.
    fn leave_session(&mut self, session: u64) -> (u32, u32) {
        let sess = self.sessions.remove(&session).expect("session is live");
        self.ticketed -= usize::from(sess.open > 0);
        let report = self.server.leave(session);
        let live = self.conns.contains_key(&sess.conn);
        // The eager sweep polls every completion the tick it lands, so
        // `unpolled` is empty in steady state; any stragglers still get
        // their action (logits are gone with the session's slot).
        let counts = (report.unpolled.len() as u32, report.dropped_arrivals.len() as u32);
        for (step, (ticket, action)) in (sess.steps..).zip(report.unpolled) {
            self.resolve(ticket);
            self.stats.completions.fetch_add(1, Ordering::Relaxed);
            let done =
                Frame::Completion { ticket: ticket.0, session, step, action, logits: vec![] };
            self.send(sess.conn, done);
        }
        for (ticket, _obs) in report.dropped_arrivals {
            self.resolve(ticket);
            let failed = if live { &self.stats.failed } else { &self.stats.failed_on_disconnect };
            failed.fetch_add(1, Ordering::Relaxed);
            self.send(sess.conn, Frame::Failed { ticket: ticket.0, session });
        }
        counts
    }

    /// Disconnect path (reader gone, `Bye`, or violation): every session
    /// of the connection leaves; queued tickets fail silently into the
    /// `failed_on_disconnect` counter — resolved, not vanished.
    fn drop_conn(&mut self, conn: u64) {
        if self.conns.remove(&conn).is_none() {
            return;
        }
        let gone: Vec<u64> =
            self.sessions.iter().filter(|s| s.1.conn == conn).map(|s| *s.0).collect();
        for session in gone {
            self.leave_session(session);
        }
        self.outputs.push(Output::Close(conn));
    }

    /// Forget a resolved ticket and free its connection's fairness-cap
    /// slot and its session's open count (no-ops for a connection or a
    /// session already gone: their counters went with them).
    fn resolve(&mut self, ticket: Ticket) -> Option<OpenTicket> {
        let ot = self.open.remove(&ticket)?;
        if let Some(open) = self.conns.get_mut(&ot.conn) {
            *open = open.saturating_sub(1);
        }
        if let Some(sess) = self.sessions.get_mut(&ot.session) {
            sess.open -= 1;
            self.ticketed -= usize::from(sess.open == 0);
        }
        Some(ot)
    }

    fn violation(&mut self, conn: u64) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.drop_conn(conn);
    }

    fn send(&mut self, conn: u64, frame: Frame) {
        if self.conns.contains_key(&conn) {
            self.outputs.push(Output::Send(conn, Box::new(frame)));
        }
    }

    /// Refuse a submit: journal why, and tell the client to retry after
    /// the tick EWMA in whole ms (rounded up, at least 1).
    fn busy(&mut self, conn: u64, session: u64, reason: BusyReason, why: RefusalReason) {
        self.stats.busy.fetch_add(1, Ordering::Relaxed);
        let event = EventKind::Busy { session, reason: why };
        self.server.journal().record(self.server.tick_count(), event);
        let retry_after_ms = ((self.ewma_tick_ns / 1e6).ceil() as u32).max(1);
        self.send(conn, Frame::Busy { session, reason, retry_after_ms });
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
