//! Versioned, length-prefixed wire protocol for the network ingress.
//!
//! This module is the byte layer of [`crate::ingress`]: every message a
//! client or server sends is one [`Frame`], encoded as
//!
//! ```text
//!   [ len: u32 LE ][ tag: u8 ][ payload: len-1 bytes ]
//!   └──────────────┴─────────────────────────────────┘
//!     length prefix   the frame body `len` covers
//! ```
//!
//! with every integer little-endian, floats as IEEE-754 bit patterns,
//! `Vec`s as a `u32` element count followed by the elements, and tensors
//! as a `u8` rank + `u32` dims + row-major `f32` data. The full layout
//! table lives in `docs/PROTOCOL.md`; the encoder and decoder here are
//! the normative implementation (round-tripped over every message type
//! in `tests/wire_proto.rs`).
//!
//! **Version negotiation.** The first frame on a connection must be
//! [`Frame::Hello`] carrying the client's speakable range; the server
//! answers [`Frame::HelloAck`] with the version the connection will use
//! (the highest both sides speak) or [`Frame::HelloReject`] with its own
//! range and closes. Nothing else may be sent before the ack — framing is
//! stable across versions, so even a rejected client can always parse the
//! reject.
//!
//! **Forward compatibility.** Frame tags split in two: tags `< 0x80` are
//! *core* — a receiver that does not know one must treat the connection
//! as broken ([`WireError::UnknownFrame`]); tags `>= 0x80` are
//! *extension* — a receiver that does not know one must skip the frame
//! silently ([`decode_frame`] returns `Ok(None)`). The telemetry scrape
//! frames ([`Frame::MetricsRequest`] / [`Frame::MetricsReport`] /
//! [`Frame::EventsRequest`] / [`Frame::EventsBatch`]) are the first real
//! users of the extension range: a build that predates them skips them
//! unharmed, which is exactly why they need no version bump. New core
//! frames still require a negotiated version bump.
//!
//! **Backpressure on the wire.** [`Frame::Busy`] is
//! [`crate::SubmitError`] made caller-visible: it returns the refusal
//! class and a `retry_after_ms` hint derived from the server's recent
//! tick duration, so remote load generators can pace themselves exactly
//! like in-process callers do with [`crate::SubmitRetry`].
//!
//! The payload types are the fleet's own ([`FleetObs`], [`FleetAction`]):
//! the wire serves the same heterogeneous ABR + CJS + VP mix as the
//! in-process front end, and multi-step ABR/CJS episodes stream as a
//! sequence of [`Frame::Submit`] → [`Frame::Completion`] exchanges over
//! one session (the `step` field orders the pushed completions).

use crate::adapters::cjs::CjsObs;
use crate::adapters::vp::VpQuery;
use crate::fleet::{FleetAction, FleetObs};
use crate::metrics::{
    FaultSnapshot, IngressSnapshot, LatencySnapshot, MetricsSnapshot, PoolDispatchSnapshot,
    ShardSnapshot,
};
use crate::telemetry::{EventKind, RefusalReason, SteerReason, TelemetryEvent};
use nt_abr::AbrObservation;
use nt_cjs::{Decision, GraphSnapshot};
use nt_tensor::Tensor;
use nt_vp::{Viewport, VpSample};
use std::io::{Read, Write};

/// Highest protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;
/// Lowest protocol version this build still accepts.
pub const MIN_WIRE_VERSION: u16 = 1;

/// Hard ceiling on one frame's length prefix: a malformed or hostile
/// length cannot make the receiver allocate unboundedly.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Body length of a [`Frame::Completion`] whose VP answer holds
/// `viewports` viewports (12 bytes each) beside `logits` floats: tag,
/// ticket, session, step, action tag, then both length-prefixed
/// sequences. The front door sizes the longest admissible horizon with it
/// (`NetLlmVp::max_horizon`).
pub(crate) const fn vp_completion_len(viewports: usize, logits: usize) -> usize {
    1 + 3 * 8 + 1 + 4 + 12 * viewports + 4 + 4 * logits
}

/// First tag of the extension (must-skip) range; tags below are core
/// (must-understand).
pub const EXTENSION_TAG_BASE: u8 = 0x80;

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame (or inside the length prefix).
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME_LEN`] (or was zero).
    BadLength(u32),
    /// A core-range tag this build does not know.
    UnknownFrame(u8),
    /// The payload did not parse as its tag's layout.
    Malformed(&'static str),
    /// The peer's version range does not intersect ours.
    VersionUnsupported {
        /// Lowest version the peer offered.
        min: u16,
        /// Highest version the peer offered.
        max: u16,
    },
    /// Transport error underneath the framing.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadLength(n) => write!(f, "bad frame length {n} (max {MAX_FRAME_LEN})"),
            WireError::UnknownFrame(t) => write!(f, "unknown core frame tag 0x{t:02x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
            WireError::VersionUnsupported { min, max } => {
                write!(f, "no common protocol version (peer speaks {min}..={max}, we speak {MIN_WIRE_VERSION}..={WIRE_VERSION})")
            }
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        // An EOF mid-frame is a truncation, not a generic IO failure —
        // the distinction matters to the malformed-input tests.
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Why the server refused a [`Frame::Submit`] (the wire form of
/// [`crate::SubmitError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusyReason {
    /// The session's shard queue is at its backpressure cap; a tick's
    /// drain frees space.
    QueueFull,
    /// The session's shard is Suspect; the health checker will revive it
    /// or re-admit the session on a survivor.
    ShardSuspect,
}

/// One protocol message. Client→server: `Hello`, `Join`, `Submit`,
/// `Leave`, `Bye`. Server→client: `HelloAck`, `HelloReject`, `Joined`,
/// `TicketGrant`, `Busy`, `Completion`, `Failed`, `LeaveAck`. The
/// direction split is convention, not enforcement — both sides share one
/// codec:
///
/// ```
/// use netllm::wire::{read_frame, write_frame, Frame};
///
/// let mut buf = Vec::new();
/// write_frame(&mut buf, &Frame::Join { group: 2 }).unwrap();
/// let Frame::Join { group } = read_frame(&mut buf.as_slice()).unwrap() else {
///     panic!("codec must roundtrip");
/// };
/// assert_eq!(group, 2);
/// ```
#[derive(Debug)]
pub enum Frame {
    /// Connection opener: the version range the client speaks.
    Hello {
        /// Highest version the client speaks.
        version: u16,
        /// Lowest version the client still accepts.
        min_version: u16,
    },
    /// Handshake accept: the version this connection will use.
    HelloAck {
        /// Negotiated version (highest both sides speak).
        version: u16,
    },
    /// Handshake refusal: the server's range, so the client can log a
    /// precise mismatch. The server closes after sending it.
    HelloReject {
        /// Lowest version the server accepts.
        min: u16,
        /// Highest version the server speaks.
        max: u16,
    },
    /// Open a session on one fleet backbone group
    /// ([`crate::FLEET_ABR`] / [`crate::FLEET_CJS`] / [`crate::FLEET_VP`]).
    Join {
        /// Backbone group to join.
        group: u32,
    },
    /// Session granted: the id every later frame references.
    Joined {
        /// Fleet-wide session id.
        session: u64,
        /// Shard the admission policy placed the session on (telemetry).
        shard: u32,
    },
    /// One observation for `session`'s next decision.
    Submit {
        /// Session to advance.
        session: u64,
        /// The observation (must match the session's group).
        obs: FleetObs,
    },
    /// Submission accepted: the ticket a [`Frame::Completion`] or
    /// [`Frame::Failed`] will later resolve. Grants are pushed in
    /// submission order per connection, so clients may pipeline submits.
    TicketGrant {
        /// Session the grant belongs to.
        session: u64,
        /// Ticket number ([`crate::Ticket`]).
        ticket: u64,
    },
    /// Submission refused — backpressure made caller-visible. Nothing
    /// was enqueued; re-submit the observation after the hinted delay.
    Busy {
        /// Session whose submit was refused.
        session: u64,
        /// Refusal class.
        reason: BusyReason,
        /// Pacing hint derived from the server's recent tick duration.
        retry_after_ms: u32,
    },
    /// A served decision, pushed to the submitting connection as soon as
    /// the tick that computed it completes (never polled).
    Completion {
        /// Resolved ticket.
        ticket: u64,
        /// Session the decision belongs to.
        session: u64,
        /// 0-based serve index within the session — orders the streamed
        /// steps of a multi-step (ABR/CJS) episode.
        step: u64,
        /// The decision.
        action: FleetAction,
        /// Head outputs of the step (the same floats the in-process
        /// caller reads via [`crate::ShardedServer::last_logits`]).
        logits: Vec<f32>,
    },
    /// A ticket resolved `Failed`: its observation was lost to a fault or
    /// a departing session and will never produce a completion. Terminal
    /// — the client re-submits if it still wants an answer.
    Failed {
        /// The failed ticket.
        ticket: u64,
        /// Session the ticket belonged to.
        session: u64,
    },
    /// Close `session`. Outstanding tickets resolve before the ack:
    /// already-served ones as [`Frame::Completion`], still-queued ones as
    /// [`Frame::Failed`] (the ingress leave contract — nothing vanishes).
    Leave {
        /// Session to close.
        session: u64,
    },
    /// `session` is closed; counts what the leave displaced.
    LeaveAck {
        /// The closed session.
        session: u64,
        /// Served-but-undelivered actions flushed before this ack.
        unpolled: u32,
        /// Queued arrivals whose tickets were failed by the leave.
        dropped: u32,
    },
    /// Graceful connection close (equivalent to a disconnect: every
    /// session of the connection is left, queued tickets fail).
    Bye,
    /// Telemetry scrape request (extension range): ask the server for one
    /// [`Frame::MetricsReport`]. Empty payload. A pre-telemetry server
    /// skips it (and the client times out) instead of erroring.
    MetricsRequest,
    /// Telemetry scrape answer (extension range): the full
    /// [`MetricsSnapshot`] — per-shard counters, phase histograms,
    /// latency histograms, fault totals, ingress counters.
    MetricsReport {
        /// The snapshot at scrape time.
        snapshot: MetricsSnapshot,
    },
    /// Event-journal drain request (extension range): everything resident
    /// at or after `since_seq` (see [`crate::telemetry::TelemetryRing::drain`]).
    EventsRequest {
        /// The reader's cursor (0 on the first drain).
        since_seq: u64,
    },
    /// Event-journal drain answer (extension range).
    EventsBatch {
        /// Pass as the next `since_seq` to continue where this stopped.
        next_seq: u64,
        /// Events in the requested range overwritten before the drain.
        dropped: u64,
        /// The resident events, in sequence order.
        events: Vec<TelemetryEvent>,
    },
}

// Core frame tags (stable; `docs/PROTOCOL.md` is the registry).
const TAG_HELLO: u8 = 0x01;
const TAG_HELLO_ACK: u8 = 0x02;
const TAG_HELLO_REJECT: u8 = 0x03;
const TAG_JOIN: u8 = 0x10;
const TAG_JOINED: u8 = 0x11;
const TAG_SUBMIT: u8 = 0x12;
const TAG_TICKET: u8 = 0x13;
const TAG_BUSY: u8 = 0x14;
const TAG_COMPLETION: u8 = 0x15;
const TAG_FAILED: u8 = 0x16;
const TAG_LEAVE: u8 = 0x17;
const TAG_LEAVE_ACK: u8 = 0x18;
const TAG_BYE: u8 = 0x1f;

// Extension frame tags (must-skip for builds that predate them).
const TAG_METRICS_REQUEST: u8 = 0x80;
const TAG_METRICS_REPORT: u8 = 0x81;
const TAG_EVENTS_REQUEST: u8 = 0x82;
const TAG_EVENTS_BATCH: u8 = 0x83;

// Payload sub-tags.
const OBS_ABR: u8 = 0;
const OBS_CJS: u8 = 1;
const OBS_VP: u8 = 2;
const ACT_ABR: u8 = 0;
const ACT_CJS: u8 = 1;
const ACT_VP: u8 = 2;
const BUSY_QUEUE_FULL: u8 = 0;
const BUSY_SUSPECT: u8 = 1;
const EV_TICK_SPAN: u8 = 0;
const EV_EVICTION: u8 = 1;
const EV_STEER: u8 = 2;
const EV_SHARD_DEAD: u8 = 3;
const EV_RECOVERY: u8 = 4;
const EV_BUSY: u8 = 5;

// ---- primitive writers --------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    assert!(n <= u32::MAX as usize, "sequence too long for the wire");
    put_u32(out, n as u32);
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_len(out, xs.len());
    for &x in xs {
        put_f64(out, x);
    }
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_len(out, xs.len());
    for &x in xs {
        put_f32(out, x);
    }
}

fn put_usizes(out: &mut Vec<u8>, xs: &[usize]) {
    put_len(out, xs.len());
    for &x in xs {
        put_usize(out, x);
    }
}

/// Tensor layout: rank (u8), dims (u32 each), then row-major `f32` data —
/// the element count is implied by the dims, so it cannot disagree.
fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let shape = t.shape();
    assert!(shape.len() <= u8::MAX as usize, "tensor rank too high for the wire");
    put_u8(out, shape.len() as u8);
    for &d in shape {
        assert!(d <= u32::MAX as usize, "tensor dim too large for the wire");
        put_u32(out, d as u32);
    }
    for &x in t.data() {
        put_f32(out, x);
    }
}

fn put_viewports(out: &mut Vec<u8>, vs: &[Viewport]) {
    put_len(out, vs.len());
    for v in vs {
        for &c in v {
            put_f32(out, c);
        }
    }
}

// ---- primitive readers --------------------------------------------------

/// Cursor over one frame's payload. Every read checks the remaining
/// length first, so a truncated or hostile payload fails cleanly instead
/// of panicking or over-allocating.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Malformed("usize overflows this platform"))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Element count whose encoded body must still fit in the payload
    /// (`elem_bytes` per element) — a hostile count cannot force a huge
    /// allocation.
    fn seq_len(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(WireError::Malformed("sequence length exceeds payload"));
        }
        Ok(n)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn f32s(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.seq_len(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    fn usizes(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    fn tensor(&mut self) -> Result<Tensor, WireError> {
        let rank = self.u8()? as usize;
        let mut shape = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = self.u32()? as usize;
            numel = numel
                .checked_mul(d)
                .ok_or(WireError::Malformed("tensor element count overflows"))?;
            shape.push(d);
        }
        if numel.saturating_mul(4) > self.remaining() {
            return Err(WireError::Malformed("tensor data exceeds payload"));
        }
        let data = (0..numel).map(|_| self.f32()).collect::<Result<Vec<f32>, _>>()?;
        Ok(Tensor::from_vec(shape, data))
    }

    fn viewports(&mut self) -> Result<Vec<Viewport>, WireError> {
        let n = self.seq_len(12)?;
        (0..n)
            .map(|_| Ok([self.f32()?, self.f32()?, self.f32()?]))
            .collect::<Result<Vec<Viewport>, WireError>>()
    }

    /// Decoding must consume the payload exactly: trailing bytes mean the
    /// sender and receiver disagree about the layout.
    fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---- observation / action codecs ---------------------------------------

fn put_obs(out: &mut Vec<u8>, obs: &FleetObs) {
    match obs {
        FleetObs::Abr(o) => {
            put_u8(out, OBS_ABR);
            put_f64s(out, &o.throughput_hist);
            put_f64s(out, &o.delay_hist);
            put_f64s(out, &o.next_sizes);
            put_f64(out, o.buffer_secs);
            match o.last_rung {
                Some(r) => {
                    put_u8(out, 1);
                    put_usize(out, r);
                }
                None => put_u8(out, 0),
            }
            put_f64(out, o.remain_frac);
            put_f64s(out, &o.ladder_mbps);
            put_usize(out, o.chunk_index);
        }
        FleetObs::Cjs(o) => {
            put_u8(out, OBS_CJS);
            put_usize(out, o.snap.n);
            put_tensor(out, &o.snap.feats);
            put_tensor(out, &o.snap.adj);
            put_usizes(out, &o.snap.candidates);
            put_f32(out, o.snap.free_frac);
            put_f64(out, o.now);
            put_usize(out, o.active_jobs);
            put_usize(out, o.total_executors);
        }
        FleetObs::Vp(o) => {
            put_u8(out, OBS_VP);
            put_viewports(out, &o.sample.history);
            put_viewports(out, &o.sample.future);
            put_tensor(out, &o.sample.saliency);
            put_usize(out, o.pw);
        }
    }
}

fn read_obs(r: &mut Reader) -> Result<FleetObs, WireError> {
    match r.u8()? {
        OBS_ABR => {
            let throughput_hist = r.f64s()?;
            let delay_hist = r.f64s()?;
            let next_sizes = r.f64s()?;
            let buffer_secs = r.f64()?;
            let last_rung = match r.u8()? {
                0 => None,
                1 => Some(r.usize()?),
                _ => return Err(WireError::Malformed("bad Option tag")),
            };
            let remain_frac = r.f64()?;
            let ladder_mbps = r.f64s()?;
            let chunk_index = r.usize()?;
            Ok(FleetObs::Abr(AbrObservation {
                throughput_hist,
                delay_hist,
                next_sizes,
                buffer_secs,
                last_rung,
                remain_frac,
                ladder_mbps,
                chunk_index,
            }))
        }
        OBS_CJS => {
            let n = r.usize()?;
            let feats = r.tensor()?;
            let adj = r.tensor()?;
            let candidates = r.usizes()?;
            let free_frac = r.f32()?;
            let snap = GraphSnapshot { n, feats, adj, candidates, free_frac };
            let now = r.f64()?;
            let active_jobs = r.usize()?;
            let total_executors = r.usize()?;
            Ok(FleetObs::Cjs(CjsObs { snap, now, active_jobs, total_executors }))
        }
        OBS_VP => {
            let history = r.viewports()?;
            let future = r.viewports()?;
            let saliency = r.tensor()?;
            let pw = r.usize()?;
            Ok(FleetObs::Vp(VpQuery { sample: VpSample { history, future, saliency }, pw }))
        }
        _ => Err(WireError::Malformed("unknown observation tag")),
    }
}

fn put_action(out: &mut Vec<u8>, action: &FleetAction) {
    match action {
        FleetAction::Abr(rung) => {
            put_u8(out, ACT_ABR);
            put_usize(out, *rung);
        }
        FleetAction::Cjs(d) => {
            put_u8(out, ACT_CJS);
            put_usize(out, d.candidate);
            put_usize(out, d.cap);
        }
        FleetAction::Vp(vs) => {
            put_u8(out, ACT_VP);
            put_viewports(out, vs);
        }
    }
}

fn read_action(r: &mut Reader) -> Result<FleetAction, WireError> {
    match r.u8()? {
        ACT_ABR => Ok(FleetAction::Abr(r.usize()?)),
        ACT_CJS => {
            let candidate = r.usize()?;
            let cap = r.usize()?;
            Ok(FleetAction::Cjs(Decision { candidate, cap }))
        }
        ACT_VP => Ok(FleetAction::Vp(r.viewports()?)),
        _ => Err(WireError::Malformed("unknown action tag")),
    }
}

// ---- telemetry codecs ---------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_latency(out: &mut Vec<u8>, l: &LatencySnapshot) {
    put_u64(out, l.count);
    put_u64(out, l.total_ns);
    put_u64(out, l.max_ns);
    put_len(out, l.buckets.len());
    for &b in &l.buckets {
        put_u64(out, b);
    }
}

fn put_snapshot(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    put_len(out, m.shards.len());
    for s in &m.shards {
        put_u64(out, s.served);
        put_u64(out, s.steered);
        put_u64(out, s.steered_in);
        put_u64(out, s.evicted);
        put_u64(out, s.evicted_rebuild_rows);
        put_u64(out, s.queue_depth);
        put_u64(out, s.held_pages);
    }
    put_u64(out, m.pool.workers);
    put_u64(out, m.pool.dispatches);
    put_u64(out, m.pool.tasks);
    put_u64(out, m.faults.shard_kills);
    put_u64(out, m.faults.sessions_recovered);
    put_u64(out, m.faults.tickets_failed);
    put_u64(out, m.faults.arrivals_requeued);
    put_u64(out, m.faults.recovery_replay_rows);
    put_latency(out, &m.ingress_latency);
    put_len(out, m.shard_phases.len());
    for phases in &m.shard_phases {
        put_len(out, phases.len());
        for p in phases {
            put_latency(out, p);
        }
    }
    put_len(out, m.shard_latency.len());
    for l in &m.shard_latency {
        put_latency(out, l);
    }
    put_len(out, m.served_by_label.len());
    for (label, n) in &m.served_by_label {
        put_str(out, label);
        put_u64(out, *n);
    }
    put_u64(out, m.ingress.connections);
    put_u64(out, m.ingress.sessions_joined);
    put_u64(out, m.ingress.submits);
    put_u64(out, m.ingress.busy);
    put_u64(out, m.ingress.completions);
    put_u64(out, m.ingress.failed);
    put_u64(out, m.ingress.failed_on_disconnect);
    put_u64(out, m.ingress.protocol_errors);
    put_u64(out, m.ingress.ticks);
    put_u64(out, m.pool_free_pages);
}

fn put_event(out: &mut Vec<u8>, e: &TelemetryEvent) {
    put_u64(out, e.seq);
    put_u64(out, e.clock);
    match e.kind {
        EventKind::TickSpan { shard, served, span_ns } => {
            put_u8(out, EV_TICK_SPAN);
            put_u32(out, shard);
            put_u32(out, served);
            put_u64(out, span_ns);
        }
        EventKind::Eviction { shard, session, rebuild_rows } => {
            put_u8(out, EV_EVICTION);
            put_u32(out, shard);
            put_u64(out, session);
            put_u64(out, rebuild_rows);
        }
        EventKind::Steer { src, dst, session, reason } => {
            put_u8(out, EV_STEER);
            put_u32(out, src);
            put_u32(out, dst);
            put_u64(out, session);
            put_u8(out, reason as u8);
        }
        EventKind::ShardDead { shard } => {
            put_u8(out, EV_SHARD_DEAD);
            put_u32(out, shard);
        }
        EventKind::Recovery { shard, sessions, replay_rows } => {
            put_u8(out, EV_RECOVERY);
            put_u32(out, shard);
            put_u32(out, sessions);
            put_u64(out, replay_rows);
        }
        EventKind::Busy { session, reason } => {
            put_u8(out, EV_BUSY);
            put_u64(out, session);
            put_u8(out, reason as u8);
        }
    }
}

impl<'a> Reader<'a> {
    fn string(&mut self) -> Result<String, WireError> {
        let n = self.seq_len(1)?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| WireError::Malformed("label is not UTF-8"))
    }

    fn latency(&mut self) -> Result<LatencySnapshot, WireError> {
        let count = self.u64()?;
        let total_ns = self.u64()?;
        let max_ns = self.u64()?;
        let n = self.seq_len(8)?;
        let buckets = (0..n).map(|_| self.u64()).collect::<Result<Vec<u64>, _>>()?;
        Ok(LatencySnapshot { count, total_ns, max_ns, buckets })
    }

    fn snapshot(&mut self) -> Result<MetricsSnapshot, WireError> {
        // Minimum encoded sizes bound every count the payload claims, so
        // a hostile length cannot force a huge allocation.
        let n = self.seq_len(56)?;
        let shards = (0..n)
            .map(|_| {
                Ok(ShardSnapshot {
                    served: self.u64()?,
                    steered: self.u64()?,
                    steered_in: self.u64()?,
                    evicted: self.u64()?,
                    evicted_rebuild_rows: self.u64()?,
                    queue_depth: self.u64()?,
                    held_pages: self.u64()?,
                })
            })
            .collect::<Result<Vec<ShardSnapshot>, WireError>>()?;
        let pool = PoolDispatchSnapshot {
            workers: self.u64()?,
            dispatches: self.u64()?,
            tasks: self.u64()?,
        };
        let faults = FaultSnapshot {
            shard_kills: self.u64()?,
            sessions_recovered: self.u64()?,
            tickets_failed: self.u64()?,
            arrivals_requeued: self.u64()?,
            recovery_replay_rows: self.u64()?,
        };
        let ingress_latency = self.latency()?;
        let n = self.seq_len(4)?;
        let shard_phases = (0..n)
            .map(|_| {
                let k = self.seq_len(28)?;
                (0..k).map(|_| self.latency()).collect::<Result<Vec<LatencySnapshot>, _>>()
            })
            .collect::<Result<Vec<Vec<LatencySnapshot>>, WireError>>()?;
        let n = self.seq_len(28)?;
        let shard_latency =
            (0..n).map(|_| self.latency()).collect::<Result<Vec<LatencySnapshot>, _>>()?;
        let n = self.seq_len(12)?;
        let served_by_label = (0..n)
            .map(|_| Ok((self.string()?, self.u64()?)))
            .collect::<Result<Vec<(String, u64)>, WireError>>()?;
        let ingress = IngressSnapshot {
            connections: self.u64()?,
            sessions_joined: self.u64()?,
            submits: self.u64()?,
            busy: self.u64()?,
            completions: self.u64()?,
            failed: self.u64()?,
            failed_on_disconnect: self.u64()?,
            protocol_errors: self.u64()?,
            ticks: self.u64()?,
        };
        let pool_free_pages = self.u64()?;
        Ok(MetricsSnapshot {
            shards,
            pool,
            faults,
            ingress_latency,
            shard_phases,
            shard_latency,
            served_by_label,
            ingress,
            pool_free_pages,
        })
    }

    fn event(&mut self) -> Result<TelemetryEvent, WireError> {
        let seq = self.u64()?;
        let clock = self.u64()?;
        let kind = match self.u8()? {
            EV_TICK_SPAN => EventKind::TickSpan {
                shard: self.u32()?,
                served: self.u32()?,
                span_ns: self.u64()?,
            },
            EV_EVICTION => EventKind::Eviction {
                shard: self.u32()?,
                session: self.u64()?,
                rebuild_rows: self.u64()?,
            },
            EV_STEER => EventKind::Steer {
                src: self.u32()?,
                dst: self.u32()?,
                session: self.u64()?,
                reason: match self.u8()? {
                    0 => SteerReason::Rebalance,
                    1 => SteerReason::OverBudget,
                    2 => SteerReason::Manual,
                    _ => return Err(WireError::Malformed("unknown steer reason")),
                },
            },
            EV_SHARD_DEAD => EventKind::ShardDead { shard: self.u32()? },
            EV_RECOVERY => EventKind::Recovery {
                shard: self.u32()?,
                sessions: self.u32()?,
                replay_rows: self.u64()?,
            },
            EV_BUSY => EventKind::Busy {
                session: self.u64()?,
                reason: match self.u8()? {
                    0 => RefusalReason::QueueFull,
                    1 => RefusalReason::Suspect,
                    2 => RefusalReason::FairnessCap,
                    _ => return Err(WireError::Malformed("unknown refusal reason")),
                },
            },
            _ => return Err(WireError::Malformed("unknown event kind")),
        };
        Ok(TelemetryEvent { seq, clock, kind })
    }
}

// ---- frame codec --------------------------------------------------------

/// Encode one frame as its full wire image (length prefix included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    match frame {
        Frame::Hello { version, min_version } => {
            put_u8(&mut body, TAG_HELLO);
            put_u16(&mut body, *version);
            put_u16(&mut body, *min_version);
        }
        Frame::HelloAck { version } => {
            put_u8(&mut body, TAG_HELLO_ACK);
            put_u16(&mut body, *version);
        }
        Frame::HelloReject { min, max } => {
            put_u8(&mut body, TAG_HELLO_REJECT);
            put_u16(&mut body, *min);
            put_u16(&mut body, *max);
        }
        Frame::Join { group } => {
            put_u8(&mut body, TAG_JOIN);
            put_u32(&mut body, *group);
        }
        Frame::Joined { session, shard } => {
            put_u8(&mut body, TAG_JOINED);
            put_u64(&mut body, *session);
            put_u32(&mut body, *shard);
        }
        Frame::Submit { session, obs } => {
            put_u8(&mut body, TAG_SUBMIT);
            put_u64(&mut body, *session);
            put_obs(&mut body, obs);
        }
        Frame::TicketGrant { session, ticket } => {
            put_u8(&mut body, TAG_TICKET);
            put_u64(&mut body, *session);
            put_u64(&mut body, *ticket);
        }
        Frame::Busy { session, reason, retry_after_ms } => {
            put_u8(&mut body, TAG_BUSY);
            put_u64(&mut body, *session);
            put_u8(
                &mut body,
                match reason {
                    BusyReason::QueueFull => BUSY_QUEUE_FULL,
                    BusyReason::ShardSuspect => BUSY_SUSPECT,
                },
            );
            put_u32(&mut body, *retry_after_ms);
        }
        Frame::Completion { ticket, session, step, action, logits } => {
            put_u8(&mut body, TAG_COMPLETION);
            put_u64(&mut body, *ticket);
            put_u64(&mut body, *session);
            put_u64(&mut body, *step);
            put_action(&mut body, action);
            put_f32s(&mut body, logits);
        }
        Frame::Failed { ticket, session } => {
            put_u8(&mut body, TAG_FAILED);
            put_u64(&mut body, *ticket);
            put_u64(&mut body, *session);
        }
        Frame::Leave { session } => {
            put_u8(&mut body, TAG_LEAVE);
            put_u64(&mut body, *session);
        }
        Frame::LeaveAck { session, unpolled, dropped } => {
            put_u8(&mut body, TAG_LEAVE_ACK);
            put_u64(&mut body, *session);
            put_u32(&mut body, *unpolled);
            put_u32(&mut body, *dropped);
        }
        Frame::Bye => put_u8(&mut body, TAG_BYE),
        Frame::MetricsRequest => put_u8(&mut body, TAG_METRICS_REQUEST),
        Frame::MetricsReport { snapshot } => {
            put_u8(&mut body, TAG_METRICS_REPORT);
            put_snapshot(&mut body, snapshot);
        }
        Frame::EventsRequest { since_seq } => {
            put_u8(&mut body, TAG_EVENTS_REQUEST);
            put_u64(&mut body, *since_seq);
        }
        Frame::EventsBatch { next_seq, dropped, events } => {
            put_u8(&mut body, TAG_EVENTS_BATCH);
            put_u64(&mut body, *next_seq);
            put_u64(&mut body, *dropped);
            put_len(&mut body, events.len());
            for e in events {
                put_event(&mut body, e);
            }
        }
    }
    assert!(body.len() as u64 <= MAX_FRAME_LEN as u64, "frame exceeds MAX_FRAME_LEN");
    let mut out = Vec::with_capacity(4 + body.len());
    put_u32(&mut out, body.len() as u32);
    out.extend_from_slice(&body);
    out
}

/// Decode one frame body (the bytes the length prefix covers: tag +
/// payload). `Ok(None)` means an extension-range frame this build must
/// skip (the forward-compatibility rule — *known* extension frames like
/// the telemetry scrapes decode normally); core-range unknowns are
/// [`WireError::UnknownFrame`].
pub fn decode_frame(body: &[u8]) -> Result<Option<Frame>, WireError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let frame = match tag {
        TAG_HELLO => {
            let version = r.u16()?;
            let min_version = r.u16()?;
            if min_version > version {
                return Err(WireError::Malformed("hello range inverted"));
            }
            Frame::Hello { version, min_version }
        }
        TAG_HELLO_ACK => Frame::HelloAck { version: r.u16()? },
        TAG_HELLO_REJECT => {
            let min = r.u16()?;
            let max = r.u16()?;
            Frame::HelloReject { min, max }
        }
        TAG_JOIN => Frame::Join { group: r.u32()? },
        TAG_JOINED => {
            let session = r.u64()?;
            let shard = r.u32()?;
            Frame::Joined { session, shard }
        }
        TAG_SUBMIT => {
            let session = r.u64()?;
            let obs = read_obs(&mut r)?;
            Frame::Submit { session, obs }
        }
        TAG_TICKET => {
            let session = r.u64()?;
            let ticket = r.u64()?;
            Frame::TicketGrant { session, ticket }
        }
        TAG_BUSY => {
            let session = r.u64()?;
            let reason = match r.u8()? {
                BUSY_QUEUE_FULL => BusyReason::QueueFull,
                BUSY_SUSPECT => BusyReason::ShardSuspect,
                _ => return Err(WireError::Malformed("unknown busy reason")),
            };
            let retry_after_ms = r.u32()?;
            Frame::Busy { session, reason, retry_after_ms }
        }
        TAG_COMPLETION => {
            let ticket = r.u64()?;
            let session = r.u64()?;
            let step = r.u64()?;
            let action = read_action(&mut r)?;
            let logits = r.f32s()?;
            Frame::Completion { ticket, session, step, action, logits }
        }
        TAG_FAILED => {
            let ticket = r.u64()?;
            let session = r.u64()?;
            Frame::Failed { ticket, session }
        }
        TAG_LEAVE => Frame::Leave { session: r.u64()? },
        TAG_LEAVE_ACK => {
            let session = r.u64()?;
            let unpolled = r.u32()?;
            let dropped = r.u32()?;
            Frame::LeaveAck { session, unpolled, dropped }
        }
        TAG_BYE => Frame::Bye,
        TAG_METRICS_REQUEST => Frame::MetricsRequest,
        TAG_METRICS_REPORT => Frame::MetricsReport { snapshot: r.snapshot()? },
        TAG_EVENTS_REQUEST => Frame::EventsRequest { since_seq: r.u64()? },
        TAG_EVENTS_BATCH => {
            let next_seq = r.u64()?;
            let dropped = r.u64()?;
            let n = r.seq_len(21)?; // smallest event: 8+8+1+4 bytes
            let events = (0..n).map(|_| r.event()).collect::<Result<Vec<TelemetryEvent>, _>>()?;
            Frame::EventsBatch { next_seq, dropped, events }
        }
        t if t >= EXTENSION_TAG_BASE => return Ok(None),
        other => return Err(WireError::UnknownFrame(other)),
    };
    r.finish()?;
    Ok(Some(frame))
}

/// Write one frame to a stream (length prefix + body, single `write_all`).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    Ok(())
}

/// Read the next *known* frame from a stream, skipping extension-range
/// frames per the forward-compatibility rule. Blocks until a frame
/// arrives; a clean EOF before any byte of a frame surfaces as
/// [`WireError::Truncated`] (the connection is gone either way).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    loop {
        let mut len_buf = [0u8; 4];
        r.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(WireError::BadLength(len));
        }
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        if let Some(frame) = decode_frame(&body)? {
            return Ok(frame);
        }
        // Extension frame: skipped, read the next one.
    }
}

/// The version a server answering `Hello { version, min_version }` should
/// ack, or the error a reject must carry: the highest version both ranges
/// contain.
pub fn negotiate(client_version: u16, client_min: u16) -> Result<u16, WireError> {
    let high = client_version.min(WIRE_VERSION);
    if high >= client_min && high >= MIN_WIRE_VERSION {
        Ok(high)
    } else {
        Err(WireError::VersionUnsupported { min: client_min, max: client_version })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_picks_the_highest_common_version() {
        assert_eq!(negotiate(WIRE_VERSION, MIN_WIRE_VERSION).unwrap(), WIRE_VERSION);
        // A newer client that still speaks ours lands on ours.
        assert_eq!(negotiate(WIRE_VERSION + 5, MIN_WIRE_VERSION).unwrap(), WIRE_VERSION);
        // A future-only client is refused with our range.
        assert!(matches!(
            negotiate(WIRE_VERSION + 5, WIRE_VERSION + 3),
            Err(WireError::VersionUnsupported { .. })
        ));
    }

    #[test]
    fn extension_frames_are_skipped_core_unknowns_reject() {
        // 0x90 is an extension tag this build does not know — skip. (0x80
        // through 0x83 are the telemetry frames now, no longer unknown.)
        assert!(matches!(decode_frame(&[0x90, 1, 2, 3]), Ok(None)));
        assert!(matches!(decode_frame(&[0x7f]), Err(WireError::UnknownFrame(0x7f))));
    }

    #[test]
    fn known_extension_frames_decode_instead_of_skipping() {
        assert!(matches!(decode_frame(&[TAG_METRICS_REQUEST]), Ok(Some(Frame::MetricsRequest))));
        let mut body = vec![TAG_EVENTS_REQUEST];
        body.extend_from_slice(&7u64.to_le_bytes());
        assert!(matches!(decode_frame(&body), Ok(Some(Frame::EventsRequest { since_seq: 7 }))));
        // Trailing bytes after a known extension frame are malformed, not
        // skipped — only *unknown* extension tags get the skip treatment.
        assert!(matches!(decode_frame(&[TAG_METRICS_REQUEST, 0xaa]), Err(WireError::Malformed(_))));
    }

    #[test]
    fn stream_roundtrip_skips_interleaved_extension_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Hello { version: 1, min_version: 1 }).unwrap();
        // An extension frame a future peer might emit: length 3, tag 0x90.
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0x90, 0xaa, 0xbb]);
        write_frame(&mut buf, &Frame::Bye).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cur).unwrap(), Frame::Hello { version: 1, .. }));
        assert!(matches!(read_frame(&mut cur).unwrap(), Frame::Bye));
    }

    #[test]
    fn vp_completion_len_is_the_encoded_body_length() {
        for (viewports, logits) in [(0, 0), (1, 3), (20, 12)] {
            let frame = Frame::Completion {
                ticket: 1,
                session: 2,
                step: 3,
                action: FleetAction::Vp(vec![[1.0, 2.0, 3.0]; viewports]),
                logits: vec![0.5; logits],
            };
            assert_eq!(encode_frame(&frame).len() - 4, vp_completion_len(viewports, logits));
        }
    }

    #[test]
    fn zero_and_oversize_lengths_are_rejected() {
        let mut cur = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(read_frame(&mut cur), Err(WireError::BadLength(0))));
        let mut cur = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(matches!(read_frame(&mut cur), Err(WireError::BadLength(_))));
    }
}
