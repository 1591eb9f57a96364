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
//! table lives in `docs/PROTOCOL.md`; the normative form is the field
//! lists below (`wire_struct!` / `wire_enum!`). Each payload's field
//! order and each tag is stated once, and the private `Wire` trait
//! derives the encoder, the decoder and `MIN_LEN` — the fewest bytes a
//! value takes — from it, so every hostile-count bound is derived, not
//! counted by hand. `tests/wire_proto.rs` round-trips every message type
//! and pins the bytes of every frame kind by digest
//! (`frame_bytes_are_pinned`).
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
use std::cell::Cell;
use std::io::{Read, Write};
use std::thread::LocalKey;

/// Highest protocol version this build speaks.
pub const WIRE_VERSION: u16 = 1;
/// Lowest protocol version this build still accepts.
pub const MIN_WIRE_VERSION: u16 = 1;

/// Hard ceiling on one frame's length prefix: a malformed or hostile
/// length cannot make the receiver allocate unboundedly.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Body length of a [`Frame::Completion`] whose VP answer holds
/// `viewports` viewports beside `logits` floats: tag, ticket, session,
/// step, action tag, then both length-prefixed sequences. The front door
/// sizes the longest admissible horizon with it (`NetLlmVp::max_horizon`).
pub(crate) const fn vp_completion_len(viewports: usize, logits: usize) -> usize {
    u8::MIN_LEN
        + 3 * u64::MIN_LEN
        + u8::MIN_LEN
        + Vec::<Viewport>::MIN_LEN
        + viewports * Viewport::MIN_LEN
        + Vec::<f32>::MIN_LEN
        + logits * f32::MIN_LEN
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

// ---- the codec ----------------------------------------------------------

/// Cursor over one frame's body. Every read checks the remaining length
/// first, so a truncated or hostile payload fails cleanly instead of
/// panicking or over-allocating.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
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

    /// A `u32` element count whose elements, `min_len` bytes each at
    /// least, must still fit in the payload — a hostile count cannot
    /// force a huge allocation.
    fn count(&mut self, min_len: usize) -> Result<usize, WireError> {
        let n = u32::read(self)? as usize;
        if n.saturating_mul(min_len) > self.remaining() {
            return Err(WireError::Malformed("sequence length exceeds payload"));
        }
        Ok(n)
    }
}

/// One wire shape: how a value is written, how it is read back, and the
/// fewest bytes any value of it takes — the bound a `vec<T>` count is
/// checked against before allocating.
trait Wire: Sized {
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn read(r: &mut Reader) -> Result<Self, WireError>;
}

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read(r: &mut Reader) -> Result<Self, WireError> {
                let bytes = r.take(Self::MIN_LEN)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns MIN_LEN bytes")))
            }
        }
    )*};
}

wire_le!(u8, u16, u32, u64, f32, f64);

impl Wire for usize {
    const MIN_LEN: usize = u64::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        usize::try_from(u64::read(r)?)
            .map_err(|_| WireError::Malformed("usize overflows this platform"))
    }
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    assert!(n <= u32::MAX as usize, "sequence too long for the wire");
    (n as u32).put(out);
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        for x in self {
            x.put(out);
        }
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.count(T::MIN_LEN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::read(r)?);
        }
        Ok(v)
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = u8::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        match u8::read(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::read(r)?)),
            _ => Err(WireError::Malformed("bad Option tag")),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_LEN: usize = A::MIN_LEN + B::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::read(r)?, B::read(r)?))
    }
}

impl Wire for Viewport {
    const MIN_LEN: usize = 3 * f32::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        self.iter().for_each(|c| c.put(out));
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        Ok([f32::read(r)?, f32::read(r)?, f32::read(r)?])
    }
}

impl Wire for String {
    const MIN_LEN: usize = u32::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_count(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.count(u8::MIN_LEN)?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|_| WireError::Malformed("label is not UTF-8"))
    }
}

/// Rank (`u8`), dims (`u32` each), then row-major `f32` data — the element
/// count is implied by the dims, so it cannot disagree.
impl Wire for Tensor {
    /// A rank byte and one dim, or at rank 0 one float.
    const MIN_LEN: usize = u8::MIN_LEN + u32::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        let shape = self.shape();
        assert!(shape.len() <= u8::MAX as usize, "tensor rank too high for the wire");
        out.push(shape.len() as u8);
        for &d in shape {
            assert!(d <= u32::MAX as usize, "tensor dim too large for the wire");
            (d as u32).put(out);
        }
        self.data().iter().for_each(|x| x.put(out));
    }
    fn read(r: &mut Reader) -> Result<Self, WireError> {
        let rank = u8::read(r)? as usize;
        let mut shape = Vec::with_capacity(rank);
        let mut numel = 1usize;
        for _ in 0..rank {
            let d = u32::read(r)? as usize;
            numel = numel
                .checked_mul(d)
                .ok_or(WireError::Malformed("tensor element count overflows"))?;
            shape.push(d);
        }
        if numel.saturating_mul(f32::MIN_LEN) > r.remaining() {
            return Err(WireError::Malformed("tensor data exceeds payload"));
        }
        let data = (0..numel).map(|_| f32::read(r)).collect::<Result<Vec<f32>, _>>()?;
        Ok(Tensor::from_vec(shape, data))
    }
}

/// The smallest of `lens` (a tagged enum's lightest variant).
const fn min_of(lens: &[usize]) -> usize {
    let (mut i, mut m) = (0, usize::MAX);
    while i < lens.len() {
        if lens[i] < m {
            m = lens[i];
        }
        i += 1;
    }
    m
}

/// A struct's layout: its fields in wire order.
macro_rules! wire_struct {
    ($($ty:ident { $($f:ident: $t:ty),* $(,)? })*) => {$(
        impl Wire for $ty {
            const MIN_LEN: usize = 0 $(+ <$t as Wire>::MIN_LEN)*;
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }
            fn read(r: &mut Reader) -> Result<Self, WireError> {
                Ok($ty { $($f: <$t as Wire>::read(r)?),* })
            }
        }
    )*};
}

/// A tagged enum's layout: a `u8` tag, then the variant's fields in wire
/// order. `$unknown => $err` names the error for a tag outside the list.
/// Variants carry either one unnamed value or named fields (`{}` for none).
macro_rules! wire_enum {
    ($ty:ident, $unknown:pat => $err:expr, { $($tag:tt => $v:ident($t:ty)),* $(,)? }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 1 + min_of(&[$(<$t as Wire>::MIN_LEN),*]);
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v(x) => {
                        out.push($tag);
                        x.put(out);
                    })*
                }
            }
            fn read(r: &mut Reader) -> Result<Self, WireError> {
                match u8::read(r)? {
                    $($tag => Ok($ty::$v(<$t as Wire>::read(r)?)),)*
                    $unknown => Err($err),
                }
            }
        }
    };
    ($ty:ident, $unknown:pat => $err:expr, {
        $($tag:tt => $v:ident { $($f:ident: $t:ty),* $(,)? }),* $(,)?
    }) => {
        impl Wire for $ty {
            const MIN_LEN: usize = 1 + min_of(&[$(0 $(+ <$t as Wire>::MIN_LEN)*),*]);
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v { $($f),* } => {
                        out.push($tag);
                        $($f.put(out);)*
                    })*
                }
            }
            fn read(r: &mut Reader) -> Result<Self, WireError> {
                match u8::read(r)? {
                    $($tag => Ok($ty::$v { $($f: <$t as Wire>::read(r)?),* }),)*
                    $unknown => Err($err),
                }
            }
        }
    };
}

// ---- the layouts (`docs/PROTOCOL.md` tabulates the same lists) ----------

wire_struct! {
    AbrObservation {
        throughput_hist: Vec<f64>,
        delay_hist: Vec<f64>,
        next_sizes: Vec<f64>,
        buffer_secs: f64,
        last_rung: Option<usize>,
        remain_frac: f64,
        ladder_mbps: Vec<f64>,
        chunk_index: usize,
    }
    GraphSnapshot { n: usize, feats: Tensor, adj: Tensor, candidates: Vec<usize>, free_frac: f32 }
    CjsObs { snap: GraphSnapshot, now: f64, active_jobs: usize, total_executors: usize }
    VpSample { history: Vec<Viewport>, future: Vec<Viewport>, saliency: Tensor }
    VpQuery { sample: VpSample, pw: usize }
    Decision { candidate: usize, cap: usize }
    ShardSnapshot {
        served: u64,
        steered: u64,
        steered_in: u64,
        evicted: u64,
        evicted_rebuild_rows: u64,
        queue_depth: u64,
        held_pages: u64,
    }
    PoolDispatchSnapshot { workers: u64, dispatches: u64, tasks: u64 }
    FaultSnapshot {
        shard_kills: u64,
        sessions_recovered: u64,
        tickets_failed: u64,
        arrivals_requeued: u64,
        recovery_replay_rows: u64,
    }
    LatencySnapshot { count: u64, total_ns: u64, max_ns: u64, buckets: Vec<u64> }
    IngressSnapshot {
        connections: u64,
        sessions_joined: u64,
        submits: u64,
        busy: u64,
        completions: u64,
        failed: u64,
        failed_on_disconnect: u64,
        protocol_errors: u64,
        ticks: u64,
    }
    MetricsSnapshot {
        shards: Vec<ShardSnapshot>,
        pool: PoolDispatchSnapshot,
        faults: FaultSnapshot,
        ingress_latency: LatencySnapshot,
        shard_phases: Vec<Vec<LatencySnapshot>>,
        shard_latency: Vec<LatencySnapshot>,
        served_by_label: Vec<(String, u64)>,
        ingress: IngressSnapshot,
        pool_free_pages: u64,
    }
    TelemetryEvent { seq: u64, clock: u64, kind: EventKind }
}

wire_enum!(FleetObs, _ => WireError::Malformed("unknown observation tag"), {
    0 => Abr(AbrObservation),
    1 => Cjs(CjsObs),
    2 => Vp(VpQuery),
});

wire_enum!(FleetAction, _ => WireError::Malformed("unknown action tag"), {
    0 => Abr(usize),
    1 => Cjs(Decision),
    2 => Vp(Vec<Viewport>),
});

wire_enum!(BusyReason, _ => WireError::Malformed("unknown busy reason"), {
    0 => QueueFull {},
    1 => ShardSuspect {},
});

wire_enum!(SteerReason, _ => WireError::Malformed("unknown steer reason"), {
    0 => Rebalance {},
    1 => OverBudget {},
    2 => Manual {},
});

wire_enum!(RefusalReason, _ => WireError::Malformed("unknown refusal reason"), {
    0 => QueueFull {},
    1 => Suspect {},
    2 => FairnessCap {},
});

wire_enum!(EventKind, _ => WireError::Malformed("unknown event kind"), {
    0 => TickSpan { shard: u32, served: u32, span_ns: u64 },
    1 => Eviction { shard: u32, session: u64, rebuild_rows: u64 },
    2 => Steer { src: u32, dst: u32, session: u64, reason: SteerReason },
    3 => ShardDead { shard: u32 },
    4 => Recovery { shard: u32, sessions: u32, replay_rows: u64 },
    5 => Busy { session: u64, reason: RefusalReason },
});

wire_enum!(Frame, tag => WireError::UnknownFrame(tag), {
    TAG_HELLO => Hello { version: u16, min_version: u16 },
    TAG_HELLO_ACK => HelloAck { version: u16 },
    TAG_HELLO_REJECT => HelloReject { min: u16, max: u16 },
    TAG_JOIN => Join { group: u32 },
    TAG_JOINED => Joined { session: u64, shard: u32 },
    TAG_SUBMIT => Submit { session: u64, obs: FleetObs },
    TAG_TICKET => TicketGrant { session: u64, ticket: u64 },
    TAG_BUSY => Busy { session: u64, reason: BusyReason, retry_after_ms: u32 },
    TAG_COMPLETION => Completion {
        ticket: u64,
        session: u64,
        step: u64,
        action: FleetAction,
        logits: Vec<f32>,
    },
    TAG_FAILED => Failed { ticket: u64, session: u64 },
    TAG_LEAVE => Leave { session: u64 },
    TAG_LEAVE_ACK => LeaveAck { session: u64, unpolled: u32, dropped: u32 },
    TAG_BYE => Bye {},
    TAG_METRICS_REQUEST => MetricsRequest {},
    TAG_METRICS_REPORT => MetricsReport { snapshot: MetricsSnapshot },
    TAG_EVENTS_REQUEST => EventsRequest { since_seq: u64 },
    TAG_EVENTS_BATCH => EventsBatch { next_seq: u64, dropped: u64, events: Vec<TelemetryEvent> },
});

// ---- frame codec --------------------------------------------------------

/// Capacity a thread's reused codec buffer keeps between frames: after a
/// frame larger than this (up to [`MAX_FRAME_LEN`]) the buffer shrinks
/// back to it, so one oversized report does not pin its size for the
/// thread's life.
pub const RETAINED_BUF_MAX: usize = 64 << 10;

thread_local! {
    /// [`write_frame`]'s encode buffer and [`read_frame`]'s body buffer,
    /// one each per thread. Taken out for the duration of one frame, so
    /// a nested call finds an empty one instead of a borrowed one.
    static ENCODE_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    static DECODE_BUF: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Run `f` on this thread's buffer `key`, emptied, and put it back with
/// at most [`RETAINED_BUF_MAX`] bytes of capacity.
fn with_buf<T>(key: &'static LocalKey<Cell<Vec<u8>>>, f: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    let mut buf = key.take();
    let out = f(&mut buf);
    buf.clear();
    buf.shrink_to(RETAINED_BUF_MAX);
    key.set(buf);
    out
}

/// Capacity, in bytes, of the calling thread's two reused codec buffers
/// (encode, body) between frames; each is at most [`RETAINED_BUF_MAX`].
pub fn codec_buffer_capacity() -> (usize, usize) {
    let cap = |key: &'static LocalKey<Cell<Vec<u8>>>| with_buf(key, |b| b.capacity());
    (cap(&ENCODE_BUF), cap(&DECODE_BUF))
}

/// Append one frame's full wire image (length prefix included) to `out`.
fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    frame.put(out);
    let len = out.len() - start - 4;
    assert!(len as u64 <= MAX_FRAME_LEN as u64, "frame exceeds MAX_FRAME_LEN");
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Encode one frame as its full wire image (length prefix included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(frame, &mut out);
    out
}

/// Decode one frame body (the bytes the length prefix covers: tag +
/// payload). `Ok(None)` means an extension-range frame this build must
/// skip (the forward-compatibility rule — *known* extension frames like
/// the telemetry scrapes decode normally); core-range unknowns are
/// [`WireError::UnknownFrame`].
pub fn decode_frame(body: &[u8]) -> Result<Option<Frame>, WireError> {
    let mut r = Reader { buf: body, pos: 0 };
    let frame = match Frame::read(&mut r) {
        Err(WireError::UnknownFrame(tag)) if tag >= EXTENSION_TAG_BASE => return Ok(None),
        frame => frame?,
    };
    if let Frame::Hello { version, min_version } = frame {
        if min_version > version {
            return Err(WireError::Malformed("hello range inverted"));
        }
    }
    // Decoding must consume the payload exactly: trailing bytes mean the
    // sender and receiver disagree about the layout.
    if r.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes after payload"));
    }
    Ok(Some(frame))
}

/// Write one frame to a stream (length prefix + body, single `write_all`),
/// encoded into the calling thread's reused buffer: the bytes are
/// [`encode_frame`]'s, without a fresh `Vec` per frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    with_buf(&ENCODE_BUF, |buf| {
        encode_into(frame, buf);
        w.write_all(buf)
    })?;
    Ok(())
}

/// Read the next *known* frame from a stream, skipping extension-range
/// frames per the forward-compatibility rule. Blocks until a frame
/// arrives; a clean EOF before any byte of a frame surfaces as
/// [`WireError::Truncated`] (the connection is gone either way). Each
/// body is read into the calling thread's reused buffer.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    loop {
        let mut len_buf = [0u8; 4];
        r.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf);
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(WireError::BadLength(len));
        }
        let frame = with_buf(&DECODE_BUF, |body| {
            body.resize(len as usize, 0);
            r.read_exact(body)?;
            decode_frame(body)
        })?;
        if let Some(frame) = frame {
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
