//! Wire-protocol framing invariants: every message type round-trips
//! bit-exactly, truncated or malformed frames are rejected (never
//! panicked on, never silently misread), and version negotiation refuses
//! disjoint ranges.

use netllm::metrics::{
    FaultSnapshot, IngressSnapshot, LatencySnapshot, MetricsSnapshot, PoolDispatchSnapshot,
    ShardSnapshot,
};
use netllm::wire::{
    codec_buffer_capacity, decode_frame, encode_frame, negotiate, read_frame, write_frame,
    BusyReason, Frame, WireError, EXTENSION_TAG_BASE, MAX_FRAME_LEN, MIN_WIRE_VERSION,
    RETAINED_BUF_MAX, WIRE_VERSION,
};
use netllm::{
    CjsObs, EventKind, FleetAction, FleetObs, RefusalReason, SteerReason, TelemetryEvent, VpQuery,
};
use nt_abr::AbrObservation;
use nt_cjs::{Decision, GraphSnapshot};
use nt_tensor::Tensor;
use nt_vp::VpSample;
use proptest::prelude::*;

/// Deterministic pseudo-random values from a seed — enough variety to
/// exercise every field without needing a full Arbitrary impl.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // SplitMix64 step.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f32(&mut self) -> f32 {
        (self.next() % 2_000_000) as f32 / 1000.0 - 1000.0
    }

    fn f64(&mut self) -> f64 {
        (self.next() % 2_000_000) as f64 / 1000.0 - 1000.0
    }

    fn f64s(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.f64()).collect()
    }

    fn f32s(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.f32()).collect()
    }

    fn tensor(&mut self, rows: usize, cols: usize) -> Tensor {
        let data = self.f32s(rows * cols);
        Tensor::from_vec(vec![rows, cols], data)
    }

    fn viewports(&mut self, n: usize) -> Vec<[f32; 3]> {
        (0..n).map(|_| [self.f32(), self.f32(), self.f32()]).collect()
    }

    fn latency(&mut self) -> LatencySnapshot {
        let n = (self.next() % 6) as usize;
        LatencySnapshot {
            count: self.next(),
            total_ns: self.next(),
            max_ns: self.next(),
            buckets: (0..n).map(|_| self.next()).collect(),
        }
    }

    fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let shards = (self.next() % 4) as usize;
        MetricsSnapshot {
            shards: (0..shards)
                .map(|_| ShardSnapshot {
                    served: self.next(),
                    steered: self.next(),
                    steered_in: self.next(),
                    evicted: self.next(),
                    evicted_rebuild_rows: self.next(),
                    queue_depth: self.next(),
                    held_pages: self.next(),
                })
                .collect(),
            pool: PoolDispatchSnapshot {
                workers: self.next(),
                dispatches: self.next(),
                tasks: self.next(),
            },
            faults: FaultSnapshot {
                shard_kills: self.next(),
                sessions_recovered: self.next(),
                tickets_failed: self.next(),
                arrivals_requeued: self.next(),
                recovery_replay_rows: self.next(),
            },
            ingress_latency: self.latency(),
            shard_phases: (0..shards)
                .map(|_| (0..netllm::TICK_PHASES).map(|_| self.latency()).collect())
                .collect(),
            shard_latency: (0..shards).map(|_| self.latency()).collect(),
            served_by_label: vec![
                ("abr".to_string(), self.next()),
                ("cjs".to_string(), self.next()),
            ],
            ingress: IngressSnapshot {
                connections: self.next(),
                sessions_joined: self.next(),
                submits: self.next(),
                busy: self.next(),
                completions: self.next(),
                failed: self.next(),
                failed_on_disconnect: self.next(),
                protocol_errors: self.next(),
                ticks: self.next(),
            },
            pool_free_pages: self.next(),
        }
    }

    fn event(&mut self) -> TelemetryEvent {
        let kind = match self.next() % 6 {
            0 => EventKind::TickSpan {
                shard: self.next() as u32,
                served: self.next() as u32,
                span_ns: self.next(),
            },
            1 => EventKind::Eviction {
                shard: self.next() as u32,
                session: self.next(),
                rebuild_rows: self.next(),
            },
            2 => EventKind::Steer {
                src: self.next() as u32,
                dst: self.next() as u32,
                session: self.next(),
                reason: match self.next() % 3 {
                    0 => SteerReason::Rebalance,
                    1 => SteerReason::OverBudget,
                    _ => SteerReason::Manual,
                },
            },
            3 => EventKind::ShardDead { shard: self.next() as u32 },
            4 => EventKind::Recovery {
                shard: self.next() as u32,
                sessions: self.next() as u32,
                replay_rows: self.next(),
            },
            _ => EventKind::Busy {
                session: self.next(),
                reason: match self.next() % 3 {
                    0 => RefusalReason::QueueFull,
                    1 => RefusalReason::Suspect,
                    _ => RefusalReason::FairnessCap,
                },
            },
        };
        TelemetryEvent { seq: self.next(), clock: self.next(), kind }
    }
}

fn obs_for(kind: u8, g: &mut Gen) -> FleetObs {
    match kind % 3 {
        0 => {
            let th = (g.next() % 9) as usize;
            let dh = (g.next() % 9) as usize;
            FleetObs::Abr(AbrObservation {
                throughput_hist: g.f64s(th),
                delay_hist: g.f64s(dh),
                next_sizes: g.f64s(6),
                buffer_secs: g.f64(),
                last_rung: if g.next().is_multiple_of(2) {
                    None
                } else {
                    Some((g.next() % 6) as usize)
                },
                remain_frac: g.f64(),
                ladder_mbps: g.f64s(6),
                chunk_index: (g.next() % 100) as usize,
            })
        }
        1 => {
            let n = 1 + (g.next() % 5) as usize;
            FleetObs::Cjs(CjsObs {
                snap: GraphSnapshot {
                    n,
                    feats: g.tensor(n, 4),
                    adj: g.tensor(n, n),
                    candidates: (0..n).filter(|_| g.next().is_multiple_of(2)).collect(),
                    free_frac: g.f32(),
                },
                now: g.f64(),
                active_jobs: (g.next() % 20) as usize,
                total_executors: (g.next() % 50) as usize,
            })
        }
        _ => {
            let h = (g.next() % 8) as usize;
            let f = (g.next() % 8) as usize;
            FleetObs::Vp(VpQuery {
                sample: VpSample {
                    history: g.viewports(h),
                    future: g.viewports(f),
                    saliency: g.tensor(2, 3),
                },
                pw: (g.next() % 30) as usize,
            })
        }
    }
}

fn action_for(kind: u8, g: &mut Gen) -> FleetAction {
    match kind % 3 {
        0 => FleetAction::Abr((g.next() % 6) as usize),
        1 => FleetAction::Cjs(Decision {
            candidate: (g.next() % 10) as usize,
            cap: (g.next() % 8) as usize,
        }),
        _ => {
            let n = 1 + (g.next() % 5) as usize;
            FleetAction::Vp(g.viewports(n))
        }
    }
}

/// One frame of each variant, fields driven by the seed. `kind` covers
/// all 18 message types (sub-kinds picked off the seed).
fn frame_for(kind: u8, seed: u64) -> Frame {
    let mut g = Gen(seed);
    match kind % 18 {
        0 => {
            Frame::Hello { min_version: (g.next() % 4) as u16, version: 4 + (g.next() % 8) as u16 }
        }
        1 => Frame::HelloAck { version: g.next() as u16 },
        2 => Frame::HelloReject { min: g.next() as u16, max: g.next() as u16 },
        3 => Frame::Join { group: (g.next() % 3) as u32 },
        4 => Frame::Joined { session: g.next(), shard: g.next() as u32 },
        5 => {
            let session = g.next();
            let kind = g.next() as u8;
            Frame::Submit { session, obs: obs_for(kind, &mut g) }
        }
        6 => Frame::TicketGrant { session: g.next(), ticket: g.next() },
        7 => Frame::Busy {
            session: g.next(),
            reason: if g.next().is_multiple_of(2) {
                BusyReason::QueueFull
            } else {
                BusyReason::ShardSuspect
            },
            retry_after_ms: g.next() as u32,
        },
        8 => {
            let (ticket, session, step) = (g.next(), g.next(), g.next());
            let kind = g.next() as u8;
            let action = action_for(kind, &mut g);
            let n = (g.next() % 20) as usize;
            Frame::Completion { ticket, session, step, action, logits: g.f32s(n) }
        }
        9 => Frame::Failed { ticket: g.next(), session: g.next() },
        10 => Frame::Leave { session: g.next() },
        11 => Frame::LeaveAck {
            session: g.next(),
            unpolled: (g.next() % 5) as u32,
            dropped: (g.next() % 5) as u32,
        },
        12 => Frame::Bye,
        13 => {
            let session = g.next();
            let kind = g.next() as u8;
            Frame::Submit { session, obs: obs_for(kind, &mut g) }
        }
        14 => Frame::MetricsRequest,
        15 => Frame::MetricsReport { snapshot: g.metrics_snapshot() },
        16 => Frame::EventsRequest { since_seq: g.next() },
        _ => {
            let n = (g.next() % 8) as usize;
            Frame::EventsBatch {
                next_seq: g.next(),
                dropped: g.next(),
                events: (0..n).map(|_| g.event()).collect(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is the identity on bytes, for every
    /// message type. (Byte equality implies value equality: the encoding
    /// is injective, so comparing re-encodings sidesteps the missing
    /// `PartialEq` on tensors.)
    #[test]
    fn every_frame_roundtrips_bit_exactly(kind in 0u8..18, seed in 0u64..u64::MAX) {
        let frame = frame_for(kind, seed);
        let bytes = encode_frame(&frame);
        // Length prefix covers exactly the body.
        let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
        prop_assert_eq!(len, bytes.len() - 4);
        let decoded = decode_frame(&bytes[4..])
            .expect("well-formed frame decodes")
            .expect("core frame is not skipped");
        prop_assert_eq!(encode_frame(&decoded), bytes);
    }

    /// Every strict prefix of a frame body is rejected — a cut anywhere
    /// never panics and never yields a bogus frame.
    #[test]
    fn truncated_bodies_are_rejected(kind in 0u8..18, seed in 0u64..u64::MAX) {
        let frame = frame_for(kind, seed);
        let bytes = encode_frame(&frame);
        let body = &bytes[4..];
        // Dense scan near the front (where tags and counts live), sparse
        // beyond, so huge Submit frames don't make the case quadratic.
        let mut cut = 0usize;
        while cut < body.len() {
            prop_assert!(
                decode_frame(&body[..cut]).is_err(),
                "prefix of {} bytes decoded", cut
            );
            cut += 1 + cut / 8;
        }
    }

    /// A stream cut anywhere mid-frame surfaces `Truncated`, not a hang
    /// or a panic.
    #[test]
    fn truncated_streams_are_rejected(kind in 0u8..18, seed in 0u64..u64::MAX, frac in 0u32..1000) {
        let frame = frame_for(kind, seed);
        let bytes = encode_frame(&frame);
        let cut = (bytes.len() - 1) * frac as usize / 1000;
        let mut cur = std::io::Cursor::new(bytes[..cut].to_vec());
        prop_assert!(matches!(read_frame(&mut cur), Err(WireError::Truncated)));
    }

    /// Appending garbage to any frame body breaks the exact-consumption
    /// rule.
    #[test]
    fn trailing_bytes_are_rejected(kind in 0u8..18, seed in 0u64..u64::MAX) {
        let frame = frame_for(kind, seed);
        let bytes = encode_frame(&frame);
        let mut body = bytes[4..].to_vec();
        body.push(0x5a);
        prop_assert!(matches!(decode_frame(&body), Err(WireError::Malformed(_))));
    }
}

#[test]
fn version_mismatch_is_refused_with_the_servers_range() {
    // Entirely-above and entirely-below ranges both fail...
    assert!(matches!(
        negotiate(WIRE_VERSION + 7, WIRE_VERSION + 2),
        Err(WireError::VersionUnsupported { min, max })
            if min == WIRE_VERSION + 2 && max == WIRE_VERSION + 7
    ));
    if MIN_WIRE_VERSION > 0 {
        assert!(negotiate(MIN_WIRE_VERSION - 1, 0).is_err());
    }
    // ...overlapping ranges land on the highest common version.
    assert_eq!(negotiate(WIRE_VERSION + 3, WIRE_VERSION).unwrap(), WIRE_VERSION);
    assert_eq!(negotiate(WIRE_VERSION, MIN_WIRE_VERSION).unwrap(), WIRE_VERSION);
}

#[test]
fn malformed_payloads_are_rejected_not_panicked_on() {
    // An inverted Hello range.
    let hello = encode_frame(&Frame::Hello { version: 1, min_version: 1 });
    let mut body = hello[4..].to_vec();
    body[1..3].copy_from_slice(&5u16.to_le_bytes()); // version = 5
    body[3..5].copy_from_slice(&9u16.to_le_bytes()); // min = 9 > version
    assert!(matches!(decode_frame(&body), Err(WireError::Malformed(_))));

    // A Busy frame with an unknown reason byte.
    let busy =
        encode_frame(&Frame::Busy { session: 1, reason: BusyReason::QueueFull, retry_after_ms: 5 });
    let mut body = busy[4..].to_vec();
    body[9] = 0xee; // reason byte (tag + 8-byte session)
    assert!(matches!(decode_frame(&body), Err(WireError::Malformed(_))));

    // A Submit whose observation tag is unknown.
    let mut g = Gen(7);
    let submit = encode_frame(&Frame::Submit { session: 3, obs: obs_for(0, &mut g) });
    let mut body = submit[4..].to_vec();
    body[9] = 0xee; // obs tag
    assert!(matches!(decode_frame(&body), Err(WireError::Malformed(_))));

    // A hostile sequence count (u32::MAX elements) must be caught by the
    // bounded-allocation check, not attempted.
    let completion = encode_frame(&Frame::Completion {
        ticket: 1,
        session: 2,
        step: 0,
        action: FleetAction::Abr(3),
        logits: vec![1.0],
    });
    let mut body = completion[4..].to_vec();
    let logits_count_at = body.len() - 4 - 4; // count then one f32
    body[logits_count_at..logits_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_frame(&body).is_err());
}

#[test]
fn unknown_core_tags_reject_extension_tags_skip() {
    assert!(matches!(decode_frame(&[0x7e, 0, 0]), Err(WireError::UnknownFrame(0x7e))));
    // 0x80–0x83 are now the telemetry frames; an *unknown* extension tag
    // still skips, payload unread.
    assert!(matches!(decode_frame(&[0x90, 0, 0]), Ok(None)));
    assert!(matches!(decode_frame(&[0xff]), Ok(None)));
}

#[test]
fn telemetry_frames_reject_hostile_counts_and_trailers() {
    // MetricsReport with its shard count rewritten to u32::MAX: the
    // bounded-allocation check must refuse before allocating.
    let mut g = Gen(0xB10C);
    let report = encode_frame(&Frame::MetricsReport { snapshot: g.metrics_snapshot() });
    let mut body = report[4..].to_vec();
    body[1..5].copy_from_slice(&u32::MAX.to_le_bytes()); // shards count after tag
    assert!(decode_frame(&body).is_err());

    // EventsBatch with a hostile event count.
    let batch =
        encode_frame(&Frame::EventsBatch { next_seq: 9, dropped: 2, events: vec![g.event()] });
    let mut body = batch[4..].to_vec();
    body[17..21].copy_from_slice(&u32::MAX.to_le_bytes()); // count after tag+2×u64
    assert!(decode_frame(&body).is_err());

    // An event with an unknown kind byte is Malformed, not skipped.
    let batch = encode_frame(&Frame::EventsBatch {
        next_seq: 1,
        dropped: 0,
        events: vec![TelemetryEvent { seq: 0, clock: 0, kind: EventKind::ShardDead { shard: 1 } }],
    });
    let mut body = batch[4..].to_vec();
    body[21 + 16] = 0xee; // first event's kind byte (tag+2×u64+count, then seq+clock)
    assert!(matches!(decode_frame(&body), Err(WireError::Malformed(_))));

    // A *known* extension frame with trailing bytes is Malformed — the
    // must-skip rule is only for tags we do not implement.
    let request = encode_frame(&Frame::MetricsRequest);
    let mut body = request[4..].to_vec();
    body.push(0xaa);
    assert!(matches!(decode_frame(&body), Err(WireError::Malformed(_))));
}

/// A PR 8-era reader: every extension-range tag is unknown to it, so the
/// forward-compat rule says skip the frame wholesale and keep reading.
/// (This reproduces the old `decode_frame`'s early `tag >=
/// EXTENSION_TAG_BASE → Ok(None)` exactly, delegating core tags to the
/// current decoder, which did not change for them.)
fn old_peer_read_frame<R: std::io::Read>(r: &mut R) -> Result<Frame, WireError> {
    loop {
        let mut len_buf = [0u8; 4];
        r.read_exact(&mut len_buf).map_err(|_| WireError::Truncated)?;
        let len = u32::from_le_bytes(len_buf);
        assert!(len > 0 && len <= MAX_FRAME_LEN);
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body).map_err(|_| WireError::Truncated)?;
        if body[0] >= EXTENSION_TAG_BASE {
            continue; // unknown extension frame: skip, never parse
        }
        if let Some(frame) = decode_frame(&body)? {
            return Ok(frame);
        }
    }
}

#[test]
fn old_peer_skips_telemetry_frames_unharmed() {
    // A stream a telemetry-aware server might emit: a metrics report and
    // an events batch interleaved with core frames. The old reader must
    // deliver exactly the core frames, in order.
    let mut g = Gen(0x01D);
    let mut buf = Vec::new();
    write_frame(&mut buf, &Frame::Joined { session: 7, shard: 1 }).unwrap();
    write_frame(&mut buf, &Frame::MetricsReport { snapshot: g.metrics_snapshot() }).unwrap();
    write_frame(
        &mut buf,
        &Frame::EventsBatch {
            next_seq: 40,
            dropped: 3,
            events: (0..5).map(|_| g.event()).collect(),
        },
    )
    .unwrap();
    write_frame(&mut buf, &Frame::TicketGrant { session: 7, ticket: 99 }).unwrap();
    write_frame(&mut buf, &Frame::MetricsRequest).unwrap();
    write_frame(&mut buf, &Frame::Bye).unwrap();

    let mut cur = std::io::Cursor::new(buf);
    assert!(matches!(
        old_peer_read_frame(&mut cur).unwrap(),
        Frame::Joined { session: 7, shard: 1 }
    ));
    assert!(matches!(
        old_peer_read_frame(&mut cur).unwrap(),
        Frame::TicketGrant { session: 7, ticket: 99 }
    ));
    assert!(matches!(old_peer_read_frame(&mut cur).unwrap(), Frame::Bye));
    assert!(matches!(old_peer_read_frame(&mut cur), Err(WireError::Truncated)));
}

#[test]
fn oversize_length_prefix_is_rejected_before_allocating() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    let mut cur = std::io::Cursor::new(bytes);
    assert!(matches!(read_frame(&mut cur), Err(WireError::BadLength(_))));
}

#[test]
fn frames_concatenate_on_a_stream() {
    let mut buf = Vec::new();
    for kind in 0..18u8 {
        write_frame(&mut buf, &frame_for(kind, 42)).unwrap();
    }
    let mut cur = std::io::Cursor::new(buf);
    for kind in 0..18u8 {
        let expect = encode_frame(&frame_for(kind, 42));
        let got = encode_frame(&read_frame(&mut cur).unwrap());
        assert_eq!(got, expect, "frame kind {kind} did not survive the stream");
    }
    assert!(matches!(read_frame(&mut cur), Err(WireError::Truncated)));
}

/// `write_frame` and `read_frame` reuse one buffer per thread: a large
/// `MetricsReport` followed by small frames writes exactly
/// `encode_frame`'s bytes for each (no stale tail of the large one), a
/// stream of the same frames decodes to them, and after the oversized body
/// neither buffer keeps more than `RETAINED_BUF_MAX`.
#[test]
fn reused_codec_buffers_keep_the_bytes_and_shrink_after_a_large_frame() {
    let mut snapshot = Gen(9).metrics_snapshot();
    snapshot.ingress_latency.buckets = (0..(RETAINED_BUF_MAX as u64)).collect();
    let large = Frame::MetricsReport { snapshot };
    let frames: Vec<Frame> =
        std::iter::once(large).chain((0..18u8).map(|kind| frame_for(kind, 7))).collect();
    assert!(encode_frame(&frames[0]).len() > 4 * RETAINED_BUF_MAX, "the report is oversized");

    let mut stream = Vec::new();
    for (i, frame) in frames.iter().enumerate() {
        let mut image = Vec::new();
        write_frame(&mut image, frame).unwrap();
        assert_eq!(image, encode_frame(frame), "frame {i} written with other bytes");
        assert!(codec_buffer_capacity().0 <= RETAINED_BUF_MAX, "encode buffer kept frame {i}");
        stream.extend_from_slice(&image);
    }

    let mut cur = std::io::Cursor::new(stream);
    for (i, frame) in frames.iter().enumerate() {
        let got = read_frame(&mut cur).unwrap();
        assert_eq!(encode_frame(&got), encode_frame(frame), "frame {i} decoded differently");
        assert!(codec_buffer_capacity().1 <= RETAINED_BUF_MAX, "body buffer kept frame {i}");
    }
    assert!(matches!(read_frame(&mut cur), Err(WireError::Truncated)));
}

/// The frame bytes, pinned: the full wire image (length prefix included)
/// of one frame of every kind over a fixed seed list, folded into one
/// FNV-1a digest. The round-trip tests above pass for any layout a change
/// alters the same way on both sides; this one does not. A change that
/// keeps the protocol must pass it unchanged; a change that moves a byte
/// is a protocol change (`docs/PROTOCOL.md`) and bumps the version.
#[test]
fn frame_bytes_are_pinned() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = 0usize;
    for kind in 0..18u8 {
        for seed in [1, 2, 3, 0xdead_beef, 77, 12345] {
            let image = encode_frame(&frame_for(kind, seed));
            bytes += image.len();
            for &b in &image {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(bytes, 8796, "frame images changed length");
    assert_eq!(hash, 0xfb91_4c85_565c_5c48, "frame bytes moved: got {hash:#018x}");
}
