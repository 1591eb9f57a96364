//! Event journal: a bounded, overwrite-oldest ring of structured serving
//! events (tick spans, evictions, steers, faults, refusals), each stamped
//! with a monotonic sequence number and the fleet logical clock.
//!
//! The counters in [`crate::metrics`] answer "how much"; this journal
//! answers "what happened, in what order". The writer side is the
//! scheduler thread plus the ingress refusal path: [`TelemetryRing::record`]
//! never waits for space or reader pace and never allocates per event
//! (events are `Copy`, slots are preallocated). Readers are cursors —
//! [`TelemetryRing::drain`] returns everything still resident at or after
//! `since_seq`, the next cursor to pass, and an exact count of events the
//! cursor passed over that were already overwritten. Dropped events are a
//! counted, first-class outcome, not a silent gap.
//!
//! The crate forbids `unsafe`, so the ring is a vector of per-slot mutexes
//! rather than a seqlock: a writer's critical section is one `Option`
//! store (bounded, uncontended unless a reader holds that exact slot), so
//! "never blocks" here means "never waits on anything unbounded" — there
//! is no condition variable, no channel, no backpressure from readers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a session was steered between shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SteerReason {
    /// Occupancy rebalance (e.g. on leave) moved it off the hottest shard.
    Rebalance = 0,
    /// The budget steering pass moved it off a shard holding more pool
    /// pages than the `PageAware` budget.
    OverBudget = 1,
    /// An explicit [`crate::ShardedServer::steer`] call (operator or test).
    Manual = 2,
}

/// Why a submit was refused with `Frame::Busy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefusalReason {
    /// The session's shard queue was full.
    QueueFull = 0,
    /// The session's shard was health-Suspect and shedding load.
    Suspect = 1,
    /// The connection hit its per-connection open-ticket fairness cap.
    FairnessCap = 2,
}

/// One journal event's payload. Fixed-size and `Copy` so recording one
/// never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// One shard's slice of a scheduled tick: how many decisions it
    /// served and how long its plan+step phase ran.
    TickSpan {
        /// Shard index.
        shard: u32,
        /// Decisions served by this shard this tick.
        served: u32,
        /// Wall-ns of this shard's plan+step phase.
        span_ns: u64,
    },
    /// A session's KV cache was evicted under memory pressure.
    Eviction {
        /// Shard the cache lived on.
        shard: u32,
        /// The evicted session.
        session: u64,
        /// Replay rows the eviction priced (see
        /// [`crate::metrics::ShardSnapshot::evicted_rebuild_rows`]).
        rebuild_rows: u64,
    },
    /// A session was steered between shards.
    Steer {
        /// Source shard.
        src: u32,
        /// Destination shard.
        dst: u32,
        /// The steered session.
        session: u64,
        /// What triggered the move.
        reason: SteerReason,
    },
    /// The health checker declared a shard Dead.
    ShardDead {
        /// The dead shard.
        shard: u32,
    },
    /// A dead shard's sessions were salvaged onto survivors.
    Recovery {
        /// The recovered (dead) shard.
        shard: u32,
        /// Sessions re-admitted.
        sessions: u32,
        /// KV rows destroyed that episode-log replay must rebuild.
        replay_rows: u64,
    },
    /// A submit was refused with `Frame::Busy`.
    Busy {
        /// The refused session.
        session: u64,
        /// Why it was refused.
        reason: RefusalReason,
    },
}

/// One journal entry: a monotonic sequence number, the fleet logical
/// clock (`ShardedServer` tick count) at record time, and the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Monotonic sequence number (dense: every allocated number is
    /// eventually delivered to a cursor or counted dropped).
    pub seq: u64,
    /// Fleet logical clock (tick count) when the event was recorded.
    pub clock: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// One [`TelemetryRing::drain`] result: the resident events at or after
/// the cursor, where the cursor should move next, and how many events the
/// cursor passed over that were already overwritten.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EventsView {
    /// Resident events, in sequence order.
    pub events: Vec<TelemetryEvent>,
    /// Pass this as the next `since_seq` to continue where this batch
    /// stopped.
    pub next_seq: u64,
    /// Events in `[since_seq, next_seq)` that were overwritten before
    /// this drain saw them.
    pub dropped: u64,
}

/// Bounded, overwrite-oldest event journal. See the module docs for the
/// write/read contract.
#[derive(Debug)]
pub struct TelemetryRing {
    slots: Vec<Mutex<Option<TelemetryEvent>>>,
    /// Next sequence number to allocate (== total events ever recorded).
    head: AtomicU64,
    /// Events lost to overwrite before any reader saw them.
    dropped: AtomicU64,
}

impl TelemetryRing {
    /// A ring holding at most `capacity` resident events (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "telemetry ring needs at least one slot");
        TelemetryRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Resident capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever allocated a sequence number (== the next one).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Total events lost to overwrite so far.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one event at logical clock `clock`. Returns its sequence
    /// number, or `None` when the event lost an
    /// overwrite race to a newer one (which counts it dropped — every
    /// allocated sequence number is accounted for exactly once).
    pub fn record(&self, clock: u64, kind: EventKind) -> Option<u64> {
        let seq = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut g = slot.lock().unwrap();
        match *g {
            // A full wrap overtook us mid-record: the resident event is
            // newer, so *this* event is the dropped one. Never replace a
            // newer event with an older one — slot sequences only grow,
            // which is what keeps drain's accounting exact.
            Some(old) if old.seq > seq => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
            resident => {
                if resident.is_some() {
                    // Overwrite-oldest: the resident (older) event is
                    // dropped.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                *g = Some(TelemetryEvent { seq, clock, kind });
                Some(seq)
            }
        }
    }

    /// Drain everything resident at or after `since_seq`. Each sequence
    /// number the cursor passes is classified exactly once — delivered in
    /// [`EventsView::events`] or counted in [`EventsView::dropped`]. A
    /// slot whose writer is still mid-record truncates the batch there
    /// (its sequence number stays ahead of [`EventsView::next_seq`], so
    /// the next drain picks it up — nothing is miscounted as dropped).
    pub fn drain(&self, since_seq: u64) -> EventsView {
        let head = self.head.load(Ordering::Acquire);
        if since_seq >= head {
            return EventsView { events: Vec::new(), next_seq: since_seq, dropped: 0 };
        }
        let cap = self.slots.len() as u64;
        let lo = since_seq.max(head.saturating_sub(cap));
        let mut dropped = lo - since_seq;
        let mut events = Vec::with_capacity((head - lo) as usize);
        let mut next = lo;
        for i in lo..head {
            let g = self.slots[(i % cap) as usize].lock().unwrap();
            match *g {
                Some(ev) if ev.seq == i => {
                    events.push(ev);
                    next = i + 1;
                }
                Some(ev) if ev.seq > i => {
                    dropped += 1;
                    next = i + 1;
                }
                // Empty or older than `i`: the writer for `i` is still in
                // flight — stop here rather than guess.
                _ => break,
            }
        }
        EventsView { events, next_seq: next, dropped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(session: u64) -> EventKind {
        EventKind::Busy { session, reason: RefusalReason::QueueFull }
    }

    #[test]
    fn drain_by_cursor_delivers_in_order_with_clock() {
        let ring = TelemetryRing::new(8);
        for i in 0..5 {
            let seq = ring.record(100 + i, ev(i)).unwrap();
            assert_eq!(seq, i);
        }
        let batch = ring.drain(0);
        assert_eq!(batch.events.len(), 5);
        assert_eq!(batch.next_seq, 5);
        assert_eq!(batch.dropped, 0);
        for (i, e) in batch.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.clock, 100 + i as u64);
            assert_eq!(e.kind, ev(i as u64));
        }
        // Cursor resumes: only the new tail.
        ring.record(200, ev(99)).unwrap();
        let tail = ring.drain(batch.next_seq);
        assert_eq!(tail.events.len(), 1);
        assert_eq!(tail.events[0].seq, 5);
        assert_eq!(tail.next_seq, 6);
        // Past the head: empty, cursor unchanged.
        let empty = ring.drain(100);
        assert_eq!((empty.events.len(), empty.next_seq, empty.dropped), (0, 100, 0));
    }

    #[test]
    fn overwrite_oldest_counts_dropped_exactly() {
        let ring = TelemetryRing::new(4);
        for i in 0..10 {
            ring.record(0, ev(i));
        }
        assert_eq!(ring.dropped_total(), 6);
        // A cursor at 0 passed 6 overwritten events and gets the 4 residents.
        let batch = ring.drain(0);
        assert_eq!(batch.dropped, 6);
        assert_eq!(batch.events.len(), 4);
        assert_eq!(batch.events.first().unwrap().seq, 6);
        assert_eq!(batch.next_seq, 10);
        // A caught-up cursor reports no drops.
        assert_eq!(ring.drain(6).dropped, 0);
    }

    /// The satellite stress test: concurrent writers and a live reader,
    /// then a final accounting pass — no torn events, dropped count
    /// exact, every allocated sequence number classified exactly once.
    #[test]
    fn concurrent_writers_and_reader_account_every_event() {
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 5_000;
        const CAP: usize = 512;
        let ring = Arc::new(TelemetryRing::new(CAP));
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_WRITER {
                    // Redundant encoding: a torn event would break the
                    // rebuild_rows == shard * 1e6 + session invariant.
                    ring.record(
                        w,
                        EventKind::Eviction {
                            shard: w as u32,
                            session: i,
                            rebuild_rows: w * 1_000_000 + i,
                        },
                    );
                }
            }));
        }
        // Live reader: drain by cursor while writers run.
        let mut cursor = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let check = |batch: &EventsView, cursor: u64| {
            assert!(batch.next_seq >= cursor);
            let mut last: Option<u64> = None;
            for e in &batch.events {
                if let Some(l) = last {
                    assert!(e.seq > l, "out-of-order seq");
                }
                last = Some(e.seq);
                match e.kind {
                    EventKind::Eviction { shard, session, rebuild_rows } => {
                        assert_eq!(rebuild_rows, shard as u64 * 1_000_000 + session, "torn event");
                        assert_eq!(e.clock, shard as u64);
                    }
                    other => panic!("foreign event {other:?}"),
                }
            }
        };
        while handles.iter().any(|h| !h.is_finished()) {
            let batch = ring.drain(cursor);
            check(&batch, cursor);
            delivered += batch.events.len() as u64;
            dropped += batch.dropped;
            cursor = batch.next_seq;
        }
        for h in handles {
            h.join().unwrap();
        }
        // Final drain: writers quiesced, so nothing truncates.
        let batch = ring.drain(cursor);
        check(&batch, cursor);
        delivered += batch.events.len() as u64;
        dropped += batch.dropped;
        cursor = batch.next_seq;
        let total = WRITERS * PER_WRITER;
        assert_eq!(ring.head(), total);
        assert_eq!(cursor, total, "cursor reached the head");
        assert_eq!(delivered + dropped, total, "every event classified exactly once");
        assert_eq!(ring.dropped_total(), total - CAP as u64, "exact overwrite accounting");
        assert!(delivered >= CAP as u64, "at least the residents were delivered");
    }
}
