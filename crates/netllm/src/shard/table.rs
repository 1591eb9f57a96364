//! The two tables behind [`super::ShardedServer`]: one record per live
//! session, one state per unresolved ticket.
//!
//! A [`SessionTable`] row is everything the router knows about a session
//! — where it lives, which backbone serves it, when it last answered,
//! whether it already moved this tick cycle — so join is one insert,
//! leave one remove, and steering or recovery one field update. A
//! [`TicketLedger`] entry is the *one* state a ticket is in:
//!
//! ```text
//!  submit ─► Pending ──(fault displaces the arrival)──► Requeued
//!              │                                           │
//!              └──────────────┬────────────────────────────┘
//!                   tick ─► Served | Failed ──(poll / leave)──► consumed
//! ```
//!
//! `Pending` and consumed are both *absent*: the ledger holds only what a
//! poll could still observe, so it cannot grow with tickets served and
//! redeemed, and a departed session's tickets read `Pending` like any
//! ticket the server has nothing to say about.

use super::GlobalSessionId;
use crate::sched::{Ticket, TicketStatus};
use crate::serving::SessionId;
use std::collections::BTreeMap;

/// One live session, as the router sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct Route {
    /// Shard currently serving the session.
    pub shard: usize,
    /// Its handle inside that shard's engine.
    pub local: SessionId,
    /// Backbone group — the adapter tag queued arrivals carry.
    pub group: usize,
    /// Tick the session last produced an answer (0 = never; coldest =
    /// smallest).
    pub last_served: u64,
    /// Already migrated since the previous tick boundary — rebalance and
    /// budget steering both consult and set this, so no session moves
    /// twice in one tick cycle.
    pub steered: bool,
}

/// Global id → [`Route`]. A `BTreeMap` keeps every fleet walk (rebalance
/// and eviction victim scans, steering, recovery) deterministic and
/// ascending by id.
#[derive(Default)]
pub(super) struct SessionTable {
    routes: BTreeMap<GlobalSessionId, Route>,
}

impl SessionTable {
    /// Admit `id`, freshly placed on `shard`.
    pub fn join(&mut self, id: GlobalSessionId, shard: usize, local: SessionId, group: usize) {
        let fresh = Route { shard, local, group, last_served: 0, steered: false };
        let previous = self.routes.insert(id, fresh);
        debug_assert!(previous.is_none(), "session {id} joined twice");
    }

    /// Forget `id`, handing its last route back.
    pub fn leave(&mut self, id: GlobalSessionId) -> Route {
        self.routes.remove(&id).expect("unknown session id")
    }

    /// `id`'s route; panics on an id that never joined or already left.
    pub fn get(&self, id: GlobalSessionId) -> &Route {
        self.routes.get(&id).expect("unknown session id")
    }

    /// `id`'s route, if it is still live.
    pub fn find(&self, id: GlobalSessionId) -> Option<&Route> {
        self.routes.get(&id)
    }

    /// Every live session, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (GlobalSessionId, &Route)> {
        self.routes.iter().map(|(&id, r)| (id, r))
    }

    /// A migration moved `id`: new home, and no second move this cycle.
    pub fn steer(&mut self, id: GlobalSessionId, shard: usize, local: SessionId) {
        let r = self.routes.get_mut(&id).expect("unknown session id");
        (r.shard, r.local, r.steered) = (shard, local, true);
    }

    /// Crash recovery re-homed `id` — not a steer: a salvaged session may
    /// still be balanced this cycle.
    pub fn recover(&mut self, id: GlobalSessionId, shard: usize, local: SessionId) {
        let r = self.routes.get_mut(&id).expect("unknown session id");
        (r.shard, r.local) = (shard, local);
    }

    /// `id` produced an answer at `tick`.
    pub fn mark_served(&mut self, id: GlobalSessionId, tick: u64) {
        self.routes.get_mut(&id).expect("served session left the fleet").last_served = tick;
    }

    /// Close the tick cycle: every session steered since the previous
    /// boundary, ascending by id, with the marks reset.
    pub fn end_cycle(&mut self) -> Vec<GlobalSessionId> {
        self.routes
            .iter_mut()
            .filter_map(|(&id, r)| std::mem::take(&mut r.steered).then_some(id))
            .collect()
    }
}

/// What a poll of one ticket can still observe.
enum TicketState<A> {
    /// A fault displaced the arrival back into a queue; it is still owed
    /// an answer.
    Requeued,
    /// Served, not yet redeemed.
    Served { session: GlobalSessionId, action: A },
    /// Lost to a fault, not yet reported.
    Failed { session: GlobalSessionId },
}

/// Ticket → its one observable state; absent = `Pending` (see the module
/// docs for the state diagram).
pub(super) struct TicketLedger<A> {
    states: BTreeMap<Ticket, TicketState<A>>,
}

impl<A> Default for TicketLedger<A> {
    fn default() -> Self {
        TicketLedger { states: BTreeMap::new() }
    }
}

impl<A> TicketLedger<A> {
    /// A fault put `ticket`'s arrival back into a queue.
    pub fn requeue(&mut self, ticket: Ticket) {
        let previous = self.states.insert(ticket, TicketState::Requeued);
        debug_assert!(
            matches!(previous, None | Some(TicketState::Requeued)),
            "{ticket:?} was resolved, yet its arrival is queued"
        );
    }

    /// A tick answered `ticket` (a `Requeued` mark ends here).
    pub fn serve(&mut self, ticket: Ticket, session: GlobalSessionId, action: A) {
        self.resolve(ticket, TicketState::Served { session, action });
    }

    /// A fault consumed `ticket`'s arrival (a `Requeued` mark ends here
    /// too: the ticket is no longer owed an answer).
    pub fn fail(&mut self, ticket: Ticket, session: GlobalSessionId) {
        self.resolve(ticket, TicketState::Failed { session });
    }

    fn resolve(&mut self, ticket: Ticket, to: TicketState<A>) {
        let previous = self.states.insert(ticket, to);
        debug_assert!(
            matches!(previous, None | Some(TicketState::Requeued)),
            "{ticket:?} resolved twice"
        );
    }

    /// Served-but-unredeemed tickets.
    pub fn ready(&self) -> usize {
        self.states.values().filter(|st| matches!(st, TicketState::Served { .. })).count()
    }

    /// Redeem a served ticket; any other state stays as it is.
    pub fn poll(&mut self, ticket: Ticket) -> Option<A> {
        match self.states.remove(&ticket)? {
            TicketState::Served { action, .. } => Some(action),
            other => {
                self.states.insert(ticket, other);
                None
            }
        }
    }

    /// The ticket's status; a terminal one (`Served`, `Failed`) is
    /// consumed by being read.
    pub fn poll_status(&mut self, ticket: Ticket) -> TicketStatus<A> {
        match self.states.remove(&ticket) {
            None => TicketStatus::Pending,
            Some(TicketState::Served { action, .. }) => TicketStatus::Served(action),
            Some(TicketState::Failed { .. }) => TicketStatus::Failed,
            Some(TicketState::Requeued) => {
                self.states.insert(ticket, TicketState::Requeued);
                TicketStatus::Requeued
            }
        }
    }

    /// `session` is leaving with `dropped` arrivals still queued: forget
    /// everything it left behind — the `Requeued` marks of those
    /// arrivals, its unreported `Failed` tickets — and hand back its
    /// unredeemed actions, oldest first.
    pub fn leave(&mut self, session: GlobalSessionId, dropped: &[Ticket]) -> Vec<(Ticket, A)> {
        self.states
            .extract_if(.., |ticket, st| match st {
                TicketState::Requeued => dropped.contains(ticket),
                TicketState::Served { session: s, .. } | TicketState::Failed { session: s } => {
                    *s == session
                }
            })
            .filter_map(|(ticket, st)| match st {
                TicketState::Served { action, .. } => Some((ticket, action)),
                _ => None,
            })
            .collect()
    }
}
