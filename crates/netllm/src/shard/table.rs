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

    fn route_mut(&mut self, id: GlobalSessionId) -> &mut Route {
        self.routes.get_mut(&id).expect("unknown session id")
    }

    /// Crash recovery re-homed `id` — not a steer: a salvaged session may
    /// still be balanced this cycle.
    pub fn recover(&mut self, id: GlobalSessionId, shard: usize, local: SessionId) {
        let r = self.route_mut(id);
        (r.shard, r.local) = (shard, local);
    }

    /// A migration moved `id`: new home, and no second move this cycle.
    pub fn steer(&mut self, id: GlobalSessionId, shard: usize, local: SessionId) {
        self.recover(id, shard, local);
        self.route_mut(id).steered = true;
    }

    /// `id` produced an answer at `tick`.
    pub fn mark_served(&mut self, id: GlobalSessionId, tick: u64) {
        self.route_mut(id).last_served = tick;
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
    Served(A),
    /// Lost to a fault, not yet reported.
    Failed,
}

/// Ticket → its owner and its one observable state; absent = `Pending`
/// (see the module docs for the state diagram).
pub(super) struct TicketLedger<A> {
    states: BTreeMap<Ticket, (GlobalSessionId, TicketState<A>)>,
}

impl<A> Default for TicketLedger<A> {
    fn default() -> Self {
        TicketLedger { states: BTreeMap::new() }
    }
}

impl<A> TicketLedger<A> {
    /// The one transition: an unresolved ticket (absent or `Requeued`)
    /// takes state `to`, replacing whatever it had.
    fn set(&mut self, ticket: Ticket, session: GlobalSessionId, to: TicketState<A>) {
        let previous = self.states.insert(ticket, (session, to));
        debug_assert!(
            matches!(previous, None | Some((_, TicketState::Requeued))),
            "{ticket:?} was already resolved"
        );
    }

    /// A fault put `ticket`'s arrival back into a queue.
    pub fn requeue(&mut self, ticket: Ticket, session: GlobalSessionId) {
        self.set(ticket, session, TicketState::Requeued);
    }

    /// A tick answered `ticket`.
    pub fn serve(&mut self, ticket: Ticket, session: GlobalSessionId, action: A) {
        self.set(ticket, session, TicketState::Served(action));
    }

    /// A fault consumed `ticket`'s arrival: it is no longer owed an
    /// answer, whatever displaced it before.
    pub fn fail(&mut self, ticket: Ticket, session: GlobalSessionId) {
        self.set(ticket, session, TicketState::Failed);
    }

    /// Served-but-unredeemed tickets.
    pub fn ready(&self) -> usize {
        self.states.values().filter(|(_, st)| matches!(st, TicketState::Served(_))).count()
    }

    /// Redeem a served ticket; any other state stays as it is.
    pub fn poll(&mut self, ticket: Ticket) -> Option<A> {
        match self.states.remove(&ticket)? {
            (_, TicketState::Served(action)) => Some(action),
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
            Some((_, TicketState::Served(action))) => TicketStatus::Served(action),
            Some((_, TicketState::Failed)) => TicketStatus::Failed,
            Some(requeued) => {
                self.states.insert(ticket, requeued);
                TicketStatus::Requeued
            }
        }
    }

    /// `session` is leaving: forget everything it left behind — `Requeued`
    /// marks (their arrivals are dropped with it), unreported `Failed`
    /// tickets — and hand back its unredeemed actions, oldest first.
    pub fn leave(&mut self, session: GlobalSessionId) -> Vec<(Ticket, A)> {
        self.states
            .extract_if(.., |_, (owner, _)| *owner == session)
            .filter_map(|(ticket, (_, st))| match st {
                TicketState::Served(action) => Some((ticket, action)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The model's view of one ticket.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Model {
        /// Queued, undisturbed (or consumed / reclaimed: nothing to say).
        Pending,
        Requeued,
        Served,
        Failed,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Requeue / serve / fail / poll / poll_status / leave in any
        /// order: the ledger always reports the model's single state,
        /// `Served` and `Failed` are each observed at most once per
        /// ticket, and a leave removes exactly the leaver's entries and
        /// returns its served actions oldest first.
        #[test]
        fn a_ticket_has_one_state_and_terminal_states_are_observed_once(
            ops in proptest::collection::vec((0u8..8, 0usize..12), 1..200),
        ) {
            // Ticket `i` belongs to session `i % 3` and answers `10 * i`.
            let (owner, action) = (|i: usize| (i % 3) as u64, |i: usize| 10 * i as u64);
            let mut ledger: TicketLedger<u64> = TicketLedger::default();
            let mut model = [Model::Pending; 12];
            // Whether ticket `i`'s arrival is still queued: unresolved,
            // owner live — the only time a tick or a fault can touch it.
            let mut queued = [true; 12];
            let mut seen = [(0u32, 0u32); 12]; // (Served, Failed) reads
            for (op, i) in ops {
                let ticket = Ticket(i as u64);
                match op {
                    0 if queued[i] => {
                        ledger.requeue(ticket, owner(i));
                        model[i] = Model::Requeued;
                    }
                    1 | 2 if queued[i] => {
                        ledger.serve(ticket, owner(i), action(i));
                        (model[i], queued[i]) = (Model::Served, false);
                    }
                    3 if queued[i] => {
                        ledger.fail(ticket, owner(i));
                        (model[i], queued[i]) = (Model::Failed, false);
                    }
                    4 => {
                        let got = ledger.poll(ticket);
                        prop_assert_eq!(got, (model[i] == Model::Served).then(|| action(i)));
                        if got.is_some() {
                            seen[i].0 += 1;
                            model[i] = Model::Pending;
                        }
                    }
                    5 | 6 => {
                        let got = ledger.poll_status(ticket);
                        prop_assert_eq!(&got, &match model[i] {
                            Model::Pending => TicketStatus::Pending,
                            Model::Requeued => TicketStatus::Requeued,
                            Model::Served => TicketStatus::Served(action(i)),
                            Model::Failed => TicketStatus::Failed,
                        });
                        if got.is_terminal() {
                            seen[i].0 += u32::from(got != TicketStatus::Failed);
                            seen[i].1 += u32::from(got == TicketStatus::Failed);
                            model[i] = Model::Pending;
                        }
                    }
                    7 => {
                        // `i`'s owner leaves: its banked actions come
                        // back ascending, nothing of it stays observable
                        // and (the size check below) nobody else's moves.
                        let mine: Vec<usize> = (0..12).filter(|&x| owner(x) == owner(i)).collect();
                        let want: Vec<(Ticket, u64)> = mine
                            .iter()
                            .filter(|&&x| model[x] == Model::Served)
                            .map(|&x| (Ticket(x as u64), action(x)))
                            .collect();
                        prop_assert_eq!(ledger.leave(owner(i)), want);
                        for x in mine {
                            seen[x].0 += u32::from(model[x] == Model::Served);
                            (model[x], queued[x]) = (Model::Pending, false);
                        }
                    }
                    _ => {} // the op's precondition does not hold: skip
                }
                let count = |m: Model| model.iter().filter(|&&x| x == m).count();
                prop_assert_eq!(ledger.states.len(), 12 - count(Model::Pending));
                prop_assert_eq!(ledger.ready(), count(Model::Served));
            }
            prop_assert!(seen.iter().all(|&(s, f)| s <= 1 && f <= 1), "a resolution read twice");
        }

        /// Join / steer / recover / serve / leave / end-of-cycle in any
        /// order: every live id has exactly one route, agreeing with the
        /// model field for field; steer marks are reported once,
        /// ascending, and reset at the cycle boundary.
        #[test]
        fn every_live_session_has_one_route_and_steer_marks_reset_each_cycle(
            ops in proptest::collection::vec((0u8..7, 0u64..6, 0usize..4), 1..200),
        ) {
            let handle = |shard: usize, n: u32| SessionId::for_test(shard as u32, n);
            let mut table = SessionTable::default();
            let mut model: BTreeMap<GlobalSessionId, Route> = BTreeMap::new();
            let mut moves = 0u32;
            for (tick, (op, id, shard)) in ops.into_iter().enumerate() {
                let live = model.contains_key(&id);
                moves += 1;
                match op {
                    0 | 1 if !live => {
                        let (local, group) = (handle(shard, moves), shard % 3);
                        table.join(id, shard, local, group);
                        let fresh = Route { shard, local, group, last_served: 0, steered: false };
                        model.insert(id, fresh);
                    }
                    2 if live => {
                        table.steer(id, shard, handle(shard, moves));
                        let r = model.get_mut(&id).unwrap();
                        (r.shard, r.local, r.steered) = (shard, handle(shard, moves), true);
                    }
                    3 if live => {
                        table.recover(id, shard, handle(shard, moves));
                        let r = model.get_mut(&id).unwrap();
                        (r.shard, r.local) = (shard, handle(shard, moves));
                    }
                    4 if live => {
                        table.mark_served(id, tick as u64 + 1);
                        model.get_mut(&id).unwrap().last_served = tick as u64 + 1;
                    }
                    5 if live => {
                        prop_assert_eq!(table.leave(id), model.remove(&id).unwrap());
                        prop_assert!(table.find(id).is_none());
                    }
                    6 => {
                        let want: Vec<GlobalSessionId> =
                            model.iter().filter(|(_, r)| r.steered).map(|(&id, _)| id).collect();
                        prop_assert_eq!(table.end_cycle(), want); // ascending by id
                        model.values_mut().for_each(|r| r.steered = false);
                        prop_assert!(table.end_cycle().is_empty(), "marks survived the boundary");
                    }
                    _ => {} // the op's precondition does not hold: skip
                }
                let got: Vec<(GlobalSessionId, Route)> =
                    table.iter().map(|(id, r)| (id, *r)).collect();
                let want: Vec<(GlobalSessionId, Route)> =
                    model.iter().map(|(&id, r)| (id, *r)).collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
