//! Where sessions live: join and leave, admission placement,
//! rebalance-on-leave, manual and budget steering — every path that picks
//! a shard for a session or moves one between shards.

use super::recovery::CrashState;
use super::table::Route;
use super::{GlobalSessionId, LeaveReport, ShardedServer};
use crate::sched::{steer_improves, AdmissionPolicy, PagePressure, PlacementView, Ticket};
use crate::serving::ServedTask;
use crate::telemetry::{EventKind, SteerReason};

impl<T: ServedTask> ShardedServer<T> {
    /// Swap the admission policy at runtime (placement applies to future
    /// joins; a new `PageAware` budget applies from the next tick's
    /// steering pass). Live sessions and queues are untouched. Panics on
    /// [`AdmissionPolicy::PageAware`] for a fleet built without a pool
    /// (see [`ShardedServer::with_memory`]).
    pub fn set_policy(&mut self, policy: AdmissionPolicy) {
        Self::check_policy(policy, self.pool.is_some());
        self.policy = policy;
    }

    /// A page-denominated policy without a page pool has nothing to
    /// place or steer by — rejected here rather than silently degraded.
    pub(super) fn check_policy(policy: AdmissionPolicy, pooled: bool) {
        assert!(
            pooled || policy.page_budget().is_none(),
            "{policy:?} needs a page pool — build the fleet with ShardedServer::with_memory"
        );
    }

    /// The shard currently serving `id`.
    pub fn shard_of(&self, id: GlobalSessionId) -> usize {
        self.sessions.get(id).shard
    }

    /// Admit a session on backbone group 0 (homogeneous tasks).
    pub fn join(&mut self, task: &T) -> GlobalSessionId {
        self.join_group(task, 0)
    }

    /// Admit a session on backbone `group`; the admission policy places it
    /// from the current fleet view (live slots + page pressure per Healthy
    /// shard — dead and suspect shards take no new sessions).
    pub fn join_group(&mut self, task: &T, group: usize) -> GlobalSessionId {
        let id = self.next_id;
        self.next_id += 1;
        let shard = self.place_on_healthy(id, group);
        if let Some(pool) = &self.pool {
            let lm = task.backbone(group).0;
            let floor = lm.cfg.n_layers * pool.pages_for(lm.cfg.max_seq);
            self.floor_pages = self.floor_pages.max(floor);
        }
        let local = self.shards[shard].join_group(task, group);
        self.sessions.join(id, shard, local, group);
        id
    }

    /// Shards that are believed Healthy *and* whose process is actually
    /// up. The health checker only learns of a crash after
    /// `miss_threshold` silent probes, but a join or migration RPC
    /// against a dead process fails immediately (connection refused) and
    /// one against a stalled process hangs — so placement and steering
    /// skip dark shards without waiting for the declaration. The checker
    /// stays the sole authority for declaring death and salvaging.
    fn reachable_shards(&self) -> Vec<usize> {
        self.health
            .healthy_shards()
            .into_iter()
            .filter(|&s| self.crashed[s] == CrashState::Up)
            .collect()
    }

    /// Place `id` on a Healthy shard via the admission policy, evaluated
    /// over the surviving fleet view (so placement stays deterministic as
    /// the fleet degrades).
    /// Crashed-but-undeclared shards are skipped (fail-fast RPC); if
    /// *every* Healthy shard is dark — the undetected-total-loss window —
    /// fall back to the checker's view: the session lands on a doomed
    /// shard and the next declaration salvages it, exactly as if the RPC
    /// layer had raced the crash.
    /// `group` is the session's backbone group — the batch-shape signal
    /// `PageAware` ties break on (same-backbone slots share stacked
    /// GEMMs). Placement always charges `need_pages: 0`: a fresh join's
    /// cache starts empty, and a salvaged session's pages died with its
    /// shard — its rebuild allocates on the next step, where the memory
    /// guard arbitrates.
    pub(super) fn place_on_healthy(&self, id: GlobalSessionId, group: usize) -> usize {
        let up = self.reachable_shards();
        let healthy = if up.is_empty() { self.health.healthy_shards() } else { up };
        assert!(
            !healthy.is_empty(),
            "no healthy shard left to place session {id} on — total fleet loss"
        );
        let active: Vec<usize> = healthy.iter().map(|&s| self.shards[s].active()).collect();
        // One in-process pool serves every shard, so each shard reports
        // the same (global) free list; a pool-less fleet has no page
        // economy (all zero — only `LeastLoaded`, which reads none of it,
        // places there).
        let free_pages = self.pool_stats().map_or(0, |st| st.free_pages);
        let pressure: Vec<PagePressure> = healthy
            .iter()
            .map(|&s| PagePressure { free_pages, held_pages: self.shards[s].pages_held() })
            .collect();
        let mut same_backbone = vec![0usize; healthy.len()];
        for (_, r) in self.sessions.iter().filter(|(_, r)| r.group == group) {
            if let Some(i) = healthy.iter().position(|&h| h == r.shard) {
                same_backbone[i] += 1;
            }
        }
        let view = PlacementView {
            active: &active,
            cache_bytes: &[],
            pressure: &pressure,
            same_backbone: &same_backbone,
            need_pages: 0,
        };
        healthy[self.policy.place(id, &view)]
    }

    /// Remove a session, dropping its KV cache (a paged cache returns
    /// every page to the pool). Nothing of the session lingers in the
    /// server — and nothing is silently dropped either: its
    /// served-but-unpolled actions and still-queued arrivals (whose
    /// tickets will now never resolve) come back in the [`LeaveReport`].
    /// Then rebalance: while departures leave the fullest shard ≥ 2
    /// sessions above the emptiest, steer the fullest shard's lowest-id
    /// session over (at most once per session per tick cycle).
    pub fn leave(&mut self, id: GlobalSessionId) -> LeaveReport<T::Action, T::Obs> {
        let Route { shard, local, .. } = self.sessions.leave(id);
        // Queue FIFO and the ledger's order are both oldest first.
        let dropped_arrivals: Vec<(Ticket, T::Obs)> =
            self.queues[shard].remove_session(id).into_iter().map(|a| (a.ticket, a.obs)).collect();
        // Nothing of the session stays observable: a `Requeued` mark on a
        // dropped arrival would promise an answer forever, an unpolled
        // `Failed` would sit in the ledger for the server's lifetime.
        let unpolled = self.tickets.leave(id);
        self.shards[shard].leave(local);
        while self.rebalance_once() {}
        LeaveReport { unpolled, dropped_arrivals }
    }

    /// One rebalance move, if the fleet is skewed. Returns whether a
    /// session moved. Sessions already steered this tick cycle are not
    /// eligible victims (no double-migration); only Healthy *and up*
    /// shards are balanced — a dead shard's permanent 0-occupancy must
    /// not attract the whole fleet, and during the undetected-crash
    /// window (killed, not yet declared) a dark shard can neither send
    /// nor receive a migration: a departure emptying it must not pull a
    /// live session's KV onto a process that will take it to the grave.
    pub(super) fn rebalance_once(&mut self) -> bool {
        let healthy = self.reachable_shards();
        if healthy.len() < 2 {
            return false;
        }
        let (mut min_s, mut min_a) = (healthy[0], usize::MAX);
        let (mut max_s, mut max_a) = (healthy[0], 0usize);
        for &s in &healthy {
            let a = self.shards[s].active();
            if a < min_a {
                (min_s, min_a) = (s, a);
            }
            if a > max_a {
                (max_s, max_a) = (s, a);
            }
        }
        if max_a < min_a + 2 {
            return false;
        }
        let victim =
            self.sessions.iter().find(|(_, r)| r.shard == max_s && !r.steered).map(|(id, _)| id);
        match victim {
            Some(v) => {
                self.steer_with(v, min_s, SteerReason::Rebalance);
                true
            }
            // Every candidate was already steered this tick cycle; leave
            // the skew for the next tick rather than double-migrate.
            None => false,
        }
    }

    /// Migrate a session to `dest` shard: its KV cache, episode state and
    /// queued arrivals move wholesale, so subsequent answers are
    /// bit-identical to never having moved. No-op when already home —
    /// and no-op when either endpoint's process is down: the transfer
    /// RPC fails fast against a crashed shard (even one the health
    /// checker has not yet declared), so the session stays where it is
    /// instead of marooning its KV on a dead process.
    pub fn steer(&mut self, id: GlobalSessionId, dest: usize) {
        self.steer_with(id, dest, SteerReason::Manual);
    }

    /// [`ShardedServer::steer`] with the trigger recorded: internal
    /// callers (rebalance, budget steering) tag their moves so the
    /// journal can say *why* a session moved, not just where.
    fn steer_with(&mut self, id: GlobalSessionId, dest: usize, reason: SteerReason) {
        assert!(dest < self.shards.len(), "shard {dest} out of range");
        let &Route { shard: src, local, .. } = self.sessions.get(id);
        if src == dest
            || self.crashed[src] == CrashState::Down
            || self.crashed[dest] == CrashState::Down
        {
            return;
        }
        let parked = self.shards[src].park(local);
        let new_local = self.shards[dest].admit(parked);
        self.sessions.steer(id, dest, new_local);
        // Pending arrivals follow their session (bypassing the cap: a
        // move must never drop a ticket).
        for a in self.queues[src].remove_session(id) {
            self.queues[dest].requeue(a);
        }
        self.metrics.record_steered(src);
        self.metrics.record_steered_in(dest);
        self.journal.record(
            self.tick_no,
            EventKind::Steer { src: src as u32, dst: dest as u32, session: id, reason },
        );
    }

    /// The tick boundary's budget-enforcement pass: while any shard holds
    /// more pool pages than the [`AdmissionPolicy::PageAware`] budget,
    /// steer its coldest not-yet-steered session to the lightest shard —
    /// provided the move passes [`steer_improves`]: the destination plus
    /// the victim stays strictly below the source (no ping-pong between
    /// equal-height shards, no bouncing a session whose cache alone
    /// exceeds the budget) *and* the destination pool's free list covers
    /// the victim's pages, so a steer never converts into an eviction on
    /// arrival. (In-process fleets share one pool, making the page check
    /// conservative — the move itself is a no-op on the free list — but
    /// it is exactly the contract a per-process destination pool
    /// enforces.) Bounded by the once-per-tick guard (each session moves
    /// at most once), so the pass terminates even when the budget is
    /// infeasible fleet-wide. A no-op under `LeastLoaded`.
    pub(super) fn steer_over_budget(&mut self) {
        let Some(budget) = self.policy.page_budget() else { return };
        // Only Healthy, up shards steer or receive — a dead shard's
        // permanent 0 load must never make it the designated
        // destination, including one whose crash no probe has missed yet
        // (`steer` would refuse the transfer and the pass would spin on
        // the same victim).
        let healthy = self.reachable_shards();
        if healthy.len() < 2 {
            return;
        }
        loop {
            let held = self.pages_held_per_shard();
            let free = self.pool_stats().expect("a page policy implies a pool").free_pages;
            let dest_for = |src: usize| {
                *healthy.iter().filter(|&&s| s != src).min_by_key(|&&s| (held[s], s)).unwrap()
            };
            let eligible = |r: &Route| {
                !r.steered
                    && steer_improves(
                        held[r.shard],
                        held[dest_for(r.shard)],
                        self.shards[r.shard].pages_of(r.local),
                        free,
                    )
            };
            // Hottest over-budget shard that still holds an eligible
            // victim, and its coldest such session (ties: lowest id —
            // deterministic). Shards whose sessions were all steered
            // already (or whose moves would not improve anything) are
            // passed over, not a reason to abandon cooler over-budget
            // shards that can still be fixed.
            let pick = healthy
                .iter()
                .copied()
                .filter(|&s| held[s] > budget)
                .filter_map(|src| {
                    self.sessions
                        .iter()
                        .filter(|(_, r)| r.shard == src && eligible(r))
                        .min_by_key(|&(id, r)| (r.last_served, id))
                        .map(|(id, _)| (src, id))
                })
                .max_by_key(|&(src, _)| (held[src], src));
            let Some((src, victim)) = pick else { break };
            self.steer_with(victim, dest_for(src), SteerReason::OverBudget);
        }
    }
}
