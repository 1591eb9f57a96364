//! The page economy: what the fleet holds, what a tick's drained batches
//! will allocate, and whom to evict or defer when the pool cannot cover
//! it.

use super::table::{Route, SessionTable};
use super::{GlobalSessionId, ShardedServer};
use crate::sched::{Arrival, EvictionPolicy, MemoryReport};
use crate::serving::{ServedTask, ServingEngine, SessionId};
use crate::telemetry::EventKind;
use nt_llm::{PagePool, PoolStats};
use std::cmp::Reverse;
use std::collections::BTreeSet;

impl<T: ServedTask> ShardedServer<T> {
    /// Occupancy of the fleet-wide pool (`None` for unbounded fleets).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(PagePool::stats)
    }

    /// KV bytes held across the fleet.
    pub fn cache_bytes(&self) -> usize {
        self.shards.iter().map(ServingEngine::cache_bytes).sum()
    }

    /// Pool pages held per shard — the accounting `PageAware` placement
    /// and steering run on (all zero for pool-less fleets).
    pub fn pages_held_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(ServingEngine::pages_held).collect()
    }

    /// Pool pages one session holds (0 for pool-less fleets).
    pub fn pages_of(&self, id: GlobalSessionId) -> usize {
        let r = self.sessions.get(id);
        self.shards[r.shard].pages_of(r.local)
    }

    /// The `candidates` the eviction policy may reclaim, in its order:
    /// page holders on Healthy shards, cheapest re-anchor rebuild first —
    /// fewest priced rebuild rows × backbone width
    /// ([`ServingEngine::rebuild_cost_of`], 0 whenever the session's next
    /// step re-anchors regardless), ties to the most pages held (biggest
    /// reclaim per re-anchor), then coldest, then the lowest id.
    /// Age-blind before the tie-breaks by design: a hot session due a free
    /// re-anchor beats a cold one carrying a full window. Priced once per
    /// guard pass: nothing the guard does between its evictions moves
    /// another candidate's price. Empty under [`EvictionPolicy::None`].
    fn victim_order<'a>(
        &self,
        task: &T,
        candidates: impl Iterator<Item = (GlobalSessionId, &'a Route)>,
    ) -> Vec<GlobalSessionId> {
        if self.eviction == EvictionPolicy::None {
            return Vec::new();
        }
        let mut keyed: Vec<_> = candidates
            .filter(|&(_, r)| self.health.state(r.shard).is_healthy())
            .filter_map(|(id, r)| {
                let engine = &self.shards[r.shard];
                let pages = engine.pages_of(r.local);
                (pages > 0).then(|| {
                    (engine.rebuild_cost_of(task, r.local), usize::MAX - pages, r.last_served, id)
                })
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(.., id)| id).collect()
    }

    /// Reclaim `victim`'s pages, recording the eviction under the rebuild
    /// rows its next step will now replay (priced *before* the clear —
    /// an empty cache prices 0).
    fn evict_session(&mut self, victim: GlobalSessionId, task: &T) {
        let &Route { shard: s, local: l, .. } = self.sessions.get(victim);
        let rows = self.shards[s].rebuild_rows_of(task, l) as u64;
        let _ = self.shards[s].evict(l);
        self.metrics.record_evicted(s, rows);
        self.journal.record(
            self.tick_no,
            EventKind::Eviction { shard: s as u32, session: victim, rebuild_rows: rows },
        );
    }

    /// One shard's drained batch as `(local id, obs)` requests.
    pub(super) fn requests_of<'a>(
        sessions: &SessionTable,
        shard: usize,
        batch: &'a [Arrival<T::Obs>],
    ) -> Vec<(SessionId, &'a T::Obs)> {
        batch
            .iter()
            .map(|a| {
                let r = sessions.get(a.session);
                debug_assert_eq!(r.shard, shard, "queued arrival on the wrong shard");
                (r.local, &a.obs)
            })
            .collect()
    }

    /// The memory guard, run between the drain and the step. Re-anchoring
    /// sessions return their pages up front — semantically free (the
    /// rebuild never reads them; see
    /// [`ServingEngine::release_reanchor_pages`]) and the reason a
    /// re-anchoring giant session can never wedge the pool against its
    /// own rebuild. Each drained arrival's page demand is then priced
    /// once (exact [`ServedTask::plan_rows`] counts, clears charged from
    /// empty so no band interleaving can starve a reservation). While the
    /// tick's demand exceeds the pool's free list, the guard takes the
    /// first step that applies, in order:
    ///
    /// 1. **Evict an idle victim** — the [`EvictionPolicy`]'s next
    ///    session with no arrival in the drained batch (it re-anchors on
    ///    its next step). Sessions in the batch are protected for the
    ///    whole pass, deferred or not: evicting work we are about to
    ///    serve forces an immediate re-anchor of that very work (the
    ///    pre-fix bug: the scan recomputed its exclusion set per
    ///    iteration, so a just-deferred session was evicted by accident;
    ///    regression-pinned in tests/paged_serving.rs).
    /// 2. **Defer without evicting** the youngest drained arrival whose
    ///    step needs new pages, never the oldest arrival, and only while
    ///    the growth deferred so far plus its own fits in the *next-idle*
    ///    pages: those held by drained sessions with nothing queued behind
    ///    their arrival and not deferred (its own pages left out). The
    ///    deferred session keeps its cache, so the next tick serves it for
    ///    its page increment instead of a rebuild from empty; the bound
    ///    makes that increment coverable — the next-idle sessions are
    ///    served now and, unless they submit again, are idle victims at
    ///    the next guard. Without the bound a fleet whose every session
    ///    keeps a second arrival queued would defer forever: no page ever
    ///    goes idle, so a deferral frees nothing. Under
    ///    [`EvictionPolicy::None`] nothing can be evicted next tick
    ///    either, so the bound is 0 and this step never runs.
    /// 3. **Sacrifice** a batch member by the policy's own order, never
    ///    the oldest arrival's session, so the tick always serves someone:
    ///    its arrival is deferred and its pages reclaimed as one decision.
    ///    When pressure persists and every page holder is in the batch,
    ///    one of them must yield or the pool freezes (nothing served →
    ///    nothing grows or re-anchors → the same tick repeats forever).
    /// 4. **Defer the youngest** drained arrival (no victim left at all):
    ///    admission backpressure instead of OOM growth. This converges —
    ///    every deferral strictly shrinks the batch, and a batch of one
    ///    always fits: its session either grows incrementally (held +
    ///    delta ≤ one full-context session ≤ capacity) or re-anchors
    ///    (pages pre-released, rebuild ≤ one full-context session ≤
    ///    capacity — the `for_model` floor; regression-tested in
    ///    tests/paged_serving.rs).
    ///
    /// Each step, once it finds nothing, finds nothing for the rest of
    /// the pass (evictions only grow the free list, and the deferral
    /// bound only tightens), so the steps run as four phases in turn.
    /// Deferred arrivals go back to the front of their queues in drain
    /// order with their tickets pending, so nothing is lost. Under an
    /// eviction policy steps 2 and 3 spare the oldest arrival and step 4
    /// stops at a batch of one, so every tick serves the oldest drained
    /// arrival — a session's arrivals stay in order, so every ticket is
    /// eventually the oldest. After this guard every reservation inside
    /// the step succeeds under any thread interleaving.
    pub(super) fn memory_guard(
        &mut self,
        task: &T,
        drained: &mut [Vec<Arrival<T::Obs>>],
    ) -> MemoryReport {
        let mut report = MemoryReport::default();
        let Some(pool) = self.pool.clone() else { return report };
        let mut arrivals: Vec<Priced> = Vec::with_capacity(drained.iter().map(Vec::len).sum());
        for (s, batch) in drained.iter().enumerate() {
            let reqs = Self::requests_of(&self.sessions, s, batch);
            let engine = &mut self.shards[s];
            let _ = engine.release_reanchor_pages(task, &reqs);
            for (a, req) in batch.iter().zip(&reqs) {
                arrivals.push(Priced {
                    session: a.session,
                    shard: s,
                    local: req.0,
                    ticket: a.ticket.0,
                    growth: engine.page_demand(task, std::slice::from_ref(req)),
                    next_idle: 0,
                    deferred: false,
                });
            }
        }
        let mut demand: usize = arrivals.iter().map(|a| a.growth).sum();
        // Only evictions grow the free list (nothing else allocates or
        // releases between the drain and the step).
        let mut free = pool.free_pages();
        if demand <= free {
            return report;
        }
        // Computed ONCE from the batch as drained, sorted by session: a
        // session deferred for backpressure stays protected for the rest
        // of the tick.
        let mut protected: Vec<(GlobalSessionId, usize)> =
            arrivals.iter().enumerate().map(|(i, a)| (a.session, i)).collect();
        protected.sort_unstable();
        let member = |id: GlobalSessionId| protected.binary_search_by_key(&id, |&(v, _)| v);

        // 1. Idle victims.
        let idle = self.sessions.iter().filter(|&(id, _)| member(id).is_err());
        for victim in self.victim_order(task, idle) {
            if demand <= free {
                return report;
            }
            self.evict_session(victim, task);
            report.evicted.push(victim);
            free = pool.free_pages();
        }
        if demand <= free {
            return report;
        }

        // Youngest first; demand > free ≥ 0 implies a non-empty batch.
        let mut by_age: Vec<usize> = (0..arrivals.len()).collect();
        by_age.sort_unstable_by_key(|&i| Reverse(arrivals[i].ticket));
        let oldest = *by_age.last().expect("demand > 0 implies a non-empty batch");

        // 2. Bounded deferral, caches kept.
        if self.eviction != EvictionPolicy::None {
            let queued: BTreeSet<GlobalSessionId> =
                self.queues.iter().flat_map(|q| q.sessions()).collect();
            for a in arrivals.iter_mut().filter(|a| !queued.contains(&a.session)) {
                a.next_idle = self.shards[a.shard].pages_of(a.local);
            }
            let mut next_idle: usize = arrivals.iter().map(|a| a.next_idle).sum();
            let mut deferred_growth = 0usize;
            for &i in &by_age {
                if demand <= free {
                    break;
                }
                let a = &mut arrivals[i];
                if i == oldest
                    || a.growth == 0
                    || deferred_growth + a.growth > next_idle - a.next_idle
                {
                    continue;
                }
                a.deferred = true;
                deferred_growth += a.growth;
                next_idle -= a.next_idle;
                demand -= a.growth;
                report.deferred += 1;
            }
        }

        // 3. Sacrifices: defer-and-evict is one decision, so the victim
        // is never served in the tick that cleared its cache.
        let spared = arrivals[oldest].session;
        let members = protected.iter().filter(|&&(id, _)| id != spared);
        let members = members.map(|&(id, _)| (id, self.sessions.get(id)));
        let sacrifices = if demand > free { self.victim_order(task, members) } else { Vec::new() };
        for victim in sacrifices {
            if demand <= free {
                break;
            }
            let at = member(victim).expect("sacrifices are batch members");
            let a = &mut arrivals[protected[at].1];
            if a.defer() {
                demand -= a.growth;
                report.deferred += 1;
            }
            self.evict_session(victim, task);
            report.evicted.push(victim);
            free = pool.free_pages();
        }

        // 4. Youngest deferrals, down to a batch of one if need be.
        for &i in &by_age {
            if demand <= free {
                break;
            }
            let a = &mut arrivals[i];
            if a.defer() {
                demand -= a.growth;
                report.deferred += 1;
            }
        }

        // `arrivals` lists the batches in order: each shard's arrivals are
        // the next `batch.len()` of them.
        let mut rest = &arrivals[..];
        for (s, batch) in drained.iter_mut().enumerate() {
            let (mine, tail) = rest.split_at(batch.len());
            rest = tail;
            if mine.iter().any(|a| a.deferred) {
                let mut deferred = mine.iter().map(|a| a.deferred);
                let back = batch.extract_if(.., |_| deferred.next() == Some(true)).collect();
                self.queues[s].requeue_front(back);
            }
        }
        report
    }
}

/// One drained arrival as the memory guard prices it.
struct Priced {
    session: GlobalSessionId,
    shard: usize,
    local: SessionId,
    ticket: u64,
    /// Pages its step would allocate (priced once per guard pass).
    growth: usize,
    /// Pages its session holds if nothing is queued behind this arrival
    /// — what the next guard could evict once it is served; else 0.
    next_idle: usize,
    /// Back to the queue this tick (its ticket stays pending).
    deferred: bool,
}

impl Priced {
    /// Send the arrival back to its queue; `false` if it already was.
    fn defer(&mut self) -> bool {
        !std::mem::replace(&mut self.deferred, true)
    }
}
