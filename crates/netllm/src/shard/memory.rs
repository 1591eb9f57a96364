//! The page economy: what the fleet holds, what a tick's drained batches
//! will allocate, and whom to evict or defer when the pool cannot cover
//! it.

use super::table::{Route, SessionTable};
use super::{GlobalSessionId, ShardedServer};
use crate::sched::{Arrival, EvictionPolicy, MemoryReport};
use crate::serving::{ServedTask, ServingEngine, SessionId};
use crate::telemetry::EventKind;
use nt_llm::{PagePool, PoolStats};
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

    /// The eviction policy's next victim: the idle session whose
    /// re-anchor rebuild is cheapest — fewest priced rebuild rows ×
    /// backbone width first ([`ServingEngine::rebuild_cost_of`], 0
    /// whenever the session's next step re-anchors regardless), ties to
    /// the most pages held (biggest reclaim per re-anchor), then coldest,
    /// then the lowest id. Age-blind before the tie-breaks by design: a
    /// hot session due a free re-anchor beats a cold one carrying a full
    /// window. Sessions in `protected` (their arrival is in this tick's
    /// batch — drained or deferred) are never victims. `None` under
    /// [`EvictionPolicy::None`], or when every page-holding session is
    /// protected.
    fn eviction_victim(
        &self,
        task: &T,
        protected: &BTreeSet<GlobalSessionId>,
    ) -> Option<GlobalSessionId> {
        if self.eviction == EvictionPolicy::None {
            return None;
        }
        self.sessions
            .iter()
            .filter(|&(id, r)| {
                !protected.contains(&id)
                    && self.health.state(r.shard).is_healthy()
                    && self.shards[r.shard].pages_of(r.local) > 0
            })
            .min_by_key(|&(id, r)| {
                (
                    self.shards[r.shard].rebuild_cost_of(task, r.local),
                    usize::MAX - self.shards[r.shard].pages_of(r.local),
                    r.last_served,
                    id,
                )
            })
            .map(|(id, _)| id)
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

    /// Pages the drained batches could allocate this tick (exact
    /// [`ServedTask::plan_rows`] counts; clears charged from empty so no
    /// band interleaving can starve a reservation).
    fn batch_demand(&self, task: &T, drained: &[Vec<Arrival<T::Obs>>]) -> usize {
        drained
            .iter()
            .enumerate()
            .map(|(s, batch)| {
                self.shards[s].page_demand(task, &Self::requests_of(&self.sessions, s, batch))
            })
            .sum()
    }

    /// Pre-release the pages of every drained session whose plan clears
    /// (re-anchors) anyway — semantically free (the rebuild never reads
    /// them; see [`ServingEngine::release_reanchor_pages`]) and the
    /// reason a re-anchoring giant session can never wedge the pool
    /// against its own rebuild.
    fn release_reanchor_pages(&mut self, task: &T, drained: &[Vec<Arrival<T::Obs>>]) {
        for (s, batch) in drained.iter().enumerate() {
            let reqs = Self::requests_of(&self.sessions, s, batch);
            let _ = self.shards[s].release_reanchor_pages(task, &reqs);
        }
    }

    /// Pop every arrival of `victim` out of the drained batch and requeue
    /// it at the *front* of its shard queue (FIFO preserved, ticket stays
    /// pending — the same mechanics as a backpressure deferral). Returns
    /// how many arrivals were deferred.
    fn defer_session(
        &mut self,
        victim: GlobalSessionId,
        drained: &mut [Vec<Arrival<T::Obs>>],
    ) -> usize {
        let mut deferred = 0usize;
        for (s, batch) in drained.iter_mut().enumerate() {
            let mut kept = Vec::with_capacity(batch.len());
            let mut back = Vec::new();
            for a in batch.drain(..) {
                if a.session == victim {
                    back.push(a);
                } else {
                    kept.push(a);
                }
            }
            *batch = kept;
            deferred += back.len();
            if !back.is_empty() {
                self.queues[s].requeue_front(back);
            }
        }
        deferred
    }

    /// The memory guard, run between the drain and
    /// the step: re-anchoring sessions return their pages up front, then
    /// while the tick's page demand exceeds the pool's free list, reclaim
    /// the [`EvictionPolicy`]'s chosen victim's pages (it re-anchors on
    /// its next step). Victims are never sessions whose arrivals are in
    /// the drained batch — evicting work we are about to serve forces an
    /// immediate re-anchor of that very work (the pre-fix bug: the scan
    /// recomputed its exclusion set per iteration, so a just-deferred
    /// session — which serves next tick — was evicted by accident,
    /// undoing the deferral's whole point; regression-pinned in
    /// tests/paged_serving.rs).
    ///
    /// When pressure persists and every page-holding session is in the
    /// batch, one of them must yield or the pool freezes (nothing served
    /// → nothing grows or re-anchors → the same tick repeats forever).
    /// The guard then *sacrifices* one batch member — chosen by the
    /// eviction policy's own order, never the oldest arrival's session,
    /// so the tick always serves someone — deferring its arrival and
    /// reclaiming its pages as a single decision.
    ///
    /// When no victim remains at all, defer the globally youngest drained
    /// arrivals back to the front of their queues — admission
    /// backpressure instead of OOM growth, and their tickets stay
    /// pending, so nothing is lost. After this guard every reservation
    /// inside the step succeeds under any thread interleaving.
    /// (Evictions only grow the free list, so demand is recomputed only
    /// when a deferral shrinks the batch.)
    pub(super) fn memory_guard(
        &mut self,
        task: &T,
        drained: &mut [Vec<Arrival<T::Obs>>],
    ) -> MemoryReport {
        let mut report = MemoryReport::default();
        let Some(pool) = self.pool.clone() else { return report };
        self.release_reanchor_pages(task, drained);
        // Computed ONCE from the batch as drained: a session deferred for
        // backpressure stays protected for the rest of the tick.
        let protected: BTreeSet<GlobalSessionId> =
            drained.iter().flatten().map(|a| a.session).collect();
        let mut demand = self.batch_demand(task, drained);
        loop {
            if demand <= pool.free_pages() {
                break;
            }
            if let Some(victim) = self.eviction_victim(task, &protected) {
                self.evict_session(victim, task);
                report.evicted.push(victim);
                continue;
            }
            // Every page holder is in the batch. Sacrifice by policy
            // order, sparing the oldest arrival's session (progress
            // guarantee); defer-and-evict is one decision, so the victim
            // is never served in the tick that cleared its cache.
            let oldest = drained
                .iter()
                .flatten()
                .min_by_key(|a| a.ticket)
                .map(|a| a.session)
                .expect("demand > 0 implies a non-empty batch");
            let spare: BTreeSet<GlobalSessionId> = [oldest].into_iter().collect();
            if let Some(victim) = self.eviction_victim(task, &spare) {
                report.deferred += self.defer_session(victim, drained);
                self.evict_session(victim, task);
                report.evicted.push(victim);
                demand = self.batch_demand(task, drained);
                continue;
            }
            // No reclaimable victim anywhere: defer the globally youngest
            // drained arrival. The loop converges — every deferral
            // strictly shrinks the batch, and a batch of one always fits:
            // its session either grows incrementally (held + delta ≤ one
            // full-context session ≤ capacity) or re-anchors (pages
            // pre-released above, rebuild ≤ one full-context session ≤
            // capacity — the `for_model` floor; regression-tested in
            // tests/paged_serving.rs).
            let youngest = drained
                .iter()
                .enumerate()
                .filter_map(|(s, b)| b.last().map(|a| (a.ticket, s)))
                .max_by_key(|&(ticket, _)| ticket);
            let Some((_, s)) = youngest else { break };
            let arrival = drained[s].pop().expect("shard batch has a last element");
            self.queues[s].requeue_front(vec![arrival]);
            report.deferred += 1;
            demand = self.batch_demand(task, drained);
        }
        report
    }
}
