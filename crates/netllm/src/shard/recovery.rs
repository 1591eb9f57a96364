//! Faults and what the fleet does about them: the simulated process
//! state of each shard, the two points in a tick where armed faults
//! fire, the heartbeat/health observation, and the recovery of a shard
//! declared dead.

use super::table::Route;
use super::{GlobalSessionId, ShardedServer};
use crate::fault::{Fault, FaultPlan, FaultReport};
use crate::health::{HealthChecker, HealthConfig, Heartbeat};
use crate::sched::Arrival;
use crate::serving::ServedTask;
use crate::telemetry::EventKind;

/// Simulated process state of one shard (the fault layer's ground truth).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum CrashState {
    Up,
    Stalled { until: u64 },
    Down,
}

impl<T: ServedTask> ShardedServer<T> {
    /// Arm (or extend) the fault schedule. Events fire inside future
    /// [`ShardedServer::tick`]s at their exact logical-clock points;
    /// events whose tick already passed fire on the next tick.
    pub fn inject(&mut self, plan: FaultPlan) {
        self.faults.extend(plan);
    }

    /// The per-shard health state machines (read side: states, last
    /// heartbeats, configured thresholds).
    pub fn health(&self) -> &HealthChecker {
        &self.health
    }

    /// Replace the health thresholds. Only before any failure: retuning a
    /// checker with Suspect/Dead shards would rewrite history.
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        assert!(
            self.health.states().iter().all(|s| s.is_healthy())
                && self.crashed.iter().all(|c| *c == CrashState::Up),
            "cannot retune health thresholds after failures began"
        );
        self.health = HealthChecker::new(self.shards.len(), cfg);
    }

    /// Shards currently Healthy (placement, steering and rebalance only
    /// ever target these).
    pub fn healthy_shards(&self) -> Vec<usize> {
        self.health.healthy_shards()
    }

    /// Revive expired stalls (the transient class: state intact, the
    /// next heartbeat snaps the shard back to Healthy).
    pub(super) fn revive_stalls(&mut self, tick: u64) {
        for c in &mut self.crashed {
            if matches!(*c, CrashState::Stalled { until } if tick >= until) {
                *c = CrashState::Up;
            }
        }
    }

    /// Fire the faults due before `tick`'s drain: the shard is already
    /// dark when this tick's heartbeats are snapshotted.
    pub(super) fn fire_pre_drain_faults(&mut self, tick: u64, faults: &mut FaultReport) {
        for f in self.faults.take_due(tick, true) {
            match f {
                Fault::Kill { shard, .. } => {
                    if self.crashed[shard] != CrashState::Down {
                        self.crashed[shard] = CrashState::Down;
                        faults.killed.push(shard);
                    }
                }
                Fault::Stall { shard, ticks } => {
                    if self.crashed[shard] == CrashState::Up {
                        self.crashed[shard] = CrashState::Stalled { until: tick + ticks };
                        faults.stalled.push(shard);
                    }
                }
                f => unreachable!("{f:?} is not a pre-drain fault"),
            }
        }
    }

    /// Snapshot this tick's heartbeats, let the health checker observe
    /// them, and recover every shard it newly declares Dead. Runs
    /// *before* the drain, so salvaged sessions' arrivals (redistributed
    /// to survivors' queues) serve this same tick.
    pub(super) fn observe_health(&mut self, tick: u64, faults: &mut FaultReport) {
        let beats: Vec<Option<Heartbeat>> = (0..self.shards.len())
            .map(|s| match self.crashed[s] {
                CrashState::Up => Some(Heartbeat {
                    tick,
                    occupancy: self.shards[s].active(),
                    queue_depth: self.queues[s].len(),
                    kv_bytes: self.shards[s].cache_bytes(),
                }),
                _ => None,
            })
            .collect();
        for s in self.health.observe(tick, &beats) {
            faults.declared_dead.push(s);
            self.metrics.record_shard_kill();
            self.journal.record(tick, EventKind::ShardDead { shard: s as u32 });
            self.recover_shard(s, faults);
        }
    }

    /// Fire the faults due mid-`tick`: after the drain, before the engine
    /// step — `drained` arrivals are in flight and must be requeued or
    /// failed, never lost.
    pub(super) fn fire_mid_tick_faults(
        &mut self,
        tick: u64,
        drained: &mut [Vec<Arrival<T::Obs>>],
        faults: &mut FaultReport,
    ) {
        for f in self.faults.take_due(tick, false) {
            match f {
                Fault::Kill { shard, .. } => {
                    if self.crashed[shard] == CrashState::Down || self.health.state(shard).is_dead()
                    {
                        continue;
                    }
                    self.crashed[shard] = CrashState::Down;
                    faults.killed.push(shard);
                    // The drained batch is orphaned in the dead process:
                    // back to the head of its queue (FIFO preserved),
                    // redistributed with the backlog at declaration.
                    let orphans = std::mem::take(&mut drained[shard]);
                    let n = orphans.len() as u64;
                    for a in &orphans {
                        self.tickets.requeue(a.ticket, a.session);
                    }
                    self.queues[shard].requeue_front(orphans);
                    faults.arrivals_requeued += n;
                    self.metrics.record_arrivals_requeued(n);
                }
                Fault::Poison { session } => {
                    let Some(&Route { shard: s, local, .. }) = self.sessions.find(session) else {
                        continue;
                    };
                    if !self.health.state(s).is_healthy() {
                        continue;
                    }
                    // Torn step: the in-flight arrival fails, and the
                    // session's KV is untrusted (a CJS candidate may sit
                    // half-applied) — drop it; the episode log was never
                    // touched mid-step, so the next step re-anchors to
                    // exactly the pre-poison stream.
                    if let Some(pos) = drained[s].iter().position(|a| a.session == session) {
                        let a = drained[s].remove(pos);
                        self.tickets.fail(a.ticket, a.session);
                        faults.tickets_failed += 1;
                        self.metrics.record_tickets_failed(1);
                    }
                    let rows = self.shards[s].kv_rows_of(local) as u64;
                    let _ = self.shards[s].evict(local);
                    faults.replay_rows += rows;
                    self.metrics.record_sessions_recovered(0, rows);
                }
                Fault::DropBatch { shard } => {
                    if !self.health.state(shard).is_healthy() {
                        continue;
                    }
                    let batch = std::mem::take(&mut drained[shard]);
                    let n = batch.len() as u64;
                    for a in batch {
                        self.tickets.fail(a.ticket, a.session);
                    }
                    faults.tickets_failed += n;
                    self.metrics.record_tickets_failed(n);
                }
                f => unreachable!("{f:?} is not a mid-tick fault"),
            }
        }
    }

    /// Recover a shard the health checker just declared Dead: salvage
    /// every routed session (KV pages died with the process and are
    /// reclaimed to the pool; the episode log survives and re-anchors the
    /// session on its next step, exactly like an eviction), re-place each
    /// on a Healthy shard via the admission policy, redistribute the dead
    /// shard's queue backlog to the sessions' new homes (FIFO per session
    /// preserved — `requeue` appends in order and a session's arrivals
    /// only ever lived in this one queue), and permanently retire the
    /// shard's share of the pool budget, clamped so one full-context
    /// session still fits (degraded capacity defers, never wedges).
    fn recover_shard(&mut self, dead: usize, report: &mut FaultReport) {
        self.crashed[dead] = CrashState::Down; // a fatal stall ends here too
        let victims: Vec<(GlobalSessionId, Route)> =
            self.sessions.iter().filter(|(_, r)| r.shard == dead).map(|(id, r)| (id, *r)).collect();
        let mut rows = 0u64;
        for &(id, Route { local, group, .. }) in &victims {
            let mut parked = self.shards[dead].park(local);
            rows += parked.kv_rows() as u64;
            parked.drop_kv();
            let dest = self.place_on_healthy(id, group);
            let new_local = self.shards[dest].admit(parked);
            self.sessions.recover(id, dest, new_local);
        }
        report.sessions_recovered += victims.len() as u64;
        report.replay_rows += rows;
        self.metrics.record_sessions_recovered(victims.len() as u64, rows);
        self.journal.record(
            self.tick_no,
            EventKind::Recovery {
                shard: dead as u32,
                sessions: victims.len() as u32,
                replay_rows: rows,
            },
        );
        let backlog = self.queues[dead].take_all();
        let n = backlog.len() as u64;
        for a in backlog {
            let dest = self.shard_of(a.session);
            self.tickets.requeue(a.ticket, a.session);
            self.queues[dest].requeue(a);
        }
        report.arrivals_requeued += n;
        self.metrics.record_arrivals_requeued(n);
        if let Some(pool) = &self.pool {
            let share = self.pool_minted / self.initial_shards;
            let ceiling = pool.capacity_pages().saturating_sub(self.floor_pages);
            let retired = pool.retire_pages(share.min(ceiling));
            report.retired_pages += retired as u64;
        }
    }
}
