//! Sharded serving: one logical fleet over K independent engines.
//!
//! A [`ShardedServer`] fronts K [`ServingEngine`] shards behind a route
//! table. Each shard is a complete engine — own slots, own KV caches, own
//! batched steps — so the shard boundary is clean: nothing is shared
//! between shards but the (read-only) model weights.
//!
//! One front end drives the fleet — [`ShardedServer::submit`] →
//! [`ShardedServer::tick`] → [`ShardedServer::poll`]: observation arrivals
//! enqueue asynchronously into per-shard [`AdmissionQueue`]s (stamped by a
//! logical arrival clock, tagged with their adapter group) and come back
//! as [`Ticket`]s; each `tick` drains every shard's queue at the tick
//! boundary — at most one arrival per session, FIFO within a session —
//! steps the busy shards, and banks the actions for `poll`. Sessions join,
//! answer and leave mid-stream; nobody orchestrates a batch.
//!
//! ```text
//!  submit(id,obs) ─► Ticket     ┌ q0 ─ drain ─► shard 0: ServingEngine ┐
//!    (arrival clock, adapter ──►│ q1 ─ drain ─► shard 1: ServingEngine ├─ tick ─► poll(Ticket)
//!     tag, backpressure cap)    └ qK ─ drain ─► shard K: ServingEngine ┘      ─► actions
//!                join ─► AdmissionPolicy: LeastLoaded | PageAware
//!                                 (NT_THREADS: one worker per busy shard)
//! ```
//!
//! Placement is one family ([`AdmissionPolicy`]): `LeastLoaded` admits to
//! the shard with the fewest live slots; `PageAware` — for fleets with a
//! page pool — places by page pressure with a same-backbone tie-break
//! (see [`crate::sched`]) and *steers*: at every tick boundary, while a
//! shard holds more pool pages than the policy's budget, the coldest
//! (least-recently-served) session is migrated to the lightest shard.
//! Every steer is gated by [`crate::sched::steer_improves`], so a move
//! never lands on a shard whose pool lacks the victim's pages. Steering and
//! rebalance-on-leave ([`ShardedServer::leave`]) share one guard: a
//! session is steered at most once per tick cycle, so the two mechanisms
//! can both fire in a tick without double-migrating anyone
//! (regression-tested in `tests/admission.rs`).
//!
//! Migration ([`ShardedServer::steer`]) parks a session (KV cache +
//! episode state travel wholesale, queued arrivals follow) and re-admits
//! it on another shard — per-session math is untouched, so served answers
//! stay bit-identical across migrations. Today shards are per-core
//! (`NT_THREADS`-capped pool workers, so per-matmul and band parallelism
//! never stack a second thread layer underneath); the same route-table
//! design extends to per-process and per-host shards later — a shard is
//! just an index.
//!
//! **Fault tolerance**: each shard is a
//! recoverable failure domain. A [`FaultPlan`] armed via
//! [`ShardedServer::inject`] crashes/stalls shards, poisons single steps
//! or drops drained batches at exact tick points; the per-tick
//! [`HealthChecker`] walks silent shards Healthy → Suspect (retry with
//! backoff — a stalled shard revives with all state intact) → Dead. On
//! death the shard's sessions are salvaged — KV pages died with the
//! process and are reclaimed, episode logs survive — re-placed on
//! surviving shards by the admission policy and re-anchored by the same
//! replay eviction uses, its queue backlog is redistributed, every
//! displaced ticket resolves `Requeued`/`Failed` via
//! [`ShardedServer::poll_status`] instead of hanging, and the dead
//! shard's pool budget share is permanently retired (degraded capacity →
//! deferral, never loss). Gated end to end by
//! `nt-bench/tests/fault_soak.rs`.
//!
//! **Module map** — five files, each an `impl` block of the one
//! [`ShardedServer`]:
//!
//! | file | holds |
//! |---|---|
//! | `mod.rs` | the struct, constructors, `submit` / `tick` / `poll`, the shard fan-out |
//! | `table.rs` | one `Route` per live session; one state per ticket (absent = `Pending`) |
//! | `placement.rs` | join and leave, admission placement, rebalance, manual and budget steering |
//! | `memory.rs` | page demand of a drained batch, the eviction order, the memory guard |
//! | `recovery.rs` | the two fault firing points, heartbeats and health, recovery of a dead shard |
//!
//! [`ShardedServer::tick`] reads top to bottom as the pipeline: revive
//! stalls + fire pre-drain faults → heartbeats / observe / recover →
//! drain → fire mid-tick faults → memory guard → plan+step → settle →
//! steer.

use crate::fault::{FaultPlan, FaultReport};
use crate::health::{HealthChecker, HealthConfig};
use crate::metrics::{MetricsRegistry, TickPhase, TICK_PHASES};
use crate::sched::{
    AdmissionPolicy, AdmissionQueue, Arrival, EvictionPolicy, SubmitError, TickReport, Ticket,
    TicketStatus,
};
use crate::serving::{ServedTask, ServingEngine, SessionId};
use crate::telemetry::{EventKind, TelemetryRing};
use nt_llm::PagePool;
use recovery::CrashState;
use std::collections::BTreeMap;
use std::time::Instant;
use table::{Route, SessionTable, TicketLedger};

mod memory;
mod placement;
mod recovery;
mod table;

/// Resident capacity of the fleet's event journal (see
/// [`crate::telemetry::TelemetryRing`]): enough to hold several dense
/// ticks' worth of events between scrapes without the journal growing
/// with load.
const JOURNAL_CAPACITY: usize = 4096;

/// Fleet-wide session handle issued by [`ShardedServer::join`].
pub type GlobalSessionId = u64;

/// Pending arrivals a shard's queue accepts before `submit` pushes back.
pub const QUEUE_CAP: usize = 1024;

/// What [`ShardedServer::leave`] hands back: nothing of a departing
/// session is silently dropped — served-but-unpolled actions and
/// still-queued arrivals (whose tickets will now never resolve) come back
/// to the caller, oldest first.
#[must_use = "a departing session's unpolled actions and queued arrivals are returned, not dropped"]
#[derive(Debug)]
pub struct LeaveReport<A, O> {
    /// Served actions the session never polled, by ticket, oldest first.
    pub unpolled: Vec<(Ticket, A)>,
    /// Arrivals still queued at departure, by ticket, oldest first.
    pub dropped_arrivals: Vec<(Ticket, O)>,
}

impl<A, O> LeaveReport<A, O> {
    /// True when the session left nothing behind.
    pub fn is_clean(&self) -> bool {
        self.unpolled.is_empty() && self.dropped_arrivals.is_empty()
    }
}

/// K independent [`ServingEngine`] shards behind a route table, stepped
/// by `submit` → `tick` → `poll`.
///
/// The front end in one breath — join, submit, tick until served, poll,
/// leave:
///
/// ```
/// use netllm::{AdaptMode, NetLlmAbr, ShardedServer, TicketStatus};
/// use nt_abr::AbrObservation;
/// use nt_llm::{size_spec, Zoo};
///
/// let zoo = Zoo::new(std::env::temp_dir().join("netllm-shard-doctest"));
/// let abr = NetLlmAbr::new(
///     zoo.build_random(&size_spec("0.35b-sim")),
///     AdaptMode::NoDomain,
///     4,  // observation window
///     7,  // adapter seed
/// );
/// let mut server: ShardedServer<NetLlmAbr> = ShardedServer::new(2);
/// let id = server.join(&abr);
/// let obs = AbrObservation::synthetic_stream(7, 1).remove(0);
/// let ticket = server.submit(id, obs).unwrap();
/// server.tick(&abr);
/// let TicketStatus::Served(rung) = server.poll_status(ticket) else {
///     panic!("one tick serves a lone arrival");
/// };
/// assert!(!server.last_logits(id).is_empty());
/// assert!(server.leave(id).is_clean());
/// # let _ = rung;
/// ```
pub struct ShardedServer<T: ServedTask> {
    shards: Vec<ServingEngine<T>>,
    /// One record per live session: where it lives, its backbone group,
    /// when it last answered, whether it already moved this tick cycle.
    sessions: SessionTable,
    next_id: GlobalSessionId,
    /// Placement (and, for `PageAware`, steering) policy.
    policy: AdmissionPolicy,
    /// One pending-arrival queue per shard.
    queues: Vec<AdmissionQueue<T::Obs>>,
    /// One state per ticket a poll can still observe: `Requeued`,
    /// `Served` (with its action) or `Failed`; absent = `Pending`.
    tickets: TicketLedger<T::Action>,
    /// Tickets are issued in submission order, so the next ticket number
    /// doubles as the logical arrival clock stamped onto queued
    /// observations.
    next_ticket: u64,
    /// Tick counter (drives the coldest-session bookkeeping).
    tick_no: u64,
    /// Fleet-wide KV page pool (every shard's sessions draw from it); the
    /// global hard bound on KV memory when set.
    pool: Option<PagePool>,
    /// How the memory guard reclaims pages when a tick's demand exceeds
    /// the pool's free list.
    eviction: EvictionPolicy,
    /// Per-shard serving counters (served / steered / evicted / queue
    /// depth), shared with the benches via [`ShardedServer::metrics`].
    metrics: MetricsRegistry,
    /// Armed fault schedule ([`ShardedServer::inject`]); drained as ticks
    /// pass its events' fire points.
    faults: FaultPlan,
    /// Per-shard Healthy → Suspect → Dead state machines over the
    /// heartbeats each tick snapshots.
    health: HealthChecker,
    /// Ground truth of the simulated shard processes (what the health
    /// checker can only infer from missing beats).
    crashed: Vec<CrashState>,
    /// Fleet width at construction — a dead shard keeps its index (routes
    /// stay dense), so this is the divisor for a shard's pool share.
    initial_shards: usize,
    /// Pool pages minted at construction (capacity shrinks as shards die).
    pool_minted: usize,
    /// Largest one-full-context-session page count over every backbone
    /// admitted so far — retirement never shrinks capacity below this, or
    /// a recovered giant session could defer forever.
    floor_pages: usize,
    /// Bounded event journal (tick spans, evictions, steers, faults) —
    /// the ordered companion to `metrics`' totals, drained by cursor via
    /// [`ShardedServer::journal`].
    journal: TelemetryRing,
}

impl<T: ServedTask> ShardedServer<T> {
    /// A fleet of `num_shards` empty engines placing by
    /// [`AdmissionPolicy::LeastLoaded`].
    pub fn new(num_shards: usize) -> Self {
        Self::with_policy(num_shards, AdmissionPolicy::LeastLoaded)
    }

    /// A pool-less fleet of `num_shards` empty engines admitting under
    /// `policy`. Panics on [`AdmissionPolicy::PageAware`]: a page policy
    /// needs the pool [`ShardedServer::with_memory`] takes.
    pub fn with_policy(num_shards: usize, policy: AdmissionPolicy) -> Self {
        Self::build(num_shards, policy, None, EvictionPolicy::None)
    }

    /// A fleet whose sessions draw KV pages from one fleet-wide `pool`:
    /// total KV bytes are hard-bounded by the pool budget at every
    /// instant. Each tick boundary runs the memory guard — reserve pages
    /// for the tick's exact demand ([`ServedTask::plan_rows`]), reclaim
    /// under pressure per `eviction`, and defer drained arrivals back to
    /// their admission queues — caches kept while the next tick can grow
    /// them, and whenever even eviction cannot cover the tick
    /// (backpressure instead of OOM growth).
    pub fn with_memory(
        num_shards: usize,
        policy: AdmissionPolicy,
        pool: PagePool,
        eviction: EvictionPolicy,
    ) -> Self {
        Self::build(num_shards, policy, Some(pool), eviction)
    }

    fn build(
        num_shards: usize,
        policy: AdmissionPolicy,
        pool: Option<PagePool>,
        eviction: EvictionPolicy,
    ) -> Self {
        assert!(num_shards >= 1, "a fleet needs at least one shard");
        Self::check_policy(policy, pool.is_some());
        let pool_minted = pool.as_ref().map(PagePool::capacity_pages).unwrap_or(0);
        ShardedServer {
            shards: (0..num_shards)
                .map(|_| match &pool {
                    Some(p) => ServingEngine::with_page_pool(p.clone()),
                    None => ServingEngine::new(),
                })
                .collect(),
            sessions: SessionTable::default(),
            next_id: 0,
            policy,
            queues: (0..num_shards).map(|_| AdmissionQueue::with_capacity(QUEUE_CAP)).collect(),
            tickets: TicketLedger::default(),
            next_ticket: 0,
            tick_no: 0,
            pool,
            eviction,
            metrics: MetricsRegistry::new(num_shards),
            faults: FaultPlan::new(),
            health: HealthChecker::new(num_shards, HealthConfig::default()),
            crashed: vec![CrashState::Up; num_shards],
            initial_shards: num_shards,
            pool_minted,
            floor_pages: 0,
            journal: TelemetryRing::new(JOURNAL_CAPACITY),
        }
    }

    /// The fleet's per-shard metrics registry (see [`crate::metrics`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The fleet's event journal (see [`crate::telemetry`]). Readers
    /// drain it by cursor; the scrape endpoint serves it as
    /// `Frame::EventsBatch`.
    pub fn journal(&self) -> &TelemetryRing {
        &self.journal
    }

    /// The fleet logical clock: ticks run so far (the `clock` stamped on
    /// journal events).
    pub fn tick_count(&self) -> u64 {
        self.tick_no
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live sessions across the fleet.
    pub fn active(&self) -> usize {
        self.shards.iter().map(ServingEngine::active).sum()
    }

    /// Live sessions per shard (the rebalance policy's balance view).
    pub fn active_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(ServingEngine::active).collect()
    }

    /// Head outputs of `id`'s most recent step.
    pub fn last_logits(&self, id: GlobalSessionId) -> &[f32] {
        let r = self.sessions.get(id);
        self.shards[r.shard].last_logits(r.local)
    }

    // ---- submit / tick / poll -------------------------------------------

    /// Enqueue an observation for `id`'s next decision. Returns the
    /// [`Ticket`] to redeem via [`ShardedServer::poll`] after a future
    /// [`ShardedServer::tick`] serves it — or a [`SubmitError`] carrying
    /// the observation back: [`SubmitError::QueueFull`] when the
    /// session's shard queue is at its backpressure cap (a tick's drain
    /// frees space), [`SubmitError::RetryAfterTick`] when its shard is
    /// Suspect (the health checker will revive it or re-admit the session
    /// on a survivor). Nothing is silently lost at either refusal;
    /// [`crate::SubmitRetry`] is the deterministic backoff loop callers
    /// use. Arrivals are stamped with a fleet-wide logical arrival clock
    /// (the ticket sequence — tickets are issued in submission order) and
    /// the session's adapter group; a session may hold any number of
    /// queued arrivals, served one per tick in FIFO order.
    pub fn submit(
        &mut self,
        id: GlobalSessionId,
        obs: T::Obs,
    ) -> Result<Ticket, SubmitError<T::Obs>> {
        let &Route { shard, group, .. } = self.sessions.get(id);
        if !self.health.state(shard).is_healthy() {
            // Suspect: the shard may revive (stall) or be declared dead
            // and its sessions re-admitted elsewhere — either way a tick
            // resolves it. Routes never point to Dead shards (recovery
            // re-routes at declaration).
            return Err(SubmitError::RetryAfterTick { obs });
        }
        let seq = self.next_ticket;
        let arrival = Arrival { ticket: Ticket(seq), session: id, group, obs };
        match self.queues[shard].push(arrival) {
            Ok(()) => {
                self.next_ticket += 1;
                Ok(Ticket(seq))
            }
            Err(refused) => Err(SubmitError::QueueFull { obs: refused.obs }),
        }
    }

    /// Arrivals queued across the fleet.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(AdmissionQueue::len).sum()
    }

    /// Arrivals queued for one session.
    pub fn pending_of(&self, id: GlobalSessionId) -> usize {
        self.queues[self.shard_of(id)].pending_of(id)
    }

    /// Served-but-unpolled actions.
    pub fn ready(&self) -> usize {
        self.tickets.ready()
    }

    /// Redeem a ticket: `Some(action)` exactly once after the tick that
    /// served it, `None` while it is still queued (or after it was
    /// already polled, or after its session left).
    pub fn poll(&mut self, ticket: Ticket) -> Option<T::Action> {
        self.tickets.poll(ticket)
    }

    /// Redeem a ticket with its fault-aware resolution: `Served(action)`
    /// or `Failed` exactly once (terminal — like [`ShardedServer::poll`],
    /// a resolved ticket is consumed), `Requeued` while a fault has
    /// displaced the arrival back into a queue (it will serve on a later
    /// tick), `Pending` otherwise. Under any injected fault schedule
    /// every ticket reaches `Served` or `Failed` once the queues drain —
    /// no ticket hangs (the fault-soak gate's first invariant).
    pub fn poll_status(&mut self, ticket: Ticket) -> TicketStatus<T::Action> {
        self.tickets.poll_status(ticket)
    }

    /// Serve one scheduled tick: every shard drains its queue at this
    /// tick boundary (at most one arrival per session, FIFO within a
    /// session), the memory guard reserves the tick's page demand
    /// (evicting / deferring under pressure — see
    /// [`ShardedServer::with_memory`]), busy shards run one batched
    /// [`ServingEngine::step`] each (on `NT_THREADS` pool workers), served
    /// actions are banked for
    /// [`ShardedServer::poll`], and — under
    /// [`AdmissionPolicy::PageAware`] — the steering pass migrates the
    /// coldest sessions off any shard whose held pages crossed the budget.
    /// Per-slot math is independent of batching and fan-out, so served
    /// logits equal each session's unbatched replay (gated at 1e-5 in
    /// `nt-bench/tests/continuous_batching.rs`).
    pub fn tick(&mut self, task: &T) -> TickReport
    where
        T: Sync,
        T::Obs: Sync,
        T::Slot: Send,
        T::Action: Send,
    {
        self.tick_no += 1;
        let tick = self.tick_no;
        let k = self.shards.len();
        let mut faults = FaultReport::default();

        // Before the drain (see `recovery.rs`): expired stalls revive,
        // pre-drain faults fire, and the health checker reads this tick's
        // heartbeats — a shard it declares Dead is recovered here, so its
        // sessions' arrivals serve this same tick on the survivors.
        self.revive_stalls(tick);
        self.fire_pre_drain_faults(tick, &mut faults);
        self.observe_health(tick, &mut faults);

        // The five timed phases — drain → memory guard → plan+step →
        // settle → steer — each recorded through `record_span` (the
        // per-shard histograms plus this tick's fleet totals).
        let mut phase_ns = [0u64; TICK_PHASES];

        // Phase 1, drain: the Healthy shards' queues at the boundary (a
        // Suspect shard's work waits — retry/backoff, not recovery).
        let mut drained: Vec<Vec<Arrival<T::Obs>>> = Vec::with_capacity(k);
        for s in 0..k {
            let t0 = Instant::now();
            let batch = if self.health.state(s).is_healthy() {
                self.queues[s].drain_tick()
            } else {
                Vec::new()
            };
            self.record_span(&mut phase_ns, TickPhase::Drain, s..s + 1, t0);
            drained.push(batch);
        }

        // Mid-tick faults fire between the drain and the step: a drained
        // arrival a fault catches in flight is requeued or failed.
        self.fire_mid_tick_faults(tick, &mut drained, &mut faults);

        // Phase 2, memory guard: reserve the tick's page demand (evicting
        // / deferring under pressure). A fleet-wide pass (one pool, one
        // reservation), so its span lands identically on every shard's
        // row — see [`TickPhase::MemoryGuard`].
        let t0 = Instant::now();
        let mut memory = self.memory_guard(task, &mut drained);
        self.record_span(&mut phase_ns, TickPhase::MemoryGuard, 0..k, t0);
        let per: Vec<Vec<(SessionId, &T::Obs)>> = drained
            .iter()
            .enumerate()
            .map(|(s, batch)| Self::requests_of(&self.sessions, s, batch))
            .collect();

        // Phase 3, plan+step: the busy shards, each timing its own step.
        let stepped = self.step_partitioned(task, &per);
        phase_ns[TickPhase::PlanStep as usize] = stepped.iter().map(|(_, ns)| ns).sum();

        // Phase 4, settle: bank the actions under their tickets.
        let mut served = 0usize;
        let mut by_label: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (s, (batch, (actions, step_ns))) in drained.into_iter().zip(stepped).enumerate() {
            debug_assert_eq!(batch.len(), actions.len(), "shard returned a ragged tick");
            if batch.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            let shard_served = batch.len();
            for (a, action) in batch.into_iter().zip(actions) {
                self.tickets.serve(a.ticket, a.session, action);
                self.sessions.mark_served(a.session, tick);
                *by_label.entry(task.task_label(a.group)).or_default() += 1;
                served += 1;
            }
            self.record_span(&mut phase_ns, TickPhase::Settle, s..s + 1, t0);
            self.journal.record(
                tick,
                EventKind::TickSpan {
                    shard: s as u32,
                    served: shard_served as u32,
                    span_ns: step_ns,
                },
            );
        }
        for (&label, &n) in &by_label {
            self.metrics.record_label_served(label, n as u64);
        }

        // Phase 5, steer: budget steering at the tick boundary (a
        // fleet-wide pass, recorded like the memory guard above).
        let t0 = Instant::now();
        self.steer_over_budget();
        self.record_span(&mut phase_ns, TickPhase::Steer, 0..k, t0);

        // Close the tick cycle: report every steer since the previous
        // boundary (rebalance-on-leave + the pass above) and reset the
        // double-migration guard.
        let steered = self.sessions.end_cycle();
        if let Some(pool) = &self.pool {
            memory.used_bytes = pool.used_bytes();
        }
        for (s, q) in self.queues.iter().enumerate() {
            self.metrics.set_queue_depth(s, q.len() as u64);
            self.metrics.set_held_pages(s, self.shards[s].pages_held() as u64);
        }
        self.metrics.set_free_pages(self.pool_stats().map(|st| st.free_pages as u64).unwrap_or(0));
        faults.suspect = (0..k).filter(|&s| self.health.state(s).is_suspect()).collect();
        TickReport {
            tick,
            served,
            steered,
            pending: self.pending(),
            served_by_label: by_label.into_iter().collect(),
            memory,
            faults,
            phase_ns,
        }
    }

    /// Close one tick-phase span opened at `since`: its wall-ns go onto
    /// the histogram row of every shard in `shards` (one shard for the
    /// per-shard phases, the whole fleet for the fleet-wide passes) and,
    /// once, onto this tick's fleet total.
    fn record_span(
        &self,
        phase_ns: &mut [u64; TICK_PHASES],
        phase: TickPhase,
        shards: std::ops::Range<usize>,
        since: Instant,
    ) {
        let ns = since.elapsed().as_nanos() as u64;
        for s in shards {
            self.metrics.record_phase_ns(s, phase, ns);
        }
        phase_ns[phase as usize] += ns;
    }

    /// Step every shard with a non-empty batch, fanning the busy shards
    /// out over `NT_THREADS` pool workers (contiguous bands of shards per
    /// worker — [`nt_tensor::pool::for_each_block_mut`] with one shard
    /// per block). Returns, per shard, its actions in batch order and its
    /// step's wall-ns (empty and zero for idle shards). The per-shard
    /// spans feed the [`TickPhase::PlanStep`] histograms.
    fn step_partitioned(
        &mut self,
        task: &T,
        per: &[Vec<(SessionId, &T::Obs)>],
    ) -> Vec<(Vec<T::Action>, u64)>
    where
        T: Sync,
        T::Obs: Sync,
        T::Slot: Send,
        T::Action: Send,
    {
        let mut stepped: Vec<_> = (0..self.shards.len()).map(|_| (Vec::new(), 0u64)).collect();
        // (shard, engine, batch, answers, step ns) per busy shard.
        let mut busy: Vec<_> = self
            .shards
            .iter_mut()
            .zip(per)
            .enumerate()
            .filter(|(_, (_, b))| !b.is_empty())
            .map(|(s, (e, b))| (s, e, b.as_slice(), Vec::new(), 0u64))
            .collect();
        nt_tensor::pool::for_each_block_mut(&mut busy, 1, |_, block| {
            for (_, engine, batch, actions, ns) in block {
                let t0 = Instant::now();
                *actions = engine.step(task, batch);
                *ns = t0.elapsed().as_nanos() as u64;
            }
        });
        for (s, _, _, actions, ns) in busy {
            self.metrics.record_served(s, actions.len() as u64);
            self.metrics.record_phase_ns(s, TickPhase::PlanStep, ns);
            stepped[s] = (actions, ns);
        }
        stepped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::AdaptMode;
    use crate::NetLlmAbr;
    use nt_abr::{AbrObservation, AbrPolicy};
    use nt_llm::{size_spec, Zoo};

    fn model(window: usize, seed: u64) -> NetLlmAbr {
        let loaded = Zoo::new(std::env::temp_dir().join("netllm-shard-test"))
            .build_random(&size_spec("0.35b-sim"));
        let mut m = NetLlmAbr::new(loaded, AdaptMode::NoDomain, window, seed);
        m.target_return = 2.0;
        m
    }

    /// One full round: submit every request, tick once, poll in request
    /// order.
    fn serve_round(
        server: &mut ShardedServer<NetLlmAbr>,
        m: &NetLlmAbr,
        reqs: &[(GlobalSessionId, &AbrObservation)],
    ) -> Vec<usize> {
        let tickets: Vec<Ticket> =
            reqs.iter().map(|&(id, o)| server.submit(id, o.clone()).unwrap()).collect();
        server.tick(m);
        tickets.into_iter().map(|t| server.poll(t).expect("one tick serves the round")).collect()
    }

    #[test]
    fn router_spreads_sessions_and_accounts_per_shard() {
        let m = model(4, 1);
        let mut server = ShardedServer::new(3);
        let ids: Vec<_> = (0..9).map(|_| server.join(&m)).collect();
        assert_eq!(server.active(), 9);
        // Default placement is `LeastLoaded`: 9 joins spread 3/3/3, each
        // landing on the least-occupied shard (ties to the lowest index).
        assert_eq!(server.active_per_shard(), vec![3, 3, 3]);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(server.shard_of(id), i % 3);
        }
        // Cache accounting is per shard and starts empty.
        assert_eq!(server.cache_bytes(), 0);
        let obs = AbrObservation::synthetic_stream(3, 1);
        let reqs: Vec<_> = ids.iter().map(|&id| (id, &obs[0])).collect();
        let _ = serve_round(&mut server, &m, &reqs);
        let bytes: Vec<usize> = server.shards.iter().map(ServingEngine::cache_bytes).collect();
        assert_eq!(bytes.iter().sum::<usize>(), server.cache_bytes());
        assert!(bytes.iter().all(|&b| b > 0), "every busy shard holds KV bytes: {bytes:?}");
    }

    #[test]
    fn ticks_with_idle_shards_only_step_busy_engines() {
        // A fleet larger than the request set must serve correctly (and
        // answer in request order) when most shards have nothing to do.
        let mut m = model(3, 7);
        let mut server = ShardedServer::new(8);
        let a = server.join(&m);
        let b = server.join(&m);
        let obs = AbrObservation::synthetic_stream(5, 4);

        let mut expected: Vec<Vec<usize>> = Vec::new();
        for _ in 0..2 {
            m.reset();
            expected.push(obs.iter().map(|o| m.select(o)).collect());
        }
        for (t, o) in obs.iter().enumerate() {
            let got = serve_round(&mut server, &m, &[(a, o), (b, o)]);
            assert_eq!(got, vec![expected[0][t], expected[1][t]], "tick {t} diverged");
        }
    }

    #[test]
    fn steer_and_rebalance_preserve_session_answers() {
        // A session's decisions must be identical whether it stays home,
        // is steered mid-stream, or is dragged along by rebalance-on-leave.
        let mut m = model(3, 2);
        let streams: Vec<Vec<AbrObservation>> =
            (0..5).map(|s| AbrObservation::synthetic_stream(40 + s as u64, 8)).collect();

        // Reference: each stream alone through the unbatched path.
        let mut expected: Vec<Vec<(usize, Vec<f32>)>> = Vec::new();
        for obs in &streams {
            m.reset();
            expected.push(obs.iter().map(|o| (m.select(o), m.last_logits().to_vec())).collect());
        }

        let mut server = ShardedServer::new(2);
        let ids: Vec<_> = (0..streams.len()).map(|_| server.join(&m)).collect();
        for chunk in 0..streams[0].len() {
            // Mid-stream churn: steer stream 0 back and forth, and drop
            // stream 4 so rebalance-on-leave has something to fix.
            if chunk == 2 {
                server.steer(ids[0], 1 - server.shard_of(ids[0]));
            }
            if chunk == 4 {
                let report = server.leave(ids[4]);
                assert!(report.is_clean(), "fully polled sessions leave nothing behind");
                let per = server.active_per_shard();
                assert!(
                    per.iter().max().unwrap() - per.iter().min().unwrap() <= 1,
                    "rebalance-on-leave left the fleet skewed: {per:?}"
                );
            }
            let live = if chunk >= 4 { &ids[..4] } else { &ids[..] };
            let reqs: Vec<_> =
                live.iter().enumerate().map(|(s, &id)| (id, &streams[s][chunk])).collect();
            let actions = serve_round(&mut server, &m, &reqs);
            for (s, (&id, act)) in live.iter().zip(actions).enumerate() {
                let (eact, elogits) = &expected[s][chunk];
                assert_eq!(act, *eact, "stream {s} chunk {chunk}: sharded action diverged");
                for (x, y) in server.last_logits(id).iter().zip(elogits) {
                    assert!(
                        (x - y).abs() < 1e-5,
                        "stream {s} chunk {chunk}: sharded {x} vs unbatched {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn scheduled_ticks_serve_queued_arrivals_in_session_order() {
        // The continuous front end must serve a backlogged session one
        // decision per tick, FIFO, with logits equal to the unbatched
        // path — and tickets must resolve exactly once.
        let mut m = model(3, 11);
        let obs = AbrObservation::synthetic_stream(21, 4);
        let mut expected: Vec<(usize, Vec<f32>)> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push((m.select(o), m.last_logits().to_vec()));
        }

        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        // Backlog all four observations before any tick fires.
        let tickets: Vec<Ticket> =
            obs.iter().map(|o| server.submit(id, o.clone()).unwrap()).collect();
        assert_eq!(server.pending(), 4);
        for (t, ticket) in tickets.iter().enumerate() {
            assert_eq!(server.poll(*ticket), None, "ticket {t} must not resolve before its tick");
            let report = server.tick(&m);
            assert_eq!(report.served, 1, "one decision per session per tick");
            assert_eq!(report.pending, obs.len() - t - 1);
            let action = server.poll(*ticket).expect("served ticket must resolve");
            assert_eq!(action, expected[t].0, "tick {t}: scheduled action diverged");
            for (x, y) in server.last_logits(id).iter().zip(&expected[t].1) {
                assert!((x - y).abs() < 1e-5, "tick {t}: scheduled {x} vs unbatched {y}");
            }
            assert_eq!(server.poll(*ticket), None, "a ticket resolves exactly once");
        }
        // An empty tick is a no-op, not a panic.
        let report = server.tick(&m);
        assert_eq!((report.served, report.pending), (0, 0));
    }

    #[test]
    fn leave_reclaims_unpolled_actions_and_queued_arrivals() {
        // A session that departs without polling must leave no residue:
        // its queued arrivals are dropped and its served-but-unpolled
        // actions are reclaimed (long-running fleets otherwise leak one
        // banked action per crashed client).
        let m = model(3, 13);
        let obs = AbrObservation::synthetic_stream(23, 3);
        let mut server = ShardedServer::with_policy(1, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        let t0 = server.submit(id, obs[0].clone()).unwrap();
        let t1 = server.submit(id, obs[1].clone()).unwrap();
        let _ = server.tick(&m); // serves obs[0]; obs[1] stays queued
        assert_eq!((server.ready(), server.pending()), (1, 1));
        let report = server.leave(id);
        assert_eq!((server.ready(), server.pending()), (0, 0), "no residue after leave");
        assert_eq!(server.poll(t0), None, "a departed session's banked action is reclaimed");
        assert_eq!(server.poll(t1), None, "a dropped arrival's ticket never resolves");
        // ...but nothing was silently dropped: the report hands both back.
        assert!(!report.is_clean());
        let unpolled: Vec<Ticket> = report.unpolled.iter().map(|&(t, _)| t).collect();
        assert_eq!(unpolled, vec![t0], "the banked action comes back to the caller");
        let dropped: Vec<Ticket> = report.dropped_arrivals.iter().map(|&(t, _)| t).collect();
        assert_eq!(dropped, vec![t1], "the queued arrival comes back to the caller");
    }

    #[test]
    fn submit_pushes_back_at_the_queue_cap() {
        let m = model(3, 12);
        let mut server = ShardedServer::with_policy(1, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        let obs = AbrObservation::synthetic_stream(22, 1).remove(0);
        for _ in 0..QUEUE_CAP {
            assert!(server.submit(id, obs.clone()).is_ok());
        }
        let refused = server.submit(id, obs);
        let err = refused.expect_err("the submit past the cap must hit backpressure");
        assert!(err.is_queue_full(), "a healthy shard at the cap refuses with QueueFull");
        let _ = server.tick(&m);
        assert!(server.submit(id, err.into_obs()).is_ok(), "a tick frees queue space");
    }

    #[test]
    fn killed_shard_recovers_sessions_and_resolves_every_ticket() {
        // Unit-scale recovery check (the full adversarial soak lives in
        // nt-bench/tests/fault_soak.rs): kill one of two shards mid-tick
        // with an arrival in flight; the health checker must declare it,
        // salvage its session onto the survivor, and resolve the orphaned
        // ticket as Requeued-then-Served — with logits equal to the
        // unbatched no-fault replay.
        let mut m = model(3, 17);
        let obs = AbrObservation::synthetic_stream(29, 6);
        let mut expected: Vec<(usize, Vec<f32>)> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push((m.select(o), m.last_logits().to_vec()));
        }

        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        server.set_health_config(crate::HealthConfig::fast());
        let id = server.join(&m);
        let home = server.shard_of(id);
        server.inject(FaultPlan::new().kill(3, home));
        let mut served = Vec::new();
        let mut tickets: std::collections::VecDeque<(usize, Ticket)> = Default::default();
        let mut next = 0usize;
        let mut retry = crate::SubmitRetry::new();
        for t in 1..=14u64 {
            if next < obs.len() && retry.ready(t) {
                match server.submit(id, obs[next].clone()) {
                    Ok(ticket) => {
                        tickets.push_back((next, ticket));
                        retry.succeeded();
                        next += 1;
                    }
                    Err(e) => {
                        assert!(e.is_retry_after_tick(), "suspect shard refuses with retry");
                        retry.refused(t, &e);
                    }
                }
            }
            let report = server.tick(&m);
            if report.tick == 3 {
                assert_eq!(report.faults.killed, vec![home], "kill fires at its tick");
            }
            if !report.faults.declared_dead.is_empty() {
                assert_eq!(report.faults.declared_dead, vec![home]);
                assert_eq!(report.faults.sessions_recovered, 1);
                assert_eq!(server.shard_of(id), 1 - home, "salvaged onto the survivor");
            }
            while let Some(&(i, ticket)) = tickets.front() {
                match server.poll_status(ticket) {
                    TicketStatus::Served(a) => {
                        assert_eq!(a, expected[i].0, "decision {i} diverged after recovery");
                        served.push(i);
                        tickets.pop_front();
                    }
                    TicketStatus::Failed => panic!("no fault here fails tickets"),
                    TicketStatus::Requeued | TicketStatus::Pending => break,
                }
            }
        }
        assert!(tickets.is_empty(), "every ticket must resolve — none may hang");
        assert_eq!(served, (0..obs.len()).collect::<Vec<_>>(), "all decisions served in order");
        for (x, y) in server.last_logits(id).iter().zip(&expected[obs.len() - 1].1) {
            assert!((x - y).abs() < 1e-5, "post-recovery logits diverged: {x} vs {y}");
        }
        let f = server.metrics().snapshot().faults;
        assert_eq!(f.shard_kills, 1);
        assert_eq!(f.sessions_recovered, 1);
        assert!(server.health().state(home).is_dead());
    }

    #[test]
    fn stalled_shard_revives_without_recovery() {
        // A transient stall shorter than the miss threshold must cost
        // only latency: no declaration, no salvage, answers identical.
        let mut m = model(3, 19);
        let obs = AbrObservation::synthetic_stream(31, 4);
        let mut expected: Vec<usize> = Vec::new();
        m.reset();
        for o in &obs {
            expected.push(m.select(o));
        }
        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        let id = server.join(&m);
        let home = server.shard_of(id);
        server.inject(FaultPlan::new().stall(2, home, 2));
        let tickets: Vec<Ticket> =
            obs.iter().map(|o| server.submit(id, o.clone()).unwrap()).collect();
        for _ in 0..12 {
            let report = server.tick(&m);
            assert!(report.faults.declared_dead.is_empty(), "a short stall must not declare");
            assert_eq!(report.faults.sessions_recovered, 0);
        }
        assert_eq!(server.shard_of(id), home, "no migration for a transient fault");
        for (i, t) in tickets.iter().enumerate() {
            match server.poll_status(*t) {
                TicketStatus::Served(a) => assert_eq!(a, expected[i], "decision {i} diverged"),
                s => panic!("ticket {i} unresolved after revival: {s:?}"),
            }
        }
        assert_eq!(server.metrics().snapshot().faults.shard_kills, 0);
    }
}
