//! Property tests for the evict-vs-crash seam: a shard crash destroys KV
//! mid-flight (a CJS candidate may be half-applied, an ABR session
//! mid-window), and recovery re-anchors the salvaged sessions from their
//! episode logs on a survivor — the same path eviction takes, so the same
//! invariants must hold under *randomized* kill schedules:
//!
//! - **replay fidelity** — every recovered session's logits match the
//!   unbatched no-fault replay at 1e-5, whether the kill lands before the
//!   drain (the shard goes dark between ticks) or mid-tick (its drained
//!   batch is orphaned in the dead process), and whether the victim is
//!   the CJS session (candidate rollback state) or the ABR sessions
//!   (re-anchor window state);
//! - **no ticket hangs** — under kills, poisons and dropped batches every
//!   ticket resolves `Served` or `Failed` once the queues drain;
//! - **no page leaks** — `used + free == capacity` holds at every tick
//!   boundary across salvage, re-admission and capacity retirement, and
//!   every page is home once the server drops.
//!
//! Models are built once (the backbone is the expensive part); each
//! proptest case is one randomized fault schedule against them.

use netllm::{
    AdmissionPolicy, CjsObs, EvictionPolicy, FaultPlan, FleetObs, HealthConfig, ShardedServer,
    SubmitRetry, Ticket, TicketStatus, FLEET_ABR, FLEET_CJS,
};
use nt_abr::AbrObservation;
use nt_llm::{PageConfig, PagePool};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::OnceLock;

mod common;
use common::{fleet_models, replay_logits, FleetModels};

const WINDOW: usize = 3;
const STEPS: usize = 6;

fn models() -> &'static FleetModels {
    static M: OnceLock<FleetModels> = OnceLock::new();
    M.get_or_init(|| fleet_models("netllm-fault-recovery", WINDOW, 41))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// K=2 mixed fleet, one randomized kill: the CJS session (candidate
    /// rollback state) or the ABR session (re-anchor window state) loses
    /// its home shard before the drain or mid-tick. Every ticket must
    /// resolve Served in FIFO order with logits equal to the unbatched
    /// no-fault replay — crash recovery is eviction plus re-admission,
    /// nothing more.
    #[test]
    fn killed_fleet_shard_reanchors_cjs_and_abr_on_the_survivor(
        kill_tick in 2u64..6,
        mid_tick_bit in 0u8..2,
        kill_cjs_bit in 0u8..2,
    ) {
        let (mid_tick, kill_cjs_home) = (mid_tick_bit == 1, kill_cjs_bit == 1);
        let m = models();
        let fleet = m.fleet();
        let abr_obs = AbrObservation::synthetic_stream(71, STEPS);
        let cjs_obs = CjsObs::synthetic_stream(73, 6);
        prop_assert!(cjs_obs.len() >= STEPS, "CJS probe too short: {}", cjs_obs.len());
        let cjs_obs = &cjs_obs[..STEPS];
        let expected = [replay_logits(&m.abr, &abr_obs), replay_logits(&m.cjs, cjs_obs)];

        let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
        server.set_health_config(HealthConfig::fast());
        let ids = [server.join_group(&fleet, FLEET_ABR), server.join_group(&fleet, FLEET_CJS)];
        let victim = server.shard_of(ids[usize::from(kill_cjs_home)]);
        server.inject(if mid_tick {
            FaultPlan::new().kill(kill_tick, victim)
        } else {
            FaultPlan::new().kill_before_drain(kill_tick, victim)
        });

        let obs_of = |s: usize, i: usize| -> FleetObs {
            match s {
                0 => FleetObs::Abr(abr_obs[i].clone()),
                _ => FleetObs::Cjs(cjs_obs[i].clone()),
            }
        };
        let mut next = [0usize; 2];
        let mut retry = [SubmitRetry::new(), SubmitRetry::new()];
        let mut open: [VecDeque<(usize, Ticket)>; 2] = Default::default();
        let mut served = [0usize; 2];
        for t in 1..=24u64 {
            for s in 0..2 {
                if next[s] < STEPS && retry[s].ready(t) {
                    match server.submit(ids[s], obs_of(s, next[s])) {
                        Ok(ticket) => {
                            open[s].push_back((next[s], ticket));
                            retry[s].succeeded();
                            next[s] += 1;
                        }
                        Err(e) => {
                            prop_assert!(
                                e.is_retry_after_tick(),
                                "only a suspect shard refuses here"
                            );
                            retry[s].refused(t, &e);
                        }
                    }
                }
            }
            let _ = server.tick(&fleet);
            for s in 0..2 {
                while let Some(&(i, ticket)) = open[s].front() {
                    match server.poll_status(ticket) {
                        TicketStatus::Served(_) => {
                            let got = server.last_logits(ids[s]);
                            prop_assert_eq!(got.len(), expected[s][i].len());
                            for (x, y) in got.iter().zip(&expected[s][i]) {
                                prop_assert!(
                                    (x - y).abs() < 1e-5,
                                    "session {} step {}: served {} vs no-fault replay {}",
                                    s, i, x, y
                                );
                            }
                            served[s] += 1;
                            open[s].pop_front();
                        }
                        TicketStatus::Failed => {
                            return Err(format!(
                                "session {s} step {i}: a kill must requeue, never fail"
                            ));
                        }
                        TicketStatus::Requeued | TicketStatus::Pending => break,
                    }
                }
            }
        }
        prop_assert_eq!(served, [STEPS; 2]); // every submitted step must serve
        prop_assert!(open.iter().all(VecDeque::is_empty), "no ticket may hang");
        prop_assert!(server.health().state(victim).is_dead());
        // The victim's session lands on the survivor.
        prop_assert_eq!(server.shard_of(ids[usize::from(kill_cjs_home)]), 1 - victim);
        let f = server.metrics().snapshot().faults;
        prop_assert_eq!(f.shard_kills, 1);
        prop_assert!(f.sessions_recovered >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// K=3 paged server under randomized kill schedules (down to one
    /// survivor) plus a poison and a dropped batch: the page pool must
    /// balance `used + free == capacity` at every tick boundary through
    /// salvage, re-admission and capacity retirement; every ticket must
    /// reach Served or Failed; and every page must be home once the
    /// server drops.
    #[test]
    fn pool_pages_balance_under_arbitrary_kill_schedules(
        seed in 0u64..1_000_000,
        survivors in 1usize..3,
    ) {
        const SESSIONS: usize = 4;
        const PAGES: usize = 60;
        let m = &models().abr;
        let streams: Vec<Vec<AbrObservation>> =
            (0..SESSIONS).map(|s| AbrObservation::synthetic_stream(800 + s as u64, 4)).collect();
        let pool = PagePool::for_model(
            &m.lm,
            PageConfig { page_tokens: 8, budget_bytes: PAGES * 768 },
        );
        let mut server = ShardedServer::with_memory(
            3,
            AdmissionPolicy::LeastLoaded,
            pool.clone(),
            EvictionPolicy::CheapestRebuild,
        );
        server.set_health_config(HealthConfig::fast());
        let ids: Vec<_> = (0..SESSIONS).map(|_| server.join(m)).collect();

        let kills = 3 - survivors;
        let mut plan = FaultPlan::random_kills(seed, 3, survivors, 2, 8);
        plan = plan
            .poison(3 + seed % 4, ids[(seed % SESSIONS as u64) as usize])
            .drop_batch(4 + seed % 3, (seed % 3) as usize);
        server.inject(plan);

        let mut next = [0usize; SESSIONS];
        let mut retry: Vec<SubmitRetry> = (0..SESSIONS).map(|_| SubmitRetry::new()).collect();
        let mut open: Vec<(usize, Ticket)> = Vec::new();
        let mut terminal = 0usize;
        let mut last_retired = 0usize;
        for t in 1..=30u64 {
            for s in 0..SESSIONS {
                if next[s] < streams[s].len() && retry[s].ready(t) {
                    match server.submit(ids[s], streams[s][next[s]].clone()) {
                        Ok(ticket) => {
                            open.push((s, ticket));
                            retry[s].succeeded();
                            next[s] += 1;
                        }
                        Err(e) => retry[s].refused(t, &e),
                    }
                }
            }
            let _ = server.tick(m);
            let stats = server.pool_stats().expect("memory fleet exposes its pool");
            // Pool accounting must balance across recovery at every tick.
            prop_assert_eq!(stats.used_pages + stats.free_pages, stats.capacity_pages);
            prop_assert!(
                stats.retired_pages >= last_retired,
                "retirement is one-way"
            );
            last_retired = stats.retired_pages;
            open.retain(|&(_, ticket)| {
                match server.poll_status(ticket) {
                    TicketStatus::Served(_) | TicketStatus::Failed => {
                        terminal += 1;
                        false
                    }
                    TicketStatus::Requeued | TicketStatus::Pending => true,
                }
            });
        }
        prop_assert!(open.is_empty(), "every ticket must reach Served or Failed");
        prop_assert_eq!(terminal, next.iter().sum::<usize>()); // resolutions consumed once
        let f = server.metrics().snapshot().faults;
        prop_assert_eq!(f.shard_kills, kills as u64); // every scheduled kill is declared
        let stats = server.pool_stats().unwrap();
        prop_assert!(stats.retired_pages > 0, "a dead shard surrenders pool capacity");
        prop_assert!(
            stats.capacity_pages >= 20,
            "retirement is clamped above the one-session floor"
        );
        drop(server);
        prop_assert_eq!(pool.used_pages(), 0); // every page is home after the server drops
        let stats = pool.stats();
        prop_assert_eq!(stats.used_pages + stats.free_pages, stats.capacity_pages);
    }
}

/// A ticket is in one state at a time: one that a mid-tick kill marked
/// `Requeued` and a later dropped batch failed reads `Failed` exactly
/// once and is then consumed — it must not fall back to `Requeued`, a
/// promise of an answer that will never come.
#[test]
fn requeued_then_failed_ticket_reads_failed_once_then_pending() {
    let m = &models().abr;
    let obs = AbrObservation::synthetic_stream(91, 1).remove(0);
    let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
    server.set_health_config(HealthConfig::fast());
    let id = server.join(m);
    assert_eq!(server.shard_of(id), 0);
    let ticket = server.submit(id, obs).unwrap();
    // Tick 1: the arrival is drained, then its shard dies under it.
    server.inject(FaultPlan::new().kill(1, 0));
    let report = server.tick(m);
    assert_eq!(report.faults.arrivals_requeued, 1);
    assert_eq!(server.poll_status(ticket), TicketStatus::Requeued);
    // Drop the survivor's batch every tick: once shard 0 is declared dead
    // the arrival moves over, is drained there and lost with the batch.
    let mut failed = 0;
    for t in 2..=8 {
        server.inject(FaultPlan::new().drop_batch(t, 1));
        failed += server.tick(m).faults.tickets_failed;
        if failed == 1 {
            break;
        }
        assert_eq!(server.poll_status(ticket), TicketStatus::Requeued);
    }
    assert_eq!(failed, 1, "the recovered arrival is dropped with the survivor's batch");
    assert_eq!(server.poll_status(ticket), TicketStatus::Failed);
    assert_eq!(server.poll_status(ticket), TicketStatus::Pending, "a resolution is consumed");
}

/// `leave` reclaims everything a session left behind, an unpolled
/// `Failed` ticket included: afterwards the ticket reads `Pending`, like
/// every ticket of a departed session.
#[test]
fn leave_reclaims_an_unpolled_failed_ticket() {
    let m = &models().abr;
    let obs = AbrObservation::synthetic_stream(93, 1).remove(0);
    let mut server = ShardedServer::with_policy(1, AdmissionPolicy::LeastLoaded);
    let id = server.join(m);
    let ticket = server.submit(id, obs).unwrap();
    server.inject(FaultPlan::new().drop_batch(1, 0));
    assert_eq!(server.tick(m).faults.tickets_failed, 1);
    assert!(server.leave(id).is_clean(), "a failed ticket is neither an action nor an arrival");
    assert_eq!(server.poll_status(ticket), TicketStatus::Pending);
}
