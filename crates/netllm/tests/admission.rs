//! Admission-policy behaviour through a real served fleet: `LeastLoaded`
//! placement, `PageAware` budget steering over an ample page pool (no-op
//! below the budget, steers above it, never onto a destination whose free
//! list cannot absorb the victim), and the double-migration regression —
//! rebalance-on-leave and budget steering both firing in one tick cycle
//! must never steer the same session twice. Budgets are in pool pages.

use netllm::{AdmissionPolicy, EvictionPolicy, NetLlmAbr, ShardedServer, Ticket};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_llm::{size_spec, PageConfig, PagePool, Zoo};

fn model(window: usize, seed: u64) -> NetLlmAbr {
    let loaded = Zoo::new(std::env::temp_dir().join("netllm-admission-test"))
        .build_random(&size_spec("0.35b-sim"));
    let mut m = NetLlmAbr::new(loaded, netllm::AdaptMode::NoDomain, window, seed);
    m.target_return = 2.0;
    m
}

/// A `shards`-wide fleet over a pool ample enough that the memory guard
/// never evicts or defers: joins place by `LeastLoaded`, and each test
/// tightens a `PageAware` budget mid-run through `set_policy`.
fn pooled_fleet(m: &NetLlmAbr, shards: usize) -> (ShardedServer<NetLlmAbr>, PagePool) {
    let pool = PagePool::for_model(&m.lm, PageConfig { page_tokens: 8, budget_bytes: 1 << 20 });
    let server = ShardedServer::with_memory(
        shards,
        AdmissionPolicy::LeastLoaded,
        pool.clone(),
        EvictionPolicy::None,
    );
    (server, pool)
}

/// Submit one observation per session, tick once, poll every ticket.
fn serve_round(
    server: &mut ShardedServer<NetLlmAbr>,
    m: &NetLlmAbr,
    ids: &[u64],
    obs: &[AbrObservation],
) -> netllm::TickReport {
    let tickets: Vec<Ticket> =
        ids.iter().map(|&id| server.submit(id, obs[0].clone()).unwrap()).collect();
    let report = server.tick(m);
    for t in tickets {
        server.poll(t).expect("submitted ticket must resolve after the tick");
    }
    report
}

#[test]
fn least_loaded_placement_spreads_joins_evenly() {
    let m = model(4, 31);
    let mut server = ShardedServer::with_policy(2, AdmissionPolicy::LeastLoaded);
    let ids: Vec<u64> = (0..4).map(|_| server.join(&m)).collect();
    // Deterministic alternation: ties break to the lowest shard index.
    let shards: Vec<usize> = ids.iter().map(|&id| server.shard_of(id)).collect();
    assert_eq!(shards, vec![0, 1, 0, 1]);
    assert_eq!(server.active_per_shard(), vec![2, 2]);
}

/// A page policy on a pool-less fleet is a configuration error, refused
/// up front at both places a policy can be set.
#[test]
#[should_panic(expected = "with_memory")]
fn page_policy_without_a_pool_is_rejected_at_construction() {
    let _ =
        ShardedServer::<NetLlmAbr>::with_policy(2, AdmissionPolicy::PageAware { budget_pages: 8 });
}

#[test]
#[should_panic(expected = "with_memory")]
fn page_policy_without_a_pool_is_rejected_by_set_policy() {
    let mut server = ShardedServer::<NetLlmAbr>::new(2);
    server.set_policy(AdmissionPolicy::PageAware { budget_pages: 8 });
}

#[test]
fn cache_aware_noop_below_budget_steers_above_and_respects_it() {
    let m = model(3, 32);
    let obs = AbrObservation::synthetic_stream(77, 12);

    // Start under LeastLoaded so four sessions spread 2/2, and grow some
    // KV state.
    let (mut server, pool) = pooled_fleet(&m, 2);
    let ids: Vec<u64> = (0..4).map(|_| server.join(&m)).collect();
    for round in 0..3 {
        let report = serve_round(&mut server, &m, &ids, &obs[round..]);
        assert!(report.steered.is_empty(), "LeastLoaded must not steer: {report:?}");
        assert_eq!(report.served_by_label, vec![("abr", 4)]);
    }
    let total = pool.used_pages(); // every lent page is held by a session
    let per_session = total / 4;
    assert!(per_session > 1, "sessions must hold a few pool pages by now");

    // Generous budget: the steering pass must be a no-op even with the
    // fleet imbalanced 3/1.
    server.set_policy(AdmissionPolicy::PageAware { budget_pages: 2 * total });
    let on1 = ids.iter().copied().find(|&id| server.shard_of(id) == 1).unwrap();
    server.steer(on1, 0);
    assert_eq!(server.active_per_shard(), vec![3, 1]);
    let report = server.tick(&m); // empty tick: steering pass only
                                  // The manual steer above is part of this tick cycle's report…
    assert_eq!(report.steered, vec![on1]);
    // …but the budget pass itself must not have moved anyone else.
    assert_eq!(server.active_per_shard(), vec![3, 1], "below budget the pass is a no-op");

    // Budget between 2 and 3 sessions' pages — but first the case a byte
    // budget could not express: with the free list (held hostage through
    // a second handle on the pool) one page short of the victim, no
    // destination can absorb it, so the over-budget shard keeps it rather
    // than steer into an eviction on arrival.
    let budget = per_session * 5 / 2;
    server.set_policy(AdmissionPolicy::PageAware { budget_pages: budget });
    let hostage = pool.alloc_pages(pool.free_pages() - (per_session - 1)).unwrap();
    let report = server.tick(&m);
    assert!(report.steered.is_empty(), "no free pages for the victim, no steer: {report:?}");
    assert_eq!(server.active_per_shard(), vec![3, 1]);
    pool.release_pages(hostage);

    // Pages back: exactly one steer fixes the 3/1 skew, and every shard
    // lands under the budget.
    let report = server.tick(&m);
    assert_eq!(report.steered.len(), 1, "one migration must fix the skew: {report:?}");
    let held = server.pages_held_per_shard();
    assert!(
        held.iter().all(|&p| p <= budget),
        "every shard must fit the budget {budget}: {held:?}"
    );
    assert_eq!(server.active_per_shard(), vec![2, 2]);
    // Stable below the budget: a further tick steers nobody.
    let report = server.tick(&m);
    assert!(report.steered.is_empty(), "under-budget fleet must be stable: {report:?}");

    // Steering preserved every session's stream: continue serving and
    // compare against the unbatched path.
    let mut m_ref = model(3, 32);
    for &id in &ids {
        let t = server.submit(id, obs[3].clone()).unwrap();
        let _ = server.tick(&m);
        let _ = server.poll(t).unwrap();
        m_ref.reset();
        let mut expected = Vec::new();
        for o in &obs[..4] {
            let _ = m_ref.select(o);
            expected = m_ref.last_logits().to_vec();
        }
        for (x, y) in server.last_logits(id).iter().zip(&expected) {
            assert!((x - y).abs() < 1e-5, "steered session {id} diverged: {x} vs {y}");
        }
    }
}

#[test]
fn victimless_hot_shard_does_not_block_steering_cooler_shards() {
    // Regression for the steering pass giving up on the *hottest*
    // over-budget shard: when every session there was already steered
    // this tick cycle, the pass must move on to cooler over-budget shards
    // that still hold eligible, improving victims instead of breaking
    // out. The post-condition of a finished pass: any shard still over
    // budget either had all its sessions steered this cycle or has no
    // strictly-improving move left.
    let m = model(3, 34);
    let obs = AbrObservation::synthetic_stream(99, 6);

    let (mut server, pool) = pooled_fleet(&m, 3);
    let ids: Vec<u64> = (0..7).map(|_| server.join(&m)).collect();
    assert_eq!(server.active_per_shard(), vec![3, 2, 2]);
    for round in 0..2 {
        let _ = serve_round(&mut server, &m, &ids, &obs[round..]);
    }
    let per_session = pool.used_pages() / 7;
    assert!(per_session > 0);

    // Build: shard 2 = four sessions, all steered this cycle (hottest,
    // victimless); shard 0 = three unsteered sessions (over budget,
    // fixable); shard 1 = empty (headroom).
    server.steer(ids[2], 1); // bounce shard 2's residents to mark them
    server.steer(ids[2], 2);
    server.steer(ids[5], 1);
    server.steer(ids[5], 2);
    server.steer(ids[1], 2); // shard 1 donates both sessions
    server.steer(ids[4], 2);
    assert_eq!(server.active_per_shard(), vec![3, 0, 4]);

    let budget = per_session * 5 / 2;
    server.set_policy(AdmissionPolicy::PageAware { budget_pages: budget });
    let report = server.tick(&m);
    // Shard 0 (3 sessions, over budget, free victims, empty shard 1 to
    // move to) must have been fixed even though the hotter shard 2 had no
    // eligible victim left.
    let held = server.pages_held_per_shard();
    assert!(held[0] <= budget, "cooler over-budget shard was not fixed: {held:?} vs {budget}");
    assert!(report.steered.contains(&ids[0]), "lowest-id coldest victim moves: {report:?}");
    assert_eq!(server.shard_of(ids[0]), 1, "victim lands on the empty shard");
    // Whatever is still over budget is exactly the all-steered shard.
    for (shard, &shard_pages) in held.iter().enumerate() {
        if shard_pages <= budget {
            continue;
        }
        for &id in ids.iter().filter(|&&id| server.shard_of(id) == shard) {
            assert!(
                report.steered.contains(&id),
                "shard {shard} is over budget ({shard_pages} > {budget}) yet session {id} \
                 was never steered this cycle: {report:?}"
            );
        }
    }
}

#[test]
fn rebalance_and_cache_steering_never_double_migrate_in_one_tick() {
    let m = model(3, 33);
    let obs = AbrObservation::synthetic_stream(88, 8);

    let (mut server, pool) = pooled_fleet(&m, 3);
    let ids: Vec<u64> = (0..7).map(|_| server.join(&m)).collect();
    assert_eq!(server.active_per_shard(), vec![3, 2, 2]);
    for round in 0..2 {
        let _ = serve_round(&mut server, &m, &ids, &obs[round..]);
    }
    let logits_before: Vec<Vec<f32>> =
        ids.iter().map(|&id| server.last_logits(id).to_vec()).collect();

    // Drop a shard-1 session: the 3/1/2 skew triggers rebalance-on-leave,
    // which steers the lowest-id shard-0 session (the victim) to shard 1.
    let victim = ids[0];
    let _ = server.leave(ids[1]);
    assert_eq!(server.active_per_shard(), vec![2, 2, 2], "rebalance-on-leave must level");
    assert_eq!(server.shard_of(victim), 1, "rebalance steers the lowest-id victim");

    // Pile a third session onto the victim's shard: shard 1 is now the
    // only over-budget shard, and the victim is its lowest-id, coldest
    // session — exactly what the budget pass would pick were it not
    // already steered this cycle.
    server.steer(ids[6], 1);
    assert_eq!(server.active_per_shard(), vec![1, 3, 2]);
    let per_session = pool.used_pages() / 6;
    server.set_policy(AdmissionPolicy::PageAware { budget_pages: per_session * 5 / 2 });

    let report = server.tick(&m);
    assert!(
        report.steered.contains(&victim),
        "the rebalance steer belongs to this tick cycle: {report:?}"
    );
    assert!(
        report.steered.len() > 2,
        "the budget pass must have fired in the same cycle: {report:?}"
    );
    assert_eq!(
        server.shard_of(victim),
        1,
        "a session steered by rebalance must not be steered again by the budget pass"
    );
    // The pass moved shard 1's one unguarded session instead (ids[4]),
    // bringing every shard under budget without a double migration.
    assert_eq!(server.active_per_shard(), vec![2, 2, 2]);
    // Double-migration would also have to preserve the victim's logits —
    // the single sanctioned steer certainly must.
    assert_eq!(server.last_logits(victim), &logits_before[0][..]);

    // The cycle closed: a further tick is stable and steers nobody.
    let report = server.tick(&m);
    assert!(report.steered.is_empty(), "under-budget fleet must be stable: {report:?}");
}
