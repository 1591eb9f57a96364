//! Release gates for the tier-2 kernels: persistent worker pool +
//! register-blocked GEMM. CI runs
//! `cargo test --release -p nt-bench --test kernel_tier2`.
//!
//! - **Correctness, unconditionally.** Batch-64 logits of a K=4 fleet
//!   must match an unbatched single-session replay at 1e-5. Element-level
//!   kernel equivalence — bit-identity to the naive ascending-`k` triple
//!   loop — is pinned in `crates/tensor/tests/kernel_props.rs`, attention
//!   in `crates/nn/tests/attention_props.rs`.
//! - **Pool dispatch.** The PR 5 build paid a `std::thread::scope` spawn
//!   on every parallel dispatch. The gate times the persistent pool's
//!   full round trip (publish, fan out, join) against that spawn and
//!   demands ≥ 5x at p50; measured gaps are 2-3 orders of magnitude.
//!
//! Absolute kernel and fleet speed are `perf` metrics
//! (`tensor.matmul_gmacs.*`, `dense_direct.decisions_per_s`); the
//! 1.15-1.27x register-tile win over the since-deleted PR 2 kernel is
//! frozen in `reports/BENCH_6.json`.

#![cfg(not(debug_assertions))]
#![allow(clippy::needless_range_loop)] // tick index drives parallel arrays

use netllm::{
    step_single, AdmissionPolicy, InferenceSession, NetLlmAbr, ServedTask, ShardedServer, Ticket,
};
use nt_abr::AbrObservation;
use nt_llm::{size_spec, Zoo};
use std::time::Instant;

const BATCH: usize = 64;
const SHARDS: usize = 4;
const TICKS: usize = 12;

fn model(seed: u64) -> NetLlmAbr {
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-kernel-tier2"));
    let mut m = NetLlmAbr::new(
        zoo.build_random(&size_spec("7b-sim")),
        netllm::AdaptMode::NoDomain,
        8,
        seed,
    );
    m.target_return = 2.0;
    m
}

/// One queued B=64/K=4 pass: per-(session, step) logits.
fn fleet_pass(m: &NetLlmAbr, streams: &[Vec<AbrObservation>]) -> Vec<Vec<Vec<f32>>> {
    let mut logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
    let mut server = ShardedServer::with_policy(SHARDS, AdmissionPolicy::LeastLoaded);
    let ids: Vec<_> = (0..BATCH).map(|_| server.join(m)).collect();
    for t in 0..TICKS {
        let tickets: Vec<Ticket> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| server.submit(id, streams[s][t].clone()).unwrap())
            .collect();
        let report = server.tick(m);
        assert_eq!(report.served, BATCH, "unbudgeted fleet must serve every submit");
        for ticket in tickets {
            let _ = server.poll(ticket).expect("ticket resolves in its tick");
        }
        for (s, &id) in ids.iter().enumerate() {
            logits[s].push(server.last_logits(id).to_vec());
        }
    }
    logits
}

#[test]
fn kernel_tier2_gate_equivalence_then_throughput_then_dispatch() {
    let workers = nt_tensor::pool::num_threads();
    let m = model(63);
    let streams: Vec<Vec<AbrObservation>> =
        (0..BATCH).map(|s| AbrObservation::synthetic_stream(14_000 + s as u64, TICKS)).collect();

    let fleet_logits = fleet_pass(&m, &streams);

    // ---- equivalence: batched fleet vs unbatched per-session replay ---
    for (s, obs) in streams.iter().enumerate() {
        let mut ep = m.new_slot(0);
        let mut sess = InferenceSession::new(&m.lm);
        for (i, o) in obs.iter().enumerate() {
            let out = step_single(&m, &mut ep, &mut sess, o);
            for (x, y) in out.logits.iter().zip(&fleet_logits[s][i]) {
                assert!((x - y).abs() < 1e-5, "stream {s} step {i}: unbatched {x} vs batched {y}");
            }
        }
    }
    println!("kernel tier2 equivalence at B={BATCH}, K={SHARDS}: unbatched replay at 1e-5");

    // ---- persistent-pool dispatch vs the PR 5 scoped spawn ------------
    let fan = workers.max(2);
    let p50 = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut pool_ns: Vec<f64> = (0..2000)
        .map(|_| {
            let t = Instant::now();
            nt_tensor::pool::run_tasks(fan, |_| {});
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let mut spawn_ns: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            std::thread::scope(|s| {
                for _ in 0..fan {
                    s.spawn(|| {});
                }
            });
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    let (pool_p50, spawn_p50) = (p50(&mut pool_ns), p50(&mut spawn_ns));
    let dispatch_ratio = spawn_p50 / pool_p50.max(1.0);
    println!(
        "pool dispatch ({fan} tasks): p50 {pool_p50:.0} ns vs scoped spawn {spawn_p50:.0} ns \
         ({dispatch_ratio:.0}x)"
    );
    assert!(
        dispatch_ratio >= 5.0,
        "persistent-pool dispatch must beat a per-call scoped spawn by >= 5x at p50: \
         pool {pool_p50:.0} ns vs spawn {spawn_p50:.0} ns ({dispatch_ratio:.1}x)"
    );
}
