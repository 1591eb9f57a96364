//! Serving throughput: aggregate decision rate of the batched
//! `ServingEngine` at batch sizes 1/4/16/64, against 16 independent
//! single-stream sessions. `perf`'s `single_stream` / `dense_direct`
//! workloads and `serving.step_ms.b16` carry the tracked numbers; the
//! enforced >= 3x gate lives in `tests/serving_throughput.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netllm::{AdaptMode, LoraSpec, NetLlmAbr, ServingEngine};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_llm::{size_spec, Zoo};

const CHUNKS: usize = 12;

fn obs_stream(seed: u64) -> Vec<AbrObservation> {
    AbrObservation::synthetic_stream(seed, CHUNKS)
}

fn model() -> NetLlmAbr {
    let zoo = Zoo::new(std::env::temp_dir().join("bench-throughput-zoo"));
    let mut m = NetLlmAbr::new(
        zoo.build_random(&size_spec("7b-sim")),
        AdaptMode::NoDomain,
        LoraSpec::default(),
        8,
        1,
    );
    m.target_return = 2.0;
    m
}

/// One engine serving B streams for CHUNKS chunks each.
#[allow(clippy::needless_range_loop)]
fn batched_serving(c: &mut Criterion) {
    let m = model();
    let mut group = c.benchmark_group("serving");
    for batch in [1usize, 4, 16, 64] {
        let streams: Vec<Vec<AbrObservation>> = (0..batch).map(|s| obs_stream(s as u64)).collect();
        group.bench_with_input(BenchmarkId::new("batched", batch), &batch, |b, _| {
            b.iter(|| {
                let mut engine = ServingEngine::new();
                let ids: Vec<_> = (0..batch).map(|_| engine.join(&m)).collect();
                for c in 0..CHUNKS {
                    let reqs: Vec<_> =
                        ids.iter().enumerate().map(|(s, &id)| (id, &streams[s][c])).collect();
                    let _ = engine.step(&m, &reqs);
                }
            })
        });
    }
    // The baseline the >= 3x gate compares against: 16 sessions decoded
    // one after another on a dedicated single-stream model.
    let streams: Vec<Vec<AbrObservation>> = (0..16).map(|s| obs_stream(s as u64)).collect();
    let mut m16 = model();
    group.bench_function("sequential_16", |b| {
        b.iter(|| {
            for obs in &streams {
                m16.reset();
                for o in obs {
                    let _ = m16.select(o);
                }
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = batched_serving
}
criterion_main!(benches);
