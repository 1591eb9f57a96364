//! Answer-generation latency: networking head (single inference) vs token
//! decoding (one inference per token) — the Fig 2 (right) and §5.4
//! computation-overhead measurements, per backbone size — plus the KV-cache
//! engine measurements: incremental decode vs full re-forward, and per-step
//! adapter latency through the shared `InferenceSession`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netllm::{AdaptMode, NetLlmAbr, NetLlmVp, PromptVp};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_llm::{size_spec, Zoo, SIZE_LADDER};
use nt_tensor::{Rng, Tensor};
use nt_vp::{VpPredictor, VpSample};

fn sample() -> VpSample {
    let mut rng = Rng::seeded(1);
    VpSample {
        history: (0..10).map(|i| [0.0, rng.uniform(-5.0, 5.0), i as f32]).collect(),
        future: (0..20).map(|i| [0.0, 0.0, 10.0 + i as f32]).collect(),
        saliency: Tensor::randn([8, 8], 1.0, &mut rng),
    }
}

fn head_vs_token(c: &mut Criterion) {
    let zoo = Zoo::new(std::env::temp_dir().join("bench-latency-zoo"));
    let s = sample();
    let mut group = c.benchmark_group("answer_generation");
    for label in ["0.35b-sim", "7b-sim"] {
        let spec = size_spec(label);
        let mut netllm_model = NetLlmVp::new(zoo.build_random(&spec), AdaptMode::NoDomain, 20, 1);
        group.bench_with_input(BenchmarkId::new("networking_head", label), &(), |b, _| {
            b.iter(|| netllm_model.predict(&s, 20))
        });
        let prompt_model = PromptVp::new(zoo.build_random(&spec));
        let mut rng = Rng::seeded(3);
        group.bench_with_input(BenchmarkId::new("token_decoding", label), &(), |b, _| {
            b.iter(|| prompt_model.generate(&s, &mut rng))
        });
    }
    group.finish();
    let _ = SIZE_LADDER; // full ladder covered by `figures --fig 16`
}

/// KV-cached incremental decode vs full re-forward, decoding out to
/// sequence length 136 from an 8-token prompt (the ≥ 5x acceptance gate is
/// enforced by `tests/kv_speedup.rs`; this bench reports the numbers).
fn cached_vs_uncached_decode(c: &mut Criterion) {
    let zoo = Zoo::new(std::env::temp_dir().join("bench-latency-zoo"));
    let loaded = zoo.build_random(&size_spec("7b-sim"));
    let mut rng = Rng::seeded(4);
    let ids: Vec<usize> = (0..136).map(|_| rng.below(loaded.tok.vocab_size())).collect();
    let mut group = c.benchmark_group("decode_len136");
    group.bench_function("kv_cached", |b| {
        b.iter(|| {
            let mut session = loaded.lm.start_session();
            for t in 8..=ids.len() {
                let _ = loaded.lm.next_token_logits_cached(&loaded.store, &ids[..t], &mut session);
            }
        })
    });
    group.bench_function("full_reforward", |b| {
        b.iter(|| {
            for t in 8..=ids.len() {
                let _ = loaded.lm.next_token_logits(&loaded.store, &ids[..t]);
            }
        })
    });
    group.finish();
}

/// Per-step ABR adapter latency through the shared `InferenceSession`:
/// one 48-chunk episode per iteration (the paper's rollout granularity).
fn adapter_step_latency(c: &mut Criterion) {
    let zoo = Zoo::new(std::env::temp_dir().join("bench-latency-zoo"));
    let mut m = NetLlmAbr::new(zoo.build_random(&size_spec("7b-sim")), AdaptMode::NoDomain, 10, 5);
    // Give the model a plausible target return without a full adapt() run.
    m.target_return = 2.0;
    let mut rng = Rng::seeded(6);
    let obs: Vec<AbrObservation> = (0..48)
        .map(|i| AbrObservation {
            throughput_hist: (0..8).map(|_| rng.uniform(0.5, 6.0) as f64).collect(),
            delay_hist: (0..8).map(|_| rng.uniform(0.5, 3.0) as f64).collect(),
            next_sizes: (0..6).map(|r| 0.5 + r as f64).collect(),
            buffer_secs: rng.uniform(2.0, 25.0) as f64,
            last_rung: (i > 0).then_some(0),
            remain_frac: 1.0 - i as f64 / 48.0,
            ladder_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
            chunk_index: i,
        })
        .collect();
    let mut group = c.benchmark_group("abr_adapter");
    group.bench_function("episode_48steps_cached", |b| {
        b.iter(|| {
            m.reset();
            for o in &obs {
                let _ = m.select(o);
            }
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = head_vs_token, cached_vs_uncached_decode, adapter_step_latency
}
criterion_main!(benches);
