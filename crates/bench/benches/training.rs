//! Training-step cost ablations: LoRA vs full fine-tune step time (Fig 4's
//! time axis) and DD-LRNA context-window scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netllm::{AdaptMode, NetLlmAbr, NetLlmVp};
use nt_llm::{size_spec, Zoo};
use nt_tensor::{Rng, Tensor};
use nt_vp::VpSample;

fn vp_sample() -> VpSample {
    let mut rng = Rng::seeded(1);
    VpSample {
        history: (0..10).map(|i| [0.0, 0.0, i as f32]).collect(),
        future: (0..20).map(|i| [0.0, 0.0, 10.0 + i as f32]).collect(),
        saliency: Tensor::randn([8, 8], 1.0, &mut rng),
    }
}

fn adaptation_step(c: &mut Criterion) {
    let zoo = Zoo::new(std::env::temp_dir().join("bench-training-zoo"));
    let spec = size_spec("7b-sim");
    let samples = vec![vp_sample()];
    let mut group = c.benchmark_group("vp_train_step");
    for (label, mode) in
        [("lora", AdaptMode::FullKnowledge), ("full_finetune", AdaptMode::NoPretrain)]
    {
        group.bench_with_input(BenchmarkId::new(label, "7b-sim"), &(), |b, _| {
            let mut m = NetLlmVp::new(zoo.build_random(&spec), mode, 20, 1);
            b.iter(|| m.adapt(&samples, 1, 1e-3, 2));
        });
    }
    group.finish();

    // DD-LRNA context window scaling (w ∈ {1, 5, 10}).
    let mut group = c.benchmark_group("abr_window_scaling");
    for w in [1usize, 5, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, &w| {
            let mut m = NetLlmAbr::new(zoo.build_random(&spec), AdaptMode::FullKnowledge, w, 3);
            let traj = netllm::AbrTrajectory {
                steps: (0..12)
                    .map(|i| netllm::AbrStep {
                        thr_hist: vec![2.0; 8],
                        delay_hist: vec![1.0; 8],
                        next_sizes: vec![1.0; 6],
                        buffer: 10.0 + i as f64,
                        action: i % 6,
                        reward: 1.0,
                    })
                    .collect(),
            };
            let data = vec![traj];
            b.iter(|| m.adapt(&data, 1, 1e-3, 4));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = adaptation_step
}
criterion_main!(benches);
