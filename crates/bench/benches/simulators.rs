//! Criterion micro-benchmarks of the simulation substrates: these bound the
//! experiment turnaround (every figure is built on thousands of simulated
//! sessions/workloads).

use criterion::{criterion_group, criterion_main, Criterion};
use nt_abr::{envivio_like, generate, run_session, Bba, Mpc, TraceKind};
use nt_cjs::{generate_workload, run_workload, Fair, Fifo, WorkloadConfig};
use nt_tensor::Rng;
use nt_vp::{extract_samples, generate as gen_vp, jin2022_like, DatasetSpec};

fn abr_benches(c: &mut Criterion) {
    let video = envivio_like(&mut Rng::seeded(1));
    let trace = generate(TraceKind::FccLike, 400, &mut Rng::seeded(2));
    c.bench_function("abr_session_bba", |b| b.iter(|| run_session(&mut Bba, &video, &trace)));
    c.bench_function("abr_session_mpc", |b| {
        b.iter(|| run_session(&mut Mpc::default(), &video, &trace))
    });
    c.bench_function("abr_trace_generation", |b| {
        let mut rng = Rng::seeded(3);
        b.iter(|| generate(TraceKind::SynthWide, 400, &mut rng))
    });
}

fn cjs_benches(c: &mut Criterion) {
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 40, mean_interarrival: 1.5, seed: 4 });
    c.bench_function("cjs_workload_fifo", |b| b.iter(|| run_workload(&mut Fifo, &jobs, 50, None)));
    c.bench_function("cjs_workload_fair", |b| b.iter(|| run_workload(&mut Fair, &jobs, 50, None)));
}

fn vp_benches(c: &mut Criterion) {
    c.bench_function("vp_dataset_generation", |b| {
        b.iter(|| gen_vp(&DatasetSpec { videos: 2, viewers: 2, secs: 20, ..jin2022_like() }))
    });
    let ds = gen_vp(&DatasetSpec { videos: 2, viewers: 2, secs: 30, ..jin2022_like() });
    c.bench_function("vp_sample_extraction", |b| {
        b.iter(|| extract_samples(&ds, &[0, 1], &[0, 1], 10, 20, 5, 100))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = abr_benches, cjs_benches, vp_benches
}
criterion_main!(benches);
