//! The taped bits, pinned. Each of the four `fit` callers (ABR, CJS and VP
//! in `FullKnowledge` mode, and `PromptVp`) adapts a random `0.35b-sim`
//! backbone for 12 iterations on a small fixed dataset: Bba-recorded FCC
//! traces for ABR, SRPT episodes for CJS, `jin2022_like` samples for both
//! VP callers. The tail loss, the target return (ABR and CJS) and the bits
//! of every parameter, in id order, are folded into one FNV-1a digest per
//! caller.
//!
//! `served_bits` holds the eager (serving) side of every encoder,
//! projection and head; this test holds the taped side that DD-LRNA
//! descends through, backward pass and Adam steps included. A refactor
//! that claims to keep the taped bits must pass it unchanged.
//!
//! The constants also fold in the random weights and the synthetic
//! datasets, drawn through `Rng::normal` (Box–Muller on `f32` `ln` /
//! `sin` / `cos`) and `exp`, which the platform's libm serves. They were
//! computed against glibc on x86-64. On a libc whose libm rounds any of
//! these differently the digests differ with no kernel changed, so a
//! failure there is not by itself a taped-bits regression: compare the
//! digests at the parent commit on the same host first.

use netllm::{
    collect_episode, AbrRecorder, AbrTrajectory, AdaptMode, NetLlmAbr, NetLlmCjs, NetLlmVp,
    PromptVp,
};
use nt_abr::{envivio_like, generate_set, run_session, Bba, TraceKind};
use nt_cjs::{generate_workload, Srpt, WorkloadConfig};
use nt_llm::zoo::LoadedLm;
use nt_llm::{size_spec, Zoo};
use nt_nn::ParamStore;
use nt_tensor::Rng;
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec};

const ITERS: usize = 12;

fn backbone() -> LoadedLm {
    Zoo::new(std::env::temp_dir().join("netllm-adapt-bits")).build_random(&size_spec("0.35b-sim"))
}

/// FNV-1a over the scalars' bits, then every parameter's element count
/// and bits in id order.
fn digest(scalars: &[f32], store: &ParamStore) -> u64 {
    let mut words: Vec<u32> = scalars.iter().map(|x| x.to_bits()).collect();
    for id in store.ids() {
        let data = store.data(id).data();
        words.push(data.len() as u32);
        words.extend(data.iter().map(|x| x.to_bits()));
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in words.into_iter().flat_map(u32::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn abr_bits() -> u64 {
    let video = envivio_like(&mut Rng::seeded(1));
    let traces = generate_set(TraceKind::FccLike, 2, 250, &mut Rng::seeded(2));
    let data: Vec<AbrTrajectory> = traces
        .iter()
        .map(|t| {
            let mut bba = Bba;
            let mut rec = AbrRecorder::new(&mut bba);
            run_session(&mut rec, &video, t);
            rec.traj
        })
        .collect();
    let mut m = NetLlmAbr::new(backbone(), AdaptMode::FullKnowledge, 4, 3);
    let tail = m.adapt(&data, ITERS, 1e-3, 4);
    digest(&[tail, m.target_return], &m.store)
}

fn cjs_bits() -> u64 {
    let data: Vec<_> = [2, 3]
        .map(|seed| {
            let jobs =
                generate_workload(&WorkloadConfig { num_jobs: 5, mean_interarrival: 1.5, seed });
            collect_episode(&mut Srpt, &jobs, 8)
        })
        .into();
    let mut m = NetLlmCjs::new(backbone(), AdaptMode::FullKnowledge, 4, 4);
    let tail = m.adapt(&data, ITERS, 1e-3, 5);
    digest(&[tail, m.target_return], &m.store)
}

fn vp_bits() -> (u64, u64) {
    let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
    let samples = extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30);
    let mut m = NetLlmVp::new(backbone(), AdaptMode::FullKnowledge, 20, 2);
    let tail = m.adapt(&samples, ITERS, 1e-3, 7);
    let vp = digest(&[tail], &m.store);

    let samples = extract_samples(&ds, &[0], &[0, 1], 5, 5, 5, 30);
    let mut m = PromptVp::new(backbone());
    let tail = m.adapt(&samples, ITERS, 2e-3, 4);
    (vp, digest(&[tail], &m.store))
}

#[test]
fn adapted_bits_match_the_pinned_digests() {
    let (abr, cjs) = (abr_bits(), cjs_bits());
    let (vp, prompt) = vp_bits();
    assert_eq!(
        [abr, cjs, vp, prompt],
        [
            0x3ab4_4462_cab8_230b,
            0xd20d_8e33_2974_3d06,
            0x54d0_2b66_6f68_3281,
            0xec3c_783c_3f07_1042
        ],
        "taped bits moved: ABR {abr:#018x}, CJS {cjs:#018x}, VP {vp:#018x}, prompt {prompt:#018x}"
    );
}
