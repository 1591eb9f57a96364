//! The baseline bits, pinned. The paper's figures compare NetLLM against
//! GENET (ABR), Decima (CJS) and TRACK (VP); their forward passes, the
//! held-out pretraining loss and the uncached reference decode all run on
//! the graph outside the served path, so neither `served_bits` nor
//! `adapt_bits` reaches them. Each is folded here into one FNV-1a digest:
//!
//! - GENET: every parameter after a tiny `train_genet` run (behaviour
//!   cloning, then policy-gradient rollouts that sample from `probs`), its
//!   `probs` and greedy `select` over `AbrObservation::synthetic_stream`,
//!   and the rungs of one greedy session;
//! - Decima: every parameter after a tiny `train_decima` run, the stage
//!   probabilities and the cap probabilities of the greedy stage over
//!   `CjsObs::synthetic_stream` snapshots, and the decisions of one greedy
//!   workload;
//! - TRACK: `predict` over `VpSample::synthetic_pool()` at two horizons,
//!   before and after a tiny `Track::train` run, the run's loss and every
//!   parameter;
//! - a tiny LM: `eval_loss` and the uncached `next_token_logits`, before
//!   and after a short `pretrain`.
//!
//! The digests are constants. A refactor that claims to keep the baseline
//! bits must pass this test unchanged. As with `served_bits`, the constants
//! fold in random weights and synthetic data drawn through the platform's
//! libm (`ln` / `sin` / `cos` / `exp`); they were computed against glibc
//! on x86-64, so on another libm compare against the parent commit on the
//! same host first.

use netllm::CjsObs;
use nt_abr::{
    envivio_like, featurize, generate_set, run_session, train_genet, AbrObservation, AbrPolicy,
    GenetTrainConfig, TraceKind,
};
use nt_cjs::{
    generate_workload, run_workload, train_decima, DecimaTrainConfig, Decision, SchedView,
    WorkloadConfig,
};
use nt_llm::{eval_loss, pretrain, Corpus, CorpusMix, LmConfig, TinyLm};
use nt_nn::ParamStore;
use nt_tensor::Rng;
use nt_vp::{Track, VpPredictor, VpSample};

/// An FNV-1a digest over 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold the count, then every value's bit pattern.
    fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u32);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    /// Every parameter's element count and bits, in id order.
    fn store(&mut self, store: &ParamStore) {
        for id in store.ids() {
            self.floats(store.data(id).data());
        }
    }
}

fn genet_bits() -> u64 {
    let video = envivio_like(&mut Rng::seeded(1));
    let traces = generate_set(TraceKind::FccLike, 2, 250, &mut Rng::seeded(2));
    let cfg = GenetTrainConfig { bc_iters: 20, rl_iters: 3, ..Default::default() };
    let mut pol = train_genet(&video, &traces, &cfg);
    let mut h = Fnv::new();
    h.store(&pol.store);
    for obs in AbrObservation::synthetic_stream(31, 24) {
        h.floats(&pol.net.probs(&pol.store, &featurize(&obs)));
        h.word(pol.select(&obs) as u32);
    }
    let (_, records) = run_session(&mut pol, &video, &traces[0]);
    assert!(!records.is_empty(), "the greedy session streamed no chunk");
    for r in &records {
        h.word(r.rung as u32);
    }
    h.0
}

fn decima_bits() -> u64 {
    let cfg = DecimaTrainConfig {
        bc_iters: 3,
        rl_iters: 3,
        episode_jobs: 4,
        executors: 8,
        max_decisions: 16,
        ..Default::default()
    };
    let mut pol = train_decima(1.5, &cfg);
    let mut h = Fnv::new();
    h.store(&pol.store);
    for obs in CjsObs::synthetic_stream(32, 6) {
        let (stage, _) = pol.net.probs(&pol.store, &obs.snap, None);
        let greedy = nt_tensor::tensor::argmax(&stage);
        let (_, cap) = pol.net.probs(&pol.store, &obs.snap, Some(greedy));
        h.floats(&stage);
        h.floats(&cap);
    }
    pol.sample = false;
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 4, mean_interarrival: 1.5, seed: 33 });
    let mut decisions = Vec::new();
    let mut hook = |_: &SchedView, d: &Decision| decisions.push(*d);
    run_workload(&mut pol, &jobs, 8, Some(&mut hook));
    assert!(!decisions.is_empty(), "the greedy workload made no decision");
    for d in decisions {
        h.word(d.candidate as u32);
        h.word(d.cap as u32);
    }
    h.0
}

fn track_bits() -> u64 {
    let pool = VpSample::synthetic_pool();
    let mut track = Track::new(5);
    let mut h = Fnv::new();
    let predictions = |track: &mut Track, h: &mut Fnv| {
        for sample in &pool {
            for pw in [7, 20] {
                let vs = track.predict(sample, pw);
                h.floats(&vs.concat());
            }
        }
    };
    predictions(&mut track, &mut h);
    let loss = track.train(&pool[..6], 1, 2e-3, 42);
    h.floats(&[loss]);
    h.store(&track.store);
    predictions(&mut track, &mut h);
    h.0
}

fn lm_bits() -> u64 {
    let mut rng = Rng::seeded(4);
    let corpus = Corpus::new(CorpusMix::text(), 24, &mut rng);
    let mut store = ParamStore::new();
    let cfg = LmConfig {
        vocab: corpus.tokenizer().vocab_size(),
        d_model: 16,
        n_layers: 1,
        n_heads: 2,
        mlp_mult: 2,
        max_seq: 24,
        dropout: 0.0,
    };
    let lm = TinyLm::new(&mut store, cfg, &mut rng);
    let prompts: Vec<Vec<usize>> =
        (0..4).map(|_| corpus.sample(&mut rng)).filter(|ids| !ids.is_empty()).collect();
    let mut h = Fnv::new();
    let fold = |store: &ParamStore, h: &mut Fnv| {
        h.floats(&[eval_loss(&lm, store, &corpus, 6, 99)]);
        for ids in &prompts {
            h.floats(lm.next_token_logits(store, ids).data());
        }
    };
    fold(&store, &mut h);
    pretrain(&lm, &mut store, &corpus, 8, 3e-3, 7);
    fold(&store, &mut h);
    h.0
}

#[test]
fn baseline_bits_are_pinned() {
    let got = [
        ("GENET", genet_bits()),
        ("Decima", decima_bits()),
        ("TRACK", track_bits()),
        ("LM", lm_bits()),
    ];
    for (name, bits) in got {
        println!("{name}: {bits:#018x}");
    }
    let want = [
        ("GENET", 0x0a9a_77e6_bba0_d3e2u64),
        ("Decima", 0x6fb0_ae22_58b3_8e10),
        ("TRACK", 0xa9ac_aab9_8d78_9a40),
        ("LM", 0x83e9_8a47_36b0_885d),
    ];
    for ((name, bits), (_, pinned)) in got.iter().zip(want) {
        assert_eq!(*bits, pinned, "{name} baseline bits moved: got {bits:#018x}");
    }
}
