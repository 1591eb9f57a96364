//! GENET-like learning-based ABR baseline.
//!
//! GENET (Xia et al., SIGCOMM'22) is an actor-critic ABR agent (Pensieve
//! architecture) trained with a *curriculum* over environment difficulty.
//! This reproduction keeps all three ingredients at reduced scale:
//!
//! - Pensieve-style state featurisation (throughput/delay history, next
//!   chunk sizes, buffer, remaining chunks, last rung);
//! - an actor-critic MLP trained with advantage-weighted policy gradient,
//!   value regression and an entropy bonus;
//! - a difficulty curriculum: training traces are sorted by volatility and
//!   the sampling pool widens as training progresses. A short
//!   behaviour-cloning warm start from RobustMPC stabilises early training
//!   (GENET similarly bootstraps from existing rule-based logic).
//!
//! Crucially for the paper's generalization story (Fig 11/12), GENET is
//! trained **only** on the default setting (envivio-like video, FCC-like
//! traces); its degradation on `SynthTrace`/`SynthVideo` is then measured,
//! not assumed.

use crate::policy::Mpc;
use crate::qoe::chunk_qoe;
use crate::sim::{run_session, AbrObservation, AbrPolicy, HIST};
use crate::trace::{stats, BandwidthTrace};
use crate::video::Video;
use nt_nn::{clip_grad_norm, Adam, Fwd, Init, Linear, ParamStore};
use nt_tensor::tensor::argmax;
use nt_tensor::{Rng, Tensor};

/// Dimension of the featurised observation.
pub const FEAT_DIM: usize = HIST + HIST + 6 + 1 + 1 + 6;

/// Featurise an observation into a fixed-size vector (shared by GENET and
/// by tests; NetLLM uses its own multimodal encoder instead).
pub fn featurize(obs: &AbrObservation) -> Vec<f32> {
    let mut v = Vec::with_capacity(FEAT_DIM);
    push_padded(&mut v, &obs.throughput_hist, HIST, 0.1);
    push_padded(&mut v, &obs.delay_hist, HIST, 0.1);
    for i in 0..6 {
        v.push(obs.next_sizes.get(i).map(|&s| (s / 20.0) as f32).unwrap_or(0.0));
    }
    v.push((obs.buffer_secs / 30.0) as f32);
    v.push(obs.remain_frac as f32);
    let mut onehot = [0.0f32; 6];
    if let Some(r) = obs.last_rung {
        if r < 6 {
            onehot[r] = 1.0;
        }
    }
    v.extend_from_slice(&onehot);
    debug_assert_eq!(v.len(), FEAT_DIM);
    v
}

fn push_padded(v: &mut Vec<f32>, xs: &[f64], len: usize, scale: f64) {
    for i in 0..len {
        let idx = xs.len() as isize - len as isize + i as isize;
        v.push(if idx >= 0 { (xs[idx as usize] * scale) as f32 } else { 0.0 });
    }
}

/// Actor-critic network.
pub struct GenetNet {
    pub l1: Linear,
    pub l2: Linear,
    pub pi: Linear,
    pub vf: Linear,
}

impl GenetNet {
    pub fn new(store: &mut ParamStore, rng: &mut Rng) -> Self {
        GenetNet {
            l1: Linear::new(store, "genet.l1", FEAT_DIM, 64, true, Init::Kaiming, rng),
            l2: Linear::new(store, "genet.l2", 64, 64, true, Init::Kaiming, rng),
            pi: Linear::new(store, "genet.pi", 64, 6, true, Init::Xavier, rng),
            vf: Linear::new(store, "genet.vf", 64, 1, true, Init::Xavier, rng),
        }
    }

    /// Returns `(logits [n,6], values [n,1])`.
    pub fn forward(
        &self,
        f: &mut Fwd,
        store: &ParamStore,
        x: nt_tensor::NodeId,
    ) -> (nt_tensor::NodeId, nt_tensor::NodeId) {
        let h = self.l1.forward(f, store, x);
        let h = f.g.relu(h);
        let h = self.l2.forward(f, store, h);
        let h = f.g.relu(h);
        (self.pi.forward(f, store, h), self.vf.forward(f, store, h))
    }

    /// Greedy/sampled action probabilities for a single observation.
    pub fn probs(&self, store: &ParamStore, feat: &[f32]) -> Vec<f32> {
        let mut f = Fwd::eval();
        let x = f.input(Tensor::from_vec([1, FEAT_DIM], feat.to_vec()));
        let (logits, _) = self.forward(&mut f, store, x);
        let mut probs = f.g.value(logits).clone();
        probs.softmax_last_mut();
        probs.into_data()
    }
}

/// The trained GENET policy (greedy at test time).
pub struct GenetPolicy {
    pub net: GenetNet,
    pub store: ParamStore,
}

impl AbrPolicy for GenetPolicy {
    fn name(&self) -> &str {
        "GENET"
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        argmax(&self.net.probs(&self.store, &featurize(obs)))
    }
}

/// Policy-gradient learning rate.
const LR: f32 = 2e-4;
/// Discount of the per-chunk rewards.
const GAMMA: f64 = 0.99;
/// Weight of the entropy bonus in the policy-gradient loss.
const ENTROPY_BETA: f32 = 0.005;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct GenetTrainConfig {
    /// Behaviour-cloning warm-start iterations (supervised on MPC actions).
    pub bc_iters: usize,
    /// Policy-gradient iterations.
    pub rl_iters: usize,
    pub seed: u64,
}

impl Default for GenetTrainConfig {
    fn default() -> Self {
        GenetTrainConfig { bc_iters: 3000, rl_iters: 400, seed: 11 }
    }
}

/// Train a GENET policy on `(video, traces)` — the *default* setting only.
pub fn train_genet(
    video: &Video,
    traces: &[BandwidthTrace],
    cfg: &GenetTrainConfig,
) -> GenetPolicy {
    assert!(!traces.is_empty());
    let mut rng = Rng::seeded(cfg.seed);
    let mut store = ParamStore::new();
    let net = GenetNet::new(&mut store, &mut rng);
    let mut opt = Adam::new(LR);

    // Curriculum order: easiest (least volatile) traces first.
    let mut order: Vec<usize> = (0..traces.len()).collect();
    let vols: Vec<f64> = traces.iter().map(|t| stats(t).volatility).collect();
    order.sort_by(|&a, &b| vols[a].partial_cmp(&vols[b]).unwrap());

    // ---- Phase 1: behaviour cloning from RobustMPC --------------------------
    // Demonstrations are gathered once over the whole training pool, then
    // cloned with *shuffled* minibatches (per-episode batches are heavily
    // correlated and clone poorly). The critic regresses the teacher's
    // discounted returns at the same time, so the RL phase starts with a
    // meaningful baseline.
    let mut demo_feats: Vec<Vec<f32>> = Vec::new();
    let mut demo_actions: Vec<usize> = Vec::new();
    let mut demo_returns: Vec<f32> = Vec::new();
    for trace in traces {
        let mut mpc = Mpc::default();
        let mut feats: Vec<f32> = Vec::new();
        let mut actions: Vec<usize> = Vec::new();
        let records = {
            let mut recorder =
                RecordingPolicy { inner: &mut mpc, feats: &mut feats, actions: &mut actions };
            run_session(&mut recorder, video, trace).1
        };
        let n = actions.len();
        let mut rewards = Vec::with_capacity(n);
        let mut prev: Option<f64> = None;
        for r in &records {
            rewards.push(chunk_qoe(r.bitrate_mbps, r.rebuffer_secs, prev));
            prev = Some(r.bitrate_mbps);
        }
        let mut acc = 0.0f64;
        let mut returns = vec![0.0f32; n];
        for i in (0..n).rev() {
            acc = rewards[i] / 5.0 + GAMMA * acc;
            returns[i] = acc as f32;
        }
        for i in 0..n {
            demo_feats.push(feats[i * FEAT_DIM..(i + 1) * FEAT_DIM].to_vec());
            demo_actions.push(actions[i]);
            demo_returns.push(returns[i]);
        }
    }
    let mut bc_opt = Adam::new(1e-3);
    let batch = 48usize.min(demo_actions.len().max(1));
    for it in 0..cfg.bc_iters {
        if demo_actions.is_empty() {
            break;
        }
        let mut bf = Vec::with_capacity(batch * FEAT_DIM);
        let mut ba = Vec::with_capacity(batch);
        let mut br = Vec::with_capacity(batch);
        for _ in 0..batch {
            let i = rng.below(demo_actions.len());
            bf.extend(&demo_feats[i]);
            ba.push(demo_actions[i]);
            br.push(demo_returns[i]);
        }
        let mut f = Fwd::train(cfg.seed ^ it as u64);
        let x = f.input(Tensor::from_vec([batch, FEAT_DIM], bf));
        let (logits, values) = net.forward(&mut f, &store, x);
        let ce = f.g.cross_entropy(logits, &ba);
        let ret_t = f.input(Tensor::from_vec([batch, 1], br));
        let v_loss = f.g.mse(values, ret_t);
        let v_scaled = f.g.scale(v_loss, 0.5);
        let loss = f.g.add(ce, v_scaled);
        let mut grads = f.backward(loss);
        clip_grad_norm(&mut grads, 1.0);
        bc_opt.step(&mut store, &grads);
    }

    // ---- Phase 2: advantage-weighted policy gradient with curriculum --------
    for it in 0..cfg.rl_iters {
        // Curriculum: the candidate pool grows from the easiest 25 % to all.
        let frac = 0.25 + 0.75 * (it as f64 / cfg.rl_iters.max(1) as f64);
        let pool = ((traces.len() as f64 * frac).ceil() as usize).clamp(1, traces.len());
        let trace = &traces[order[rng.below(pool)]];

        // Roll out the stochastic policy; per-chunk rewards come from the
        // simulator's exact outcome records (realised rebuffering), not an
        // in-rollout approximation.
        let mut feats: Vec<f32> = Vec::new();
        let mut actions: Vec<usize> = Vec::new();
        let records = {
            let mut actor = SamplingActor {
                net: &net,
                store: &store,
                rng: &mut rng,
                feats: &mut feats,
                actions: &mut actions,
            };
            run_session(&mut actor, video, trace).1
        };
        let n = actions.len();
        if n == 0 {
            continue;
        }
        let mut rewards = Vec::with_capacity(n);
        let mut prev: Option<f64> = None;
        for r in &records {
            rewards.push(chunk_qoe(r.bitrate_mbps, r.rebuffer_secs, prev));
            prev = Some(r.bitrate_mbps);
        }
        // Discounted returns, scaled to keep gradients tame.
        let mut returns = vec![0.0f64; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc = rewards[i] / 5.0 + GAMMA * acc;
            returns[i] = acc;
        }

        let mut f = Fwd::train(cfg.seed ^ (0x9000 + it as u64));
        let x = f.input(Tensor::from_vec([n, FEAT_DIM], feats));
        let (logits, values) = net.forward(&mut f, &store, x);
        // Advantages: critic baseline (detached), then standardised per
        // episode so one bad rollout cannot blow up the policy.
        let v_now: Vec<f32> = f.g.value(values).data().to_vec();
        let raw: Vec<f32> = (0..n).map(|i| returns[i] as f32 - v_now[i]).collect();
        let m = raw.iter().sum::<f32>() / n as f32;
        let sd = (raw.iter().map(|a| (a - m) * (a - m)).sum::<f32>() / n as f32).sqrt().max(1e-4);
        let adv: Vec<f32> = raw.iter().map(|a| ((a - m) / sd).clamp(-3.0, 3.0)).collect();
        let pg = f.g.weighted_cross_entropy(logits, &actions, &adv);
        let ret_t = f.input(Tensor::from_vec([n, 1], returns.iter().map(|&r| r as f32).collect()));
        let v_loss = f.g.mse(values, ret_t);
        let v_scaled = f.g.scale(v_loss, 0.5);
        // Entropy bonus: -beta * mean(sum(-p log p)) == +beta * mean(sum(p log p))
        let logp = f.g.log_softmax_last(logits);
        let p = f.g.softmax_last(logits);
        let plogp = f.g.mul(p, logp);
        let ent_sum = f.g.sum_axis(plogp, 1);
        let ent_mean = f.g.mean_all(ent_sum);
        let ent_term = f.g.scale(ent_mean, ENTROPY_BETA);
        let l1 = f.g.add(pg, v_scaled);
        let loss = f.g.add(l1, ent_term);
        let mut grads = f.backward(loss);
        clip_grad_norm(&mut grads, 1.0);
        opt.step(&mut store, &grads);
    }

    GenetPolicy { net, store }
}

/// Wraps a policy, recording featurised states and chosen actions.
struct RecordingPolicy<'a> {
    inner: &'a mut dyn AbrPolicy,
    feats: &'a mut Vec<f32>,
    actions: &'a mut Vec<usize>,
}

impl AbrPolicy for RecordingPolicy<'_> {
    fn name(&self) -> &str {
        "recorder"
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn select(&mut self, obs: &AbrObservation) -> usize {
        let a = self.inner.select(obs);
        self.feats.extend(featurize(obs));
        self.actions.push(a);
        a
    }
}

/// Samples from the current policy during rollouts, recording featurised
/// states and actions; rewards are read from the session records afterwards.
struct SamplingActor<'a> {
    net: &'a GenetNet,
    store: &'a ParamStore,
    rng: &'a mut Rng,
    feats: &'a mut Vec<f32>,
    actions: &'a mut Vec<usize>,
}

impl AbrPolicy for SamplingActor<'_> {
    fn name(&self) -> &str {
        "sampler"
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        let feat = featurize(obs);
        let probs = self.net.probs(self.store, &feat);
        // epsilon-exploration: after behaviour cloning the softmax is nearly
        // deterministic, so pure on-policy sampling never explores.
        let a = if self.rng.chance(0.05) {
            self.rng.below(probs.len())
        } else {
            self.rng.categorical(&probs)
        };
        self.feats.extend(feat);
        self.actions.push(a);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate_set, TraceKind};
    use crate::video::envivio_like;

    #[test]
    fn featurize_dim_and_padding() {
        let obs = AbrObservation {
            throughput_hist: vec![1.0, 2.0],
            delay_hist: vec![0.5, 0.7],
            next_sizes: vec![1.0; 6],
            buffer_secs: 15.0,
            last_rung: Some(3),
            remain_frac: 0.5,
            ladder_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
            chunk_index: 2,
        };
        let f = featurize(&obs);
        assert_eq!(f.len(), FEAT_DIM);
        assert_eq!(f[0], 0.0, "history must left-pad with zeros");
        assert!((f[HIST - 1] - 0.2).abs() < 1e-6, "most recent throughput last");
        assert_eq!(f[FEAT_DIM - 3], 1.0, "one-hot at rung 3");
    }

    #[test]
    fn bc_only_training_mimics_mpc_choices() {
        let video = envivio_like(&mut Rng::seeded(1));
        let traces = generate_set(TraceKind::FccLike, 4, 300, &mut Rng::seeded(2));
        let cfg = GenetTrainConfig { bc_iters: 150, rl_iters: 0, ..Default::default() };
        let mut pol = train_genet(&video, &traces, &cfg);
        // On a plentiful-bandwidth observation MPC picks high; the clone should too.
        let obs = AbrObservation {
            throughput_hist: vec![8.0; 8],
            delay_hist: vec![0.5; 8],
            next_sizes: (0..6).map(|r| [1.2, 3.0, 4.8, 7.4, 11.4, 17.2][r]).collect(),
            buffer_secs: 25.0,
            last_rung: Some(5),
            remain_frac: 0.5,
            ladder_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
            chunk_index: 10,
        };
        let a = pol.select(&obs);
        assert!(a >= 3, "clone of MPC should pick a high rung with 8 Mbps, got {a}");
    }

    #[test]
    fn short_rl_training_runs_and_stays_finite() {
        let video = envivio_like(&mut Rng::seeded(3));
        let traces = generate_set(TraceKind::FccLike, 3, 240, &mut Rng::seeded(4));
        let cfg = GenetTrainConfig { bc_iters: 10, rl_iters: 15, ..Default::default() };
        let pol = train_genet(&video, &traces, &cfg);
        for id in pol.store.ids() {
            assert!(!pol.store.data(id).has_non_finite(), "{}", pol.store.name(id));
        }
    }
}
