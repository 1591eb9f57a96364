//! Decima-like learning-based scheduler (Mao et al., SIGCOMM'19).
//!
//! Architecture: GNN message passing over the stage DAG, a stage-selection
//! head scored per candidate node, and an executor-parallelism head over a
//! discrete set of cluster fractions — Decima's two-part action.
//!
//! Training: behaviour-cloning warm start from the SRPT heuristic (Decima's
//! learned policies are SRPT-flavoured; warm starting stabilises REINFORCE
//! at this scale), followed by policy-gradient fine-tuning with the exact
//! Decima reward: minus the time-integral of the number of active jobs,
//! credited per decision as work-remaining-after-`t_k` (computed exactly
//! from job arrival/finish times after the episode).

use crate::job::Job;
use crate::policies::Srpt;
use crate::sim::{run_workload, Decision, SchedView, Scheduler};
use crate::snapshot::{snapshot, GraphSnapshot, NODE_FEATS};
use nt_nn::{clip_grad_norm, Adam, Exec, Fwd, Gnn, Init, Linear, ParamStore};
use nt_tensor::tensor::argmax;
use nt_tensor::{NodeId, Rng};

/// Executor-cap menu as fractions of the cluster.
pub const CAP_FRACS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];

const EMB: usize = 16;

/// The Decima policy network.
pub struct DecimaNet {
    pub gnn: Gnn,
    pub score: Linear,
    pub cap: Linear,
}

impl DecimaNet {
    pub fn new(store: &mut ParamStore, rng: &mut Rng) -> Self {
        DecimaNet {
            gnn: Gnn::new(store, "decima.gnn", NODE_FEATS, EMB, EMB, 2, rng),
            score: Linear::new(store, "decima.score", 2 * EMB, 1, true, Init::Xavier, rng),
            cap: Linear::new(
                store,
                "decima.cap",
                2 * EMB,
                CAP_FRACS.len(),
                true,
                Init::Xavier,
                rng,
            ),
        }
    }

    /// Build the differentiable decision pipeline for one snapshot.
    /// Returns `(stage_logits [1,c], cap_logits_of_choice [1,K])`.
    pub fn decision_logits(
        &self,
        f: &mut Fwd,
        store: &ParamStore,
        snap: &GraphSnapshot,
        chosen_candidate: usize,
    ) -> (NodeId, NodeId) {
        let c = snap.candidates.len();
        assert!(c > 0, "no candidates");
        let feats = f.input(snap.feats.clone());
        let emb = self.gnn.run(f, store, feats, &[&snap.adj]); // [n, EMB]
        let global = f.mean_rows(&emb, &[snap.n]); // [1, EMB]
        let cand = f.g.rows(emb, &snap.candidates); // [c, EMB]
        let glob_rep = f.g.rows(global, &vec![0usize; c]); // [c, EMB]
        let cat = f.g.concat(&[cand, glob_rep], 1); // [c, 2*EMB]
        let scores = self.score.forward(f, store, cat); // [c, 1]
        let stage_logits = f.g.reshape(scores, [1, c]);
        let chosen_row = f.g.narrow(cat, 0, chosen_candidate.min(c - 1), 1); // [1, 2*EMB]
        let cap_logits = self.cap.forward(f, store, chosen_row); // [1, K]
        (stage_logits, cap_logits)
    }

    /// Inference: stage probabilities, then cap probabilities for `chosen`.
    pub fn probs(
        &self,
        store: &ParamStore,
        snap: &GraphSnapshot,
        chosen: Option<usize>,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut f = Fwd::eval();
        let (sl, cl) = self.decision_logits(&mut f, store, snap, chosen.unwrap_or(0));
        let (mut sp, mut cp) = (f.g.value(sl).clone(), f.g.value(cl).clone());
        sp.softmax_last_mut();
        cp.softmax_last_mut();
        (sp.into_data(), cp.into_data())
    }
}

/// Decima as a [`Scheduler`]: greedy at test time, sampling during training.
pub struct DecimaPolicy {
    pub net: DecimaNet,
    pub store: ParamStore,
    pub sample: bool,
    pub rng: Rng,
}

impl Scheduler for DecimaPolicy {
    fn name(&self) -> &str {
        "Decima"
    }

    fn decide(&mut self, view: &SchedView) -> Option<Decision> {
        if view.candidates.is_empty() {
            return None;
        }
        let snap = snapshot(view);
        let (sp, _) = self.net.probs(&self.store, &snap, None);
        let stage = if self.sample { self.rng.categorical(&sp) } else { argmax(&sp) };
        let (_, cp) = self.net.probs(&self.store, &snap, Some(stage));
        let cap_idx = if self.sample { self.rng.categorical(&cp) } else { argmax(&cp) };
        let cap = (CAP_FRACS[cap_idx] * view.total_executors as f64).ceil() as usize;
        Some(Decision { candidate: stage, cap: cap.max(1) })
    }
}

/// One recorded decision during a rollout.
struct Recorded {
    snap: GraphSnapshot,
    stage_choice: usize,
    cap_choice: usize,
    time: f64,
}

/// Learning rate of both training phases.
const LR: f32 = 1e-3;

/// Training configuration.
#[derive(Clone, Debug)]
pub struct DecimaTrainConfig {
    pub bc_iters: usize,
    pub rl_iters: usize,
    /// Jobs per training episode (kept small; evaluation uses full workloads).
    pub episode_jobs: usize,
    pub executors: usize,
    pub seed: u64,
    /// Max decisions used per policy-gradient update (subsampled).
    pub max_decisions: usize,
}

impl Default for DecimaTrainConfig {
    fn default() -> Self {
        DecimaTrainConfig {
            bc_iters: 40,
            rl_iters: 80,
            episode_jobs: 10,
            executors: 20,
            seed: 17,
            max_decisions: 48,
        }
    }
}

/// Train Decima on freshly sampled workloads drawn like `train_like` (the
/// default Table 4 setting scaled to `episode_jobs`).
pub fn train_decima(mean_interarrival: f64, cfg: &DecimaTrainConfig) -> DecimaPolicy {
    let mut rng = Rng::seeded(cfg.seed);
    let mut store = ParamStore::new();
    let net = DecimaNet::new(&mut store, &mut rng);
    let mut opt = Adam::new(LR);

    // ---- Phase 1: behaviour cloning from SRPT -------------------------------
    for it in 0..cfg.bc_iters {
        let jobs = episode_jobs(cfg, 1000 + it as u64, mean_interarrival);
        let mut teacher = Srpt;
        let mut recs: Vec<Recorded> = Vec::new();
        {
            let mut hook = |view: &SchedView, d: &Decision| {
                recs.push(Recorded {
                    snap: snapshot(view),
                    stage_choice: d.candidate,
                    // SRPT uses unbounded caps -> clone to the largest option.
                    cap_choice: CAP_FRACS.len() - 1,
                    time: view.now,
                });
            };
            run_workload(&mut teacher, &jobs, cfg.executors, Some(&mut hook));
        }
        subsample(&mut recs, cfg.max_decisions, &mut rng);
        if recs.is_empty() {
            continue;
        }
        let unit = vec![1.0f32];
        let mut f = Fwd::train(cfg.seed ^ it as u64);
        let mut losses = Vec::new();
        for r in &recs {
            let (sl, cl) = net.decision_logits(&mut f, &store, &r.snap, r.stage_choice);
            let ls = f.g.weighted_cross_entropy(sl, &[r.stage_choice], &unit);
            let lc = f.g.weighted_cross_entropy(cl, &[r.cap_choice], &unit);
            let sum = f.g.add(ls, lc);
            losses.push(sum);
        }
        let total = sum_nodes(&mut f, &losses);
        let loss = f.g.scale(total, 1.0 / recs.len() as f32);
        let mut grads = f.backward(loss);
        clip_grad_norm(&mut grads, 1.0);
        opt.step(&mut store, &grads);
    }

    // ---- Phase 2: REINFORCE with the Decima reward ---------------------------
    let mut policy = DecimaPolicy { net, store, sample: true, rng: Rng::seeded(cfg.seed ^ 0xAB) };
    for it in 0..cfg.rl_iters {
        let jobs = episode_jobs(cfg, 5000 + it as u64, mean_interarrival);
        let mut recs: Vec<Recorded> = Vec::new();
        let stats = {
            // Roll out the sampling policy, recording decisions; the same run
            // yields the episode stats used for the reward.
            let mut actor = RecordingDecima { inner: &mut policy, recs: &mut recs };
            run_workload(&mut actor, &jobs, cfg.executors, None)
        };
        if recs.len() < 4 {
            continue;
        }
        let finishes: Vec<f64> =
            jobs.iter().zip(&stats.jcts).map(|(j, &jct)| j.arrival + jct).collect();
        let scale = 1.0 / (cfg.episode_jobs as f64 * 20.0);
        let returns: Vec<f32> = recs
            .iter()
            .map(|r| {
                let mut integral = 0.0;
                for (j, &fin) in jobs.iter().zip(&finishes) {
                    integral += (fin - j.arrival.max(r.time)).max(0.0);
                }
                (-integral * scale) as f32
            })
            .collect();
        let mean_r: f32 = returns.iter().sum::<f32>() / returns.len() as f32;
        let std_r: f32 = (returns.iter().map(|r| (r - mean_r) * (r - mean_r)).sum::<f32>()
            / returns.len() as f32)
            .sqrt()
            .max(1e-6);
        let adv: Vec<f32> =
            returns.iter().map(|r| ((r - mean_r) / std_r).clamp(-3.0, 3.0)).collect();

        let mut keep: Vec<usize> = (0..recs.len()).collect();
        policy.rng.shuffle(&mut keep);
        keep.truncate(cfg.max_decisions);

        let mut f = Fwd::train(cfg.seed ^ (0x900 + it as u64));
        let mut losses = Vec::new();
        for &k in &keep {
            let r = &recs[k];
            let w = vec![adv[k]];
            let (sl, cl) =
                policy.net.decision_logits(&mut f, &policy.store, &r.snap, r.stage_choice);
            let ls = f.g.weighted_cross_entropy(sl, &[r.stage_choice], &w);
            let lc = f.g.weighted_cross_entropy(cl, &[r.cap_choice], &w);
            let sum = f.g.add(ls, lc);
            losses.push(sum);
        }
        let total = sum_nodes(&mut f, &losses);
        let loss = f.g.scale(total, 1.0 / keep.len().max(1) as f32);
        let mut grads = f.backward(loss);
        clip_grad_norm(&mut grads, 1.0);
        opt.step(&mut policy.store, &grads);
    }
    policy.sample = false;
    policy
}

fn episode_jobs(cfg: &DecimaTrainConfig, seed: u64, mean_interarrival: f64) -> Vec<Job> {
    crate::job::generate_workload(&crate::job::WorkloadConfig {
        num_jobs: cfg.episode_jobs,
        mean_interarrival,
        seed,
    })
}

fn subsample(recs: &mut Vec<Recorded>, max: usize, rng: &mut Rng) {
    if recs.len() > max {
        let keep = rng.choose_indices(recs.len(), max);
        let mut keep_sorted = keep;
        keep_sorted.sort_unstable();
        let mut out = Vec::with_capacity(max);
        for &i in &keep_sorted {
            out.push(Recorded {
                snap: recs[i].snap.clone(),
                stage_choice: recs[i].stage_choice,
                cap_choice: recs[i].cap_choice,
                time: recs[i].time,
            });
        }
        *recs = out;
    }
}

fn sum_nodes(f: &mut Fwd, nodes: &[NodeId]) -> NodeId {
    assert!(!nodes.is_empty());
    let mut acc = nodes[0];
    for &n in &nodes[1..] {
        acc = f.g.add(acc, n);
    }
    acc
}

/// Wraps the sampling policy to record (snapshot, choices, time).
struct RecordingDecima<'a> {
    inner: &'a mut DecimaPolicy,
    recs: &'a mut Vec<Recorded>,
}

impl Scheduler for RecordingDecima<'_> {
    fn name(&self) -> &str {
        "decima-recorder"
    }

    fn decide(&mut self, view: &SchedView) -> Option<Decision> {
        if view.candidates.is_empty() {
            return None;
        }
        let snap = snapshot(view);
        let (sp, _) = self.inner.net.probs(&self.inner.store, &snap, None);
        let stage = self.inner.rng.categorical(&sp);
        let (_, cp) = self.inner.net.probs(&self.inner.store, &snap, Some(stage));
        let cap_idx = self.inner.rng.categorical(&cp);
        let cap = (CAP_FRACS[cap_idx] * view.total_executors as f64).ceil() as usize;
        self.recs.push(Recorded { snap, stage_choice: stage, cap_choice: cap_idx, time: view.now });
        Some(Decision { candidate: stage, cap: cap.max(1) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{generate_workload, WorkloadConfig};
    use crate::policies::Fifo;

    #[test]
    fn untrained_decima_completes_workloads() {
        let mut rng = Rng::seeded(1);
        let mut store = ParamStore::new();
        let net = DecimaNet::new(&mut store, &mut rng);
        let mut pol = DecimaPolicy { net, store, sample: false, rng: Rng::seeded(2) };
        let jobs =
            generate_workload(&WorkloadConfig { num_jobs: 6, mean_interarrival: 1.0, seed: 3 });
        let stats = run_workload(&mut pol, &jobs, 8, None);
        assert_eq!(stats.jcts.len(), 6);
    }

    #[test]
    fn bc_training_moves_toward_srpt_behaviour() {
        // Trained briefly with BC only, Decima should track SRPT more than
        // FIFO does on held-out workloads.
        let cfg = DecimaTrainConfig {
            bc_iters: 12,
            rl_iters: 0,
            episode_jobs: 6,
            executors: 8,
            ..Default::default()
        };
        let mut pol = train_decima(1.0, &cfg);
        let jobs =
            generate_workload(&WorkloadConfig { num_jobs: 10, mean_interarrival: 1.0, seed: 77 });
        let d = run_workload(&mut pol, &jobs, 8, None).mean_jct();
        let f = run_workload(&mut Fifo, &jobs, 8, None).mean_jct();
        // The cloned policy should already be in FIFO's ballpark or better.
        assert!(d < f * 1.5, "BC Decima {d:.1} vs FIFO {f:.1}");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn cap_menu_is_ascending_and_positive() {
        for w in CAP_FRACS.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(CAP_FRACS[0] > 0.0);
    }
}
