//! NetLLM adapter for viewport prediction (SL pipeline of DD-LRNA).
//!
//! Token layout per sample:
//! `[saliency patches | history-delta tokens | pw query tokens]`.
//! The multimodal encoder produces the first two groups (ViT-lite patches
//! and 1-D CNN per-step features); the query tokens are learned
//! placeholders, one per future step. The backbone runs once, the VP head
//! maps the hidden states at the query positions to per-step viewport
//! deltas — a complete, always-valid answer in a single inference.

use crate::adapt::{fit, AdaptMode};
use crate::backbone::InferenceSession;
use crate::heads::VpHead;
use crate::multimodal::{ImageEncoder, Projection, SeriesEncoder};
use crate::serving::{step_single, Lane, LanePlan, ServedTask, StepOutcome};
use crate::wire::{vp_completion_len, MAX_FRAME_LEN};
use nt_llm::zoo::LoadedLm;
use nt_llm::TinyLm;
use nt_nn::{Eager, Embedding, Exec, Fwd, ParamStore};
use nt_tensor::{NodeId, Rng, Tensor};
use nt_vp::{apply_deltas, to_deltas, Viewport, VpPredictor, VpSample, GRID};

/// One served VP request: a sample to answer and the prediction horizon.
/// VP is one-shot — a request is a complete question, so served slots
/// carry no episode state between ticks.
#[derive(Clone, Debug)]
pub struct VpQuery {
    pub sample: VpSample,
    pub pw: usize,
}

/// Served VP sessions are stateless between ticks (one-shot eval slots
/// that join, answer, and leave).
#[derive(Clone, Copy, Debug, Default)]
pub struct VpSlot;

/// Degrees per network unit (same convention as TRACK).
const DELTA_SCALE: f32 = 5.0;
const FEAT: usize = 24;

/// The adapted model.
pub struct NetLlmVp {
    pub lm: TinyLm,
    pub store: ParamStore,
    img_enc: ImageEncoder,
    vp_enc: SeriesEncoder,
    img_proj: Projection,
    vp_proj: Projection,
    queries: Embedding,
    head: VpHead,
    pub max_pw: usize,
    pub mode: AdaptMode,
}

impl NetLlmVp {
    /// Build from a backbone. `mode` selects the Fig-13 knowledge ablation;
    /// only [`AdaptMode::FullKnowledge`] attaches LoRA adapters.
    pub fn new(loaded: LoadedLm, mode: AdaptMode, max_pw: usize, seed: u64) -> Self {
        let LoadedLm { mut lm, mut store, .. } = loaded;
        let mut rng = Rng::seeded(seed);
        let d = lm.cfg.d_model;
        let img_enc = ImageEncoder::new(&mut store, "mm.img", GRID, 4, FEAT, &mut rng);
        let vp_enc = SeriesEncoder::new(&mut store, "mm.vp", 3, FEAT, 3, &mut rng);
        let img_proj = Projection::new(&mut store, "mm.img_to_tok", FEAT, d, &mut rng);
        let vp_proj = Projection::new(&mut store, "mm.vp_to_tok", FEAT, d, &mut rng);
        let queries = Embedding::new(&mut store, "mm.vp_queries", max_pw, d, &mut rng);
        let head = VpHead::new(&mut store, d, &mut rng);
        mode.apply(&mut lm, &mut store, &mut rng);
        NetLlmVp { lm, store, img_enc, vp_enc, img_proj, vp_proj, queries, head, max_pw, mode }
    }

    /// Whether `q` is a query this model can encode and answer: a
    /// `[GRID, GRID]` saliency map, a history of at least two viewports
    /// (one delta for the conv to read), tokens that fit the backbone's
    /// context, and a horizon of at most [`NetLlmVp::max_horizon`]. The
    /// serving front door refuses the rest.
    pub fn admits(&self, q: &VpQuery) -> bool {
        let (grid, hist) = (self.img_enc.grid, q.sample.history.len());
        let rows = self.img_enc.num_patches() + hist.saturating_sub(1) + q.pw.min(self.max_pw);
        q.sample.saliency.shape() == [grid, grid]
            && hist >= 2
            && rows <= self.lm.cfg.max_seq
            && q.pw <= self.max_horizon()
    }

    /// The longest horizon a served answer can carry: its `pw` viewports
    /// must fit one `Completion` frame ([`MAX_FRAME_LEN`]) beside the
    /// frame's fixed fields and the `[pw.min(max_pw), 3]` logits.
    pub fn max_horizon(&self) -> usize {
        (MAX_FRAME_LEN as usize - vp_completion_len(0, 3 * self.max_pw)) / 12
    }

    /// Histories of equal length as the `[b, 3, t]` series the CNN encoder
    /// expects: `t` deltas per history.
    fn history_series(samples: &[(&VpSample, usize)]) -> Tensor {
        let t = samples[0].0.history.len() - 1;
        let mut flat = Vec::with_capacity(samples.len() * 3 * t);
        for (sample, _) in samples {
            let hist_deltas = to_deltas(&sample.history);
            assert_eq!(hist_deltas.len(), t, "one series batch, one history length");
            for c in 0..3 {
                flat.extend(hist_deltas.iter().map(|d| d[c] / DELTA_SCALE));
            }
        }
        Tensor::from_vec([samples.len(), 3, t], flat)
    }

    /// Build the token sequence and return the delta-prediction node
    /// `[pw, 3]` (network units).
    fn forward(&self, f: &mut Fwd, sample: &VpSample, pw: usize) -> NodeId {
        let groups = self.query_tokens(f, &[(sample, pw)]);
        let tokens = f.concat(&groups);
        let hidden = self.lm.forward_embeddings(f, &self.store, tokens);
        let total = f.g.value(hidden).shape()[0];
        let query_hidden = f.g.narrow(hidden, 0, total - pw, pw);
        self.head.run(f, &self.store, &query_hidden)
    }

    /// The token groups of `(sample, pw)` queries, each stacked across the
    /// queries in turn: saliency patches `[n * patches, d]`,
    /// history-delta tokens `[sum t_i, d]` and query tokens `[sum pw_i,
    /// d]`. One query's tokens are
    /// `[saliency patches | history-delta tokens | pw query tokens]`.
    /// Shared by the taped forward (one query) and serving.
    fn query_tokens<E: Exec>(&self, e: &mut E, queries: &[(&VpSample, usize)]) -> [E::V; 3] {
        let st = &self.store;
        let imgs: Vec<&Tensor> = queries.iter().map(|(s, _)| &s.saliency).collect();
        let img_feats = self.img_enc.run(e, st, &imgs);
        let img_tokens = self.img_proj.run(e, st, img_feats);
        // Histories of one length share a conv pass.
        let mut vp_feats: Vec<E::V> = queries
            .chunk_by(|a, b| a.0.history.len() == b.0.history.len())
            .map(|run| self.vp_enc.steps(e, st, Self::history_series(run)))
            .collect();
        let vp_feats = match vp_feats.len() {
            1 => vp_feats.pop().expect("one run"),
            _ => e.concat(&vp_feats),
        };
        let vp_tokens = self.vp_proj.run(e, st, vp_feats);
        let q_idx: Vec<usize> = queries
            .iter()
            .flat_map(|&(_, pw)| {
                assert!(pw <= self.max_pw, "pw {pw} exceeds max_pw {}", self.max_pw);
                0..pw
            })
            .collect();
        let q_tokens = e.embed(st, &self.queries, &q_idx);
        [img_tokens, vp_tokens, q_tokens]
    }

    /// One query answered outside any engine: a one-shot slot on a fresh
    /// session (a VP step always re-anchors, so nothing would be reused)
    /// through the same hooks the engine drives.
    fn answer(&self, sample: &VpSample, pw: usize) -> StepOutcome<Vec<Viewport>> {
        let query = VpQuery { sample: sample.clone(), pw };
        step_single(self, &mut VpSlot, &mut InferenceSession::new(&self.lm), &query)
    }

    /// Graph-free prediction `[pw, 3]` (network-unit deltas), no tape and
    /// no parameter clones. Public so equivalence gates can compare
    /// served answers against the unbatched path at the logits level.
    pub fn forward_eval(&self, sample: &VpSample, pw: usize) -> Tensor {
        assert!(pw <= self.max_pw, "pw {pw} exceeds max_pw {}", self.max_pw);
        Tensor::from_vec([pw, 3], self.answer(sample, pw).logits)
    }

    /// Scale predicted deltas `[pw_model, 3]` (row-major in `v`) back to
    /// degrees and extend them to `pw` steps (velocity hold, decayed) from
    /// the sample's last known viewport. Shared by
    /// [`VpPredictor::predict`] and the served path.
    fn deltas_to_viewports(sample: &VpSample, v: &[f32], pw: usize) -> Vec<Viewport> {
        let mut deltas: Vec<[f32; 3]> = v
            .chunks_exact(3)
            .map(|d| [d[0] * DELTA_SCALE, d[1] * DELTA_SCALE, d[2] * DELTA_SCALE])
            .collect();
        // Horizons beyond max_pw: hold the final predicted velocity, decayed.
        while deltas.len() < pw {
            let mut last = *deltas.last().unwrap();
            for x in &mut last {
                *x *= 0.9;
            }
            deltas.push(last);
        }
        apply_deltas(sample.history.last().unwrap(), &deltas)
    }

    /// Supervised adaptation over extracted samples. Returns the mean loss
    /// of the final 20% of steps.
    pub fn adapt(&mut self, samples: &[VpSample], iters: usize, lr: f32, seed: u64) -> f32 {
        assert!(!samples.is_empty());
        let store: fn(&mut Self) -> &mut ParamStore = |m| &mut m.store;
        fit(self, store, iters, lr, seed, |m, f, rng| {
            let s = &samples[rng.below(samples.len())];
            let mut full = vec![*s.history.last().unwrap()];
            full.extend_from_slice(&s.future);
            let targets = to_deltas(&full);
            let pw = targets.len().min(m.max_pw);
            let pred = m.forward(f, s, pw);
            let mut tflat = Vec::with_capacity(pw * 3);
            for d in &targets[..pw] {
                tflat.extend(d.iter().map(|x| x / DELTA_SCALE));
            }
            let tgt = f.input(Tensor::from_vec([pw, 3], tflat));
            Some(f.g.mse(pred, tgt))
        })
    }

    /// Peak training-step memory in bytes (tape activations + gradients +
    /// parameter training state) — the Fig 4 measurement.
    pub fn training_step_bytes(&self, sample: &VpSample, pw: usize) -> usize {
        let mut f = Fwd::train(0);
        let pred = self.forward(&mut f, sample, pw);
        let tgt = f.input(Tensor::zeros([pw, 3]));
        let loss = f.g.mse(pred, tgt);
        let _ = f.backward(loss);
        f.peak_bytes() + self.store.bytes_params() + self.store.bytes_training_state()
    }
}

/// VP behind the serving engine: one-shot eval slots. Every tick is a
/// complete question — [`LanePlan::reanchor`] always clears the slot's
/// session, the query tokens go through the shared batched backbone
/// step, and the head answers at the query positions. Slots typically
/// join, answer, and leave.
impl ServedTask for NetLlmVp {
    type Obs = VpQuery;
    type Action = Vec<Viewport>;
    type Slot = VpSlot;

    fn backbone(&self, _group: usize) -> (&TinyLm, &ParamStore) {
        (&self.lm, &self.store)
    }

    fn task_label(&self, _group: usize) -> &'static str {
        "vp"
    }

    fn new_slot(&self, _group: usize) -> VpSlot {
        VpSlot
    }

    fn plan_rows(
        &self,
        _slot: &VpSlot,
        obs: &VpQuery,
        _session: &InferenceSession,
    ) -> (usize, bool) {
        // `[saliency patches | history-delta tokens | pw query tokens]`,
        // always on a cleared session — countable without encoding.
        let pw = obs.pw.min(self.max_pw);
        let hist = obs.sample.history.len().saturating_sub(1);
        (self.img_enc.num_patches() + hist + pw, true)
    }

    fn rebuild_rows(&self, _slot: &VpSlot, _session: &InferenceSession) -> usize {
        // One-shot queries clear the session every step: nothing an
        // eviction could destroy is ever re-read, so VP victims are free.
        0
    }

    fn plan_batch(
        &self,
        lanes: &mut [Lane<'_, VpSlot, VpQuery>],
        _sessions: &[&InferenceSession],
        stacked: &mut Vec<f32>,
    ) -> Vec<LanePlan> {
        let queries: Vec<(&VpSample, usize)> =
            lanes.iter().map(|l| (&l.obs.sample, l.obs.pw.min(self.max_pw))).collect();
        let [img, hist, q] = self.query_tokens(&mut Eager, &queries);
        let (d, patches) = (self.lm.cfg.d_model, self.img_enc.num_patches());
        let (mut next_hist, mut next_q) = (0, 0);
        let mut plans = Vec::with_capacity(queries.len());
        for (i, (sample, pw)) in queries.into_iter().enumerate() {
            let t = sample.history.len() - 1;
            stacked.extend_from_slice(&img.data()[i * patches * d..(i + 1) * patches * d]);
            stacked.extend_from_slice(&hist.data()[next_hist * d..(next_hist + t) * d]);
            stacked.extend_from_slice(&q.data()[next_q * d..(next_q + pw) * d]);
            (next_hist, next_q) = (next_hist + t, next_q + pw);
            plans.push(LanePlan { rows: patches + t + pw, read: pw, reanchor: true });
        }
        plans
    }

    fn settle_batch(
        &self,
        lanes: &mut [Lane<'_, VpSlot, VpQuery>],
        hidden: &Tensor,
        rows: &[usize],
    ) -> Vec<StepOutcome<Vec<Viewport>>> {
        // Each lane's query rows close its append; one head pass reads
        // them all.
        let mut query_rows = Vec::new();
        let mut end = 0;
        for (lane, &n) in lanes.iter().zip(rows) {
            end += n;
            query_rows.extend(end - lane.obs.pw.min(self.max_pw)..end);
        }
        let v = self.head.run(&mut Eager, &self.store, &hidden.gather_rows(&query_rows));
        let mut next = 0;
        lanes
            .iter()
            .map(|lane| {
                let pw = lane.obs.pw.min(self.max_pw);
                let deltas = v.data()[3 * next..3 * (next + pw)].to_vec();
                next += pw;
                let action = Self::deltas_to_viewports(&lane.obs.sample, &deltas, lane.obs.pw);
                StepOutcome { action, logits: deltas, rollback: None }
            })
            .collect()
    }
}

impl VpPredictor for NetLlmVp {
    fn name(&self) -> &str {
        "NetLLM"
    }

    fn predict(&mut self, sample: &VpSample, pw: usize) -> Vec<Viewport> {
        self.answer(sample, pw).action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_llm::{size_spec, Zoo};
    use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec};

    fn tiny_backbone() -> LoadedLm {
        let zoo = Zoo::new(std::env::temp_dir().join("netllm-vp-test"));
        zoo.build_random(&size_spec("0.35b-sim"))
    }

    fn samples() -> Vec<VpSample> {
        let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
        extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30)
    }

    #[test]
    fn predicts_valid_horizons() {
        let mut m = NetLlmVp::new(tiny_backbone(), AdaptMode::NoDomain, 30, 1);
        let ss = samples();
        let p = m.predict(&ss[0], 20);
        assert_eq!(p.len(), 20);
        for v in &p {
            assert!((-180.0..180.0).contains(&v[2]));
            assert!((-90.0..=90.0).contains(&v[1]));
        }
        // longer-than-max horizons extend gracefully
        assert_eq!(m.predict(&ss[0], 40).len(), 40);
    }

    #[test]
    fn eval_path_matches_taped_forward() {
        // The session-based prediction must equal the taped forward within
        // float tolerance for the same sample.
        let m = NetLlmVp::new(tiny_backbone(), AdaptMode::NoDomain, 20, 9);
        let ss = samples();
        for s in ss.iter().take(3) {
            let pw = 12;
            let mut f = Fwd::eval();
            let node = m.forward(&mut f, s, pw);
            let taped = f.g.value(node).clone();
            let evaled = m.forward_eval(s, pw);
            assert_eq!(taped.shape(), evaled.shape());
            for (a, b) in taped.data().iter().zip(evaled.data()) {
                assert!((a - b).abs() < 1e-5, "VP eval path diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn adaptation_reduces_loss() {
        let mut m = NetLlmVp::new(tiny_backbone(), AdaptMode::FullKnowledge, 20, 2);
        let ss = samples();
        let early = m.adapt(&ss, 8, 1e-3, 7);
        let late = m.adapt(&ss, 40, 1e-3, 8);
        assert!(late < early * 1.2, "loss should not increase: {early} -> {late}");
    }

    #[test]
    fn lora_mode_trains_only_adapters_in_backbone() {
        let m = NetLlmVp::new(tiny_backbone(), AdaptMode::FullKnowledge, 20, 3);
        for id in m.store.ids() {
            let name = m.store.name(id);
            if name.starts_with("llm.") && m.store.is_trainable(id) {
                assert!(
                    name.contains("lora"),
                    "only LoRA params may train in the backbone, found {name}"
                );
            }
        }
    }

    #[test]
    fn no_pretrain_mode_trains_backbone_fully() {
        let m = NetLlmVp::new(tiny_backbone(), AdaptMode::NoPretrain, 20, 4);
        let trainable_backbone = m
            .store
            .ids()
            .filter(|&id| m.store.name(id).starts_with("llm.") && m.store.is_trainable(id))
            .count();
        assert!(trainable_backbone > 5, "NoPretrain must train the backbone");
    }
}
