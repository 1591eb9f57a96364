//! NetLLM adapter for ABR (data-driven RL pipeline of DD-LRNA, §4.3).
//!
//! Experiences are collected **once** with an existing policy (GENET by
//! default, as in the paper) and never refreshed. Each trajectory is the
//! return-conditioned sequence of Eq. (2):
//! `{R_t, s_t^throughput, s_t^delay, s_t^sizes, s_t^buffer, a_t}` — every
//! piece of state is treated as its own modality with its own encoder and
//! projection, exactly the paper's "process them separately".
//!
//! Training samples a context window of `w` steps (Eq. 3) and minimises
//! cross-entropy between the head's bitrate distribution at each state's
//! final token and the recorded action (Eq. 4). At inference the model is
//! prompted with a target return (the best behaviour-policy return in the
//! dataset, slightly stretched) and the return-to-go is decremented by the
//! realised per-chunk QoE.

use crate::adapt::{fit, AdaptMode};
use crate::backbone::InferenceSession;
use crate::heads::AbrHead;
use crate::multimodal::{Projection, ScalarEncoder, SeriesEncoder, TokenRing};
use crate::serving::{step_single, Lane, LanePlan, ServedTask, StepOutcome};
use nt_abr::{chunk_qoe, AbrObservation, AbrPolicy};
use nt_llm::zoo::LoadedLm;
use nt_llm::TinyLm;
use nt_nn::{Eager, Embedding, Exec, Fwd, ParamStore};
use nt_tensor::tensor::argmax;
use nt_tensor::{NodeId, Rng, Tensor};

const FEAT: usize = 24;
/// Tokens per trajectory step: return, throughput, delay, sizes, buffer, action.
pub(crate) const TOK_PER_STEP: usize = 6;
/// Row of a step's buffer token, the last of [`NetLlmAbr::obs_tokens`]
/// after the rtg token: it closes the state, and the head reads it.
const STATE_CLOSE: usize = 4;
/// Reward scale: per-chunk QoE is divided by this before entering returns.
pub(crate) const R_SCALE: f64 = 5.0;

/// One step of recorded experience.
#[derive(Clone, Debug)]
pub struct AbrStep {
    pub thr_hist: Vec<f64>,
    pub delay_hist: Vec<f64>,
    pub next_sizes: Vec<f64>,
    pub buffer: f64,
    pub action: usize,
    pub reward: f64,
}

/// A full episode of experience.
#[derive(Clone, Debug, Default)]
pub struct AbrTrajectory {
    pub steps: Vec<AbrStep>,
}

impl AbrTrajectory {
    /// Scaled returns-to-go `R_t = sum_{i>=t} r_i / R_SCALE`.
    pub fn returns_to_go(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.steps.len()];
        let mut acc = 0.0f64;
        for i in (0..self.steps.len()).rev() {
            acc += self.steps[i].reward / R_SCALE;
            out[i] = acc as f32;
        }
        out
    }

    pub fn total_return(&self) -> f64 {
        self.steps.iter().map(|s| s.reward).sum::<f64>() / R_SCALE
    }
}

/// Record experiences by wrapping any existing policy (the paper's
/// `RL_Collect` API, Fig 9).
pub struct AbrRecorder<'a> {
    pub inner: &'a mut dyn AbrPolicy,
    pub traj: AbrTrajectory,
    prev_bitrate: Option<f64>,
    prev_buffer: f64,
}

impl<'a> AbrRecorder<'a> {
    pub fn new(inner: &'a mut dyn AbrPolicy) -> Self {
        AbrRecorder { inner, traj: AbrTrajectory::default(), prev_bitrate: None, prev_buffer: 0.0 }
    }
}

impl AbrPolicy for AbrRecorder<'_> {
    fn name(&self) -> &str {
        "recorder"
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.prev_bitrate = None;
        self.prev_buffer = 0.0;
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        // Settle the previous step's reward now that its outcome is visible.
        if let Some(prev) = self.traj.steps.last_mut() {
            let download = *obs.delay_hist.last().unwrap_or(&0.0);
            let rebuf =
                if obs.chunk_index <= 1 { 0.0 } else { (download - self.prev_buffer).max(0.0) };
            let br = obs.ladder_mbps[prev.action];
            prev.reward = chunk_qoe(br, rebuf, self.prev_bitrate);
            self.prev_bitrate = Some(br);
        }
        let a = self.inner.select(obs);
        self.prev_buffer = obs.buffer_secs;
        self.traj.steps.push(AbrStep {
            thr_hist: obs.throughput_hist.clone(),
            delay_hist: obs.delay_hist.clone(),
            next_sizes: obs.next_sizes.clone(),
            buffer: obs.buffer_secs,
            action: a,
            reward: 0.0, // settled on the next call (or left 0 for the final chunk)
        });
        a
    }
}

/// Mutable per-stream rollout state: everything one live video session
/// carries between chunks. [`NetLlmAbr`] owns one (its own single-stream
/// rollout); the serving engine owns one per slot so many streams can
/// share one model (`NetLlmAbr` is the [`ServedTask`] whose
/// [`ServedTask::Slot`] this is).
#[derive(Clone, Debug, Default)]
pub struct AbrEpisode {
    /// The episode's steps from index `first` on. A re-anchor reads only
    /// from its anchor on, and the anchor never moves back, so each
    /// re-anchor drops the steps before it: a session holds at most
    /// `2 * window + 1` steps however long it streams.
    steps: Vec<AbrStep>,
    /// Episode index of `steps[0]`.
    first: usize,
    pub rtg_now: f32,
    pub prev_bitrate: Option<f64>,
    pub prev_buffer: f64,
    /// First episode step currently encoded in the KV session.
    pub anchor: usize,
    /// Observation tokens `[4, d]` of the last `window` steps. They
    /// outlive an eviction, which clears only the KV session.
    obs_rows: TokenRing,
}

impl AbrEpisode {
    /// Fresh episode prompted with `target_return`.
    pub fn fresh(target_return: f32) -> Self {
        AbrEpisode { rtg_now: target_return, ..Default::default() }
    }

    /// Steps taken so far: the episode index of the next step.
    fn end(&self) -> usize {
        self.first + self.steps.len()
    }

    /// The step at episode index `n` (at least `first`).
    fn step(&self, n: usize) -> &AbrStep {
        &self.steps[n - self.first]
    }
}

/// The adapted ABR model.
pub struct NetLlmAbr {
    pub lm: TinyLm,
    pub store: ParamStore,
    rtg_enc: ScalarEncoder,
    thr_enc: SeriesEncoder,
    delay_enc: SeriesEncoder,
    sizes_enc: ScalarEncoder,
    buf_enc: ScalarEncoder,
    rtg_proj: Projection,
    thr_proj: Projection,
    delay_proj: Projection,
    sizes_proj: Projection,
    buf_proj: Projection,
    action_tokens: Embedding,
    pub(crate) head: AbrHead,
    pub window: usize,
    pub mode: AdaptMode,
    /// Target return used to prompt the model at inference.
    pub target_return: f32,
    // ---- single-stream inference state ----
    ep: AbrEpisode,
    /// KV-cached inference session over the backbone; rollout steps append
    /// ~[`TOK_PER_STEP`] new tokens instead of re-encoding the window.
    session: InferenceSession,
    /// Action logits of the most recent [`AbrPolicy::select`] call (the
    /// equivalence tests compare these against the taped reference).
    last_logits: Vec<f32>,
}

impl NetLlmAbr {
    pub fn new(loaded: LoadedLm, mode: AdaptMode, window: usize, seed: u64) -> Self {
        assert!(window >= 1, "NetLlmAbr window {window}: must hold at least one step");
        let LoadedLm { mut lm, mut store, .. } = loaded;
        let mut rng = Rng::seeded(seed);
        let d = lm.cfg.d_model;
        assert!(window * TOK_PER_STEP <= lm.cfg.max_seq, "window too large for backbone");
        let rtg_enc = ScalarEncoder::new(&mut store, "mm.rtg", 1, FEAT, &mut rng);
        let thr_enc = SeriesEncoder::new(&mut store, "mm.thr", 1, FEAT, 3, &mut rng);
        let delay_enc = SeriesEncoder::new(&mut store, "mm.delay", 1, FEAT, 3, &mut rng);
        let sizes_enc = ScalarEncoder::new(&mut store, "mm.sizes", 6, FEAT, &mut rng);
        let buf_enc = ScalarEncoder::new(&mut store, "mm.buf", 1, FEAT, &mut rng);
        let rtg_proj = Projection::new(&mut store, "mm.rtg_tok", FEAT, d, &mut rng);
        let thr_proj = Projection::new(&mut store, "mm.thr_tok", FEAT, d, &mut rng);
        let delay_proj = Projection::new(&mut store, "mm.delay_tok", FEAT, d, &mut rng);
        let sizes_proj = Projection::new(&mut store, "mm.sizes_tok", FEAT, d, &mut rng);
        let buf_proj = Projection::new(&mut store, "mm.buf_tok", FEAT, d, &mut rng);
        let action_tokens = Embedding::new(&mut store, "mm.abr_actions", 6, d, &mut rng);
        let head = AbrHead::new(&mut store, d, 6, &mut rng);
        mode.apply(&mut lm, &mut store, &mut rng);
        let session = InferenceSession::new(&lm);
        NetLlmAbr {
            lm,
            store,
            rtg_enc,
            thr_enc,
            delay_enc,
            sizes_enc,
            buf_enc,
            rtg_proj,
            thr_proj,
            delay_proj,
            sizes_proj,
            buf_proj,
            action_tokens,
            head,
            window,
            mode,
            target_return: 0.0,
            ep: AbrEpisode::default(),
            session,
            last_logits: Vec::new(),
        }
    }

    /// Action logits for every step in the window: `[w, 6]`. The final
    /// step may omit its action token (at inference the action is what we
    /// are about to predict). Step `i` occupies rows `TOK_PER_STEP * i ..`,
    /// and the head reads its buffer token, at offset [`STATE_CLOSE`],
    /// which closes its state. Each step goes through the encoders alone:
    /// stacking the window would reorder the gradient sums.
    fn window_logits(
        &self,
        f: &mut Fwd,
        steps: &[AbrStep],
        rtgs: &[f32],
        include_last_action: bool,
    ) -> NodeId {
        assert!(!steps.is_empty());
        let mut groups: Vec<NodeId> = Vec::new();
        for (i, s) in steps.iter().enumerate() {
            groups.push(self.rtg_tokens(f, &rtgs[i..=i]));
            let obs = self.obs_tokens(f, &[s]);
            debug_assert_eq!(obs.len(), STATE_CLOSE);
            groups.push(f.concat(&obs));
            if i + 1 < steps.len() || include_last_action {
                groups.push(self.action_rows(f, &[s.action]));
            }
        }
        let tokens = f.g.concat(&groups, 0);
        let hidden = self.lm.forward_embeddings(f, &self.store, tokens);
        let reads: Vec<usize> = (0..steps.len()).map(|i| TOK_PER_STEP * i + STATE_CLOSE).collect();
        let gathered = f.gather_rows(&hidden, &reads); // [w, d]
        self.head.run(f, &self.store, &gathered)
    }

    /// Return-to-go tokens `[rtgs.len(), d]`, one per prompt; with a
    /// step's [`NetLlmAbr::obs_tokens`] each forms that step's state.
    fn rtg_tokens<E: Exec>(&self, e: &mut E, rtgs: &[f32]) -> E::V {
        let rtg = Tensor::from_vec([rtgs.len(), 1], rtgs.to_vec());
        let rtg_feat = self.rtg_enc.run(e, &self.store, rtg);
        self.rtg_proj.run(e, &self.store, rtg_feat)
    }

    /// Observation tokens of `steps`, one `[steps.len(), d]` value per
    /// modality: throughput, delay, sizes, buffer. Step `i`'s four tokens
    /// are row `i` of each, in that order.
    fn obs_tokens<E: Exec>(&self, e: &mut E, steps: &[&AbrStep]) -> [E::V; 4] {
        let st = &self.store;
        let b = steps.len();
        let series = |hist: fn(&AbrStep) -> &[f64]| {
            let xs = steps.iter().flat_map(|s| padded_series(hist(s), 8, 0.1)).collect();
            Tensor::from_vec([b, 1, 8], xs)
        };
        let thr_feat = self.thr_enc.pooled(e, st, series(|s| &s.thr_hist));
        let thr_tok = self.thr_proj.run(e, st, thr_feat);
        let dl_feat = self.delay_enc.pooled(e, st, series(|s| &s.delay_hist));
        let dl_tok = self.delay_proj.run(e, st, dl_feat);
        let sizes = steps
            .iter()
            .flat_map(|s| (0..6).map(|r| s.next_sizes.get(r).map(|&x| (x / 20.0) as f32)))
            .map(|x| x.unwrap_or(0.0))
            .collect();
        let sz_feat = self.sizes_enc.run(e, st, Tensor::from_vec([b, 6], sizes));
        let sz_tok = self.sizes_proj.run(e, st, sz_feat);
        let buf = steps.iter().map(|s| (s.buffer / 30.0) as f32).collect();
        let buf_feat = self.buf_enc.run(e, st, Tensor::from_vec([b, 1], buf));
        let buf_tok = self.buf_proj.run(e, st, buf_feat);
        [thr_tok, dl_tok, sz_tok, buf_tok]
    }

    /// Learned tokens `[actions.len(), d]` of settled actions.
    fn action_rows<E: Exec>(&self, e: &mut E, actions: &[usize]) -> E::V {
        let ids: Vec<usize> = actions.iter().map(|&a| a.min(5)).collect();
        e.embed(&self.store, &self.action_tokens, &ids)
    }

    /// Whether `obs` is an observation this model can encode: its ladder
    /// has a rate for every rung the head can pick (the QoE of a settled
    /// action reads `ladder_mbps[action]`). The serving front door
    /// refuses the rest.
    pub fn admits(&self, obs: &AbrObservation) -> bool {
        obs.ladder_mbps.len() >= self.head.rungs
    }

    /// Action logits of the most recent [`AbrPolicy::select`] call.
    pub fn last_logits(&self) -> &[f32] {
        &self.last_logits
    }

    /// Settle the previous chunk's realised QoE into the episode (the
    /// re-anchor rebuild reconstructs historical rtg prompts from these
    /// rewards), decrement the return-to-go (the DT inference rule), and
    /// push the new observation as a pending step. Shared verbatim by the
    /// single-stream [`AbrPolicy::select`] and the batched serving engine,
    /// so both paths stay step-for-step identical.
    pub(crate) fn settle_and_push(&self, ep: &mut AbrEpisode, obs: &AbrObservation) {
        if let Some(prev) = ep.steps.last_mut() {
            let download = *obs.delay_hist.last().unwrap_or(&0.0);
            let rebuf =
                if obs.chunk_index <= 1 { 0.0 } else { (download - ep.prev_buffer).max(0.0) };
            let br = obs.ladder_mbps[prev.action];
            let r = chunk_qoe(br, rebuf, ep.prev_bitrate);
            prev.reward = r;
            ep.rtg_now -= (r / R_SCALE) as f32;
            ep.prev_bitrate = Some(br);
        }
        ep.prev_buffer = obs.buffer_secs;
        ep.steps.push(AbrStep {
            thr_hist: obs.throughput_hist.clone(),
            delay_hist: obs.delay_hist.clone(),
            next_sizes: obs.next_sizes.clone(),
            buffer: obs.buffer_secs,
            action: 0, // filled once the head has spoken
            reward: 0.0,
        });
    }

    /// The re-anchor rule, stated once: the step at episode index `n`
    /// clears the session and rebuilds from the training window when the
    /// session is empty (fresh episode, eviction, recovery), when the
    /// context cannot take one more step, or when the visible history
    /// reached twice the training window — bounding the train/inference
    /// prompt-length mismatch (see `backbone` docs).
    fn reanchors(&self, ep: &AbrEpisode, n: usize, session: &InferenceSession) -> bool {
        session.is_empty() || !session.fits(TOK_PER_STEP) || n - ep.anchor >= 2 * self.window
    }

    /// Steps a re-anchor at episode index `n` re-encodes (the last
    /// `window`, fewer early in an episode).
    fn rebuild_window(&self, n: usize) -> usize {
        self.window.min(n + 1)
    }

    /// Token rows of that rebuild: one state per step, an action token
    /// between consecutive steps.
    fn rebuild_len(&self, n: usize) -> usize {
        self.rebuild_window(n) * TOK_PER_STEP - 1
    }

    /// Re-anchor at step `n`: move the anchor to the rebuild window's
    /// first step and push the window's history rtg prompts onto `rtgs`,
    /// reconstructed from the realised rewards. This backward `f32` sum
    /// can differ in the last bit from the forward decrements that
    /// prompted each step when it was current, so a rebuild encodes its
    /// rtg tokens afresh and reuses only the observation tokens. The
    /// steps before the new anchor are dropped.
    fn reanchor(&self, ep: &mut AbrEpisode, n: usize, rtgs: &mut Vec<f32>) {
        let w = self.rebuild_window(n);
        ep.anchor = n + 1 - w;
        ep.steps.drain(..ep.anchor - ep.first);
        ep.first = ep.anchor;
        let base = rtgs.len();
        rtgs.resize(base + w - 1, 0.0);
        let mut later = ep.rtg_now;
        for k in (0..w - 1).rev() {
            later += (ep.steps[k].reward / R_SCALE) as f32;
            rtgs[base + k] = later;
        }
    }

    /// The return inference is prompted with after adapting on `dataset`:
    /// the best behaviour return among its usable trajectories, stretched
    /// 10%.
    pub fn target_return_for(dataset: &[AbrTrajectory]) -> f32 {
        let best = dataset
            .iter()
            .filter(|t| t.steps.len() >= 2)
            .map(|t| t.total_return())
            .fold(f64::MIN, f64::max);
        (best * 1.1) as f32
    }

    /// Data-driven adaptation over a fixed experience dataset (collected
    /// once — the key cost saving of Fig 3). Returns the tail-mean loss.
    pub fn adapt(&mut self, dataset: &[AbrTrajectory], iters: usize, lr: f32, seed: u64) -> f32 {
        assert!(!dataset.is_empty());
        let usable: Vec<&AbrTrajectory> = dataset.iter().filter(|t| t.steps.len() >= 2).collect();
        assert!(!usable.is_empty(), "trajectories too short");
        self.target_return = Self::target_return_for(dataset);
        let store: fn(&mut Self) -> &mut ParamStore = |m| &mut m.store;
        fit(self, store, iters, lr, seed, |m, f, rng| {
            let traj = usable[rng.below(usable.len())];
            let rtgs = traj.returns_to_go();
            let w = m.window.min(traj.steps.len());
            let start = rng.below(traj.steps.len() - w + 1);
            let steps = &traj.steps[start..start + w];
            let actions: Vec<usize> = steps.iter().map(|s| s.action).collect();
            let logits = m.window_logits(f, steps, &rtgs[start..start + w], true);
            Some(f.g.cross_entropy(logits, &actions))
        })
    }
}

/// The last `len` values of `xs`, scaled, zero-padded in front.
fn padded_series(xs: &[f64], len: usize, scale: f64) -> impl Iterator<Item = f32> + '_ {
    let kept = &xs[xs.len().saturating_sub(len)..];
    std::iter::repeat_n(0.0, len - kept.len()).chain(kept.iter().map(move |&x| (x * scale) as f32))
}

/// ABR behind the serving engine: incremental decision-transformer steps.
/// [`ServedTask::plan_batch`]/[`ServedTask::settle_batch`] *are* the
/// single-stream [`AbrPolicy::select`] path (which routes through them at
/// one lane), so batched and unbatched rollouts stay step-for-step
/// identical.
impl ServedTask for NetLlmAbr {
    type Obs = AbrObservation;
    type Action = usize;
    type Slot = AbrEpisode;

    fn backbone(&self, _group: usize) -> (&TinyLm, &ParamStore) {
        (&self.lm, &self.store)
    }

    fn task_label(&self, _group: usize) -> &'static str {
        "abr"
    }

    fn new_slot(&self, _group: usize) -> AbrEpisode {
        AbrEpisode::fresh(self.target_return)
    }

    fn plan_rows(
        &self,
        ep: &AbrEpisode,
        _obs: &AbrObservation,
        session: &InferenceSession,
    ) -> (usize, bool) {
        // The incoming observation becomes step index `n = end()`: either
        // a settled action token plus one state, or the rebuild.
        let n = ep.end();
        if self.reanchors(ep, n, session) {
            (self.rebuild_len(n), true)
        } else {
            (TOK_PER_STEP, false)
        }
    }

    fn rebuild_rows(&self, ep: &AbrEpisode, session: &InferenceSession) -> usize {
        // The eviction price: nothing when the next step re-anchors
        // anyway (the cache is dead weight), otherwise the rebuild in
        // place of the one-step append.
        let n = ep.end();
        if self.reanchors(ep, n, session) {
            0
        } else {
            self.rebuild_len(n).saturating_sub(TOK_PER_STEP)
        }
    }

    fn plan_batch(
        &self,
        lanes: &mut [Lane<'_, AbrEpisode, AbrObservation>],
        sessions: &[&InferenceSession],
        stacked: &mut Vec<f32>,
    ) -> Vec<LanePlan> {
        // Each lane settles its previous chunk and pushes the observation
        // as its current step `n`; its session holds tokens for steps
        // `anchor..=n-1` (the last one missing its action token, chosen
        // after the fact). The rtg and action batches list the prompts
        // and settled actions in the order the lanes write them: a
        // rebuild's history steps, then the current state.
        let (mut reanchors, mut rtgs, mut actions) = (Vec::new(), Vec::new(), Vec::new());
        for (lane, session) in lanes.iter_mut().zip(sessions) {
            let ep = &mut *lane.slot;
            self.settle_and_push(ep, lane.obs);
            let n = ep.end() - 1;
            let clear = self.reanchors(ep, n, session);
            if clear {
                self.reanchor(ep, n, &mut rtgs);
                actions.extend((ep.anchor..n).map(|k| ep.step(k).action));
            } else {
                actions.push(ep.step(n - 1).action);
            }
            rtgs.push(ep.rtg_now);
            reanchors.push(clear);
        }
        let e = &mut Eager;
        let rtg = self.rtg_tokens(e, &rtgs);
        let acts = self.action_rows(e, &actions);
        let obs = {
            let steps: Vec<&AbrStep> =
                lanes.iter().map(|l| l.slot.steps.last().expect("pushed above")).collect();
            self.obs_tokens(e, &steps)
        };

        // Write each lane's rows: the incremental append (settled action
        // token + new state) or the rebuild of its window, whose history
        // observation tokens come from the slot's ring; only a step the
        // ring no longer holds is encoded again.
        let d = self.lm.cfg.d_model;
        let (mut rtg_rows, mut act_rows) =
            (rtg.data().chunks_exact(d), acts.data().chunks_exact(d));
        let mut plans = Vec::with_capacity(lanes.len());
        for (i, (lane, clear)) in lanes.iter_mut().zip(reanchors).enumerate() {
            let ep = &mut *lane.slot;
            let n = ep.end() - 1;
            let start = stacked.len();
            if clear {
                for step in ep.anchor..n {
                    stacked.extend_from_slice(rtg_rows.next().expect("an rtg per state"));
                    match ep.obs_rows.get(step) {
                        Some(rows) => stacked.extend_from_slice(rows.data()),
                        None => self
                            .obs_tokens(e, &[ep.step(step)])
                            .iter()
                            .for_each(|t| stacked.extend_from_slice(t.data())),
                    }
                    stacked.extend_from_slice(act_rows.next().expect("an action per step"));
                }
            } else {
                stacked.extend_from_slice(act_rows.next().expect("an action per step"));
            }
            stacked.extend_from_slice(rtg_rows.next().expect("an rtg per state"));
            let mut own = Vec::with_capacity(obs.len() * d);
            obs.iter().for_each(|t| own.extend_from_slice(t.row(i)));
            stacked.extend_from_slice(&own);
            ep.obs_rows.push(n, Tensor::from_vec([obs.len(), d], own), self.window);
            // The head reads the state-closing row, the lane's last.
            plans.push(LanePlan { rows: (stacked.len() - start) / d, read: 1, reanchor: clear });
        }
        plans
    }

    fn settle_batch(
        &self,
        lanes: &mut [Lane<'_, AbrEpisode, AbrObservation>],
        hidden: &Tensor,
        rows: &[usize],
    ) -> Vec<StepOutcome<usize>> {
        // Each lane's final row is its current step's state-closing token.
        let last: Vec<usize> = rows
            .iter()
            .scan(0, |end, &n| {
                *end += n;
                Some(*end - 1)
            })
            .collect();
        let logits = self.head.run(&mut Eager, &self.store, &hidden.gather_rows(&last));
        lanes
            .iter_mut()
            .zip(logits.data().chunks_exact(self.head.rungs))
            .map(|(lane, logits)| {
                let best = argmax(logits);
                lane.slot.steps.last_mut().expect("planned this tick").action = best;
                StepOutcome { action: best, logits: logits.to_vec(), rollback: None }
            })
            .collect()
    }
}

impl AbrPolicy for NetLlmAbr {
    fn name(&self) -> &str {
        "NetLLM"
    }

    fn reset(&mut self) {
        self.ep = AbrEpisode::fresh(self.target_return);
        self.session.clear();
    }

    fn select(&mut self, obs: &AbrObservation) -> usize {
        // KV-cached inference through the same ServedTask hooks the
        // batched engine drives — one slot, one model, zero divergence.
        // The stream's state is lifted out while `self` is borrowed as
        // the task.
        let mut ep = std::mem::take(&mut self.ep);
        let mut session = std::mem::replace(&mut self.session, InferenceSession::new(&self.lm));
        let out = step_single(&*self, &mut ep, &mut session, obs);
        (self.ep, self.session, self.last_logits) = (ep, session, out.logits);
        out.action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::StepPlan;
    use nt_abr::{envivio_like, generate_set, run_session, Bba, TraceKind};
    use nt_llm::{size_spec, Zoo};

    fn backbone() -> LoadedLm {
        Zoo::new(std::env::temp_dir().join("netllm-abr-test")).build_random(&size_spec("0.35b-sim"))
    }

    #[test]
    #[should_panic(expected = "window 0: must hold at least one step")]
    fn zero_window_is_refused() {
        NetLlmAbr::new(backbone(), AdaptMode::FullKnowledge, 0, 1);
    }

    fn collect(n: usize) -> Vec<AbrTrajectory> {
        let video = envivio_like(&mut Rng::seeded(1));
        let traces = generate_set(TraceKind::FccLike, n, 250, &mut Rng::seeded(2));
        traces
            .iter()
            .map(|t| {
                let mut bba = Bba;
                let mut rec = AbrRecorder::new(&mut bba);
                run_session(&mut rec, &video, t);
                rec.traj
            })
            .collect()
    }

    #[test]
    fn recorder_captures_full_sessions_with_rewards() {
        let trajs = collect(2);
        for t in &trajs {
            assert_eq!(t.steps.len(), 48);
            // all but the final step have settled rewards
            let settled = t.steps[..47].iter().filter(|s| s.reward != 0.0).count();
            assert!(settled > 40, "rewards should settle, got {settled}");
        }
    }

    #[test]
    fn returns_to_go_are_decreasing_for_positive_rewards() {
        let mut traj = AbrTrajectory::default();
        for r in [1.0, 2.0, 3.0] {
            traj.steps.push(AbrStep {
                thr_hist: vec![],
                delay_hist: vec![],
                next_sizes: vec![1.0; 6],
                buffer: 10.0,
                action: 0,
                reward: r,
            });
        }
        let rtg = traj.returns_to_go();
        assert!(rtg[0] > rtg[1] && rtg[1] > rtg[2]);
        assert!((rtg[0] as f64 - 6.0 / R_SCALE).abs() < 1e-6);
    }

    #[test]
    fn adapted_model_streams_and_answers_are_valid() {
        let trajs = collect(2);
        let mut m = NetLlmAbr::new(backbone(), AdaptMode::FullKnowledge, 4, 3);
        m.adapt(&trajs, 6, 1e-3, 4);
        let video = envivio_like(&mut Rng::seeded(5));
        let traces = generate_set(TraceKind::FccLike, 1, 250, &mut Rng::seeded(6));
        let (stats, recs) = run_session(&mut m, &video, &traces[0]);
        assert_eq!(recs.len(), 48);
        assert!(recs.iter().all(|r| r.rung < 6), "every answer must be a valid rung");
        assert!(stats.qoe_per_chunk.is_finite());
    }

    #[test]
    fn cached_rollout_matches_taped_window_forward() {
        // The session-based select() must match the taped reference forward
        // over the same token sequence at every step — including across the
        // 2x-window re-anchors (the replay mirrors select()'s anchor
        // bookkeeping).
        let window = 3;
        let mut m = NetLlmAbr::new(backbone(), AdaptMode::FullKnowledge, window, 11);
        m.target_return = 2.0;
        m.reset();
        let mut rng = Rng::seeded(12);
        let mut anchor = 0usize;
        for chunk in 0..10 {
            let obs = AbrObservation {
                throughput_hist: (0..8).map(|_| rng.uniform(0.5, 6.0) as f64).collect(),
                delay_hist: (0..8).map(|_| rng.uniform(0.5, 3.0) as f64).collect(),
                next_sizes: (0..6).map(|r| 0.5 + r as f64).collect(),
                buffer_secs: rng.uniform(2.0, 25.0) as f64,
                last_rung: (chunk > 0).then_some(0),
                remain_frac: 0.5,
                ladder_mbps: vec![0.3, 0.75, 1.2, 1.85, 2.85, 4.3],
                chunk_index: chunk,
            };
            let picked = m.select(&obs);
            // Mirror select()'s re-anchor rule to know the visible steps.
            let n = m.ep.end() - 1;
            if chunk == 0 || n - anchor >= 2 * window {
                anchor = n + 1 - window.min(n + 1);
            }
            let steps = &m.ep.steps[anchor - m.ep.first..];
            let w = steps.len();
            let mut rtgs = vec![m.ep.rtg_now; w];
            for k in (0..w - 1).rev() {
                rtgs[k] = rtgs[k + 1] + (steps[k].reward / R_SCALE) as f32;
            }
            let mut f = Fwd::eval();
            let logits = m.window_logits(&mut f, steps, &rtgs, false);
            let lv = f.g.value(logits);
            let reference = lv.row(lv.shape()[0] - 1);
            // Full logits equivalence, not just the argmax: the cached
            // session must encode the same rtg prompts as the reference.
            assert_eq!(m.last_logits.len(), reference.len());
            for (a, b) in m.last_logits.iter().zip(reference) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "chunk {chunk}: cached logits diverged from taped path: {a} vs {b}"
                );
            }
            let ref_argmax = reference
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(picked, ref_argmax, "chunk {chunk}: action diverged from taped path");
        }
        assert!(m.ep.anchor > 0, "probe should have re-anchored at least once");
    }

    /// One unbatched step that also hands back the planned tokens.
    fn plan_and_settle(
        m: &NetLlmAbr,
        ep: &mut AbrEpisode,
        session: &mut InferenceSession,
        obs: &AbrObservation,
    ) -> (StepPlan, Vec<f32>) {
        let plan = m.plan_step(ep, obs, session);
        if plan.reanchor {
            session.clear();
        }
        let hidden = session.append(&m.lm, &m.store, &plan.tokens);
        let out = m.settle_step(ep, obs, &hidden);
        (plan, out.logits)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rebuilds_from_cached_rows_equal_rebuilds_that_encode_every_step() {
        // A slot that keeps its observation rows and a twin that forgets
        // them before every plan (so each rebuild encodes its whole
        // window) must plan the same bits, across natural re-anchors and
        // an eviction's forced clear. After ten windows of steps the ring
        // still holds one window: slot memory does not grow with the
        // episode.
        let window = 3;
        let mut m = NetLlmAbr::new(backbone(), AdaptMode::NoDomain, window, 31);
        m.target_return = 2.0;
        let (mut kept, mut forgot) = (m.new_slot(0), m.new_slot(0));
        let (mut s_kept, mut s_forgot) =
            (InferenceSession::new(&m.lm), InferenceSession::new(&m.lm));
        let evict_at = 9;
        let mut natural = 0;
        for (t, obs) in AbrObservation::synthetic_stream(32, 10 * window).iter().enumerate() {
            if t == evict_at {
                s_kept.clear();
                s_forgot.clear();
            }
            forgot.obs_rows.clear();
            let (a, la) = plan_and_settle(&m, &mut kept, &mut s_kept, obs);
            let (b, lb) = plan_and_settle(&m, &mut forgot, &mut s_forgot, obs);
            assert_eq!(a.reanchor, b.reanchor, "step {t}");
            assert_eq!(bits(a.tokens.data()), bits(b.tokens.data()), "step {t}: tokens differ");
            assert_eq!(bits(&la), bits(&lb), "step {t}: logits differ");
            natural += usize::from(a.reanchor && t != 0 && t != evict_at);
        }
        assert!(natural >= 2, "probe should re-anchor naturally twice, got {natural}");
        assert_eq!(kept.obs_rows.len(), window, "the ring must hold exactly one window");
    }

    #[test]
    fn served_history_stays_within_two_windows() {
        // 2,000 decisions through the unbatched driver: the episode keeps
        // only what a re-anchor can reach, at most `2 * window + 1` steps.
        let window = 4;
        let m = NetLlmAbr::new(backbone(), AdaptMode::NoDomain, window, 33);
        let mut ep = m.new_slot(0);
        let mut session = InferenceSession::new(&m.lm);
        for obs in &AbrObservation::synthetic_stream(34, 2000) {
            let _ = step_single(&m, &mut ep, &mut session, obs);
            assert!(ep.steps.len() <= 2 * window + 1, "{} steps held", ep.steps.len());
        }
        assert_eq!(ep.end(), 2000);
        assert!(ep.first >= 2000 - (2 * window + 1), "history starts at step {}", ep.first);
    }

    #[test]
    fn long_episode_reanchors_within_context() {
        // 48-chunk sessions exceed the backbone context; the session must
        // re-anchor instead of overflowing, and answers stay valid rungs.
        let trajs = collect(1);
        let mut m = NetLlmAbr::new(backbone(), AdaptMode::NoDomain, 6, 13);
        m.adapt(&trajs, 4, 1e-3, 14);
        let video = envivio_like(&mut Rng::seeded(15));
        let traces = generate_set(TraceKind::FccLike, 1, 250, &mut Rng::seeded(16));
        let (_, recs) = run_session(&mut m, &video, &traces[0]);
        assert_eq!(recs.len(), 48);
        assert!(recs.iter().all(|r| r.rung < 6));
        assert!(m.session.len() <= m.lm.cfg.max_seq);
    }

    #[test]
    fn adaptation_reduces_loss() {
        let trajs = collect(3);
        let mut m = NetLlmAbr::new(backbone(), AdaptMode::FullKnowledge, 4, 7);
        let early = m.adapt(&trajs, 6, 1e-3, 8);
        let late = m.adapt(&trajs, 80, 1e-3, 9);
        assert!(late < early, "imitation loss should drop: {early} -> {late}");
    }
}
