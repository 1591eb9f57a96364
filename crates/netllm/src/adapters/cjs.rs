//! NetLLM adapter for cluster job scheduling (data-driven RL, graph
//! modality).
//!
//! Experiences are collected once with an existing scheduler (Decima, as in
//! the paper). Each decision is return-conditioned; the state is the stage
//! DAG encoded by the GNN feature encoder. Token layout:
//!
//! ```text
//! history (w-1 steps):  [rtg_i, graph_i(pooled), action_i(cap)]
//! current step:         [rtg_t, graph_t(pooled), cand_1 .. cand_C]
//! ```
//!
//! The stage head scores the candidate token positions (guaranteeing the
//! chosen stage exists), the cap head reads the current pooled-graph
//! position. History actions are compressed to their cap embedding — the
//! stage choice's effect is already visible in the next graph snapshot.
//! This is the documented simplification of Eq. (2)'s full action
//! factorisation (see DESIGN.md).

use crate::adapt::{fit, AdaptMode};
use crate::backbone::InferenceSession;
use crate::heads::CjsHeads;
use crate::multimodal::{Projection, ScalarEncoder, TokenRing};
use crate::serving::{step_single, Lane, LanePlan, RollbackPlan, ServedTask, StepOutcome};
use nt_cjs::{snapshot, Decision, GraphSnapshot, SchedView, Scheduler, CAP_FRACS, NODE_FEATS};
use nt_llm::zoo::LoadedLm;
use nt_llm::TinyLm;
use nt_nn::{Eager, Embedding, Exec, Fwd, Gnn, ParamStore};
use nt_tensor::tensor::argmax;
use nt_tensor::{NodeId, Rng, Tensor};

const FEAT: usize = 24;
/// Cap on candidate tokens per decision (token-budget guard; beyond this
/// the earliest candidates are kept).
pub const MAX_CANDS: usize = 24;
/// Return scale.
const R_SCALE: f64 = 200.0;

/// One recorded scheduling decision.
#[derive(Clone, Debug)]
pub struct CjsStep {
    pub snap: GraphSnapshot,
    pub stage_choice: usize,
    pub cap_choice: usize,
    pub time: f64,
    /// Return-to-go (scaled), filled post-episode.
    pub rtg: f32,
}

/// One episode (workload run) of experience.
#[derive(Clone, Debug, Default)]
pub struct CjsTrajectory {
    pub steps: Vec<CjsStep>,
}

/// Collect one episode of experience with an existing scheduler.
pub fn collect_episode(
    scheduler: &mut dyn Scheduler,
    jobs: &[nt_cjs::Job],
    executors: usize,
) -> CjsTrajectory {
    let mut steps: Vec<CjsStep> = Vec::new();
    let stats = {
        let mut hook = |view: &SchedView, d: &Decision| {
            // Map the decision cap back onto the menu (closest fraction).
            let frac = d.cap as f64 / view.total_executors.max(1) as f64;
            let mut cap_choice = CAP_FRACS.len() - 1;
            for (i, &cf) in CAP_FRACS.iter().enumerate() {
                if frac <= cf {
                    cap_choice = i;
                    break;
                }
            }
            steps.push(CjsStep {
                snap: snapshot(view),
                stage_choice: d.candidate,
                cap_choice,
                time: view.now,
                rtg: 0.0,
            });
        };
        nt_cjs::run_workload(scheduler, jobs, executors, Some(&mut hook))
    };
    // Exact return-to-go of the active-jobs integral from each decision time.
    let finishes: Vec<f64> =
        jobs.iter().zip(&stats.jcts).map(|(j, &jct)| j.arrival + jct).collect();
    for s in &mut steps {
        let mut integral = 0.0f64;
        for (j, &fin) in jobs.iter().zip(&finishes) {
            integral += (fin - j.arrival.max(s.time)).max(0.0);
        }
        s.rtg = (-integral / R_SCALE) as f32;
    }
    CjsTrajectory { steps }
}

/// A self-contained scheduling observation: what [`NetLlmCjs`] needs to
/// make one decision, lifted out of the borrowed [`SchedView`] so served
/// sessions can carry it across ticks. [`CjsObs::from_view`] captures it
/// at decision time.
#[derive(Clone, Debug)]
pub struct CjsObs {
    /// Frozen stage-DAG snapshot (the GNN modality).
    pub snap: GraphSnapshot,
    /// Cluster clock at decision time.
    pub now: f64,
    /// Jobs currently arrived and incomplete (the return-to-go decrement
    /// integrates `active_jobs x elapsed`).
    pub active_jobs: usize,
    /// Executor budget the cap menu scales against.
    pub total_executors: usize,
}

impl CjsObs {
    /// Capture a decision-time observation from a live view.
    pub fn from_view(view: &SchedView) -> Self {
        CjsObs {
            snap: snapshot(view),
            now: view.now,
            active_jobs: view.jobs.iter().filter(|j| j.arrived && !j.completed).count(),
            total_executors: view.total_executors,
        }
    }

    /// Deterministic open-loop observation stream: every decision-time
    /// view of a seeded four-job workload run under SRPT on `executors`
    /// executors. Recorded once and replayed, so batched and unbatched
    /// paths see byte-identical inputs (the CJS counterpart of
    /// `AbrObservation::synthetic_stream`).
    pub fn synthetic_stream(seed: u64, executors: usize) -> Vec<CjsObs> {
        let cfg = nt_cjs::WorkloadConfig { num_jobs: 4, mean_interarrival: 1.5, seed };
        let mut obs = Vec::new();
        let mut hook = |view: &SchedView, _: &Decision| obs.push(CjsObs::from_view(view));
        nt_cjs::run_workload(
            &mut nt_cjs::Srpt,
            &nt_cjs::generate_workload(&cfg),
            executors,
            Some(&mut hook),
        );
        obs
    }
}

/// Mutable per-session rollout state: everything one live scheduling
/// session carries between decisions. [`NetLlmCjs`] owns one (its own
/// single-stream rollout); the serving engine owns one per slot
/// (`NetLlmCjs` is the [`ServedTask`] whose [`ServedTask::Slot`] this is).
#[derive(Clone, Debug, Default)]
pub struct CjsEpisode {
    /// Per-decision history from entry `first` on: (rtg prompt, graph
    /// snapshot, cap choice). A re-anchor reads only from its anchor on,
    /// and the anchor never moves back, so each re-anchor drops the
    /// entries before it: a session holds at most `2 * window` entries
    /// however long it schedules.
    steps: Vec<(f32, GraphSnapshot, usize)>,
    /// Episode index of `steps[0]`.
    first: usize,
    pub rtg_now: f32,
    pub last_decision_time: f64,
    /// First episode entry currently encoded in the KV session.
    pub anchor: usize,
    /// Candidate count of the in-flight decision (set by `plan_batch`,
    /// consumed by `settle_batch`).
    pending_c: usize,
    /// `[rtg, graph]` token rows of the in-flight decision, which
    /// `settle_batch` keeps in `rows` with the chosen action's token.
    pending_rows: Option<Vec<f32>>,
    /// `[rtg, graph, action]` tokens of the last `window - 1` history
    /// entries. They outlive an eviction, which clears only the KV session.
    rows: TokenRing,
}

impl CjsEpisode {
    /// Fresh episode prompted with `target_return`.
    pub fn fresh(target_return: f32) -> Self {
        CjsEpisode { rtg_now: target_return, ..Default::default() }
    }

    /// Decisions settled so far: the episode index of the next entry.
    fn end(&self) -> usize {
        self.first + self.steps.len()
    }
}

/// The adapted CJS model.
pub struct NetLlmCjs {
    pub lm: TinyLm,
    pub store: ParamStore,
    gnn: Gnn,
    graph_proj: Projection,
    node_proj: Projection,
    rtg_enc: ScalarEncoder,
    rtg_proj: Projection,
    action_tokens: Embedding,
    heads: CjsHeads,
    pub window: usize,
    pub mode: AdaptMode,
    pub target_return: f32,
    // ---- single-stream inference state ----
    ep: CjsEpisode,
    /// KV-cached inference session; holds `[rtg, graph, action]` triples for
    /// the encoded history. Candidate tokens are appended per decision and
    /// rolled back once the stage is chosen.
    session: InferenceSession,
    /// Stage + cap logits of the most recent decision (stage logits for
    /// the `c` candidates, then the cap-menu logits) — what the
    /// batched-vs-unbatched equivalence gates compare.
    last_logits: Vec<f32>,
}

impl NetLlmCjs {
    pub fn new(loaded: LoadedLm, mode: AdaptMode, window: usize, seed: u64) -> Self {
        assert!(window >= 1, "NetLlmCjs window {window}: must hold at least one step");
        let LoadedLm { mut lm, mut store, .. } = loaded;
        let mut rng = Rng::seeded(seed);
        let d = lm.cfg.d_model;
        assert!(
            (window - 1) * 3 + 2 + MAX_CANDS <= lm.cfg.max_seq,
            "window {window} + candidates exceed backbone max_seq"
        );
        let gnn = Gnn::new(&mut store, "mm.dag.gnn", NODE_FEATS, FEAT, FEAT, 2, &mut rng);
        let graph_proj = Projection::new(&mut store, "mm.dag_tok", FEAT, d, &mut rng);
        let node_proj = Projection::new(&mut store, "mm.node_tok", FEAT, d, &mut rng);
        let rtg_enc = ScalarEncoder::new(&mut store, "mm.cjs_rtg", 1, FEAT, &mut rng);
        let rtg_proj = Projection::new(&mut store, "mm.cjs_rtg_tok", FEAT, d, &mut rng);
        let action_tokens =
            Embedding::new(&mut store, "mm.cjs_actions", CAP_FRACS.len(), d, &mut rng);
        let heads = CjsHeads::new(&mut store, d, CAP_FRACS.len(), &mut rng);
        mode.apply(&mut lm, &mut store, &mut rng);
        let session = InferenceSession::new(&lm);
        NetLlmCjs {
            lm,
            store,
            gnn,
            graph_proj,
            node_proj,
            rtg_enc,
            rtg_proj,
            action_tokens,
            heads,
            window,
            mode,
            target_return: 0.0,
            ep: CjsEpisode::default(),
            session,
            last_logits: Vec::new(),
        }
    }

    /// Stage + cap logits of the most recent decision (see the field
    /// docs for the layout).
    pub fn last_logits(&self) -> &[f32] {
        &self.last_logits
    }

    /// One scheduling decision over a captured observation — the
    /// single-stream path, routed through the same [`ServedTask`] hooks
    /// the batched serving engine drives (including the candidate-token
    /// rollback), so the two worlds are step-for-step identical.
    /// Panics when `obs.snap` has no candidates.
    pub fn decide_obs(&mut self, obs: &CjsObs) -> Decision {
        // The stream's state is lifted out while `self` is borrowed as
        // the task.
        let mut ep = std::mem::take(&mut self.ep);
        let mut session = std::mem::replace(&mut self.session, InferenceSession::new(&self.lm));
        let out = step_single(&*self, &mut ep, &mut session, obs);
        (self.ep, self.session, self.last_logits) = (ep, session, out.logits);
        out.action
    }

    /// Build tokens for a window ending at the current decision. Returns
    /// `(stage_logits [1, c], cap_logits [1, K])` where `c` is the
    /// (possibly truncated) candidate count. Each history entry goes
    /// through the encoders alone: stacking the window would reorder the
    /// gradient sums.
    fn decision_logits(
        &self,
        f: &mut Fwd,
        history: &[(f32, GraphSnapshot, usize)],
        rtg_now: f32,
        snap: &GraphSnapshot,
    ) -> (NodeId, NodeId) {
        let mut groups: Vec<NodeId> = history.iter().map(|h| self.history_tokens(f, h)).collect();
        let (rtg, graph, cands) = self.decision_tokens(f, &[rtg_now], &[snap]);
        let c = f.shape(&cands)[0];
        let pooled_pos = 3 * history.len() + 1;
        groups.extend([rtg, graph, cands]);

        let tokens = f.g.concat(&groups, 0);
        let hidden = self.lm.forward_embeddings(f, &self.store, tokens);
        let cand_hidden = f.g.narrow(hidden, 0, pooled_pos + 1, c);
        let stage_logits = self.heads.stage_logits(f, &self.store, &cand_hidden);
        let pooled_hidden = f.g.narrow(hidden, 0, pooled_pos, 1);
        let cap_logits = self.heads.cap_logits(f, &self.store, &pooled_hidden);
        (stage_logits, cap_logits)
    }

    /// Whether `obs` is an observation this model can encode: node
    /// features `[n, NODE_FEATS]`, an `[n, n]` adjacency operator, and at
    /// least one candidate, each a node of the graph. The serving front
    /// door refuses the rest.
    pub fn admits(&self, obs: &CjsObs) -> bool {
        let snap = &obs.snap;
        let n = snap.feats.shape().first().copied().unwrap_or(0);
        snap.feats.shape() == [n, NODE_FEATS]
            && snap.adj.shape() == [n, n]
            && !snap.candidates.is_empty()
            && snap.candidates.iter().all(|&c| c < n)
    }

    /// Return-to-go tokens `[rtgs.len(), d]`, one per prompt.
    fn rtg_tokens<E: Exec>(&self, e: &mut E, rtgs: &[f32]) -> E::V {
        let rtg = Tensor::from_vec([rtgs.len(), 1], rtgs.to_vec());
        let feat = self.rtg_enc.run(e, &self.store, rtg);
        self.rtg_proj.run(e, &self.store, feat)
    }

    /// Per-node GNN features of every snapshot's graph, stacked
    /// `[sum n_i, FEAT]`, and one pooled graph token per snapshot,
    /// `[snaps.len(), d]`. The GNN's linears run once over every node;
    /// each graph aggregates and pools its own.
    fn graph_tokens<E: Exec>(&self, e: &mut E, snaps: &[&GraphSnapshot]) -> (E::V, E::V) {
        let feats: Vec<&Tensor> = snaps.iter().map(|s| &s.feats).collect();
        let feats = e.input(nt_tensor::concat(&feats, 0));
        let adjs: Vec<&Tensor> = snaps.iter().map(|s| &s.adj).collect();
        let nodes = self.gnn.run(e, &self.store, feats, &adjs);
        let counts: Vec<usize> = snaps.iter().map(|s| s.feats.shape()[0]).collect();
        let pooled = e.mean_rows(&nodes, &counts);
        let graph = self.graph_proj.run(e, &self.store, pooled);
        (nodes, graph)
    }

    /// `[rtg, graph, action]` tokens `[3, d]` of one history entry.
    fn history_tokens<E: Exec>(
        &self,
        e: &mut E,
        (rtg, snap, cap): &(f32, GraphSnapshot, usize),
    ) -> E::V {
        let rtg = self.rtg_tokens(e, &[*rtg]);
        let graph = self.graph_tokens(e, &[snap]).1;
        let action = e.embed(&self.store, &self.action_tokens, &[*cap]);
        e.concat(&[rtg, graph, action])
    }

    /// The tokens of decisions prompted with `rtgs` over `snaps`: rtg
    /// `[n, d]` and graph `[n, d]`, one row per decision, and one token
    /// per candidate stage, each decision's (at most [`MAX_CANDS`]) in
    /// turn.
    fn decision_tokens<E: Exec>(
        &self,
        e: &mut E,
        rtgs: &[f32],
        snaps: &[&GraphSnapshot],
    ) -> (E::V, E::V, E::V) {
        let rtg = self.rtg_tokens(e, rtgs);
        let (nodes, graph) = self.graph_tokens(e, snaps);
        let mut cand_idx = Vec::new();
        let mut first_node = 0;
        for snap in snaps {
            let c = snap.candidates.len().min(MAX_CANDS);
            cand_idx.extend(snap.candidates[..c].iter().map(|&i| first_node + i));
            first_node += snap.feats.shape()[0];
        }
        let cand_feats = e.gather_rows(&nodes, &cand_idx);
        let cands = self.node_proj.run(e, &self.store, cand_feats);
        (rtg, graph, cands)
    }

    /// The re-anchor rule, stated once: a decision with `cands` candidate
    /// tokens clears the session and rebuilds from the training window
    /// when the session is empty (fresh episode, eviction, recovery), when
    /// the context cannot take the decision's tokens (2 prompt rows + the
    /// candidates + the action token appended after the rollback), or when
    /// the visible history reached twice the training window — bounding
    /// the train/inference prompt-length mismatch (see `backbone` docs).
    /// `None` is the eviction pricer's view: no observation yet, so the
    /// context-full edge cannot be evaluated and is taken not to fire.
    fn reanchors(&self, ep: &CjsEpisode, session: &InferenceSession, cands: Option<usize>) -> bool {
        session.is_empty()
            || cands.is_some_and(|c| !session.fits(2 + c + 1))
            || ep.end() - ep.anchor >= 2 * self.window
    }

    /// First history entry a re-anchor re-encodes.
    fn rebuild_anchor(&self, ep: &CjsEpisode) -> usize {
        ep.end().saturating_sub(self.window - 1)
    }

    /// Token rows of that history: one `[rtg, graph, action]` triple per
    /// entry, in front of the current decision's own rows.
    fn rebuild_len(&self, ep: &CjsEpisode) -> usize {
        3 * (ep.end() - self.rebuild_anchor(ep))
    }

    /// The return inference is prompted with after adapting on `dataset`:
    /// the best behaviour return among its episodes (returns are negative;
    /// 0.95 stretches toward 0).
    pub fn target_return_for(dataset: &[CjsTrajectory]) -> f32 {
        let best =
            dataset.iter().filter_map(|t| t.steps.first().map(|s| s.rtg)).fold(f32::MIN, f32::max);
        best * 0.95
    }

    /// Data-driven adaptation on collected trajectories.
    pub fn adapt(&mut self, dataset: &[CjsTrajectory], iters: usize, lr: f32, seed: u64) -> f32 {
        let usable: Vec<&CjsTrajectory> = dataset.iter().filter(|t| !t.steps.is_empty()).collect();
        assert!(!usable.is_empty(), "empty experience dataset");
        self.target_return = Self::target_return_for(dataset);
        let store: fn(&mut Self) -> &mut ParamStore = |m| &mut m.store;
        fit(self, store, iters, lr, seed, |m, f, rng| {
            let traj = usable[rng.below(usable.len())];
            let t = rng.below(traj.steps.len());
            let h0 = t.saturating_sub(m.window - 1);
            let history: Vec<(f32, GraphSnapshot, usize)> =
                traj.steps[h0..t].iter().map(|s| (s.rtg, s.snap.clone(), s.cap_choice)).collect();
            let step = &traj.steps[t];
            // A choice beyond the candidate-token budget cannot be scored.
            if step.stage_choice >= step.snap.candidates.len().min(MAX_CANDS) {
                return None;
            }
            let (sl, cl) = m.decision_logits(f, &history, step.rtg, &step.snap);
            let ls = f.g.cross_entropy(sl, &[step.stage_choice]);
            let lc = f.g.cross_entropy(cl, &[step.cap_choice]);
            Some(f.g.add(ls, lc))
        })
    }
}

/// CJS behind the serving engine: decision-transformer steps whose
/// candidate tokens are rolled back out of the persistent history once
/// the stage is chosen — the [`RollbackPlan`] hook inside a batched step.
impl ServedTask for NetLlmCjs {
    type Obs = CjsObs;
    type Action = Decision;
    type Slot = CjsEpisode;

    fn backbone(&self, _group: usize) -> (&TinyLm, &ParamStore) {
        (&self.lm, &self.store)
    }

    fn task_label(&self, _group: usize) -> &'static str {
        "cjs"
    }

    fn new_slot(&self, _group: usize) -> CjsEpisode {
        CjsEpisode::fresh(self.target_return)
    }

    fn plan_rows(
        &self,
        ep: &CjsEpisode,
        obs: &CjsObs,
        session: &InferenceSession,
    ) -> (usize, bool) {
        // A decision appends `[rtg, graph, cand_1..c]` (2 + c rows), with
        // the history triples in front on a rebuild. The rollback pass
        // later shrinks the suffix (drops `c`, appends 1), so the plan
        // rows are the step's peak.
        let c = obs.snap.candidates.len().clamp(1, MAX_CANDS);
        if self.reanchors(ep, session, Some(c)) {
            (self.rebuild_len(ep) + 2 + c, true)
        } else {
            (2 + c, false)
        }
    }

    fn rebuild_rows(&self, ep: &CjsEpisode, session: &InferenceSession) -> usize {
        // The eviction price: the current decision's `2 + c` rows are
        // appended either way, so clearing the cache costs exactly the
        // history a rebuild replays in front of them — and nothing when
        // the next step re-anchors regardless. A session about to
        // re-anchor on the context-full edge (unknown next candidate
        // count) is priced at the full history: a conservative
        // over-estimate, which only demotes it in the victim scan.
        if self.reanchors(ep, session, None) {
            0
        } else {
            self.rebuild_len(ep)
        }
    }

    fn plan_batch(
        &self,
        lanes: &mut [Lane<'_, CjsEpisode, CjsObs>],
        sessions: &[&InferenceSession],
        stacked: &mut Vec<f32>,
    ) -> Vec<LanePlan> {
        let mut rtgs = Vec::with_capacity(lanes.len());
        let mut reanchors = Vec::with_capacity(lanes.len());
        for (lane, session) in lanes.iter_mut().zip(sessions) {
            let (ep, obs) = (&mut *lane.slot, lane.obs);
            let c = obs.snap.candidates.len().min(MAX_CANDS);
            assert!(c > 0, "CJS decision needs at least one candidate");
            // Decrement return-to-go by the realised cost since the last
            // decision: active jobs x elapsed time (cost is negative
            // return).
            let dt = (obs.now - ep.last_decision_time).max(0.0);
            ep.rtg_now += (dt * obs.active_jobs as f64 / R_SCALE) as f32;
            ep.last_decision_time = obs.now;
            ep.pending_c = c;
            rtgs.push(ep.rtg_now);
            reanchors.push(self.reanchors(ep, session, Some(c)));
        }
        // Every decision's [rtg_t, graph_t, cand_1..c] in one pass.
        let e = &mut Eager;
        let snaps: Vec<&GraphSnapshot> = lanes.iter().map(|l| &l.obs.snap).collect();
        let (rtg, graph, cands) = self.decision_tokens(e, &rtgs, &snaps);

        // The session holds `[rtg, graph, action]` triples for steps
        // `anchor..`; a rebuild drops the entries before its anchor, copies
        // the rest from the ring and encodes only an entry the ring no
        // longer holds.
        let d = self.lm.cfg.d_model;
        let mut next_cand = 0;
        let mut plans = Vec::with_capacity(lanes.len());
        for (i, (lane, clear)) in lanes.iter_mut().zip(reanchors).enumerate() {
            let ep = &mut *lane.slot;
            let start = stacked.len();
            if clear {
                ep.anchor = self.rebuild_anchor(ep);
                ep.steps.drain(..ep.anchor - ep.first);
                ep.first = ep.anchor;
                for (k, entry) in (ep.anchor..).zip(&ep.steps) {
                    match ep.rows.get(k) {
                        Some(rows) => stacked.extend_from_slice(rows.data()),
                        None => stacked.extend_from_slice(self.history_tokens(e, entry).data()),
                    }
                }
            }
            let mut kept = Vec::with_capacity(3 * d);
            kept.extend_from_slice(rtg.row(i));
            kept.extend_from_slice(graph.row(i));
            stacked.extend_from_slice(&kept);
            let c = ep.pending_c;
            stacked.extend_from_slice(&cands.data()[next_cand * d..(next_cand + c) * d]);
            next_cand += c;
            ep.pending_rows = Some(kept);
            // The heads read the graph row and the candidates after it.
            let rows = (stacked.len() - start) / d;
            plans.push(LanePlan { rows, read: c + 1, reanchor: clear });
        }
        plans
    }

    fn settle_batch(
        &self,
        lanes: &mut [Lane<'_, CjsEpisode, CjsObs>],
        hidden: &Tensor,
        rows: &[usize],
    ) -> Vec<StepOutcome<Decision>> {
        // Each lane's candidate rows close its append; its pooled-graph
        // row sits just before them (history rows may precede both after
        // a re-anchor rebuild).
        let (mut cand_rows, mut graph_rows) = (Vec::new(), Vec::with_capacity(lanes.len()));
        let mut end = 0;
        for (lane, &n) in lanes.iter().zip(rows) {
            end += n;
            let c = lane.slot.pending_c;
            cand_rows.extend(end - c..end);
            graph_rows.push(end - c - 1);
        }
        let e = &mut Eager;
        let stage_logits = self.heads.stage_logits(e, &self.store, &hidden.gather_rows(&cand_rows));
        let cap_logits = self.heads.cap_logits(e, &self.store, &hidden.gather_rows(&graph_rows));
        let caps: Vec<usize> =
            cap_logits.data().chunks_exact(self.heads.num_caps).map(argmax).collect();
        let actions = e.embed(&self.store, &self.action_tokens, &caps);

        let mut outcomes = Vec::with_capacity(lanes.len());
        let mut next_cand = 0;
        for (i, lane) in lanes.iter_mut().enumerate() {
            let (ep, obs) = (&mut *lane.slot, lane.obs);
            let c = ep.pending_c;
            let stage = &stage_logits.data()[next_cand..next_cand + c];
            next_cand += c;
            let cap = (CAP_FRACS[caps[i]] * obs.total_executors as f64).ceil() as usize;
            let action = actions.row(i);
            let mut kept = ep.pending_rows.take().expect("plan_batch keeps the decision's rows");
            kept.extend_from_slice(action);
            let d = action.len();
            ep.rows.push(ep.end(), Tensor::from_vec([3, d], kept), self.window - 1);
            ep.steps.push((ep.rtg_now, obs.snap.clone(), caps[i]));
            let mut logits = stage.to_vec();
            logits.extend_from_slice(cap_logits.row(i));
            outcomes.push(StepOutcome {
                action: Decision { candidate: argmax(stage), cap: cap.max(1) },
                logits,
                rollback: Some(RollbackPlan {
                    drop_rows: c,
                    post_tokens: Tensor::from_vec([1, d], action.to_vec()),
                }),
            });
        }
        outcomes
    }
}

impl Scheduler for NetLlmCjs {
    fn name(&self) -> &str {
        "NetLLM"
    }

    fn reset(&mut self) {
        self.ep = CjsEpisode::fresh(self.target_return);
        self.session.clear();
    }

    fn decide(&mut self, view: &SchedView) -> Option<Decision> {
        if view.candidates.is_empty() {
            return None;
        }
        Some(self.decide_obs(&CjsObs::from_view(view)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::StepPlan;
    use nt_cjs::{generate_workload, run_workload, Srpt, WorkloadConfig};
    use nt_llm::{size_spec, Zoo};

    fn backbone() -> LoadedLm {
        Zoo::new(std::env::temp_dir().join("netllm-cjs-test")).build_random(&size_spec("0.35b-sim"))
    }

    #[test]
    #[should_panic(expected = "window 0: must hold at least one step")]
    fn zero_window_is_refused() {
        NetLlmCjs::new(backbone(), AdaptMode::FullKnowledge, 0, 1);
    }

    fn jobs(n: usize, seed: u64) -> Vec<nt_cjs::Job> {
        generate_workload(&WorkloadConfig { num_jobs: n, mean_interarrival: 1.5, seed })
    }

    #[test]
    fn collect_episode_fills_rtg_monotonically() {
        let w = jobs(6, 1);
        let traj = collect_episode(&mut Srpt, &w, 8);
        assert!(!traj.steps.is_empty());
        // Returns-to-go are negative and increase toward 0 over time.
        for win in traj.steps.windows(2) {
            assert!(win[0].rtg <= win[1].rtg + 1e-4);
        }
        assert!(traj.steps[0].rtg < 0.0);
    }

    #[test]
    fn adapted_model_schedules_complete_workloads() {
        let train = vec![
            collect_episode(&mut Srpt, &jobs(5, 2), 8),
            collect_episode(&mut Srpt, &jobs(5, 3), 8),
        ];
        let mut m = NetLlmCjs::new(backbone(), AdaptMode::FullKnowledge, 4, 4);
        m.adapt(&train, 8, 1e-3, 5);
        let test = jobs(6, 9);
        let stats = run_workload(&mut m, &test, 8, None);
        assert_eq!(stats.jcts.len(), 6);
        assert!(stats.mean_jct() > 0.0);
    }

    #[test]
    fn cached_decisions_match_taped_reference() {
        // Drive every decision of a recorded observation stream through
        // the cached path and replay it through the taped `decision_logits`
        // reference. The replay mirrors the session's re-anchor bookkeeping
        // (anchor index + token count), so the taped path sees the exact
        // token sequence the cached path saw — across re-anchors too. The
        // stage and cap logits must agree at 1e-5 on every decision, and
        // so must the choices.
        let mut m = NetLlmCjs::new(backbone(), AdaptMode::NoDomain, 8, 21);
        m.target_return = -1.0;
        m.reset();
        let stream = CjsObs::synthetic_stream(22, 6);
        let max_tokens = m.lm.cfg.max_seq;
        let (mut anchor, mut len, mut reanchors) = (0usize, 0usize, 0usize);
        for (t, obs) in stream.iter().enumerate() {
            let decision = m.decide_obs(obs);
            let c = obs.snap.candidates.len().min(MAX_CANDS);
            if len == 0 || len + 2 + c + 1 > max_tokens || t - anchor >= 2 * m.window {
                reanchors += usize::from(t > 0);
                anchor = t.saturating_sub(m.window - 1);
                len = 3 * (t - anchor);
            }
            len += 3;
            let first = m.ep.first;
            let (rtg, snap, recorded_cap) = &m.ep.steps[t - first];
            let mut f = Fwd::eval();
            let (sl, cl) =
                m.decision_logits(&mut f, &m.ep.steps[anchor - first..t - first], *rtg, snap);
            let (sl, cl) = (f.g.value(sl), f.g.value(cl));
            let reference: Vec<f32> = sl.data().iter().chain(cl.data()).copied().collect();
            assert_eq!(m.last_logits().len(), reference.len(), "decision {t}: logit count");
            for (a, b) in m.last_logits().iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "decision {t} (anchor {anchor}): cached logits diverged from taped path: \
                     {a} vs {b}"
                );
            }
            assert_eq!(
                sl.argmax(),
                decision.candidate,
                "decision {t} (anchor {anchor}): cached stage diverged from taped reference"
            );
            assert_eq!(
                cl.argmax(),
                *recorded_cap,
                "decision {t} (anchor {anchor}): cached cap diverged from taped reference"
            );
        }
        assert!(reanchors >= 2, "probe should re-anchor at least twice, got {reanchors}");
    }

    /// One unbatched decision, rollback included, that also hands back the
    /// planned tokens.
    fn plan_and_settle(
        m: &NetLlmCjs,
        ep: &mut CjsEpisode,
        session: &mut InferenceSession,
        obs: &CjsObs,
    ) -> (StepPlan, Vec<f32>) {
        let plan = m.plan_step(ep, obs, session);
        if plan.reanchor {
            session.clear();
        }
        let hidden = session.append(&m.lm, &m.store, &plan.tokens);
        let mut out = m.settle_step(ep, obs, &hidden);
        let rb = out.rollback.take().expect("a CJS decision rolls its candidates back");
        session.truncate(session.len() - rb.drop_rows);
        session.append(&m.lm, &m.store, &rb.post_tokens);
        (plan, out.logits)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn rebuilds_from_cached_rows_equal_rebuilds_that_encode_every_entry() {
        // A slot that keeps its history tokens and a twin that forgets them
        // before every plan (so each rebuild runs the GNN on its whole
        // window) must plan the same bits, across natural and context-full
        // re-anchors and an eviction's forced clear. A short context makes
        // the context-full edge reachable. After ten windows of decisions
        // the ring still holds one history window: slot memory does not
        // grow with the episode.
        let mut spec = size_spec("0.35b-sim");
        spec.cfg.max_seq = 44;
        let loaded = Zoo::new(std::env::temp_dir().join("netllm-cjs-test")).build_random(&spec);
        let window = 7;
        let mut m = NetLlmCjs::new(loaded, AdaptMode::NoDomain, window, 23);
        m.target_return = -1.0;
        let stream = CjsObs::synthetic_stream(24, 6);
        assert!(stream.len() >= 10 * window, "stream too short: {}", stream.len());
        let (mut kept, mut forgot) = (m.new_slot(0), m.new_slot(0));
        let (mut s_kept, mut s_forgot) =
            (InferenceSession::new(&m.lm), InferenceSession::new(&m.lm));
        let evict_at = stream.len() / 2;
        let (mut natural, mut full) = (0, 0);
        for (t, obs) in stream.iter().enumerate() {
            if t == evict_at {
                s_kept.clear();
                s_forgot.clear();
            }
            let c = obs.snap.candidates.len().min(MAX_CANDS);
            if !s_kept.is_empty() && kept.end() - kept.anchor >= 2 * window {
                natural += 1;
            } else if !s_kept.is_empty() && !s_kept.fits(2 + c + 1) {
                full += 1;
            }
            forgot.rows.clear();
            let (a, la) = plan_and_settle(&m, &mut kept, &mut s_kept, obs);
            let (b, lb) = plan_and_settle(&m, &mut forgot, &mut s_forgot, obs);
            assert_eq!(a.reanchor, b.reanchor, "decision {t}");
            assert_eq!(bits(a.tokens.data()), bits(b.tokens.data()), "decision {t}: tokens differ");
            assert_eq!(bits(&la), bits(&lb), "decision {t}: logits differ");
        }
        assert!(natural >= 2, "probe should re-anchor naturally twice, got {natural}");
        assert!(full >= 1, "probe should re-anchor on a full context, got {full}");
        assert_eq!(kept.rows.len(), window - 1, "the ring must hold exactly one history window");
    }

    #[test]
    fn served_history_stays_within_two_windows() {
        // 200 decisions through the unbatched driver (a recorded stream,
        // replayed as one long episode): the episode keeps only what a
        // re-anchor can reach, at most `2 * window + 1` entries.
        let window = 4;
        let m = NetLlmCjs::new(backbone(), AdaptMode::NoDomain, window, 25);
        let stream = CjsObs::synthetic_stream(26, 6);
        let mut ep = m.new_slot(0);
        let mut session = InferenceSession::new(&m.lm);
        for obs in stream.iter().cycle().take(200) {
            let _ = step_single(&m, &mut ep, &mut session, obs);
            assert!(ep.steps.len() <= 2 * window + 1, "{} entries held", ep.steps.len());
        }
        assert_eq!(ep.end(), 200);
        assert!(ep.first >= 200 - (2 * window + 1), "history starts at entry {}", ep.first);
    }

    #[test]
    fn adaptation_reduces_imitation_loss() {
        let train = vec![collect_episode(&mut Srpt, &jobs(6, 6), 8)];
        let mut m = NetLlmCjs::new(backbone(), AdaptMode::FullKnowledge, 4, 7);
        let early = m.adapt(&train, 6, 1e-3, 8);
        let late = m.adapt(&train, 30, 1e-3, 9);
        assert!(late < early, "loss should drop: {early} -> {late}");
    }
}
