//! Mixed-fleet equivalence: one sharded fleet serving interleaved
//! ABR + CJS + VP sessions must produce, for every session, logits
//! within 1e-5 of that adapter's unbatched `InferenceSession` path —
//! with a CJS candidate rollback and a VP join/leave inside the same
//! tick, and the ABR streams crossing their 2x-window re-anchor.

use netllm::{
    CjsObs, FleetAction, FleetObs, FleetSlot, InferenceSession, Lane, LanePlan, NetLlmFleet,
    ServedTask, ServingEngine, ShardedServer, StepOutcome, VpQuery, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_cjs::Scheduler;
use nt_llm::TinyLm;
use nt_nn::ParamStore;
use nt_tensor::Tensor;
use nt_vp::VpSample;
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;
use common::{fleet_models, interleaved_obs, serve_round, KINDS};

#[test]
fn mixed_fleet_matches_each_adapters_unbatched_path() {
    let window = 3usize;
    let ticks = 8usize;
    let common::FleetModels { abr: mut m_abr, cjs: mut m_cjs, vp: m_vp } =
        fleet_models("netllm-mixed-fleet", window, 21);

    let abr_streams: Vec<Vec<AbrObservation>> =
        (0..2).map(|s| AbrObservation::synthetic_stream(70 + s as u64, ticks)).collect();
    let cjs_obs = CjsObs::synthetic_stream(9, 6);
    assert!(cjs_obs.len() >= ticks, "CJS probe too short: {}", cjs_obs.len());
    let samples = VpSample::synthetic_pool();
    let pw = 6usize;

    // ---- the fleet: 2 ABR + 1 CJS persistent, VP one-shots per tick ----
    let fleet = NetLlmFleet { abr: &m_abr, cjs: &m_cjs, vp: &m_vp };
    let mut server = ShardedServer::new(2);
    let abr_ids: Vec<_> = (0..2).map(|_| server.join_group(&fleet, FLEET_ABR)).collect();
    let cjs_id = server.join_group(&fleet, FLEET_CJS);

    let mut abr_served: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); 2];
    let mut cjs_served: Vec<(usize, usize, Vec<f32>)> = Vec::new();
    let mut vp_served: Vec<Vec<f32>> = Vec::new();
    for tick in 0..ticks {
        // A VP session joins, answers once, and leaves — inside the same
        // tick that advances the ABR streams and triggers the CJS
        // candidate rollback.
        let vp_id = server.join_group(&fleet, FLEET_VP);
        let sample = &samples[tick % samples.len()];
        let requests = [
            (abr_ids[0], FleetObs::Abr(abr_streams[0][tick].clone())),
            (vp_id, FleetObs::Vp(VpQuery { sample: sample.clone(), pw })),
            (cjs_id, FleetObs::Cjs(cjs_obs[tick].clone())),
            (abr_ids[1], FleetObs::Abr(abr_streams[1][tick].clone())),
        ];
        let refs: Vec<_> = requests.iter().map(|&(id, ref o)| (id, o)).collect();
        let actions = serve_round(&mut server, &fleet, &refs);
        assert_eq!(actions.len(), 4);
        let mut it = actions.into_iter();
        abr_served[0].push((it.next().unwrap().abr(), server.last_logits(abr_ids[0]).to_vec()));
        vp_served.push(server.last_logits(vp_id).to_vec());
        let _ = it.next().unwrap().vp();
        let d = it.next().unwrap().cjs();
        cjs_served.push((d.candidate, d.cap, server.last_logits(cjs_id).to_vec()));
        abr_served[1].push((it.next().unwrap().abr(), server.last_logits(abr_ids[1]).to_vec()));
        assert!(server.leave(vp_id).is_clean(), "a polled one-shot leaves nothing behind");
        assert_eq!(server.active(), 3, "one-shot VP slot must be gone after the tick");
    }
    // Release the fleet's borrows (the server's type carries the model
    // lifetimes) so the reference replays can drive the models directly;
    // `fleet` itself has no drop glue, so its borrows end with its last use.
    drop(server);

    // ---- ABR reference: each stream alone through select() -------------
    for (s, obs) in abr_streams.iter().enumerate() {
        m_abr.reset();
        for (tick, o) in obs.iter().enumerate() {
            let act = m_abr.select(o);
            let (bact, blogits) = &abr_served[s][tick];
            assert_eq!(act, *bact, "ABR stream {s} tick {tick}: action diverged");
            for (x, y) in m_abr.last_logits().iter().zip(blogits) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "ABR stream {s} tick {tick}: fleet {y} vs unbatched {x}"
                );
            }
        }
        assert!(ticks > 2 * window, "ABR probe must cross a re-anchor");
    }

    // ---- CJS reference: the same obs through decide_obs() --------------
    m_cjs.reset();
    for (tick, o) in cjs_obs[..ticks].iter().enumerate() {
        let d = m_cjs.decide_obs(o);
        let (cand, cap, blogits) = &cjs_served[tick];
        assert_eq!(d.candidate, *cand, "CJS tick {tick}: stage diverged");
        assert_eq!(d.cap, *cap, "CJS tick {tick}: cap diverged");
        for (x, y) in m_cjs.last_logits().iter().zip(blogits) {
            assert!((x - y).abs() < 1e-5, "CJS tick {tick}: fleet {y} vs unbatched {x}");
        }
    }

    // ---- VP reference: one-shot eval per sample -------------------------
    for (tick, blogits) in vp_served.iter().enumerate() {
        let v = m_vp.forward_eval(&samples[tick % samples.len()], pw);
        assert_eq!(v.data().len(), blogits.len());
        for (x, y) in v.data().iter().zip(blogits) {
            assert!((x - y).abs() < 1e-5, "VP tick {tick}: fleet {y} vs unbatched {x}");
        }
    }
}

/// A fleet that counts how often the engine asks for a backbone — once
/// per stacked append, so the count is the number of stacked GEMM passes.
struct CountingFleet<'m> {
    inner: NetLlmFleet<'m>,
    backbone_fetches: AtomicUsize,
}

impl ServedTask for CountingFleet<'_> {
    type Obs = FleetObs;
    type Action = FleetAction;
    type Slot = FleetSlot;

    fn groups(&self) -> usize {
        self.inner.groups()
    }
    fn backbone(&self, group: usize) -> (&TinyLm, &ParamStore) {
        self.backbone_fetches.fetch_add(1, Ordering::Relaxed);
        self.inner.backbone(group)
    }
    fn group_of(&self, slot: &FleetSlot) -> usize {
        self.inner.group_of(slot)
    }
    fn new_slot(&self, group: usize) -> FleetSlot {
        self.inner.new_slot(group)
    }
    fn plan_batch(
        &self,
        lanes: &mut [Lane<'_, FleetSlot, FleetObs>],
        sessions: &[&InferenceSession],
        stacked: &mut Vec<f32>,
    ) -> Vec<LanePlan> {
        self.inner.plan_batch(lanes, sessions, stacked)
    }
    fn settle_batch(
        &self,
        lanes: &mut [Lane<'_, FleetSlot, FleetObs>],
        hidden: &Tensor,
        rows: &[usize],
    ) -> Vec<StepOutcome<FleetAction>> {
        self.inner.settle_batch(lanes, hidden, rows)
    }
}

#[test]
fn interleaved_fleet_costs_one_stacked_pass_per_backbone_group() {
    let ticks = 8usize;
    let sessions = 9usize;
    let mut m = fleet_models("netllm-mixed-fleet-groups", 3, 31);
    // Nine sessions joined — and asked — interleaved A/C/V/A/C/V/...: no
    // two neighbours in the request share a backbone.
    let obs = interleaved_obs(sessions, ticks, 6);
    let fleet = CountingFleet { inner: m.fleet(), backbone_fetches: AtomicUsize::new(0) };
    let mut engine = ServingEngine::new();
    let ids: Vec<_> = (0..sessions).map(|i| engine.join_group(&fleet, KINDS[i % 3])).collect();
    let mut served: Vec<Vec<(FleetAction, Vec<f32>)>> = vec![Vec::new(); sessions];
    {
        // One band whatever NT_THREADS says, so the fetch count is exact.
        let _serial = nt_tensor::pool::enter_worker();
        for (tick, tick_obs) in obs.iter().enumerate() {
            let reqs: Vec<_> = ids.iter().copied().zip(tick_obs).collect();
            let before = fleet.backbone_fetches.load(Ordering::Relaxed);
            let actions = engine.step(&fleet, &reqs);
            let fetched = fleet.backbone_fetches.load(Ordering::Relaxed) - before;
            assert!(
                fetched <= fleet.groups() + 1,
                "tick {tick}: {fetched} stacked passes for {sessions} interleaved sessions; \
                 want one per backbone group plus the CJS rollback pass"
            );
            for (i, action) in actions.into_iter().enumerate() {
                served[i].push((action, engine.last_logits(ids[i]).to_vec()));
            }
        }
    }
    drop(engine);

    // Request order != group order, so this also proves the scatter:
    // every answer landed on the session that asked, and equals that
    // session replayed alone through its adapter's unbatched path.
    for (i, answers) in served.iter().enumerate() {
        m.abr.reset();
        m.cjs.reset();
        for (tick, (action, logits)) in answers.iter().enumerate() {
            let want: Vec<f32> = match &obs[tick][i] {
                FleetObs::Abr(o) => {
                    assert_eq!(m.abr.select(o), action.clone().abr(), "session {i} tick {tick}");
                    m.abr.last_logits().to_vec()
                }
                FleetObs::Cjs(o) => {
                    let (want, got) = (m.cjs.decide_obs(o), action.clone().cjs());
                    assert_eq!(
                        (want.candidate, want.cap),
                        (got.candidate, got.cap),
                        "session {i} tick {tick}"
                    );
                    m.cjs.last_logits().to_vec()
                }
                FleetObs::Vp(q) => m.vp.forward_eval(&q.sample, q.pw).data().to_vec(),
            };
            assert_eq!(logits.len(), want.len(), "session {i} tick {tick}: logits length");
            for (x, y) in want.iter().zip(logits) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "session {i} tick {tick}: fleet {y} vs unbatched {x}"
                );
            }
        }
    }
}
