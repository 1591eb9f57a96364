//! Shared fixtures for the fleet-serving integration tests.
#![allow(dead_code)] // each test binary uses its own subset

use netllm::{
    step_single, AdaptMode, CjsObs, FleetObs, GlobalSessionId, InferenceSession, LoraSpec,
    NetLlmAbr, NetLlmCjs, NetLlmFleet, NetLlmVp, ServedTask, ShardedServer, Ticket, VpQuery,
    FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_cjs::{generate_workload, run_workload, Srpt, WorkloadConfig};
use nt_llm::{size_spec, Zoo};
use nt_vp::{extract_samples, generate, jin2022_like, DatasetSpec, VpSample};

pub fn record_cjs_obs(seed: u64) -> Vec<CjsObs> {
    let jobs = generate_workload(&WorkloadConfig { num_jobs: 4, mean_interarrival: 1.5, seed });
    let mut obs = Vec::new();
    let mut hook =
        |view: &nt_cjs::SchedView, _d: &nt_cjs::Decision| obs.push(CjsObs::from_view(view));
    run_workload(&mut Srpt, &jobs, 6, Some(&mut hook));
    obs
}

pub fn vp_samples() -> Vec<VpSample> {
    let ds = generate(&DatasetSpec { videos: 1, viewers: 2, secs: 20, ..jin2022_like() });
    extract_samples(&ds, &[0], &[0, 1], 10, 20, 5, 30)
}

/// Unbatched no-fault replay of one session's observations through
/// [`step_single`] (re-anchors and candidate rollbacks included): the
/// logits every served or recovered step must reproduce at 1e-5.
pub fn replay_logits<T: ServedTask>(task: &T, obs: &[T::Obs]) -> Vec<Vec<f32>> {
    let mut slot = task.new_slot(0);
    let mut sess = InferenceSession::new(task.backbone(0).0);
    obs.iter().map(|o| step_single(task, &mut slot, &mut sess, o).logits).collect()
}

/// One full round: submit every request, tick once, poll in request order.
pub fn serve_round<T>(
    server: &mut ShardedServer<T>,
    task: &T,
    reqs: &[(GlobalSessionId, &T::Obs)],
) -> Vec<T::Action>
where
    T: ServedTask + Sync,
    T::Obs: Clone + Sync,
    T::Slot: Send,
    T::Action: Send,
{
    let tickets: Vec<Ticket> =
        reqs.iter().map(|&(id, o)| server.submit(id, o.clone()).unwrap()).collect();
    server.tick(task);
    tickets.into_iter().map(|t| server.poll(t).expect("one tick serves the round")).collect()
}

/// Backbone group of session `i` in an interleaved fleet: A/C/V/A/C/V/...
pub const KINDS: [usize; 3] = [FLEET_ABR, FLEET_CJS, FLEET_VP];

/// One adapted model per fleet member (random 0.35b-sim backbones).
pub struct FleetModels {
    pub abr: NetLlmAbr,
    pub cjs: NetLlmCjs,
    pub vp: NetLlmVp,
}

impl FleetModels {
    pub fn fleet(&self) -> NetLlmFleet<'_> {
        NetLlmFleet { abr: &self.abr, cjs: &self.cjs, vp: &self.vp }
    }
}

pub fn fleet_models(zoo_dir: &str, window: usize, seed: u64) -> FleetModels {
    let zoo = Zoo::new(std::env::temp_dir().join(zoo_dir));
    let spec = size_spec("0.35b-sim");
    let (mode, lora) = (AdaptMode::NoDomain, LoraSpec::default());
    let mut abr = NetLlmAbr::new(zoo.build_random(&spec), mode, lora, window, seed);
    abr.target_return = 2.0;
    let mut cjs = NetLlmCjs::new(zoo.build_random(&spec), mode, lora, window, seed + 1);
    cjs.target_return = -1.0;
    let vp = NetLlmVp::new(zoo.build_random(&spec), mode, lora, 8, seed + 2);
    FleetModels { abr, cjs, vp }
}

/// `obs[tick][i]`: what session `i` of an interleaved fleet (`KINDS[i % 3]`)
/// observes at `tick` — ABR streams long enough to cross a window-3
/// re-anchor, recorded CJS views (candidate rollback every tick), VP
/// one-shot queries with prediction window `pw`.
pub fn interleaved_obs(sessions: usize, ticks: usize, pw: usize) -> Vec<Vec<FleetObs>> {
    let per_kind = sessions.div_ceil(3);
    let abr: Vec<Vec<AbrObservation>> =
        (0..per_kind).map(|s| AbrObservation::synthetic_stream(80 + s as u64, ticks)).collect();
    let cjs: Vec<Vec<CjsObs>> = (0..per_kind).map(|s| record_cjs_obs(11 + s as u64)).collect();
    assert!(cjs.iter().all(|o| o.len() >= ticks), "CJS probe too short");
    let samples = vp_samples();
    (0..ticks)
        .map(|tick| {
            (0..sessions)
                .map(|i| match KINDS[i % 3] {
                    FLEET_ABR => FleetObs::Abr(abr[i / 3][tick].clone()),
                    FLEET_CJS => FleetObs::Cjs(cjs[i / 3][tick].clone()),
                    _ => {
                        let sample = samples[(i / 3 + tick * per_kind) % samples.len()].clone();
                        FleetObs::Vp(VpQuery { sample, pw })
                    }
                })
                .collect()
        })
        .collect()
}
