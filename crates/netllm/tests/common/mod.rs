//! Shared fixtures for the fleet-serving integration tests.
#![allow(dead_code)] // each test binary uses its own subset

pub use netllm::FleetModels;
use netllm::{
    step_single, CjsObs, FleetObs, GlobalSessionId, InferenceSession, ServedTask, ShardedServer,
    Ticket, VpQuery, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_vp::VpSample;

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

/// One adapted model per fleet member: random 0.35b-sim backbones, the
/// adapters seeded `seed`, `seed + 1`, `seed + 2`.
pub fn fleet_models(zoo_dir: &str, window: usize, seed: u64) -> FleetModels {
    FleetModels::seeded(&std::env::temp_dir().join(zoo_dir), "0.35b-sim", window, seed)
}

/// `obs[tick][i]`: what session `i` of an interleaved fleet (`KINDS[i % 3]`)
/// observes at `tick` — ABR streams long enough to cross a window-3
/// re-anchor, recorded CJS views (candidate rollback every tick), VP
/// one-shot queries with prediction window `pw`.
pub fn interleaved_obs(sessions: usize, ticks: usize, pw: usize) -> Vec<Vec<FleetObs>> {
    let per_kind = sessions.div_ceil(3);
    let abr: Vec<Vec<AbrObservation>> =
        (0..per_kind).map(|s| AbrObservation::synthetic_stream(80 + s as u64, ticks)).collect();
    let cjs: Vec<Vec<CjsObs>> =
        (0..per_kind).map(|s| CjsObs::synthetic_stream(11 + s as u64, 6)).collect();
    assert!(cjs.iter().all(|o| o.len() >= ticks), "CJS probe too short");
    let samples = VpSample::synthetic_pool();
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
