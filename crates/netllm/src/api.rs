//! The integration API of Figure 9: `RL_Collect`, `Adapt`, `Test`.
//!
//! These functions wrap the per-task adapters behind the three entry points
//! the paper defines for plugging NetLLM into an existing SL/RL codebase,
//! plus the environment builders (datasets, traces, workloads) the
//! evaluation settings of Tables 2–4 describe.

use crate::adapt::AdaptMode;
use crate::adapters::abr::{AbrRecorder, AbrTrajectory, NetLlmAbr};
use crate::adapters::cjs::{collect_episode, CjsTrajectory, NetLlmCjs};
use crate::adapters::vp::NetLlmVp;
use crate::settings::{AbrSetting, CjsSetting, Fidelity, VpSetting};
use nt_abr::{
    envivio_like, generate_set, run_session, synth_video, AbrPolicy, BandwidthTrace, SessionStats,
    Video,
};
use nt_cjs::{generate_workload, run_workload, CjsStats, Job, Scheduler, WorkloadConfig};
use nt_llm::zoo::LoadedLm;
use nt_tensor::Rng;
use nt_vp::{extract_samples, generate as generate_vp, VpSample};

// ---------------------------------------------------------------------------
// Environment builders
// ---------------------------------------------------------------------------

/// VP: build train/test sample sets for a Table 2 setting. Train samples
/// always come from the *default* training split (jin2022-like, default
/// windows); test samples come from the requested setting.
pub struct VpData {
    pub train: Vec<VpSample>,
    pub test: Vec<VpSample>,
}

pub fn build_vp_data(setting: &VpSetting, fidelity: Fidelity) -> VpData {
    let train_setting = crate::settings::VP_DEFAULT;
    let train_spec = {
        let mut s = train_setting.dataset_spec();
        // Scale dataset volume with fidelity (videos/viewers subsetting
        // happens below; generating the full paper-scale dataset is cheap
        // only at Default+).
        if fidelity == Fidelity::Smoke {
            s.videos = 3;
            s.viewers = 6;
            s.secs = 20;
        }
        s
    };
    let train_ds = generate_vp(&train_spec);
    let n_v = train_ds.spec.videos;
    let n_u = train_ds.spec.viewers;
    // Paper split: 15/6/6 videos, 42/21/21 viewers — proportional split
    // with disjoint train/test videos and viewers.
    let train_vids: Vec<usize> = (0..(n_v * 5 / 9).max(1)).collect();
    let test_vids: Vec<usize> = ((n_v * 7 / 9).max(1).min(n_v - 1)..n_v).collect();
    let train_viewers: Vec<usize> = (0..(n_u / 2).max(1)).collect();
    let test_viewers: Vec<usize> = ((n_u * 3 / 4).max(1).min(n_u - 1)..n_u).collect();

    let train = extract_samples(
        &train_ds,
        &train_vids,
        &train_viewers,
        train_setting.hw(),
        train_setting.pw(),
        7,
        fidelity.count(600),
    );
    // Test set: from the requested setting (possibly a different dataset
    // and windows).
    let test = if setting.dataset == train_setting.dataset && setting.name == "default" {
        extract_samples(
            &train_ds,
            &test_vids,
            &test_viewers,
            setting.hw(),
            setting.pw(),
            11,
            fidelity.count(200),
        )
    } else {
        let mut spec = setting.dataset_spec();
        if fidelity == Fidelity::Smoke {
            spec.videos = 2;
            spec.viewers = 4;
            spec.secs = 25;
        } else {
            // Keep generation affordable: the Wu2017-like profile's full 9
            // videos are used, subset of viewers.
            spec.viewers = spec.viewers.min(16);
        }
        let ds = generate_vp(&spec);
        let all_v: Vec<usize> = (0..ds.spec.videos).collect();
        let all_u: Vec<usize> = (0..ds.spec.viewers).collect();
        extract_samples(&ds, &all_v, &all_u, setting.hw(), setting.pw(), 11, fidelity.count(200))
    };
    VpData { train, test }
}

/// ABR: `(video, traces)` for a Table 3 setting. `train` selects the
/// training pool (more traces) vs the held-out test pool.
pub fn build_abr_env(
    setting: &AbrSetting,
    fidelity: Fidelity,
    train: bool,
    seed: u64,
) -> (Video, Vec<BandwidthTrace>) {
    let mut vrng = Rng::seeded(0x56AD);
    let video = if setting.synth_video { synth_video(&mut vrng) } else { envivio_like(&mut vrng) };
    let n = if train { fidelity.count(40) } else { fidelity.count(30) };
    let mut trng = Rng::seeded(seed ^ if train { 0xAAAA } else { 0xBBBB });
    let traces = generate_set(setting.traces, n, 350, &mut trng);
    (video, traces)
}

/// CJS: test workloads for a Table 4 setting (several seeds).
pub fn build_cjs_workloads(
    setting: &CjsSetting,
    fidelity: Fidelity,
    seeds: &[u64],
) -> Vec<Vec<Job>> {
    seeds
        .iter()
        .map(|&s| {
            generate_workload(&WorkloadConfig {
                num_jobs: setting.scaled_jobs(fidelity),
                mean_interarrival: setting.mean_interarrival,
                seed: 0xC15 ^ s,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// RL_Collect (Fig 9)
// ---------------------------------------------------------------------------

/// Collect an ABR experience dataset by running an existing policy over the
/// training environments (the paper uses GENET).
pub fn rl_collect_abr(
    policy: &mut dyn AbrPolicy,
    video: &Video,
    traces: &[BandwidthTrace],
) -> Vec<AbrTrajectory> {
    traces
        .iter()
        .map(|t| {
            let mut rec = AbrRecorder::new(policy);
            run_session(&mut rec, video, t);
            rec.traj
        })
        .collect()
}

/// Collect a CJS experience dataset with an existing scheduler (the paper
/// uses Decima).
pub fn rl_collect_cjs(
    scheduler: &mut dyn Scheduler,
    workloads: &[Vec<Job>],
    executors: usize,
) -> Vec<CjsTrajectory> {
    workloads.iter().map(|jobs| collect_episode(scheduler, jobs, executors)).collect()
}

// ---------------------------------------------------------------------------
// Adapt (Fig 9)
// ---------------------------------------------------------------------------

/// Adapt a backbone for VP (supervised DD-LRNA).
pub fn adapt_vp(
    backbone: LoadedLm,
    mode: AdaptMode,
    train: &[VpSample],
    iters: usize,
    seed: u64,
) -> NetLlmVp {
    let max_pw = crate::settings::VP_DEFAULT.pw();
    let mut m = NetLlmVp::new(backbone, mode, max_pw, seed);
    m.adapt(train, iters, 1e-3, seed ^ 0xAD);
    m
}

/// Adapt a backbone for ABR (data-driven RL DD-LRNA). Paper context window
/// w = 10.
pub fn adapt_abr(
    backbone: LoadedLm,
    mode: AdaptMode,
    dataset: &[AbrTrajectory],
    iters: usize,
    seed: u64,
) -> NetLlmAbr {
    let mut m = NetLlmAbr::new(backbone, mode, 10, seed);
    m.adapt(dataset, iters, 1e-3, seed ^ 0xAD);
    m
}

/// Adapt a backbone for CJS (data-driven RL DD-LRNA). The paper's w = 20
/// history is compressed to 8 pooled-graph steps here (token budget of the
/// small backbone; see module docs of `adapters::cjs`).
pub fn adapt_cjs(
    backbone: LoadedLm,
    mode: AdaptMode,
    dataset: &[CjsTrajectory],
    iters: usize,
    seed: u64,
) -> NetLlmCjs {
    let mut m = NetLlmCjs::new(backbone, mode, 8, seed);
    m.adapt(dataset, iters, 1e-3, seed ^ 0xAD);
    m
}

// ---------------------------------------------------------------------------
// Test (Fig 9)
// ---------------------------------------------------------------------------

/// Evaluate any ABR policy over an environment; returns per-trace stats.
pub fn test_abr(
    policy: &mut dyn AbrPolicy,
    video: &Video,
    traces: &[BandwidthTrace],
) -> Vec<SessionStats> {
    traces.iter().map(|t| run_session(policy, video, t).0).collect()
}

/// Evaluate any scheduler over workloads; returns per-workload stats.
pub fn test_cjs(
    scheduler: &mut dyn Scheduler,
    workloads: &[Vec<Job>],
    executors: usize,
) -> Vec<CjsStats> {
    workloads.iter().map(|jobs| run_workload(scheduler, jobs, executors, None)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nt_abr::Bba;
    use nt_cjs::Srpt;

    #[test]
    fn vp_data_builder_respects_fidelity() {
        let d = build_vp_data(&crate::settings::VP_DEFAULT, Fidelity::Smoke);
        assert!(!d.train.is_empty());
        assert!(!d.test.is_empty());
        assert_eq!(d.train[0].history.len(), 10);
        assert_eq!(d.train[0].future.len(), 20);
    }

    #[test]
    fn vp_unseen_settings_change_windows_and_dataset() {
        let d = build_vp_data(&crate::settings::VP_UNSEEN1, Fidelity::Smoke);
        assert_eq!(d.test[0].history.len(), 20);
        assert_eq!(d.test[0].future.len(), 30);
        // train remains the default split
        assert_eq!(d.train[0].history.len(), 10);
    }

    #[test]
    fn abr_env_builder_switches_video_and_traces() {
        let (v1, t1) = build_abr_env(&crate::settings::ABR_DEFAULT, Fidelity::Smoke, false, 1);
        let (v2, _) = build_abr_env(&crate::settings::ABR_UNSEEN2, Fidelity::Smoke, false, 1);
        assert_eq!(v1.name, "envivio-like");
        assert_eq!(v2.name, "synth-video");
        assert!(!t1.is_empty());
    }

    #[test]
    fn rl_collect_and_test_roundtrip() {
        let (video, traces) =
            build_abr_env(&crate::settings::ABR_DEFAULT, Fidelity::Smoke, true, 2);
        let mut bba = Bba;
        let data = rl_collect_abr(&mut bba, &video, &traces[..2]);
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].steps.len(), 48);
        let stats = test_abr(&mut bba, &video, &traces[..2]);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn cjs_collect_and_test_roundtrip() {
        let wl = build_cjs_workloads(&crate::settings::CJS_DEFAULT, Fidelity::Smoke, &[1, 2]);
        let data = rl_collect_cjs(&mut Srpt, &wl, 10);
        assert_eq!(data.len(), 2);
        assert!(!data[0].steps.is_empty());
        let stats = test_cjs(&mut Srpt, &wl, 10);
        assert_eq!(stats.len(), 2);
    }
}
