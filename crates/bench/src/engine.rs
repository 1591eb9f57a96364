//! The experiment engine: builds (and disk-caches) every trained artifact
//! the figures need — baselines and NetLLM-adapted models — at a chosen
//! fidelity, and provides the shared evaluation environments.

use netllm::{
    build_abr_env, build_cjs_workloads, build_vp_data, rl_collect_abr, rl_collect_cjs,
    AbrTrajectory, AdaptMode, CjsTrajectory, Fidelity, NetLlmAbr, NetLlmCjs, NetLlmVp, VpData,
    ABR_DEFAULT, CJS_DEFAULT, VP_DEFAULT,
};
use nt_abr::{train_genet, GenetPolicy, GenetTrainConfig};
use nt_cjs::{train_decima, DecimaPolicy, DecimaTrainConfig};
use nt_llm::{profile_spec, ModelSpec, Profile, Zoo};
use nt_nn::checkpoint;
use nt_vp::Track;
use std::path::PathBuf;

/// Central builder with on-disk caching of trained parameters.
pub struct Engine {
    pub fidelity: Fidelity,
    pub dir: PathBuf,
    pub zoo: Zoo,
}

impl Engine {
    pub fn new(fidelity: Fidelity) -> Self {
        let dir = std::env::var("NETLLM_ARTIFACTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("artifacts"));
        let zoo = Zoo::new(dir.join("zoo"));
        Engine { fidelity, dir, zoo }
    }

    fn tag(&self) -> &'static str {
        match self.fidelity {
            Fidelity::Smoke => "smoke",
            Fidelity::Default => "default",
            Fidelity::Paper => "paper",
        }
    }

    fn ckpt(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}-{}.ntck", self.tag()))
    }

    /// Pre-training budget for backbones.
    pub fn pretrain_steps(&self) -> usize {
        match self.fidelity {
            Fidelity::Smoke => 30,
            Fidelity::Default => 900,
            Fidelity::Paper => 2500,
        }
    }

    /// Pre-trained default backbone (llama-sim profile).
    pub fn backbone(&self) -> nt_llm::LoadedLm {
        self.zoo.load_or_pretrain(&profile_spec(Profile::LlamaSim), self.pretrain_steps())
    }

    /// Pre-trained backbone for an arbitrary spec.
    pub fn backbone_for(&self, spec: &ModelSpec) -> nt_llm::LoadedLm {
        self.zoo.load_or_pretrain(spec, self.pretrain_steps())
    }

    // ---- baselines ----------------------------------------------------------

    /// TRACK trained on the default VP split.
    pub fn track(&self, data: &VpData) -> Track {
        let mut model = Track::new(0x7AC);
        let path = self.ckpt("track");
        if checkpoint::load(&mut model.store, &path).is_ok() {
            return model;
        }
        let epochs = match self.fidelity {
            Fidelity::Smoke => 1,
            Fidelity::Default => 5,
            Fidelity::Paper => 10,
        };
        model.train(&data.train, epochs, 2e-3, 42);
        let _ = checkpoint::save(&model.store, &path);
        model
    }

    /// GENET trained on the default ABR setting only.
    pub fn genet(&self) -> GenetPolicy {
        let (video, traces) = build_abr_env(&ABR_DEFAULT, self.fidelity, true, 7);
        let cfg = GenetTrainConfig {
            bc_iters: self.fidelity.iters(3000),
            rl_iters: self.fidelity.iters(400),
            ..Default::default()
        };
        let mut policy = {
            // Build untrained net for potential checkpoint restore.
            let mut store = nt_nn::ParamStore::new();
            let net =
                nt_abr::genet::GenetNet::new(&mut store, &mut nt_tensor::Rng::seeded(cfg.seed));
            GenetPolicy { net, store }
        };
        let path = self.ckpt("genet");
        if checkpoint::load(&mut policy.store, &path).is_ok() {
            return policy;
        }
        let trained = train_genet(&video, &traces, &cfg);
        let _ = checkpoint::save(&trained.store, &path);
        trained
    }

    /// Decima trained on default-like workloads.
    pub fn decima(&self) -> DecimaPolicy {
        let cfg = DecimaTrainConfig {
            bc_iters: self.fidelity.iters(60),
            rl_iters: self.fidelity.iters(100),
            ..Default::default()
        };
        let mut policy = {
            let mut store = nt_nn::ParamStore::new();
            let net = nt_cjs::DecimaNet::new(&mut store, &mut nt_tensor::Rng::seeded(cfg.seed));
            DecimaPolicy { net, store, sample: false, rng: nt_tensor::Rng::seeded(cfg.seed ^ 0xAB) }
        };
        let path = self.ckpt("decima");
        if checkpoint::load(&mut policy.store, &path).is_ok() {
            return policy;
        }
        let trained = train_decima(CJS_DEFAULT.mean_interarrival, &cfg);
        let _ = checkpoint::save(&trained.store, &path);
        trained
    }

    // ---- NetLLM-adapted models ------------------------------------------------

    pub fn vp_adapt_iters(&self) -> usize {
        self.fidelity.iters(3500)
    }

    pub fn abr_adapt_iters(&self) -> usize {
        self.fidelity.iters(1500)
    }

    pub fn cjs_adapt_iters(&self) -> usize {
        self.fidelity.iters(500)
    }

    /// NetLLM-adapted VP model (cached per adapt mode).
    pub fn netllm_vp(&self, data: &VpData, mode: AdaptMode) -> NetLlmVp {
        self.netllm_vp_spec(&profile_spec(Profile::LlamaSim), data, mode)
    }

    /// NetLLM-adapted VP model on an arbitrary backbone spec (Figs 15/16).
    pub fn netllm_vp_spec(&self, spec: &ModelSpec, data: &VpData, mode: AdaptMode) -> NetLlmVp {
        let backbone = match mode {
            AdaptMode::NoPretrain => self.zoo.build_random(spec),
            _ => self.backbone_for(spec),
        };
        let max_pw = netllm::VP_DEFAULT.pw();
        let probe = NetLlmVp::new(backbone, mode, max_pw, 0xF1);
        let path = self.ckpt(&format!("netllm-vp-{}-{}", spec.name, mode.name()));
        let mut model = probe;
        if checkpoint::load(&mut model.store, &path).is_ok() {
            return model;
        }
        model.adapt(&data.train, self.vp_adapt_iters(), 1e-3, 0xF1 ^ 0xAD);
        let _ = checkpoint::save(&model.store, &path);
        model
    }

    /// Experience dataset for ABR, collected once with a *set* of existing
    /// policies (Fig 9's `RL_Collect(Policies, ...)` takes policies plural;
    /// a mixed pool lets the return-conditioned model imitate whichever
    /// behaviour was best under each condition).
    pub fn abr_experience(&self) -> Vec<AbrTrajectory> {
        let (video, traces) = build_abr_env(&ABR_DEFAULT, self.fidelity, true, 21);
        let mut genet = self.genet();
        let mut out = rl_collect_abr(&mut genet, &video, &traces);
        out.extend(rl_collect_abr(&mut nt_abr::Mpc::default(), &video, &traces));
        out.extend(rl_collect_abr(&mut nt_abr::Bba, &video, &traces));
        out
    }

    /// NetLLM-adapted ABR model (cached per mode).
    pub fn netllm_abr(&self, mode: AdaptMode) -> NetLlmAbr {
        self.netllm_abr_spec(&profile_spec(Profile::LlamaSim), mode)
    }

    /// NetLLM-adapted ABR model on an arbitrary backbone spec (Figs 15/16).
    pub fn netllm_abr_spec(&self, spec: &ModelSpec, mode: AdaptMode) -> NetLlmAbr {
        let backbone = match mode {
            AdaptMode::NoPretrain => self.zoo.build_random(spec),
            _ => self.backbone_for(spec),
        };
        let probe = NetLlmAbr::new(backbone, mode, 10, 0xF2);
        let path = self.ckpt(&format!("netllm-abr-{}-{}", spec.name, mode.name()));
        let mut model = probe;
        if checkpoint::load(&mut model.store, &path).is_ok() {
            // target_return is data-dependent; recompute cheaply.
            model.target_return = NetLlmAbr::target_return_for(&self.abr_experience());
            return model;
        }
        let data = self.abr_experience();
        model.adapt(&data, self.abr_adapt_iters(), 1e-3, 0xF2 ^ 0xAD);
        let _ = checkpoint::save(&model.store, &path);
        model
    }

    /// Experience dataset for CJS, collected once with a set of existing
    /// schedulers (Decima + SRPT — Fig 9 takes `Policies` plural).
    pub fn cjs_experience(&self) -> Vec<CjsTrajectory> {
        let n = match self.fidelity {
            Fidelity::Smoke => 2,
            Fidelity::Default => 6,
            Fidelity::Paper => 12,
        };
        let seeds: Vec<u64> = (0..n).map(|i| 500 + i as u64).collect();
        let workloads = build_cjs_workloads(&CJS_DEFAULT, self.fidelity, &seeds);
        let mut decima = self.decima();
        let mut out = rl_collect_cjs(&mut decima, &workloads, CJS_DEFAULT.executors);
        out.extend(rl_collect_cjs(&mut nt_cjs::Srpt, &workloads, CJS_DEFAULT.executors));
        out
    }

    /// NetLLM-adapted CJS model (cached per mode).
    pub fn netllm_cjs(&self, mode: AdaptMode) -> NetLlmCjs {
        let backbone = match mode {
            AdaptMode::NoPretrain => self.zoo.build_random(&profile_spec(Profile::LlamaSim)),
            _ => self.backbone(),
        };
        let probe = NetLlmCjs::new(backbone, mode, 8, 0xF3);
        let path = self.ckpt(&format!("netllm-cjs-{}", mode.name()));
        let mut model = probe;
        if checkpoint::load(&mut model.store, &path).is_ok() {
            model.target_return = NetLlmCjs::target_return_for(&self.cjs_experience());
            return model;
        }
        let data = self.cjs_experience();
        model.adapt(&data, self.cjs_adapt_iters(), 1e-3, 0xF3 ^ 0xAD);
        let _ = checkpoint::save(&model.store, &path);
        model
    }

    /// Default VP data (train + default test).
    pub fn vp_data(&self) -> VpData {
        build_vp_data(&VP_DEFAULT, self.fidelity)
    }
}
