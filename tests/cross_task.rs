//! "One model for all tasks": the same frozen pre-trained backbone must be
//! adaptable to all three networking tasks with different LoRA copies, and
//! the Fig 13 ablation modes must configure trainability as claimed.

use netllm::{
    adapt_abr, adapt_cjs, adapt_vp, build_abr_env, build_cjs_workloads, build_vp_data,
    rl_collect_abr, rl_collect_cjs, AdaptMode, Fidelity, NetLlmVp, ABR_DEFAULT, CJS_DEFAULT,
    VP_DEFAULT,
};
use nt_abr::Bba;
use nt_cjs::Srpt;
use nt_llm::{profile_spec, size_spec, Profile, Zoo, SIZE_LADDER};
use nt_nn::checkpoint;

fn zoo(tag: &str) -> Zoo {
    Zoo::new(std::env::temp_dir().join(format!("netllm-ct-{tag}-{}", std::process::id())))
}

#[test]
fn same_backbone_weights_serve_all_three_tasks() {
    // Pre-train ONE backbone, snapshot its weights, adapt it to each task,
    // and verify the backbone weights were not modified by any adaptation
    // (LoRA keeps W0 frozen => the same model can be shared).
    let z = zoo("shared");
    let spec = profile_spec(Profile::LlamaSim);
    let pristine = z.load_or_pretrain(&spec, 10);
    let reference = checkpoint::to_bytes(&pristine.store);

    // VP
    let data = build_vp_data(&VP_DEFAULT, Fidelity::Smoke);
    let vp = adapt_vp(z.load_or_pretrain(&spec, 10), AdaptMode::FullKnowledge, &data.train, 6, 1);
    // ABR
    let (video, traces) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, true, 2);
    let mut bba = Bba;
    let abr_data = rl_collect_abr(&mut bba, &video, &traces);
    let abr = adapt_abr(z.load_or_pretrain(&spec, 10), AdaptMode::FullKnowledge, &abr_data, 6, 2);
    // CJS
    let workloads = build_cjs_workloads(&CJS_DEFAULT, Fidelity::Smoke, &[3]);
    let cjs_data = rl_collect_cjs(&mut Srpt, &workloads, CJS_DEFAULT.executors);
    let cjs = adapt_cjs(z.load_or_pretrain(&spec, 10), AdaptMode::FullKnowledge, &cjs_data, 6, 3);

    for (task, store) in [("vp", &vp.store), ("abr", &abr.store), ("cjs", &cjs.store)] {
        let fresh = z.load_or_pretrain(&spec, 10);
        for id in fresh.store.ids() {
            let name = fresh.store.name(id).to_string();
            if !name.starts_with("llm.") || name.contains("lora") {
                continue;
            }
            // Find the same-named param in the adapted store.
            let adapted_id = store
                .ids()
                .find(|&i| store.name(i) == name)
                .unwrap_or_else(|| panic!("{task}: backbone param {name} missing"));
            assert_eq!(
                store.data(adapted_id),
                fresh.store.data(id),
                "{task}: frozen backbone param {name} was modified"
            );
        }
    }
    assert!(!reference.is_empty());
}

#[test]
fn adaptation_modes_differ_in_trainable_budget() {
    let z = zoo("modes");
    let spec = profile_spec(Profile::LlamaSim);
    let budget = |mode: AdaptMode| -> usize {
        let backbone = match mode {
            AdaptMode::NoPretrain => z.build_random(&spec),
            _ => z.load_or_pretrain(&spec, 5),
        };
        let m = NetLlmVp::new(backbone, mode, 20, 1);
        m.store.num_trainable()
    };
    let full_ft = budget(AdaptMode::NoPretrain);
    let lora = budget(AdaptMode::FullKnowledge);
    let none = budget(AdaptMode::NoDomain);
    assert!(full_ft > lora, "full fine-tune must train more than LoRA");
    assert!(lora > none, "LoRA must train more than the no-domain ablation");
    assert!(none > 0, "encoder+head always train");
}

#[test]
fn size_ladder_monotone_params_and_all_adaptable() {
    let z = zoo("ladder");
    let data = build_vp_data(&VP_DEFAULT, Fidelity::Smoke);
    let mut last = 0usize;
    for label in SIZE_LADDER {
        let spec = size_spec(label);
        let backbone = z.load_or_pretrain(&spec, 5);
        let n = backbone.lm.num_params(&backbone.store);
        assert!(n > last, "{label} not larger than previous");
        last = n;
        // every size must adapt without panicking
        let mut m = adapt_vp(backbone, AdaptMode::FullKnowledge, &data.train, 3, 42);
        let mae = nt_vp::evaluate(&mut m, &data.test[..4.min(data.test.len())], VP_DEFAULT.pw());
        assert!(mae.is_finite());
    }
}

#[test]
fn all_profiles_adapt_for_abr() {
    let z = zoo("profiles");
    let (video, traces) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, true, 7);
    let mut bba = Bba;
    let dataset = rl_collect_abr(&mut bba, &video, &traces);
    for p in Profile::ALL {
        let backbone = z.load_or_pretrain(&profile_spec(p), 5);
        let mut m = adapt_abr(backbone, AdaptMode::FullKnowledge, &dataset, 4, 9);
        let (video, test) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, false, 8);
        let stats = netllm::test_abr(&mut m, &video, &test[..1]);
        assert!(stats[0].qoe_per_chunk.is_finite(), "{} failed", p.name());
    }
}
