//! Cross-crate integration tests: each task's full pipeline (environment ->
//! experience -> adaptation -> evaluation) at smoke budgets.

use netllm::{
    adapt_abr, adapt_cjs, adapt_vp, build_abr_env, build_cjs_workloads, build_vp_data,
    rl_collect_abr, rl_collect_cjs, test_abr, test_cjs, AdaptMode, Fidelity, ABR_DEFAULT,
    CJS_DEFAULT, VP_DEFAULT,
};
use nt_abr::{Bba, Mpc};
use nt_cjs::{Fifo, Srpt};
use nt_llm::{profile_spec, Profile, Zoo};
use nt_vp::{evaluate, VpPredictor};

fn zoo(tag: &str) -> Zoo {
    Zoo::new(std::env::temp_dir().join(format!("netllm-it-{tag}-{}", std::process::id())))
}

#[test]
fn vp_pipeline_end_to_end() {
    let data = build_vp_data(&VP_DEFAULT, Fidelity::Smoke);
    assert!(!data.train.is_empty() && !data.test.is_empty());
    let backbone = zoo("vp").load_or_pretrain(&profile_spec(Profile::LlamaSim), 10);
    let mut model = adapt_vp(backbone, AdaptMode::FullKnowledge, &data.train, 15, 1);
    let mae = evaluate(&mut model, &data.test, VP_DEFAULT.pw());
    assert!(mae.is_finite() && mae > 0.0, "MAE must be a positive finite number, got {mae}");
    // Answers must be physically valid for every sample (reliability claim).
    for s in &data.test {
        for v in model.predict(s, VP_DEFAULT.pw()) {
            assert!((-45.0..=45.0).contains(&v[0]));
            assert!((-90.0..=90.0).contains(&v[1]));
            assert!((-180.0..180.0).contains(&v[2]));
        }
    }
}

#[test]
fn abr_pipeline_end_to_end() {
    let (video, train_traces) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, true, 1);
    let mut teacher = Mpc::default();
    let dataset = rl_collect_abr(&mut teacher, &video, &train_traces);
    assert_eq!(dataset.len(), train_traces.len());
    let backbone = zoo("abr").load_or_pretrain(&profile_spec(Profile::LlamaSim), 10);
    let mut model = adapt_abr(backbone, AdaptMode::FullKnowledge, &dataset, 10, 2);
    assert!(model.target_return.is_finite());

    let (video, test_traces) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, false, 3);
    let stats = test_abr(&mut model, &video, &test_traces);
    assert_eq!(stats.len(), test_traces.len());
    for s in &stats {
        assert_eq!(s.chunks, video.num_chunks(), "every chunk must be streamed");
        assert!(s.qoe_per_chunk.is_finite());
    }
    // BBA on the same envs for a sanity ordering bound: an adapted tiny
    // model may lose, but must stay within a sane QoE band.
    let bba_stats = test_abr(&mut Bba, &video, &test_traces);
    let avg = |s: &[nt_abr::SessionStats]| {
        s.iter().map(|x| x.qoe_per_chunk).sum::<f64>() / s.len() as f64
    };
    assert!(avg(&stats) > avg(&bba_stats) - 10.0, "NetLLM QoE collapsed");
}

#[test]
fn cjs_pipeline_end_to_end() {
    let workloads = build_cjs_workloads(&CJS_DEFAULT, Fidelity::Smoke, &[1, 2]);
    let dataset = rl_collect_cjs(&mut Srpt, &workloads, CJS_DEFAULT.executors);
    assert_eq!(dataset.len(), 2);
    let backbone = zoo("cjs").load_or_pretrain(&profile_spec(Profile::LlamaSim), 10);
    let mut model = adapt_cjs(backbone, AdaptMode::FullKnowledge, &dataset, 8, 3);

    let test_workloads = build_cjs_workloads(&CJS_DEFAULT, Fidelity::Smoke, &[9]);
    let stats = test_cjs(&mut model, &test_workloads, CJS_DEFAULT.executors);
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].jcts.len(), test_workloads[0].len(), "all jobs must complete");
    // Sanity bound against FIFO on the same workload.
    let fifo = test_cjs(&mut Fifo, &test_workloads, CJS_DEFAULT.executors);
    assert!(
        stats[0].mean_jct() < fifo[0].mean_jct() * 5.0,
        "NetLLM scheduling collapsed: {} vs FIFO {}",
        stats[0].mean_jct(),
        fifo[0].mean_jct()
    );
}

#[test]
fn experience_datasets_are_reusable_across_adaptations() {
    // DD-LRNA's core claim: the dataset is collected once and reused. Two
    // different adaptations from the same dataset must both work.
    let (video, traces) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, true, 5);
    let mut teacher = Bba;
    let dataset = rl_collect_abr(&mut teacher, &video, &traces);
    let b1 = zoo("reuse1").load_or_pretrain(&profile_spec(Profile::LlamaSim), 10);
    let b2 = zoo("reuse2").load_or_pretrain(&profile_spec(Profile::OptSim), 10);
    let m1 = adapt_abr(b1, AdaptMode::FullKnowledge, &dataset, 5, 6);
    let m2 = adapt_abr(b2, AdaptMode::FullKnowledge, &dataset, 5, 7);
    assert!(m1.target_return.is_finite());
    assert!(m2.target_return.is_finite());
}

#[test]
fn unseen_settings_are_harder_or_different() {
    // Table 4 knobs must actually change the environment difficulty.
    let d = build_cjs_workloads(&CJS_DEFAULT, Fidelity::Smoke, &[1]);
    let u2 = build_cjs_workloads(&netllm::CJS_UNSEEN2, Fidelity::Smoke, &[1]);
    assert!(u2[0].len() > d[0].len(), "unseen2 must have more jobs");
    let fifo_d = test_cjs(&mut Fifo, &d, CJS_DEFAULT.executors);
    let fifo_u1 = test_cjs(&mut Fifo, &d, netllm::CJS_UNSEEN1.executors);
    assert!(fifo_u1[0].mean_jct() >= fifo_d[0].mean_jct(), "fewer executors cannot speed FIFO up");
}
