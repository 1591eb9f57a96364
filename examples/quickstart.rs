//! Quickstart: adapt a small pre-trained LLM for adaptive bitrate streaming
//! in under a minute, end to end.
//!
//! ```text
//! cargo run -p netllm --release --example quickstart
//! ```
//!
//! Walks the full NetLLM pipeline from the paper's Figure 9:
//! 1. pre-train (or cache-load) a backbone LLM,
//! 2. `RL_Collect`: gather an experience dataset with an existing policy,
//! 3. `Adapt`: data-driven low-rank adaptation (DD-LRNA),
//! 4. `Test`: stream held-out network traces and compare QoE.

use netllm::{
    adapt_abr, build_abr_env, rl_collect_abr, test_abr, AdaptMode, Fidelity, ABR_DEFAULT,
};
use nt_abr::{Bba, Mpc};
use nt_llm::{profile_spec, Profile, Zoo};

fn main() {
    let fidelity = Fidelity::Smoke; // keep the quickstart fast; try Default
    println!("== NetLLM quickstart: ABR ==");

    // 1. Foundation model: a decoder-only Transformer pre-trained in-repo on
    //    synthetic sequence-modelling skills (the Llama2 stand-in).
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-quickstart-zoo"));
    let spec = profile_spec(Profile::LlamaSim);
    let backbone = zoo.load_or_pretrain(&spec, 60);
    println!(
        "backbone `{}`: {} params{}",
        spec.name,
        backbone.lm.num_params(&backbone.store),
        backbone
            .report
            .as_ref()
            .map(|r| format!(
                ", pre-trained {} steps (loss {:.2} -> {:.2})",
                r.steps, r.initial_loss, r.final_loss
            ))
            .unwrap_or_else(|| " (cached)".into())
    );

    // 2. RL_Collect: run an existing policy (here BBA; the paper uses GENET)
    //    over the training environments ONCE.
    let (video, train_traces) = build_abr_env(&ABR_DEFAULT, fidelity, true, 1);
    let mut teacher = Bba;
    let dataset = rl_collect_abr(&mut teacher, &video, &train_traces);
    println!("collected {} trajectories x {} chunks", dataset.len(), dataset[0].steps.len());

    // 3. Adapt: freeze the backbone, train LoRA adapters + multimodal
    //    encoder + networking head on the fixed dataset.
    let iters = 60;
    let mut model = adapt_abr(backbone, AdaptMode::FullKnowledge, &dataset, iters, 7);
    println!("adapted for {iters} iterations (target return {:.2})", model.target_return);

    // 4. Test on held-out traces against the rule-based baselines.
    let (video, test_traces) = build_abr_env(&ABR_DEFAULT, fidelity, false, 2);
    let netllm_stats = test_abr(&mut model, &video, &test_traces);
    let bba_stats = test_abr(&mut Bba, &video, &test_traces);
    let mpc_stats = test_abr(&mut Mpc::default(), &video, &test_traces);
    let avg = |s: &[nt_abr::SessionStats]| {
        s.iter().map(|x| x.qoe_per_chunk).sum::<f64>() / s.len() as f64
    };
    println!("\navg QoE over {} held-out traces:", test_traces.len());
    println!("  BBA     {:+.3}", avg(&bba_stats));
    println!("  MPC     {:+.3}", avg(&mpc_stats));
    println!(
        "  NetLLM  {:+.3}   (tiny demo budget; see `figures --fidelity default`)",
        avg(&netllm_stats)
    );
    println!("\nevery NetLLM answer was a valid ladder rung — the networking head");
    println!("cannot hallucinate a bitrate that does not exist.");
}
