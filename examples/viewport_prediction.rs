//! Viewport prediction with the multimodal encoder: time-series head
//! motion + video saliency frames, adapted with the supervised DD-LRNA
//! pipeline, compared against LR / Velocity / TRACK.
//!
//! ```text
//! cargo run -p netllm --release --example viewport_prediction
//! ```

use netllm::{build_vp_data, AdaptMode, Fidelity, NetLlmVp, VP_DEFAULT, VP_UNSEEN2};
use nt_llm::{profile_spec, Profile, Zoo};
use nt_vp::{evaluate, LinearRegression, Track, Velocity};

fn main() {
    let fidelity = Fidelity::Smoke;
    println!("== NetLLM viewport prediction ==");
    let data = build_vp_data(&VP_DEFAULT, fidelity);
    println!(
        "dataset: {} train / {} test samples (hw {} samples, pw {} samples @5Hz)",
        data.train.len(),
        data.test.len(),
        VP_DEFAULT.hw(),
        VP_DEFAULT.pw()
    );

    // Rule-based baselines need no training.
    let lr_mae = evaluate(&mut LinearRegression, &data.test, VP_DEFAULT.pw());
    let vel_mae = evaluate(&mut Velocity::default(), &data.test, VP_DEFAULT.pw());

    // TRACK: the learning-based SOTA comparator (LSTM + saliency fusion).
    let mut track = Track::new(1);
    track.train(&data.train, 2, 2e-3, 2);
    let track_mae = evaluate(&mut track, &data.test, VP_DEFAULT.pw());

    // NetLLM: saliency patches + viewport tokens -> frozen LLM + LoRA ->
    // VP head emits the whole horizon in ONE inference.
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-vp-example-zoo"));
    let backbone = zoo.load_or_pretrain(&profile_spec(Profile::LlamaSim), 60);
    let mut model = NetLlmVp::new(backbone, AdaptMode::FullKnowledge, 30, 3);
    model.adapt(&data.train, 80, 1e-3, 4);
    let netllm_mae = evaluate(&mut model, &data.test, VP_DEFAULT.pw());

    println!("\navg MAE (degrees, lower is better):");
    println!("  LR        {lr_mae:.2}");
    println!("  Velocity  {vel_mae:.2}");
    println!("  TRACK     {track_mae:.2}");
    println!("  NetLLM    {netllm_mae:.2}   (tiny demo budget)");

    // Generalization: evaluate the SAME models on an unseen dataset
    // (different motion statistics) without retraining.
    let unseen = build_vp_data(&VP_UNSEEN2, fidelity);
    let track_u = evaluate(&mut track, &unseen.test, VP_UNSEEN2.pw());
    let netllm_u = evaluate(&mut model, &unseen.test, VP_UNSEEN2.pw());
    println!("\nunseen dataset (wu2017-like), no retraining:");
    println!("  TRACK     {track_u:.2}");
    println!("  NetLLM    {netllm_u:.2}");
}
