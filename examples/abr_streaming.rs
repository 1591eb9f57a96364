//! A full adaptive-bitrate streaming study: chunk simulator AND the
//! transport-aware link emulator (the paper's "real-world" test), across
//! bandwidth families, for all four policies.
//!
//! ```text
//! cargo run -p netllm --release --example abr_streaming
//! ```

use netllm::{adapt_abr, build_abr_env, rl_collect_abr, AdaptMode, Fidelity, ABR_DEFAULT};
use nt_abr::{
    envivio_like, generate_set, run_emulated_session, run_session, stats, AbrPolicy, Bba, Mpc,
    TraceKind,
};
use nt_llm::{profile_spec, Profile, Zoo};
use nt_tensor::Rng;

fn main() {
    println!("== ABR streaming study ==");
    let video = envivio_like(&mut Rng::seeded(1));
    println!(
        "video: {} chunks x {}s, ladder {:?} kbps",
        video.num_chunks(),
        nt_abr::CHUNK_SECS,
        video.bitrates_kbps
    );

    // Show what the three bandwidth families look like.
    for kind in [TraceKind::FccLike, TraceKind::CellularLike, TraceKind::SynthWide] {
        let set = generate_set(kind, 10, 300, &mut Rng::seeded(2));
        let s: Vec<_> = set.iter().map(stats).collect();
        let mean = s.iter().map(|x| x.mean).sum::<f64>() / s.len() as f64;
        let vol = s.iter().map(|x| x.volatility).sum::<f64>() / s.len() as f64;
        println!("  {:14} mean {:.2} Mbps, volatility {:.2} Mbps/s", kind.name(), mean, vol);
    }

    // Train a small NetLLM ABR model from BBA experience (demo budget).
    let zoo = Zoo::new(std::env::temp_dir().join("netllm-abr-example-zoo"));
    let backbone = zoo.load_or_pretrain(&profile_spec(Profile::LlamaSim), 60);
    let (train_video, train_traces) = build_abr_env(&ABR_DEFAULT, Fidelity::Smoke, true, 3);
    let mut teacher = Mpc::default();
    let dataset = rl_collect_abr(&mut teacher, &train_video, &train_traces);
    let mut netllm_model = adapt_abr(backbone, AdaptMode::FullKnowledge, &dataset, 60, 4);

    // Head-to-head on broadband, in BOTH the chunk simulator and the
    // RTT-aware emulator.
    let traces = generate_set(TraceKind::FccLike, 6, 350, &mut Rng::seeded(5));

    println!("\npolicy       sim QoE   emu QoE   (emu = 80ms-RTT client/server emulation)");
    let mut bba = Bba;
    let mut mpc = Mpc::default();
    let mut rows: Vec<(&str, &mut dyn AbrPolicy)> =
        vec![("BBA", &mut bba), ("MPC", &mut mpc), ("NetLLM", &mut netllm_model)];
    for (name, policy) in rows.iter_mut() {
        let sim: f64 =
            traces.iter().map(|t| run_session(*policy, &video, t).0.qoe_per_chunk).sum::<f64>()
                / traces.len() as f64;
        let emu: f64 = traces
            .iter()
            .map(|t| run_emulated_session(*policy, &video, t).0.qoe_per_chunk)
            .sum::<f64>()
            / traces.len() as f64;
        println!("{name:12} {sim:+.3}    {emu:+.3}");
    }
    println!("\ntransport overhead (RTT ramp-up) lowers everyone's QoE; policy");
    println!("rankings are what the paper's Fig 14 compares.");
}
