//! Banded (threaded) serving must be bit-compatible with the sequential
//! single-stream path. Lives in its own test binary so `NT_THREADS` can
//! be pinned before the pool's `OnceLock` is first read.

use netllm::{AdaptMode, NetLlmAbr, ServingEngine};
use nt_abr::{AbrObservation, AbrPolicy};
use nt_llm::{size_spec, Zoo};

mod common;
use common::{fleet_models, interleaved_obs, KINDS};

/// Both tests pin the same value, whichever runs first.
fn pin_four_threads() {
    std::env::set_var("NT_THREADS", "4");
    assert_eq!(nt_tensor::pool::num_threads(), 4);
}

fn obs_stream(seed: u64, len: usize) -> Vec<AbrObservation> {
    AbrObservation::synthetic_stream(seed, len)
}

#[test]
#[allow(clippy::needless_range_loop)]
fn threaded_bands_match_sequential_rollouts() {
    pin_four_threads();

    let loaded = Zoo::new(std::env::temp_dir().join("netllm-threaded-serving"))
        .build_random(&size_spec("7b-sim"));
    let mut m = NetLlmAbr::new(loaded, AdaptMode::NoDomain, 4, 3);
    m.target_return = 2.0;
    let batch = 10usize; // not a multiple of the band count: ragged last band
    let chunks = 10usize;
    let streams: Vec<Vec<AbrObservation>> =
        (0..batch).map(|s| obs_stream(50 + s as u64, chunks)).collect();

    let mut engine = ServingEngine::new();
    let ids: Vec<_> = (0..batch).map(|_| engine.join(&m)).collect();
    let mut batched: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); batch];
    for c in 0..chunks {
        let reqs: Vec<_> = ids.iter().enumerate().map(|(s, &id)| (id, &streams[s][c])).collect();
        let actions = engine.step(&m, &reqs);
        for (s, act) in actions.into_iter().enumerate() {
            batched[s].push((act, engine.last_logits(ids[s]).to_vec()));
        }
    }

    for (s, obs) in streams.iter().enumerate() {
        m.reset();
        for (c, o) in obs.iter().enumerate() {
            let act = m.select(o);
            let (bact, blogits) = &batched[s][c];
            assert_eq!(act, *bact, "stream {s} chunk {c}: threaded action diverged");
            for (x, y) in m.last_logits().iter().zip(blogits) {
                assert!(
                    (x - y).abs() < 1e-5,
                    "stream {s} chunk {c}: threaded {y} vs sequential {x}"
                );
            }
        }
    }
}

#[test]
fn bands_of_the_group_sorted_order_equal_the_serial_step() {
    // Ten sessions interleaved A/C/V/...: sorted by backbone group they
    // are AAAA CCC VVV, and four bands of three cut that as
    // AAA|ACC|CVV|V — band edges inside groups and groups inside bands.
    // Banded and one-band serving must agree bit for bit.
    pin_four_threads();
    let (sessions, ticks) = (10usize, 8usize);
    let m = fleet_models("netllm-threaded-fleet", 3, 51);
    let fleet = m.fleet();
    let obs = interleaved_obs(sessions, ticks, 6);

    let serve = |serial: bool| -> Vec<(String, Vec<f32>)> {
        let _one_band = serial.then(nt_tensor::pool::enter_worker);
        let mut engine = ServingEngine::new();
        let ids: Vec<_> = (0..sessions).map(|i| engine.join_group(&fleet, KINDS[i % 3])).collect();
        let mut out = Vec::new();
        for tick_obs in &obs {
            let reqs: Vec<_> = ids.iter().copied().zip(tick_obs).collect();
            let actions = engine.step(&fleet, &reqs);
            for (id, action) in ids.iter().zip(actions) {
                out.push((format!("{action:?}"), engine.last_logits(*id).to_vec()));
            }
        }
        out
    };
    assert_eq!(serve(false), serve(true));
}
