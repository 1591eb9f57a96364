//! Batched ≡ one-lane, bit for bit. For ABR, CJS, VP and the fleet, a
//! run of lanes goes through one `plan_batch` → stacked append →
//! `settle_batch` pass, and twin lanes go through one-lane
//! `plan_step` / `settle_step` calls, one session append each. Every
//! lane's token rows, hidden rows, logits and rollback tokens must carry
//! the same bits, tick after tick, so the next tick's tokens are compared
//! too.
//!
//! The lanes mix fresh sessions, incremental steps, re-anchor rebuilds
//! and evicted (cleared) sessions; CJS lanes carry different candidate
//! counts, and VP lanes ask for horizons 1, 4 and 8 over histories of two
//! lengths.

use netllm::{
    append_batched, step_single, CjsObs, FleetModels, FleetObs, InferenceSession, Lane,
    RollbackPlan, ServedTask, VpQuery, FLEET_ABR, FLEET_CJS, FLEET_VP,
};
use nt_abr::AbrObservation;
use nt_tensor::Tensor;
use nt_vp::VpSample;

const WINDOW: usize = 4;

fn models() -> FleetModels {
    FleetModels::seeded(&std::env::temp_dir().join("netllm-batched-bits"), "7b-sim", WINDOW, 71)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// One lane's episode state and KV session.
struct Twin<S> {
    slot: S,
    session: InferenceSession,
}

/// What one tick of one run saw: lanes that started fresh (empty
/// session), lanes whose non-empty session re-anchored, lanes that
/// appended incrementally.
#[derive(Default)]
struct Mix {
    fresh: usize,
    reanchored: usize,
    incremental: usize,
}

/// Warm lane `i` up with `warm[i]` observations of `streams[i]` through
/// `step_single` (clearing its session afterwards when `evict[i]`), twice,
/// then serve `ticks` further observations per lane: one twin set as one
/// batched run, the other one lane at a time. Panics on the first bit
/// that differs.
fn check<T: ServedTask>(
    task: &T,
    group: usize,
    streams: &[Vec<T::Obs>],
    warm: &[usize],
    evict: &[bool],
    ticks: usize,
) -> Mix {
    let lm = task.backbone(group).0;
    let d = lm.cfg.d_model;
    let twins = || -> Vec<Twin<T::Slot>> {
        streams
            .iter()
            .zip(warm)
            .zip(evict)
            .map(|((stream, &w), &evicted)| {
                let mut t = Twin { slot: task.new_slot(group), session: InferenceSession::new(lm) };
                for obs in &stream[..w] {
                    let _ = step_single(task, &mut t.slot, &mut t.session, obs);
                }
                if evicted {
                    t.session.clear();
                }
                t
            })
            .collect()
    };
    let (mut batched, mut single) = (twins(), twins());
    let mut mix = Mix::default();
    for tick in 0..ticks {
        let obs: Vec<&T::Obs> = streams.iter().zip(warm).map(|(s, &w)| &s[w + tick]).collect();
        for t in &batched {
            mix.fresh += usize::from(t.session.is_empty());
        }

        // One run: plan every lane into one buffer, one stacked append,
        // settle every lane from the stacked hidden rows.
        let mut stacked = Vec::new();
        let plans = {
            let (mut lanes, sessions): (Vec<_>, Vec<_>) = batched
                .iter_mut()
                .zip(&obs)
                .map(|(t, o)| (Lane { slot: &mut t.slot, obs: *o }, &t.session))
                .unzip();
            task.plan_batch(&mut lanes, &sessions, &mut stacked)
        };
        let rows: Vec<usize> = plans.iter().map(|p| p.rows).collect();
        for (t, plan) in batched.iter_mut().zip(&plans) {
            let (empty, clear) = (t.session.is_empty(), plan.reanchor);
            mix.reanchored += usize::from(clear && !empty);
            mix.incremental += usize::from(!clear);
            if clear {
                t.session.clear();
            }
        }
        let tokens = Tensor::from_vec([stacked.len() / d, d], stacked);
        let (lm, store) = task.backbone(group);
        let hidden = {
            let mut sessions: Vec<_> = batched.iter_mut().map(|t| &mut t.session).collect();
            append_batched(lm, store, &mut sessions, &tokens, &rows)
        };
        let outs = {
            let mut lanes: Vec<_> = batched
                .iter_mut()
                .zip(&obs)
                .map(|(t, o)| Lane { slot: &mut t.slot, obs: *o })
                .collect();
            task.settle_batch(&mut lanes, &hidden, &rows)
        };

        // The twins, one lane at a time, against the run's rows.
        let mut row = 0;
        for (i, ((t, o), out)) in single.iter_mut().zip(&obs).zip(&outs).enumerate() {
            let at = format!("group {group} tick {tick} lane {i}");
            let plan = task.plan_step(&mut t.slot, o, &t.session);
            assert_eq!(
                (plan.reanchor, plan.tokens.shape()[0]),
                (plans[i].reanchor, rows[i]),
                "{at}"
            );
            let span = row * d..(row + rows[i]) * d;
            assert_eq!(
                bits(plan.tokens.data()),
                bits(&tokens.data()[span.clone()]),
                "{at}: tokens"
            );
            if plan.reanchor {
                t.session.clear();
            }
            let h = t.session.append(lm, store, &plan.tokens);
            assert_eq!(bits(h.data()), bits(&hidden.data()[span]), "{at}: hidden rows");
            let one = task.settle_step(&mut t.slot, o, &h);
            assert_eq!(bits(&one.logits), bits(&out.logits), "{at}: logits");
            match (&one.rollback, &out.rollback) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.drop_rows, b.drop_rows, "{at}: rollback rows");
                    let (a, b) = (a.post_tokens.data(), b.post_tokens.data());
                    assert_eq!(bits(a), bits(b), "{at}: rollback tokens");
                }
                _ => panic!("{at}: one side rolled back, the other did not"),
            }
            rollback(&mut t.session, &one.rollback, lm, store);
            row += rows[i];
        }
        for (t, out) in batched.iter_mut().zip(&outs) {
            rollback(&mut t.session, &out.rollback, lm, store);
        }
    }
    mix
}

/// Carry out a requested candidate rollback.
fn rollback(
    session: &mut InferenceSession,
    plan: &Option<RollbackPlan>,
    lm: &nt_llm::TinyLm,
    store: &nt_nn::ParamStore,
) {
    if let Some(rb) = plan {
        session.truncate(session.len() - rb.drop_rows);
        session.append(lm, store, &rb.post_tokens);
    }
}

/// Six ABR lanes: two fresh, two incremental, one that re-anchors on its
/// first served step, one evicted.
fn abr_lanes() -> (Vec<Vec<AbrObservation>>, Vec<usize>, Vec<bool>) {
    let warm = vec![0, 2, 2 * WINDOW, 3, 5, 0];
    let evict = vec![false, false, false, true, false, false];
    let streams = (0..warm.len())
        .map(|i| AbrObservation::synthetic_stream(80 + i as u64, warm[i] + 3))
        .collect();
    (streams, warm, evict)
}

/// Five CJS lanes over one recorded stream at different offsets, so the
/// candidate counts differ: fresh, incremental, re-anchoring, evicted.
fn cjs_lanes() -> (Vec<Vec<CjsObs>>, Vec<usize>, Vec<bool>) {
    let stream = CjsObs::synthetic_stream(81, 6);
    let warm = vec![0, 3, 2 * WINDOW, 4, 1];
    let evict = vec![false, false, false, true, false];
    let streams = (0..warm.len()).map(|i| stream[5 * i..].to_vec()).collect();
    (streams, warm, evict)
}

/// Six one-shot VP lanes, horizons 1, 4 and 8; the last two carry a
/// shorter history, which takes its own conv pass.
fn vp_lanes() -> Vec<Vec<VpQuery>> {
    let pool = VpSample::synthetic_pool();
    (0..6)
        .map(|i| {
            (0..3)
                .map(|t| {
                    let mut sample = pool[(7 * i + 3 * t) % pool.len()].clone();
                    if i >= 4 {
                        sample.history.drain(..3);
                    }
                    VpQuery { sample, pw: [1, 4, 8][i % 3] }
                })
                .collect()
        })
        .collect()
}

fn candidate_counts(streams: &[Vec<CjsObs>], warm: &[usize]) -> usize {
    let mut counts: Vec<usize> =
        streams.iter().zip(warm).map(|(s, &w)| s[w].snap.candidates.len()).collect();
    counts.sort_unstable();
    counts.dedup();
    counts.len()
}

#[test]
fn abr_run_matches_one_lane_calls() {
    let m = models();
    let (streams, warm, evict) = abr_lanes();
    let mix = check(&m.abr, 0, &streams, &warm, &evict, 3);
    assert!(mix.fresh >= 2 && mix.reanchored >= 1 && mix.incremental >= 3, "ABR lane mix");
}

#[test]
fn cjs_run_matches_one_lane_calls() {
    let m = models();
    let (streams, warm, evict) = cjs_lanes();
    assert!(candidate_counts(&streams, &warm) >= 2, "CJS lanes need different candidate counts");
    let mix = check(&m.cjs, 0, &streams, &warm, &evict, 3);
    assert!(mix.fresh >= 2 && mix.reanchored >= 1 && mix.incremental >= 3, "CJS lane mix");
}

#[test]
fn vp_run_matches_one_lane_calls() {
    let m = models();
    let streams = vp_lanes();
    let n = streams.len();
    check(&m.vp, 0, &streams, &vec![0; n], &vec![false; n], 3);
}

#[test]
fn fleet_runs_match_one_lane_calls() {
    let m = models();
    let fleet = m.fleet();
    let (streams, warm, evict) = abr_lanes();
    let streams: Vec<Vec<FleetObs>> =
        streams.into_iter().map(|s| s.into_iter().map(FleetObs::from).collect()).collect();
    check(&fleet, FLEET_ABR, &streams, &warm, &evict, 3);
    let (streams, warm, evict) = cjs_lanes();
    let streams: Vec<Vec<FleetObs>> =
        streams.into_iter().map(|s| s.into_iter().map(FleetObs::from).collect()).collect();
    check(&fleet, FLEET_CJS, &streams, &warm, &evict, 3);
    let streams: Vec<Vec<FleetObs>> =
        vp_lanes().into_iter().map(|s| s.into_iter().map(FleetObs::from).collect()).collect();
    let n = streams.len();
    check(&fleet, FLEET_VP, &streams, &vec![0; n], &vec![false; n], 3);
}
